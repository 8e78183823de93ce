"""Mutable undirected weighted graph backed by a dict-of-dicts adjacency.

Nodes are non-negative integers, auto-created on the first edge that
mentions them and never deleted, so isolated nodes keep their entries.
Degrees are adjacency row sizes (O(1)); weighted degrees (strengths) are
maintained incrementally on every mutation so incremental centrality steps
stay proportional to the size of the change.

There are two writers, the constructor ``Graph(edges)`` and every delta of
:mod:`lapstream.incremental`, and both go through one loop,
``Graph._apply``, the only code that checks an edge. For a delta it is also
the only walk over the edges: it records, as it checks each one, what the
incremental step needs from before the delta, and keeps an undo log so that
a rejected delta leaves the graph as it was. The same loop keeps the two
running figures that tell the weighted incremental step whether its float
arithmetic is exact.

One int object per node. Equal ints need not be the same object: every
parsed line or computed id brings its own, and only -5..256 are cached by
CPython. A dict probe whose key is the very object stored in the dict
succeeds on an identity check; an equal but distinct key costs a rich
comparison against a second object elsewhere in memory. So the graph keeps
an id table, ``Graph._ids``, mapping each node to its canonical object (the
first one it was given), and ``_apply`` passes every node it stores through
it. Adjacency keys, row keys and strength keys, and so the keys of every
centrality map built from them, are then one object per node, and the
incremental step reads a delta's endpoints through the same table. This is a
performance property only: lookups still go by equality, so a graph fed
foreign objects gives the same values, only slower.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from typing import Iterable, Iterator, KeysView, NamedTuple

from lapstream.errors import (
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
)


# T, the sum of |w| over the edges, up to which integral weights keep the
# weighted incremental step exact; see the proof in ``incremental``.
_EXACT_BOUND = 2.0**24

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by this function's caller
    names the first frame outside the package, whichever public function it
    was reached through."""
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    return level


class Edge(NamedTuple):
    u: int
    v: int
    weight: float = 1.0


class Graph:
    """Undirected weighted graph with O(1) amortized edge add/remove.

    ``Graph(edges)`` builds the graph from (u, v) or (u, v, weight) tuples
    in one pass, checking and warning on each edge as a delta does; the
    edges may come from any iterable, a generator included. After that it
    changes only through deltas: :func:`lapstream.incremental.apply_delta`
    and the incremental step.

    Re-adding an existing edge replaces its weight (upsert).

    Two running figures are kept for the weighted incremental step:
    T, the sum of ``|w|`` over the edges, held as ``num_edges`` plus the
    excess ``_excess`` = sum(``|w|`` - 1), which unit-weight edges leave
    alone; and the sticky flag ``_inexact``. The flag is set the first time
    an edge with a non-integral weight is written, or T exceeds
    ``_EXACT_BOUND`` at any point, even partway through one call, and is
    never cleared: strengths are running sums, so a weight that has left
    can still leave its rounding in them. While the flag is clear every
    weight and strength is an integer of magnitude at most T, and T is
    exact. Both are updated only for an edge that passed its checks, a
    rejected delta leaves them as they were (its undo puts back every
    weight and strength it wrote), and :meth:`copy` carries them.

    Every node is stored as one int object, the first the graph was given
    for it: the private id table ``_ids`` maps each node to that object, and
    every key the graph writes goes through it (see the module docstring for
    why). :meth:`copy` carries the table.

    A Graph is single-writer: no internal locking, safe to hand between
    threads, safe to read concurrently once mutation has stopped.
    """

    __slots__ = ("_adj", "_strength", "_ids", "_num_edges", "_excess", "_inexact")

    def __init__(self, edges: Iterable[tuple] | None = None):
        self._adj: dict[int, dict[int, float]] = {}
        self._strength: dict[int, float] = {}
        self._ids: dict[int, int] = {}
        self._num_edges = 0
        self._excess = 0.0
        self._inexact = False
        if edges is not None:
            self._apply(edges, ())

    # -- mutation ---------------------------------------------------------

    def _apply(
        self,
        adds: Iterable[tuple],
        removes: Iterable[tuple[int, int]],
        read: str | None = None,
    ) -> tuple[dict[int, float], dict[tuple[int, int], float | None]]:
        """The one loop that checks and writes edges: upsert ``adds``, (u, v)
        or (u, v, weight), in order, then delete ``removes``.

        Each add is checked before it is written: ``u == v`` raises
        :class:`SelfLoopError`, a NaN or infinite weight or an int too large
        for a float :class:`NonFiniteWeightError`, and a negative weight warns
        :class:`NegativeWeightWarning`. The removes are all checked, against
        the graph with the adds in, before any is written: a pair removed
        twice or a pair not present raises :class:`MissingEdgeError`.

        With ``read`` None, the constructor's case, a bad add raises with the
        edges before it written.
        With ``read`` "unweighted" or "weighted" the call applies a delta, all
        or nothing: any exception before the removes are written undoes the
        adds, so rows, their order, the strengths, the id table and the
        running figures are as they were.
        Returns ``(s0, w0)`` in order of first mention: s0 maps every
        endpoint to its degree ("unweighted") or strength ("weighted") before
        the call, so its keys are the touched nodes, and w0 every canonical
        pair to its weight before the call, None when absent. Both are empty
        when ``read`` is None.

        A new edge never lowers T; only an upsert or a remove can. So T is
        compared with the bound before every upsert, after the adds and
        when the loop ends, which sees every peak, and a new edge pays for
        the running figures only when its weight is not 1.0.
        """
        adj = self._adj
        strength = self._strength
        ids = self._ids
        intern = ids.setdefault
        isfinite = math.isfinite
        bound = _EXACT_BOUND
        n0 = n = self._num_edges
        excess0 = excess = self._excess
        inexact0 = inexact = self._inexact
        known = len(adj)
        delta = read is not None
        degrees = read == "unweighted"
        s0: dict[int, float] = {}
        w0: dict[tuple[int, int], float | None] = {}
        # strengths before the call, for the undo; s0 holds them unless degrees
        was = {} if degrees else s0
        try:
            for e in adds:
                if len(e) == 2:
                    u, v = e
                    w = 1.0
                else:
                    u, v, w = e
                if u == v:
                    raise SelfLoopError(f"self-loop on node {u}")
                if w != 1.0:
                    try:
                        if not isfinite(w):
                            raise NonFiniteWeightError(
                                f"weight {w} on edge ({u}, {v}) is not finite"
                            )
                    except OverflowError:
                        raise NonFiniteWeightError(
                            f"weight on edge ({u}, {v}) is too large for a float"
                        ) from None
                    if w < 0:
                        warnings.warn(
                            f"negative weight {w} on edge ({u}, {v})",
                            NegativeWeightWarning,
                            stacklevel=_outside_stacklevel(),
                        )
                u = intern(u, u)
                v = intern(v, v)
                row_u = adj.get(u)
                if row_u is None:
                    row_u = adj[u] = {}
                    strength[u] = 0.0
                row_v = adj.get(v)
                if row_v is None:
                    row_v = adj[v] = {}
                    strength[v] = 0.0
                old = row_u.get(v)
                if delta:
                    if u not in s0:
                        s0[u] = len(row_u) if degrees else strength[u]
                        was[u] = strength[u]
                    if v not in s0:
                        s0[v] = len(row_v) if degrees else strength[v]
                        was[v] = strength[v]
                    pair = (u, v) if u <= v else (v, u)
                    if pair not in w0:
                        w0[pair] = old
                if old is None:
                    row_u[v] = w
                    row_v[u] = w
                    n += 1
                    strength[u] += w
                    strength[v] += w
                    if w != 1.0:
                        excess += abs(w) - 1.0
                        if w % 1.0:
                            inexact = True
                else:
                    row_u[v] = w
                    row_v[u] = w
                    d = w - old
                    strength[u] += d
                    strength[v] += d
                    if w % 1.0 or n + excess > bound:
                        inexact = True
                    excess += abs(w) - abs(old)
            if n + excess > bound:
                inexact = True
            canon = ids.get
            removed: set[tuple[int, int]] = set()
            checked = []
            for u, v in removes:
                u = canon(u, u)
                v = canon(v, v)
                pair = (u, v) if u <= v else (v, u)
                if pair in removed:
                    raise MissingEdgeError(f"cannot remove edge ({u}, {v}) twice")
                row_u = adj.get(u)
                if row_u is None or v not in row_u:
                    raise MissingEdgeError(f"cannot remove absent edge ({u}, {v})")
                removed.add(pair)
                checked.append((u, v))
                if delta:
                    if u not in s0:
                        s0[u] = len(row_u) if degrees else strength[u]
                    if v not in s0:
                        s0[v] = len(adj[v]) if degrees else strength[v]
                    if pair not in w0:
                        w0[pair] = row_u[v]
        except BaseException:
            if delta:
                for (u, v), old in w0.items():
                    if old is None:
                        del adj[u][v], adj[v][u]
                    else:
                        adj[u][v] = adj[v][u] = old
                strength.update(was)
                # nodes are never deleted, so those new to the graph are the
                # last keys of adj, strength and ids
                for _ in range(len(adj) - known):
                    adj.popitem()
                    strength.popitem()
                    ids.popitem()
                n, excess, inexact = n0, excess0, inexact0
            raise
        else:
            for u, v in checked:
                w = adj[u].pop(v)
                del adj[v][u]
                n -= 1
                strength[u] -= w
                strength[v] -= w
                if w != 1.0:
                    excess -= abs(w) - 1.0
        finally:
            self._num_edges = n
            self._excess = excess
            self._inexact = inexact or n + excess > bound
        return s0, w0

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj.get(u)
        return row is not None and v in row

    def nodes(self) -> KeysView[int]:
        return self._adj.keys()

    def edges(self) -> Iterator[Edge]:
        """Each edge once, smaller endpoint first."""
        for u, row in self._adj.items():
            for v, w in row.items():
                if u < v:
                    yield Edge(u, v, w)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # -- plumbing ---------------------------------------------------------

    def adjacency(self) -> dict[int, dict[int, float]]:
        """Internal adjacency, exposed for the centrality kernels. Read-only."""
        return self._adj

    def strengths(self) -> dict[int, float]:
        """Internal strength table, exposed for the kernels. Read-only."""
        return self._strength

    def copy(self) -> Graph:
        g = Graph()
        g._adj = {u: dict(row) for u, row in self._adj.items()}
        g._strength = dict(self._strength)
        g._ids = dict(self._ids)
        g._num_edges = self._num_edges
        g._excess = self._excess
        g._inexact = self._inexact
        return g

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
