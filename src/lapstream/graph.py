"""Mutable undirected weighted graph over a dense node table.

Nodes are non-negative integers, given a position (0, 1, 2, ...) at the
first edge that mentions them and never deleted, so isolated nodes keep
their entries. Degrees are adjacency row sizes (O(1)); weighted degrees
(strengths) are maintained incrementally on every mutation so incremental
centrality steps stay proportional to the size of the change.

There are two writers, the constructor ``Graph(edges)`` and every delta of
:mod:`lapstream.incremental`, and both go through one loop,
``Graph._apply``, the only code that checks an edge. For a delta it is also
the only walk over the edges: it records, as it checks each one, what the
incremental step needs from before the delta, and keeps an undo log so that
a rejected delta leaves the graph as it was. The same loop keeps the two
running figures that tell the weighted incremental step whether its float
arithmetic is exact.

One node table. The graph keeps a node -> position dict, ``_pos``, and the
nodes in position order, which is order of first mention, ``_nodes``. A node
is looked up once, where an edge brings it in; the rows (dicts keyed by the
neighbours' positions) and the strengths are lists indexed by position, and
so are the values of every centrality map (see
:class:`lapstream.centrality.NodeValues`). The kernels and the incremental
step thus index lists where they probed a dict per node. A node is kept as
the object it first came as, and a position as one int object shared by
every row key of it, so a row probe succeeds on an identity check.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from typing import Iterable, Iterator, NamedTuple

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

    :meth:`adjacency` and :meth:`strengths` are indexed by a node's position
    in the node table :meth:`nodes` (see the module docstring). A rejected
    delta drops the positions it created; :meth:`copy` carries the table.

    A Graph is single-writer: no internal locking, safe to hand between
    threads, safe to read concurrently once mutation has stopped.
    """

    __slots__ = ("_pos", "_nodes", "_rows", "_strength", "_num_edges", "_excess", "_inexact")

    def __init__(self, edges: Iterable[tuple] | None = None):
        self._pos: dict[int, int] = {}
        self._nodes: list[int] = []
        self._rows: list[dict[int, float]] = []
        self._strength: list[float] = []
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
        adds, so rows, their order, the strengths, the node table and the
        running figures are as they were.
        Returns ``(s0, w0)`` in order of first mention, keyed by position: s0
        maps every endpoint to its degree ("unweighted") or strength
        ("weighted") before the call, so its keys are the touched nodes, and
        w0 every pair, smaller position first, to its weight before the call,
        None when absent. Both are empty when ``read`` is None.

        A new edge never lowers T; only an upsert or a remove can. So T is
        compared with the bound before every upsert, after the adds and
        when the loop ends, which sees every peak, and a new edge pays for
        the running figures only when its weight is not 1.0.
        """
        rows = self._rows
        strength = self._strength
        pos = self._pos
        nodes = self._nodes
        where = pos.get
        isfinite = math.isfinite
        bound = _EXACT_BOUND
        n0 = n = self._num_edges
        excess0 = excess = self._excess
        inexact0 = inexact = self._inexact
        known = len(nodes)
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
                p = where(u)
                if p is None:
                    p = pos[u] = len(nodes)
                    nodes.append(u)
                    rows.append({})
                    strength.append(0.0)
                q = where(v)
                if q is None:
                    q = pos[v] = len(nodes)
                    nodes.append(v)
                    rows.append({})
                    strength.append(0.0)
                row_p = rows[p]
                row_q = rows[q]
                old = row_p.get(q)
                if delta:
                    if p not in s0:
                        s0[p] = len(row_p) if degrees else strength[p]
                        was[p] = strength[p]
                    if q not in s0:
                        s0[q] = len(row_q) if degrees else strength[q]
                        was[q] = strength[q]
                    pair = (p, q) if p <= q else (q, p)
                    if pair not in w0:
                        w0[pair] = old
                row_p[q] = w
                row_q[p] = w
                if old is None:
                    n += 1
                    strength[p] += w
                    strength[q] += w
                    if w != 1.0:
                        excess += abs(w) - 1.0
                        if w % 1.0:
                            inexact = True
                else:
                    d = w - old
                    strength[p] += d
                    strength[q] += d
                    if w % 1.0 or n + excess > bound:
                        inexact = True
                    excess += abs(w) - abs(old)
            if n + excess > bound:
                inexact = True
            removed: set[tuple[int, int]] = set()
            checked = []
            for u, v in removes:
                p = where(u, -1)
                q = where(v, -1)
                pair = (p, q) if p <= q else (q, p)
                if pair in removed:
                    raise MissingEdgeError(f"cannot remove edge ({u}, {v}) twice")
                if p < 0 or q not in rows[p]:
                    raise MissingEdgeError(f"cannot remove absent edge ({u}, {v})")
                removed.add(pair)
                checked.append(pair)
                if delta:
                    if p not in s0:
                        s0[p] = len(rows[p]) if degrees else strength[p]
                    if q not in s0:
                        s0[q] = len(rows[q]) if degrees else strength[q]
                    if pair not in w0:
                        w0[pair] = rows[p][q]
        except BaseException:
            if delta:
                for (p, q), old in w0.items():
                    if old is None:
                        del rows[p][q], rows[q][p]
                    else:
                        rows[p][q] = rows[q][p] = old
                for p, s in was.items():
                    strength[p] = s
                # nodes are never deleted, so those new to the graph hold the
                # last positions
                for _ in range(len(nodes) - known):
                    del pos[nodes.pop()]
                    rows.pop()
                    strength.pop()
                n, excess, inexact = n0, excess0, inexact0
            raise
        else:
            for p, q in checked:
                w = rows[p].pop(q)
                del rows[q][p]
                n -= 1
                strength[p] -= w
                strength[q] -= w
                if w != 1.0:
                    excess -= abs(w) - 1.0
        finally:
            self._num_edges = n
            self._excess = excess
            self._inexact = inexact or n + excess > bound
        return s0, w0

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        p = self._pos.get(u)
        return p is not None and self._pos.get(v) in self._rows[p]

    def nodes(self) -> list[int]:
        """The node table: every node in position order, which is order of
        first mention. Read-only."""
        return self._nodes

    def edges(self) -> Iterator[Edge]:
        """Each edge once, smaller endpoint first."""
        nodes = self._nodes
        for u, row in zip(nodes, self._rows):
            for q, w in row.items():
                v = nodes[q]
                if u < v:
                    yield Edge(u, v, w)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # -- plumbing ---------------------------------------------------------

    def adjacency(self) -> list[dict[int, float]]:
        """Internal rows by position, each mapping a neighbour's position to
        the edge weight; exposed for the centrality kernels. Read-only."""
        return self._rows

    def strengths(self) -> list[float]:
        """Internal strengths by position, exposed for the kernels. Read-only."""
        return self._strength

    def copy(self) -> Graph:
        g = Graph()
        g._pos = dict(self._pos)
        g._nodes = list(self._nodes)
        g._rows = [dict(row) for row in self._rows]
        g._strength = list(self._strength)
        g._num_edges = self._num_edges
        g._excess = self._excess
        g._inexact = self._inexact
        return g

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
