"""Mutable undirected weighted graph over a dense node table.

Nodes are non-negative integers, given a position (0, 1, 2, ...) at the
first edge that mentions them and never deleted, so isolated nodes keep
their entries. Degrees are adjacency row sizes (O(1)); weighted degrees
(strengths) are kept up to date by every delta as it writes, so incremental
centrality steps stay proportional to the size of the change. The
constructor writes the rows only, and then sums every strength off its row,
and the edge count off the row sizes, once.

There are two writers, the constructor ``Graph(edges)`` and every delta of
:mod:`lapstream.incremental`, and both go through one loop,
``Graph._apply``, the only code that checks an edge. For a delta it is also
the only walk over the edges: it records, as it checks each one, the old
strength of every endpoint, and logs every write once, old and new weight.
The incremental step reads its pair terms from that log. The undo of a
failed call reads nothing else: it replays the log newest first, putting
back what was there whether or not each write was made, reads each
endpoint's strength off its row and drops the nodes the call made, every
node for the constructor. The same loop stores every weight as an exact
``int``.

Exact weights. Every finite float is a dyadic rational, num / 2**e. The
graph keeps one scale exponent E, ``_shift``: the largest e of any weight
written, never lowered. It stores every weight w, and every strength, as
the exact int w * 2**E, so that sums and products of them are exact in any
order. A weight finer than 2**-E rescales the rows, the strengths and what
the loop has recorded, in O(n + m), and stores them with the new E in one
statement, so that an interrupt finds the rows at the E the undo reads; a
rejected delta undoes the rescale too. At E = 0, the graph of integral
weights, nothing is scaled.

One node table. The graph keeps one node -> position dict, ``_pos``, whose
keys are in position order, which is order of first mention: a new node
takes the next position as it is inserted, and the undo of a rejected delta
pops the newest keys first. A node is looked up once, where an edge brings
it in; the rows (dicts keyed by the neighbours' positions) and the strengths
are lists indexed by position, and so are the values of every centrality map
(see :class:`lapstream.centrality.NodeValues`). The kernels and the incremental
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


# the largest weight of the integral fast path: every int up to it converts to
# a float exactly, so both paths store the float a weight converts to
_INT_WEIGHT_LIMIT = 2**53

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _unscale(rows: list[dict[int, int]], strength: list[int], d: int) -> None:
    """Shift every weight and every strength ``d`` bits right, in place, so
    that the rows keep their order."""
    if d:
        for row in rows:
            for q, w in row.items():
                row[q] = w >> d
        strength[:] = [s >> d for s in strength]


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by this function's caller
    names the first frame outside the package, whichever public function
    led to it."""
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
    in one pass, checking and warning on each edge as a delta does (a bad
    edge raises, leaving no graph); the edges may come from any iterable,
    a generator included. After that it changes only through deltas:
    :func:`lapstream.incremental.apply_delta` and the incremental step.

    Re-adding an existing edge replaces its weight (upsert).

    Every weight, taken as the float it converts to, is stored as the exact
    int weight * 2**E (a missing weight as 2**E; see the module docstring).
    A rejected delta leaves E unchanged, :meth:`copy` carries it, and
    :meth:`edges` gives the weights back unscaled.

    The rows, ``_rows``, and the strengths, ``_strength``, are slots indexed
    by a node's position in the node table ``_pos`` (see the module
    docstring), which the kernels and the step read directly. A rejected
    delta drops the positions it created; :meth:`copy` carries the table.

    The state stamp, ``_version``, is a fresh ``object()`` made at
    construction and renewed before a delta's first write; only an undo that
    runs to its end gives the old one back, and :meth:`copy` makes its own,
    so no two states share one. A centrality map holds the stamp of the
    state it matches, and the step and :func:`~lapstream.centrality.normalize`
    refuse a map whose stamp is not the graph's, by one identity test.

    A Graph is single-writer: no internal locking, safe to hand between
    threads, safe to read concurrently once mutation has stopped.
    """

    __slots__ = ("_pos", "_rows", "_strength", "_num_edges", "_shift", "_version")

    def __init__(self, edges: Iterable[tuple] | None = None):
        self._pos: dict[int, int] = {}
        self._rows: list[dict[int, int]] = []
        self._strength: list[int] = []
        self._num_edges = 0
        self._shift = 0
        self._version = object()
        if edges is not None:
            self._apply(edges, ())

    # -- mutation ---------------------------------------------------------

    def _apply(
        self,
        adds: Iterable[tuple],
        removes: Iterable[tuple[int, int]],
        read: str | None = None,
    ) -> tuple[dict[int, int], list[tuple[int, int, int | None, int | None]]]:
        """The one loop that checks and writes edges: upsert ``adds``, (u, v)
        or (u, v, weight), in order, then delete ``removes``.

        Each add is checked before it is written: ``u == v`` raises
        :class:`SelfLoopError`, a NaN or infinite weight or an int too large
        for a float :class:`NonFiniteWeightError`, and a negative weight warns
        :class:`NegativeWeightWarning`; the weight is then stored as an
        ``int`` scaled by 2**E (see :class:`Graph`). At E = 0 a positive
        integral weight within 2**53, the common case, goes straight to its
        ``int``; any other goes through ``float.as_integer_ratio``, and one
        finer than 2**-E raises E, storing what is written and recorded,
        rescaled, with it in one statement.
        The removes are all checked, against the graph with the adds in,
        before any is written: a pair removed twice or a pair not present
        raises :class:`MissingEdgeError`.

        The call is all or nothing: any exception undoes the writes and the
        rescale, so the rows, the strengths, the node table, the edge count,
        E and, last, the stamp are as they were; a call that an interrupt cuts
        short where no undo runs to its end keeps the stamp it took before its
        first write. ``read`` "unweighted" or "weighted" applies a delta; None
        is the constructor's call on an empty graph, which the undo leaves
        empty. A delta updates the strengths and the edge count as it writes;
        the constructor writes the rows only, and after its last add sums
        each strength off its row and halves the rows' total size for the
        edge count, both exact in any order.
        A check raises before any remove is written, so it keeps the rows'
        order; a cut-short commit of the removes puts its pairs back at the
        ends of their rows.
        Returns ``(s0, log)``, keyed by position. s0 maps every endpoint, in
        order of first mention, to its degree ("unweighted") or strength
        ("weighted", at the E of the return) before the call, so its keys are
        the touched nodes. The log holds one ``(p, q, old, new)`` per write:
        each add as it is written, ``old`` None for an absent pair, then each
        remove as it is checked, ``old`` its weight after the adds and
        ``new`` None. A pair written twice has two entries, so its weights
        run from its first ``old`` to its last ``new``, and the undo replays
        the log newest first. Both are empty when ``read`` is None.
        """
        rows = self._rows
        strength = self._strength
        pos = self._pos
        where = pos.get
        isfinite = math.isfinite
        limit = _INT_WEIGHT_LIMIT
        n = self._num_edges
        shift0 = shift = self._shift
        one = 1 << shift
        known = len(rows)
        delta = read is not None
        degrees = read == "unweighted"
        s0: dict[int, int] = {}
        log: list[tuple[int, int, int | None, int | None]] = []
        write = log.append
        stamp, self._version = self._version, object()
        try:
            for e in adds:
                if len(e) == 2:
                    u, v = e
                    w = 1
                else:
                    u, v, w = e
                if u == v:
                    raise SelfLoopError(f"self-loop on node {u}")
                if w == 1:
                    w = one  # 1.0 and True too, so that unit weights are ints
                elif not shift and 0 < w <= limit and not w % 1:
                    w = int(w)
                else:
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
                    # the float w is num / 2**k exactly, with den = 2**k
                    num, den = float(w).as_integer_ratio()
                    k = den.bit_length() - 1
                    if k > shift:
                        # a finer weight: everything written or recorded so far,
                        # times 2**d, stored with E in one statement, so that an
                        # interrupt finds the rows at the E the undo reads; s0
                        # may lag, as the undo reads only its keys
                        d = k - shift
                        rows[:], strength[:], log[:], shift = (
                            [{q: x << d for q, x in row.items()} for row in rows],
                            [s << d for s in strength],
                            [(p, q, a if a is None else a << d, b << d) for p, q, a, b in log],
                            k,
                        )
                        if not degrees:
                            for x in s0:
                                s0[x] <<= d
                        one = 1 << k
                    w = num << (shift - k)
                p = where(u)
                if p is None:
                    p = pos[u] = len(rows)
                    rows.append({})
                    strength.append(0)
                q = where(v)
                if q is None:
                    q = pos[v] = len(rows)
                    rows.append({})
                    strength.append(0)
                if not delta:
                    rows[p][q] = rows[q][p] = w
                    continue
                row_p = rows[p]
                row_q = rows[q]
                old = row_p.get(q)
                if p not in s0:
                    s0[p] = len(row_p) if degrees else strength[p]
                if q not in s0:
                    s0[q] = len(row_q) if degrees else strength[q]
                write((p, q, old, w))
                row_p[q] = w
                row_q[p] = w
                if old is None:
                    n += 1
                    strength[p] += w
                    strength[q] += w
                else:
                    d = w - old
                    strength[p] += d
                    strength[q] += d
            if not delta:
                # the constructor starts from an empty graph, so its strengths
                # are its rows' sums and its edge count half their sizes
                strength[:] = map(sum, map(dict.values, rows))
                n = sum(map(len, rows)) // 2
            gone: dict[tuple[int, int], int] = {}
            for u, v in removes:
                # a pair removed before is present, so the two faults exclude
                # each other and the order of their checks is free
                try:
                    p = pos[u]
                    q = pos[v]
                    w = rows[p][q]
                except KeyError:
                    raise MissingEdgeError(f"cannot remove absent edge ({u}, {v})") from None
                pair = (p, q) if p <= q else (q, p)
                if pair in gone:
                    raise MissingEdgeError(f"cannot remove edge ({u}, {v}) twice")
                gone[pair] = w
                if p not in s0:
                    s0[p] = len(rows[p]) if degrees else strength[p]
                if q not in s0:
                    s0[q] = len(rows[q]) if degrees else strength[q]
                write((p, q, w, None))
            for (p, q), w in gone.items():
                del rows[p][q], rows[q][p]
                n -= 1
                strength[p] -= w
                strength[q] -= w
            self._num_edges, self._shift = n, shift
        except BaseException:
            # a pair's writes go back newest first, to its first old weight,
            # whether each was made or not; the strengths are then read off
            # the rows, as s0 holds every endpoint written
            for p, q, old, _ in reversed(log):
                if old is None:
                    rows[p].pop(q, None)
                    rows[q].pop(p, None)
                else:
                    rows[p][q] = rows[q][p] = old
            for x in s0:
                strength[x] = sum(rows[x].values())
            # nodes are never deleted, so those new to the graph hold the
            # last positions, and are the newest keys of pos
            del rows[known:], strength[known:]
            for _ in range(len(pos) - known):
                pos.popitem()
            # every weight and strength is a multiple of 2**(shift - shift0)
            # again, so the rescale's undo is exact
            _unscale(rows, strength, shift - shift0)
            self._version = stamp
            raise
        return s0, log

    # -- queries ----------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Each edge once as a plain (u, v, weight) tuple, smaller endpoint
        first. A weight reads as it is stored at E = 0, whatever E: an ``int``
        where it is integral, else the float it stands for."""
        nodes = list(self._pos)
        shift = self._shift
        scale = 1 << shift
        for u, row in zip(nodes, self._rows):
            for q, w in row.items():
                v = nodes[q]
                if u < v:
                    if shift:
                        w = w / scale if w % scale else w >> shift
                    yield u, v, w

    @property
    def num_nodes(self) -> int:
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def copy(self) -> Graph:
        g = Graph()
        g._pos = dict(self._pos)
        g._rows = [dict(row) for row in self._rows]
        g._strength = list(self._strength)
        g._num_edges = self._num_edges
        g._shift = self._shift
        return g

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
