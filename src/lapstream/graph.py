"""Mutable undirected weighted graph backed by a dict-of-dicts adjacency.

Nodes are non-negative integers, auto-created on the first edge that
mentions them and never deleted, so isolated nodes keep their entries.
Degrees are adjacency row sizes (O(1)); weighted degrees (strengths) are
maintained incrementally on every mutation so incremental centrality steps
stay proportional to the size of the change.

Every writer goes through one mutation loop, ``Graph._apply``: the bulk
constructor ``Graph(edges)``, :meth:`Graph.add_edge`, :meth:`Graph.remove_edge`
and the incremental step's delta apply. The loop validates each edge as it
goes unless its caller has already validated the whole batch, so a delta
(checked whole by ``incremental._check_delta``) is validated once, not once
more per edge. The same loop keeps the two running figures that tell the
weighted incremental step whether its float arithmetic is exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ItemsView, Iterable, Iterator, KeysView, NamedTuple

from lapstream.errors import (
    DuplicateEdgeError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
    UnknownNodeError,
)


# T, the sum of |w| over the edges, up to which integral weights keep the
# weighted incremental step exact; see the proof in ``incremental``.
_EXACT_BOUND = 2.0**24


class Edge(NamedTuple):
    u: int
    v: int
    weight: float = 1.0

    def canonical(self) -> tuple[int, int]:
        """Undirected identity of the edge: smaller endpoint first."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass(frozen=True)
class GraphStats:
    num_nodes: int
    num_edges: int
    max_degree: int
    avg_degree: float


class Graph:
    """Undirected weighted graph with O(1) amortized edge add/remove.

    ``Graph(edges)`` builds the graph from (u, v) or (u, v, weight) tuples
    in one pass, validating and warning on each edge as :meth:`add_edge`
    does; the edges may come from any iterable, a generator included.

    Re-adding an existing edge replaces its weight (upsert) unless the
    graph was created with ``strict=True``, in which case it raises
    :class:`DuplicateEdgeError`; strict mode exists for auditing delta
    streams that should never re-present an edge.

    Two running figures are kept for the weighted incremental step:
    T, the sum of ``|w|`` over the edges, held as ``num_edges`` plus the
    excess ``_excess`` = sum(``|w|`` - 1), which unit-weight edges leave
    alone; and the sticky flag ``_inexact``. The flag is set the first time
    an edge with a non-integral weight is written, or T exceeds
    ``_EXACT_BOUND`` at any point, even partway through one call, and is
    never cleared: strengths are running sums, so a weight that has left
    can still leave its rounding in them. While the flag is clear every
    weight and strength is an integer of magnitude at most T, and T is
    exact. Both are updated only for an edge that passed validation, and
    :meth:`copy` carries them.

    A Graph is single-writer: no internal locking, safe to hand between
    threads, safe to read concurrently once mutation has stopped.
    """

    __slots__ = ("_adj", "_strength", "_num_edges", "_excess", "_inexact", "strict")

    def __init__(self, edges: Iterable[tuple] | None = None, strict: bool = False):
        self._adj: dict[int, dict[int, float]] = {}
        self._strength: dict[int, float] = {}
        self._num_edges = 0
        self._excess = 0.0
        self._inexact = False
        self.strict = strict
        if edges is not None:
            self._apply(edges, (), True)

    # -- mutation ---------------------------------------------------------

    def add_node(self, u: int) -> None:
        if u not in self._adj:
            self._adj[u] = {}
            self._strength[u] = 0.0

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add edge (u, v) or replace its weight.

        Raises :class:`SelfLoopError` if ``u == v``,
        :class:`NonFiniteWeightError` on a NaN or infinite weight and, on a
        strict graph, :class:`DuplicateEdgeError` if the edge is present;
        warns :class:`NegativeWeightWarning` on a negative weight.
        """
        self._apply(((u, v, weight),), (), True)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge (u, v); raises :class:`MissingEdgeError` if absent."""
        self._apply((), ((u, v),), True)

    def _apply(
        self, adds: Iterable[tuple], removes: Iterable[tuple[int, int]], check: bool
    ) -> None:
        """The one mutation loop: upsert ``adds``, (u, v) or (u, v, weight),
        in order, then delete ``removes``.

        With ``check`` each edge is validated before it is written, as
        :meth:`add_edge` and :meth:`remove_edge` document, and a bad edge
        raises with the edges before it applied. Without it the caller has
        validated the whole batch against this graph. The edge count, the
        excess and the flag are kept in locals and stored however the loop
        ends.

        A new edge never lowers T; only an upsert or a remove can. So T is
        compared with the bound before every upsert, after the adds and
        when the loop ends, which sees every peak, and a new edge pays for
        the running figures only when its weight is not 1.0.
        """
        adj = self._adj
        strength = self._strength
        strict = self.strict
        isfinite = math.isfinite
        bound = _EXACT_BOUND
        n = self._num_edges
        excess = self._excess
        inexact = self._inexact
        try:
            for e in adds:
                if len(e) == 2:
                    u, v = e
                    w = 1.0
                    if check and u == v:
                        raise SelfLoopError(f"self-loop on node {u}")
                else:
                    u, v, w = e
                    if check:
                        if u == v:
                            raise SelfLoopError(f"self-loop on node {u}")
                        if not isfinite(w):
                            raise NonFiniteWeightError(
                                f"weight {w} on edge ({u}, {v}) is not finite"
                            )
                        if w < 0:
                            warnings.warn(
                                f"negative weight {w} on edge ({u}, {v})",
                                NegativeWeightWarning,
                                stacklevel=3,
                            )
                row_u = adj.get(u)
                if row_u is None:
                    row_u = adj[u] = {}
                    strength[u] = 0.0
                row_v = adj.get(v)
                if row_v is None:
                    row_v = adj[v] = {}
                    strength[v] = 0.0
                old = row_u.get(v)
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
                    if check and strict:
                        raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
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
            for u, v in removes:
                row_u = adj.get(u)
                if check and (row_u is None or v not in row_u):
                    raise MissingEdgeError(f"edge ({u}, {v}) not in graph")
                w = row_u.pop(v)
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

    # -- queries ----------------------------------------------------------

    def has_node(self, u: int) -> bool:
        return u in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj.get(u)
        return row is not None and v in row

    def neighbors(self, u: int) -> ItemsView[int, float]:
        """(neighbor, weight) pairs of ``u``; empty for isolated nodes."""
        row = self._adj.get(u)
        if row is None:
            raise UnknownNodeError(f"node {u} not in graph")
        return row.items()

    def degree(self, u: int) -> int:
        row = self._adj.get(u)
        if row is None:
            raise UnknownNodeError(f"node {u} not in graph")
        return len(row)

    def strength(self, u: int) -> float:
        """Weighted degree: sum of incident edge weights."""
        s = self._strength.get(u)
        if s is None:
            raise UnknownNodeError(f"node {u} not in graph")
        return s

    def edge_weight(self, u: int, v: int) -> float:
        row = self._adj.get(u)
        if row is None or v not in row:
            raise MissingEdgeError(f"edge ({u}, {v}) not in graph")
        return row[v]

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

    def stats(self) -> GraphStats:
        n = len(self._adj)
        if n == 0:
            return GraphStats(0, 0, 0, 0.0)
        max_deg = max(len(row) for row in self._adj.values())
        return GraphStats(n, self._num_edges, max_deg, 2.0 * self._num_edges / n)

    # -- plumbing ---------------------------------------------------------

    def adjacency(self) -> dict[int, dict[int, float]]:
        """Internal adjacency, exposed for the centrality kernels. Read-only."""
        return self._adj

    def strengths(self) -> dict[int, float]:
        """Internal strength table, exposed for the kernels. Read-only."""
        return self._strength

    def copy(self) -> Graph:
        g = Graph(strict=self.strict)
        g._adj = {u: dict(row) for u, row in self._adj.items()}
        g._strength = dict(self._strength)
        g._num_edges = self._num_edges
        g._excess = self._excess
        g._inexact = self._inexact
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    __hash__ = None  # mutable

    def __contains__(self, u: int) -> bool:
        return u in self._adj

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
