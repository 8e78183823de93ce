"""Mutable undirected weighted graph backed by a dict-of-dicts adjacency.

Nodes are non-negative integers, auto-created on the first edge that
mentions them and never deleted, so isolated nodes keep their entries.
Degrees are adjacency row sizes (O(1)); weighted degrees (strengths) are
maintained incrementally on every mutation so incremental centrality steps
stay proportional to the size of the change.
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

    Re-adding an existing edge replaces its weight (upsert) unless the
    graph was created with ``strict=True``, in which case it raises
    :class:`DuplicateEdgeError`; strict mode exists for auditing delta
    streams that should never re-present an edge.

    A Graph is single-writer: no internal locking, safe to hand between
    threads, safe to read concurrently once mutation has stopped.
    """

    __slots__ = ("_adj", "_strength", "_num_edges", "strict")

    def __init__(self, edges: Iterable[tuple] | None = None, strict: bool = False):
        self._adj: dict[int, dict[int, float]] = {}
        self._strength: dict[int, float] = {}
        self._num_edges = 0
        self.strict = strict
        if edges is not None:
            for e in edges:
                self.add_edge(*e)

    # -- mutation ---------------------------------------------------------

    def add_node(self, u: int) -> None:
        if u not in self._adj:
            self._adj[u] = {}
            self._strength[u] = 0.0

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        if not math.isfinite(weight):
            raise NonFiniteWeightError(f"weight {weight} on edge ({u}, {v}) is not finite")
        if weight < 0:
            warnings.warn(
                f"negative weight {weight} on edge ({u}, {v})",
                NegativeWeightWarning,
                stacklevel=2,
            )
        self.add_node(u)
        self.add_node(v)
        row_u = self._adj[u]
        old = row_u.get(v)
        if old is None:
            row_u[v] = weight
            self._adj[v][u] = weight
            self._num_edges += 1
            self._strength[u] += weight
            self._strength[v] += weight
        else:
            if self.strict:
                raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
            row_u[v] = weight
            self._adj[v][u] = weight
            delta = weight - old
            self._strength[u] += delta
            self._strength[v] += delta

    def remove_edge(self, u: int, v: int) -> None:
        row_u = self._adj.get(u)
        if row_u is None or v not in row_u:
            raise MissingEdgeError(f"edge ({u}, {v}) not in graph")
        weight = row_u.pop(v)
        del self._adj[v][u]
        self._num_edges -= 1
        self._strength[u] -= weight
        self._strength[v] -= weight

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
