"""Batch Laplacian centrality and Laplacian energy.

A node's Laplacian centrality is the drop in graph Laplacian energy caused
by deleting the node and its incident edges. The per-node closed forms are

    unweighted:  d^2 + d + 2 * sum(degrees of neighbors)
    weighted:    s^2 + sum(w_vj * (w_vj + 2 * s_j))    (s = weighted degree)

for a node v, with the sums over the neighbors j of v (Qi et al., 2012).
Values are returned non-normalized; divide by the graph energy via
:func:`normalize` to get values in (0, 1] (guaranteed only for
non-negative weights).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Literal

from lapstream import kernels
from lapstream.errors import ZeroEnergyError
from lapstream.graph import Graph

Variant = Literal["unweighted", "weighted"]


class NodeValues(Mapping):
    """A map's values, read-only, over a graph's node table: the keys are the
    first ``len(values)`` nodes in position order, ``values`` a list (a live
    map, which the incremental step updates and extends) or a tuple (a kept
    step). It reads and compares as a ``dict`` of those keys and values."""

    __slots__ = ("_pos", "_nodes", "_values")

    def __init__(self, pos: dict[int, int], nodes: list[int], values: list | tuple):
        self._pos = pos
        self._nodes = nodes
        self._values = values

    def __getitem__(self, node):
        i = self._pos[node]
        if i >= len(self._values):
            raise KeyError(node)
        return self._values[i]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return islice(self._nodes, len(self._values))

    def __repr__(self) -> str:
        return repr(dict(zip(self._nodes, self._values)))


@dataclass
class CentralityMap:
    """Non-normalized centrality per node, plus how many were brought up to date.

    ``computed_count`` is the number of values the producing call brought
    up to date: the full node count for batch calls, and for incremental
    ones the touched nodes plus their neighbours. It counts updated values,
    not kernel evaluations, and has the same meaning on every path: an
    incremental step updates each of them by an exact closed-form
    difference and evaluates no kernel, unless it is weighted and the
    graph's exactness flag is set, when it re-evaluates the kernel on all
    of them.

    ``values`` is a read-only :class:`NodeValues` view in every map the
    package makes, live or kept by :func:`~lapstream.incremental.run_evolving`;
    compare mode's ``BenchResult.maps`` keep ``dict`` copies.
    """

    values: Mapping[int, float]
    computed_count: int


def evaluate_nodes(g: Graph, nodes: Iterable[int], variant: Variant) -> list:
    """Values of the per-node kernel for the positions ``nodes``, in order."""
    adj = g.adjacency()
    if variant == "weighted":
        return kernels.weighted_values(adj, g.strengths(), nodes)
    if variant == "unweighted":
        return kernels.unweighted_values(adj, nodes)
    raise ValueError(f"unknown variant {variant!r}")


def lap_cent(g: Graph, variant: Variant) -> CentralityMap:
    """Batch centrality of every node, on degrees or on weighted degrees."""
    values = evaluate_nodes(g, range(g.num_nodes), variant)
    return CentralityMap(NodeValues(g._pos, g._nodes, values), g.num_nodes)


def laplacian_energy(g: Graph, variant: Variant) -> float:
    """Graph Laplacian energy (sum of squared Laplacian eigenvalues).

    Closed forms: sum(d^2 + d) unweighted; sum(s^2) + 2*sum(w^2 over
    edges) weighted, i.e. the trace of the squared Laplacian. The two
    agree on unit-weight graphs.
    """
    adj = g.adjacency()
    if variant == "unweighted":
        total = 0
        for row in adj:
            d = len(row)
            total += d * d + d
        return total
    if variant == "weighted":
        total = 0.0
        for s, row in zip(g.strengths(), adj):
            total += s * s
            for w in row.values():
                total += w * w
        return total
    raise ValueError(f"unknown variant {variant!r}")


def normalize(cmap: CentralityMap, energy: float) -> CentralityMap:
    """Divide every value by the graph energy; values land in (0, 1] for
    connected graphs with non-negative weights."""
    if energy == 0:
        raise ZeroEnergyError("graph has zero Laplacian energy (no edges)")
    view = cmap.values
    normalized = NodeValues(view._pos, view._nodes, [x / energy for x in view._values])
    return CentralityMap(normalized, cmap.computed_count)


def write_centralities(cmap: CentralityMap, stream) -> None:
    """Dump ``node,centrality`` lines, ascending node id, 12 significant digits."""
    view = cmap.values
    for v, x in sorted(zip(view, view._values)):
        stream.write(f"{v},{x:.12g}\n")
