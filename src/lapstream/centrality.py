"""Batch Laplacian centrality, Laplacian energy, and the node-deletion oracle.

A node's Laplacian centrality is the drop in graph Laplacian energy caused
by deleting the node and its incident edges. The per-node closed forms are

    unweighted:  d^2 + d + 2 * sum(degrees of neighbors)
    weighted:    s^2 - sub + 2 * cw      (s = weighted degree)

for a node v, where cw = sum(w_vj^2) and sub = sum((s_j - w_vj)^2 - s_j^2)
over the neighbors j of v. Values are returned
non-normalized; divide by the graph energy via :func:`normalize` to get
values in (0, 1] (guaranteed only for non-negative weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from lapstream import kernels
from lapstream.errors import UnknownNodeError, ZeroEnergyError
from lapstream.graph import Graph

Variant = Literal["unweighted", "weighted"]


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
    """

    values: dict[int, float]
    computed_count: int


def evaluate_nodes(g: Graph, nodes: Iterable[int], variant: Variant) -> dict[int, float]:
    """Run the per-node kernel over ``nodes`` on the current graph state."""
    adj = g.adjacency()
    if variant == "weighted":
        return kernels.weighted_values(adj, g.strengths(), nodes)
    if variant == "unweighted":
        return kernels.unweighted_values(adj, nodes)
    raise ValueError(f"unknown variant {variant!r}")


def lap_cent(g: Graph, variant: Variant) -> CentralityMap:
    """Batch centrality of every node, on degrees or on weighted degrees."""
    return CentralityMap(evaluate_nodes(g, g.nodes(), variant), g.num_nodes)


def laplacian_energy(g: Graph, variant: Variant) -> float:
    """Graph Laplacian energy (sum of squared Laplacian eigenvalues).

    Closed forms: sum(d^2 + d) unweighted; sum(s^2) + 2*sum(w^2 over
    edges) weighted, i.e. the trace of the squared Laplacian. The two
    agree on unit-weight graphs.
    """
    adj = g.adjacency()
    if variant == "unweighted":
        total = 0
        for row in adj.values():
            d = len(row)
            total += d * d + d
        return total
    if variant == "weighted":
        strength = g.strengths()
        total = 0.0
        for v, row in adj.items():
            s = strength[v]
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
    return CentralityMap(
        {v: value / energy for v, value in cmap.values.items()},
        cmap.computed_count,
    )


def delta_energy_oracle(g: Graph, v: int, variant: Variant) -> float:
    """Centrality of ``v`` computed the definitional way: delete the node,
    re-evaluate the energy, return the drop.

    Independent of the per-node closed forms; exists to validate them.
    """
    if not g.has_node(v):
        raise UnknownNodeError(f"node {v} not in graph")
    reduced = g.copy()
    # isolating v == deleting v: a degree-0 node contributes nothing to energy
    for j, _ in list(reduced.neighbors(v)):
        reduced.remove_edge(v, j)
    return laplacian_energy(g, variant) - laplacian_energy(reduced, variant)


def write_centralities(cmap: CentralityMap, stream) -> None:
    """Dump ``node,centrality`` lines, ascending node id, 12 significant digits."""
    for v in sorted(cmap.values):
        stream.write(f"{v},{cmap.values[v]:.12g}\n")
