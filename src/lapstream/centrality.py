"""Batch Laplacian centrality and Laplacian energy.

A node's Laplacian centrality is the drop in graph Laplacian energy caused
by deleting the node and its incident edges. The per-node closed forms are

    unweighted:  d^2 + d + 2 * sum(degrees of neighbors)
    weighted:    s^2 + sum(w_vj * (w_vj + 2 * s_j))    (s = weighted degree)

for a node v, with the sums over the neighbors j of v (Qi et al., 2012).
Values are returned non-normalized; divide by the graph energy via
:func:`normalize` to get values in (0, 1] (guaranteed only for
non-negative weights).

Weights and strengths are exact ints scaled by 2**E (see :mod:`lapstream.graph`),
so weighted values and the energy are the exact ints C(v) * 2**(2E). Where
E > 0 the public side divides them once, correctly rounded; a quotient past
the float range raises :class:`~lapstream.errors.FloatRangeError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Literal

from lapstream import kernels
from lapstream.errors import FloatRangeError, ZeroEnergyError
from lapstream.graph import Graph

Variant = Literal["unweighted", "weighted"]


def _quotient(x, over: int, node=None) -> float:
    """``x / over``, correctly rounded to a float; past the float range,
    :class:`FloatRangeError` naming ``node``, or the energy where it is None."""
    try:
        return x / over
    except OverflowError:
        what = "the Laplacian energy" if node is None else f"the centrality of node {node}"
        raise FloatRangeError(f"{what} is past the float range") from None


class NodeValues(Mapping):
    """A map's values, read-only, over a graph's node table: the keys are the
    first ``len(values)`` nodes in position order, ``values`` a list (a live
    map, which the incremental step updates and extends) or a tuple (a kept
    step), of exact values scaled by 2**(2 * shift). A value reads as itself
    at shift 0, and as its quotient by 2**(2 * shift), correctly rounded,
    above it. It reads and compares as a ``dict`` of those keys and values."""

    __slots__ = ("_pos", "_nodes", "_values", "_shift")

    def __init__(self, pos: dict[int, int], nodes: list[int], values: list | tuple, shift=0):
        self._pos = pos
        self._nodes = nodes
        self._values = values
        self._shift = shift

    def __getitem__(self, node):
        i = self._pos[node]
        if i >= len(self._values):
            raise KeyError(node)
        if self._shift:
            return _quotient(self._values[i], 1 << 2 * self._shift, node)
        return self._values[i]

    def __contains__(self, node) -> bool:
        i = self._pos.get(node)
        return i is not None and i < len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return islice(self._nodes, len(self._values))

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def copy(self) -> NodeValues:
        """A kept copy: the values as a tuple, over the same node table and
        scale, which reads as this view reads now whatever later steps do."""
        return NodeValues(self._pos, self._nodes, tuple(self._values), self._shift)


@dataclass
class CentralityMap:
    """Non-normalized centrality per node, plus how many were brought up to date.

    ``computed_count`` is the number of values the producing call brought
    up to date: the full node count for batch calls, and for incremental
    ones the touched nodes plus their neighbours. It counts updated values,
    not kernel evaluations: an incremental step updates each of them by an
    exact closed-form difference and evaluates no kernel.

    ``values`` is a read-only :class:`NodeValues` view in every map the
    package makes, live or a :meth:`NodeValues.copy` kept by
    :func:`~lapstream.incremental.run_evolving`; compare mode's
    ``BenchResult.maps`` put the same copy behind a ``ChainMap`` front. The
    values are exact ints, unweighted and on a weighted graph
    of integral weights (E = 0); on a graph with a fractional weight
    (E > 0) each reads as the correctly rounded float of the exact value,
    for any history and any edge order.
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
    shift = g._shift if variant == "weighted" else 0
    return CentralityMap(NodeValues(g._pos, g._nodes, values, shift), g.num_nodes)


def _energy(g: Graph, variant: Variant) -> tuple[int, int]:
    """The exact Laplacian energy as ``(num, den)``: ``den`` is 2**(2E) on
    the weighted variant and 1 on the unweighted one."""
    adj = g.adjacency()
    if variant == "unweighted":
        total = 0
        for row in adj:
            d = len(row)
            total += d * d + d
        return total, 1
    if variant == "weighted":
        total = 0
        for s, row in zip(g.strengths(), adj):
            total += s * s
            for w in row.values():
                total += w * w
        return total, 1 << 2 * g._shift
    raise ValueError(f"unknown variant {variant!r}")


def laplacian_energy(g: Graph, variant: Variant) -> float:
    """Graph Laplacian energy (sum of squared Laplacian eigenvalues).

    Closed forms: sum(d^2 + d) unweighted; sum(s^2) + 2*sum(w^2 over
    edges) weighted, i.e. the trace of the squared Laplacian. The two
    agree on unit-weight graphs. An int, except on a weighted graph with a
    fractional weight (E > 0), where it is the correctly rounded float.
    """
    num, den = _energy(g, variant)
    return num if den == 1 else _quotient(num, den)


def _divide(cmap: CentralityMap, num: int, den: int) -> CentralityMap:
    """``cmap`` over the energy ``num / den``, each value one correctly
    rounded quotient of exact ints."""
    if num == 0:
        raise ZeroEnergyError("graph has zero Laplacian energy (no edges)")
    view = cmap.values
    num <<= 2 * view._shift
    values = [_quotient(x * den, num, v) for v, x in zip(view, view._values)]
    return CentralityMap(NodeValues(view._pos, view._nodes, values), cmap.computed_count)


def normalize(cmap: CentralityMap, energy: float) -> CentralityMap:
    """Divide every value by the graph energy; values land in (0, 1] for
    connected graphs with non-negative weights. Each is one correctly
    rounded division of the exact value by the exact ``energy``; where E > 0
    the float :func:`laplacian_energy` gives is itself rounded, and
    :func:`normalize_exact` divides by the energy before that rounding."""
    return _divide(cmap, *energy.as_integer_ratio())


def normalize_exact(cmap: CentralityMap, g: Graph, variant: Variant) -> CentralityMap:
    """``normalize(cmap, laplacian_energy(g, variant))`` without rounding the
    energy first, for ``cmap`` a map of ``g``: each value is the correctly
    rounded ratio of two exact values, even where the energy alone is past
    the float range or below it."""
    return _divide(cmap, *_energy(g, variant))


def write_centralities(cmap: CentralityMap, stream) -> None:
    """Dump ``node,centrality`` lines, ascending node id, 12 significant digits."""
    for v, x in sorted(cmap.values.items()):
        # an int past the float range is a FloatRangeError here
        stream.write(f"{v},{_quotient(x, 1, v):.12g}\n")
