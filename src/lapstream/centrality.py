"""Batch Laplacian centrality and its normalization by the Laplacian energy.

A node's Laplacian centrality is the drop in graph Laplacian energy caused
by deleting the node and its incident edges. The per-node closed forms are

    unweighted:  d^2 + d + 2 * sum(degrees of neighbors)
    weighted:    s^2 + sum(w_vj * (w_vj + 2 * s_j))    (s = weighted degree)

for a node v, with the sums over the neighbors j of v (Qi et al., 2012).
Values are returned non-normalized; divide by the graph energy via
:func:`normalize` to get values in [0, 1] for non-negative weights and in
[-2, 1] for any.

Weights and strengths are exact ints scaled by 2**E (see :mod:`lapstream.graph`),
so weighted values and the energy are the exact ints C(v) * 2**(2E). Where
E > 0 the public side divides them once, correctly rounded; a value past
the float range raises :class:`~lapstream.errors.FloatRangeError` where it is
read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Literal

from lapstream import kernels
from lapstream.errors import FloatRangeError, ZeroEnergyError
from lapstream.graph import Graph

Variant = Literal["unweighted", "weighted"]


def _quotient(x, over: int, node) -> float:
    """``x / over``, correctly rounded to a float; past the float range,
    :class:`FloatRangeError` naming ``node``."""
    try:
        return x / over
    except OverflowError:
        raise FloatRangeError(f"the centrality of node {node} is past the float range") from None


class NodeValues(Mapping):
    """A map's values, read-only, over a graph's node table: the keys are the
    first ``len(values)`` nodes in position order, ``values`` a list (a live
    map, which the incremental step updates and extends) or a tuple (a kept
    step or a normalized map), of exact values scaled by 2**(2 * shift): E
    on a weighted map, None (no weight scale, so the map's variant) on an
    unweighted or a normalized one. A value reads as itself at shift None or
    0, and as its quotient by 2**(2 * shift), correctly rounded, above it.
    It reads and compares as a ``dict`` of those keys and values.
    ``version`` is the stamp of the graph state the values match (see
    :class:`~lapstream.graph.Graph`), which the step and :func:`normalize`
    test by identity; a normalized map matches no state of its graph and
    holds None."""

    __slots__ = ("_pos", "_values", "_shift", "_version")

    def __init__(self, pos: dict[int, int], values: list | tuple, shift=None, version=None):
        self._pos = pos
        self._values = values
        self._shift = shift
        self._version = version

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
        return islice(self._pos, len(self._values))

    def __repr__(self) -> str:
        # a value past the float range prints as the exact Fraction it reads as
        shown = {}
        for v, x in zip(self, self._values):
            try:
                shown[v] = self[v]
            except FloatRangeError:
                shown[v] = Fraction(x, 1 << 2 * self._shift)
        return repr(shown)

    def copy(self) -> NodeValues:
        """A kept copy: the values as a tuple, over the same node table, scale
        and state stamp, which reads as this view reads now whatever later
        steps do."""
        return NodeValues(self._pos, tuple(self._values), self._shift, self._version)


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
    ``BenchResult.maps`` put the same copy behind a ``ChainMap`` front. Each
    keeps the variant :func:`lap_cent` made the map with, which the step
    and :func:`normalize` read from it, and the stamp of the graph state it
    matches: both refuse a map of another state, so a kept map, or a live
    one that missed a delta, is stale once its graph has changed, and a
    normalized map, which holds no stamp, is refused by both. The
    values are exact ints, unweighted and on a weighted graph of integral
    weights (E = 0); on a graph with a fractional weight (E > 0) each reads
    as the correctly rounded float of the exact value, for any history and
    any edge order.
    """

    values: Mapping[int, float]
    computed_count: int


def lap_cent(g: Graph, variant: Variant) -> CentralityMap:
    """Batch centrality of every node, on degrees or on weighted degrees."""
    adj, nodes = g._rows, range(g.num_nodes)
    if variant == "weighted":
        values, shift = kernels.weighted_values(adj, g._strength, nodes), g._shift
    elif variant == "unweighted":
        values, shift = kernels.unweighted_values(adj, nodes), None
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return CentralityMap(NodeValues(g._pos, values, shift, g._version), g.num_nodes)


def normalize(cmap: CentralityMap, g: Graph) -> CentralityMap:
    """Divide every value of ``cmap`` by the Laplacian energy of ``g``, the
    trace of its squared Laplacian, in the map's variant. The map holds that
    energy: summed over all nodes x, the closed form's term 2*sum(w_xj * s_j)
    regroups as 2*sum(s^2), so E = sum(s^2) + sum(w^2 over rows) is
    sum(C) - 2*sum(s^2), with s the degree and w = 1 unweighted; values and
    strengths carry one scale, which cancels. A map of another graph, or of
    another state of ``g``, is a :class:`TypeError`: a kept map is normalized
    against the graph of its own step, so before a later step changes ``g``.
    The result holds no stamp, as it is no state of ``g``: normalizing it
    again, or stepping it, is a TypeError too. Values land in [0, 1] for
    non-negative weights, and in [-2, 1] for any, as a tuple: a node reads
    0.0 where it is isolated, where its edges all weigh 0, or where its ratio
    rounds below the smallest float, on a connected graph too. Each is the
    correctly rounded ratio of two exact values, even where the energy alone
    is past the float range or below it."""
    view = cmap.values
    if getattr(view, "_version", None) is not g._version:
        raise TypeError("cmap is not a map of g as it is now; normalize a map against its own graph state")
    s = map(len, g._rows) if view._shift is None else g._strength
    num = sum(view._values) - 2 * sum(x * x for x in s)
    if num == 0:
        raise ZeroEnergyError("graph has zero Laplacian energy")
    values = tuple(x / num for x in view._values)
    return CentralityMap(NodeValues(view._pos, values), cmap.computed_count)


def write_centralities(cmap: CentralityMap, stream) -> None:
    """Dump ``node,centrality`` lines, ascending node id, 12 significant digits."""
    for v, x in sorted(cmap.values.items()):
        # an int past the float range is a FloatRangeError here
        stream.write(f"{v},{_quotient(x, 1, v):.12g}\n")
