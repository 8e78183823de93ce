"""Incremental Laplacian centrality: bring up to date only nodes a delta can touch.

A snapshot transition is an :class:`EdgeDelta` (edges to add, edges to
remove). Centrality is local: a node's value depends only on its own
degree/strength and its neighbors', so after a delta only the endpoints of
changed edges (touched nodes) and their first-order neighbors can change
value. A removed edge touches both its endpoints, so the neighbors can be
gathered on the post-delta graph.

A delta is validated as a whole before anything is mutated, so a rejected
delta leaves the graph and the map as they were.

Unweighted step: with C(x) = d^2 + d + 2 * sum(d_j for j in N(x)), an
untouched neighbor x of a touched node u keeps its own degree and changes
by exactly 2 * delta_d(u) for each touched neighbor u. So the kernel runs
on the touched nodes only, and the neighbors get that difference added
along the touched nodes' adjacency rows. Values are integers, so the
result equals a full recomputation exactly.

Weighted step: the analogue, 2 * w * delta_s(u), would add floating-point
terms in another order than a recomputation does, so the weighted step
keeps evaluating the kernel on every touched node and neighbor, and stays
bitwise equal to a full recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

from lapstream.centrality import CentralityMap, Variant, evaluate_nodes, lap_cent
from lapstream.errors import (
    DeltaError,
    DuplicateEdgeError,
    LapstreamError,
    MissingEdgeError,
    NonFiniteWeightError,
    SelfLoopError,
)
from lapstream.graph import Edge, Graph


@dataclass
class EdgeDelta:
    """Edge additions and removals taking one snapshot to the next.

    Adds are upserts: re-adding an existing edge replaces its weight.
    An edge in both lists nets to removal (adds are applied first). A
    self-loop, a non-finite weight or a pair removed twice rejects the
    whole delta.
    """

    adds: list[Edge] = field(default_factory=list)
    removes: list[tuple[int, int]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.adds and not self.removes

    @property
    def num_changes(self) -> int:
        return len(self.adds) + len(self.removes)


@dataclass
class AffectedSets:
    """Nodes a delta names (touched) and all nodes whose value it can change."""

    touched: set[int]
    recompute: set[int]


def _check_delta(g: Graph, delta: EdgeDelta) -> set[int]:
    """Validate the whole of ``delta`` against ``g`` without mutating it.

    Raises on a self-loop, a non-finite weight, a remove of an edge that is
    neither in ``g`` nor added by the delta, a pair removed twice and, on a
    strict graph, an add of a pair already present. Returns the touched
    nodes.
    """
    isfinite = math.isfinite
    touched: set[int] = set()
    for u, v, w in delta.adds:
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        if not isfinite(w):
            raise NonFiniteWeightError(f"weight {w} on edge ({u}, {v}) is not finite")
        touched.add(u)
        touched.add(v)
    if g.strict:
        seen: set[tuple[int, int]] = set()
        for e in delta.adds:
            pair = e.canonical()
            if pair in seen or g.has_edge(e.u, e.v):
                raise DuplicateEdgeError(f"edge ({e.u}, {e.v}) already present")
            seen.add(pair)
    added: set[tuple[int, int]] | None = None  # built only if a remove needs it
    removed: set[tuple[int, int]] = set()
    for u, v in delta.removes:
        pair = (u, v) if u <= v else (v, u)
        if pair in removed:
            raise MissingEdgeError(f"cannot remove edge ({u}, {v}) twice")
        removed.add(pair)
        if not g.has_edge(u, v):
            if added is None:
                added = {e.canonical() for e in delta.adds}
            if pair not in added:
                raise MissingEdgeError(f"cannot remove absent edge ({u}, {v})")
        touched.add(u)
        touched.add(v)
    return touched


def _degrees_before(g: Graph, delta: EdgeDelta) -> dict[int, int]:
    """Degree of every node ``delta`` names, read before it is applied."""
    adj = g.adjacency()
    ends = [(e.u, e.v) for e in delta.adds] + list(delta.removes)
    return {x: len(adj.get(x, ())) for pair in ends for x in pair}


def _mutate(g: Graph, delta: EdgeDelta) -> None:
    for u, v, w in delta.adds:
        g.add_edge(u, v, w)
    for u, v in delta.removes:
        g.remove_edge(u, v)


def apply_delta(g: Graph, delta: EdgeDelta) -> None:
    """Apply adds then removes to ``g``.

    The whole delta is validated first; if it is rejected ``g`` is left
    unchanged.
    """
    _check_delta(g, delta)
    _mutate(g, delta)


def affected_nodes(g: Graph, delta: EdgeDelta) -> AffectedSets:
    """Apply ``delta`` to ``g`` and return which nodes it can change.

    touched: endpoints of every added or removed edge. recompute: touched
    plus their neighbors. On return ``g`` reflects the full delta; if the
    delta is rejected ``g`` is left unchanged.
    """
    touched = _check_delta(g, delta)
    _mutate(g, delta)
    adj = g.adjacency()
    recompute = set(touched)
    for x in touched:
        recompute.update(adj[x])
    return AffectedSets(touched, recompute)


def lap_cent_add_remove(
    g: Graph,
    delta: EdgeDelta,
    cmap: CentralityMap,
    variant: Variant,
) -> CentralityMap:
    """One incremental step: apply ``delta`` to ``g`` and update ``cmap`` in place.

    ``cmap`` must be the batch-equivalent map of ``g`` before the delta. On
    return it equals, node for node, a full recomputation of the post-delta
    graph, and its ``computed_count`` is the number of centralities brought
    up to date (touched nodes plus their neighbors). Copy ``cmap`` first to
    keep the previous step's values. A rejected delta or an unknown variant
    raises before ``g`` or ``cmap`` changes. Returns ``cmap``.
    """
    if variant not in ("unweighted", "weighted"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "unweighted":
        # read here rather than in the validation both variants share: the
        # weighted step has no use for degrees, and reading them costs it
        degree_before = _degrees_before(g, delta)
    sets = affected_nodes(g, delta)
    values = cmap.values
    if variant == "unweighted":
        # an untouched neighbor x of u changes by exactly 2 * delta_d(u)
        adj = g.adjacency()
        touched = sets.touched
        for u, d in degree_before.items():
            row = adj[u]
            if len(row) != d:
                diff = 2 * (len(row) - d)
                for x in row:
                    if x not in touched:
                        values[x] += diff
        if touched:
            values.update(evaluate_nodes(g, touched, variant))
    elif sets.recompute:
        values.update(evaluate_nodes(g, sets.recompute, variant))
    cmap.computed_count = len(sets.recompute)
    return cmap


def evolve(
    g: Graph,
    deltas: Iterable[EdgeDelta],
    mode: str,
    variant: Variant,
) -> Iterator[tuple[CentralityMap, float]]:
    """The evolving-run driver: yield each step's map and the seconds of its
    centrality work; ``g`` is mutated by every delta.

    Step 0 is a full computation on ``g``. Dynamic mode updates one map in
    place, so a yielded map holds its step only until the next one is asked
    for, and the clock covers the whole step. Batch mode applies each delta
    off the clock and times only the full recomputation. A delta that cannot
    be applied aborts with :class:`DeltaError` carrying the step index.
    """
    if mode not in ("batch", "dynamic"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = perf_counter()
    cmap = lap_cent(g, variant)
    yield cmap, perf_counter() - t0
    for step, delta in enumerate(deltas, start=1):
        try:
            if mode == "dynamic":
                t0 = perf_counter()
                lap_cent_add_remove(g, delta, cmap, variant)
            else:
                apply_delta(g, delta)
                t0 = perf_counter()
                cmap = lap_cent(g, variant)
            seconds = perf_counter() - t0
        except LapstreamError as exc:
            raise DeltaError(step, exc) from exc
        yield cmap, seconds


def run_evolving(
    initial: Graph,
    deltas: Iterable[EdgeDelta],
    mode: str = "dynamic",
    variant: Variant = "unweighted",
) -> list[CentralityMap]:
    """Drive a whole evolving run; ``initial`` is mutated in place.

    Returns one map per step, step 0 included; dynamic and batch mode
    produce identical maps. Dynamic mode copies its map after every step so
    the per-step history survives. A delta that cannot be applied aborts
    with :class:`DeltaError` carrying the step index.
    """
    steps = evolve(initial, deltas, mode, variant)
    if mode == "dynamic":
        return [CentralityMap(dict(m.values), m.computed_count) for m, _ in steps]
    return [m for m, _ in steps]
