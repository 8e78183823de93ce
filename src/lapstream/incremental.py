"""Incremental Laplacian centrality: bring up to date only nodes a delta can touch.

A snapshot transition is an :class:`EdgeDelta` (edges to add, edges to
remove). Centrality is local: a node's value depends only on its own
degree/strength and its neighbors', so after a delta only the endpoints of
changed edges (touched nodes) and their first-order neighbors can change
value. A removed edge touches both its endpoints, so the neighbors can be
gathered on the post-delta graph.

A delta is applied all or nothing by ``Graph._apply``: the removes are all
checked before any is written, and an add or a remove that rejects the
delta undoes the adds written before it, so a rejected delta leaves the
graph, its node table, its row order and the map as they were.

The step: with the closed form of Qi et al.,

    C(x) = s_x^2 + sum(w_xj^2) + 2 * sum(w_xj * s_j)    (j in N(x))

every value can be brought up to date by an exact difference, so the step
need evaluate no kernel. For a node x,

    C1(x) - C0(x) = (s1^2 - s0^2)_x
                    + sum((w1^2 - w0^2) + 2 * (w1 - w0) * s0(j))
                          over the pairs (x, j) whose weight changed
                    + 2 * sum(w1(x, j) * delta_s(j) for j in N1(x))

where 0 and 1 mark the graph before and after the delta, an absent edge
has w = 0 and a node new to the map starts from 0. The identity holds for
any strength table, not only for exact sums of the weights. Both variants
run it in two walks. The apply checks and writes the delta and, in the
same loop, records s0 of every endpoint and w0 of every distinct pair,
None where absent, both keyed by node position (the keys of s0 are the
touched nodes). After the
pair terms, one walk over the touched nodes adds each node's own term
and, where its s changed, ``w * 2 * delta_s`` to every member of its
post-delta row; as it goes it grows touched | N(touched), whose size is
the step's ``computed_count``. The unweighted variant reads w as presence,
a bool that adds as 0 or 1, and s as the degree, so that
``C = d^2 + d + 2 * sum(d_j)`` and its values stay Python ints, which the
difference keeps exact.

Exactness of the weighted step. A weighted value is a float, so the
difference equals a full recomputation bitwise only if no float operation
rounds on either side. The graph keeps T, the sum of |w| over the edges,
and a sticky flag (see :class:`Graph`); while the flag is clear every
weight written has been integral and T has never exceeded B = 2**24.
Every strength is then an exact integer with |s| <= T, because each
running update of it lands on the current incident sum. For a node x let
a = sum(|w_xj|) <= T. Every intermediate result below is an integer, and
an integer float operation is exact while its result stays below 2**53:

- kernel (s^2 + sum(w_xj * (w_xj + 2 * s_j)), see :mod:`lapstream.kernels`):
  s^2 <= T^2; 2 * s_j is within 2*T and w_xj + 2 * s_j within 3*T, so each
  term w_xj * (w_xj + 2 * s_j) is within 3 * |w_xj| * T, and every partial
  sum within T^2 + 3*a*T <= 4*T^2.
- difference: let M = max(T0, T1). |C0(x)| <= 4*M^2; the own term is
  within M^2; inside a pair term 2 * (w1 - w0) is within 4*M and its
  product with s0(j) within 4*M^2, and the pair terms of x sum to at most
  (a0^2 + a1^2) + 2 * (a0 + a1) * M <= 6*M^2; 2 * delta_s is within 4*M,
  and the propagation adds at most 2 * a1 * 2*M = 4*M^2. A value plus any
  part of its pending difference stays within 15*M^2 <= 15 * 2**48 < 2**53.

B = 2**25 would allow 15 * 2**50 > 2**53, hence 2**24. So both sides
compute the exact integer C(x), whatever the order of their sums. No sign
of zero differs either: a sum is -0.0 only when both addends are, the
kernel's first addend s^2 never is, and so no stored value ever is.

The flag must be sticky: a fractional weight, or one above the bound, can
leave rounding in a strength after its edge has gone, and a gate on the
weights present alone lets such a step drift from batch. When the flag is
set before or after the delta, the weighted step falls back to the kernel
on every touched node and neighbor, which is bitwise equal to a full
recomputation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

from lapstream.centrality import CentralityMap, NodeValues, Variant, evaluate_nodes, lap_cent
from lapstream.errors import DeltaError, LapstreamError
from lapstream.graph import Graph


@dataclass
class EdgeDelta:
    """Edge additions and removals taking one snapshot to the next.

    Adds are (u, v, weight) tuples, as every producer in the package
    (the stream builders and :func:`~lapstream.synth.churn_stream`) emits
    them; an :class:`~lapstream.graph.Edge` still works. They are upserts:
    re-adding an existing edge replaces its weight. An edge in both lists
    nets to removal (adds are applied first). A self-loop, a non-finite
    weight or a pair removed twice rejects the whole delta.
    """

    adds: list[tuple[int, int, float]] = field(default_factory=list)
    removes: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_changes(self) -> int:
        return len(self.adds) + len(self.removes)


def apply_delta(g: Graph, delta: EdgeDelta) -> None:
    """Apply adds then removes to ``g``.

    All or nothing: if the delta is rejected ``g`` is left unchanged.
    """
    g._apply(delta.adds, delta.removes, "weighted")


def lap_cent_add_remove(
    g: Graph,
    delta: EdgeDelta,
    cmap: CentralityMap,
    variant: Variant,
) -> CentralityMap:
    """One incremental step: apply ``delta`` to ``g`` and update ``cmap`` in place.

    ``cmap`` must be a live map of ``g`` (one that :func:`lap_cent` or an
    earlier step made), batch-equivalent to ``g`` before the delta. On
    return it equals, node for node and bit for bit, a full recomputation
    of the post-delta graph, and its ``computed_count`` is the number of
    centralities brought up to date (touched nodes plus their neighbors).
    Both variants add the exact closed-form difference of the module
    docstring to each of them and evaluate no kernel, in two walks: the
    apply, which checks the delta and records what the step reads from
    before it, and one walk over the touched nodes after the pair terms.
    Both walks index lists by node position: the graph's rows and
    strengths, and the map's values list, which grows by a 0 for each node
    new to the graph. A weighted step on a graph whose exactness flag is
    set before or after the delta re-evaluates the kernel on all of them
    instead. Copy ``cmap`` first to keep the previous step's values. A
    rejected delta, an unknown variant, a kept map (see :func:`run_evolving`),
    whose values are a tuple, or a map of another graph raises before ``g``
    or ``cmap`` changes. Returns ``cmap``.
    """
    if variant not in ("unweighted", "weighted"):
        raise ValueError(f"unknown variant {variant!r}")
    view = cmap.values
    values = getattr(view, "_values", None)
    if not isinstance(values, list) or view._nodes is not g._nodes:
        raise TypeError("cmap is not a live map of g (a kept map is read-only); step a live map")
    weighted = variant == "weighted"
    adj = g.adjacency()
    s0, w0 = g._apply(delta.adds, delta.removes, variant)
    # nodes are never deleted, so the nodes new to the graph hold the last
    # positions, in order of first mention; they start from 0
    values += [0.0 if weighted else 0] * (len(adj) - len(values))
    if weighted and g._inexact:
        # the keys of s0 are the touched nodes; add their post-delta rows
        recompute = set(s0)
        for x in s0:
            recompute.update(adj[x])
        cmap.computed_count = len(recompute)
        if recompute:
            for x, c in zip(recompute, evaluate_nodes(g, recompute, variant)):
                values[x] = c
        return cmap
    # pair terms, on both ends of every pair whose weight changed
    for (u, v), a in w0.items():
        row = adj[u]
        if weighted:
            a = 0.0 if a is None else a
            b = row.get(v, 0.0)
        else:
            a, b = a is not None, v in row
        if b != a:
            dw = b - a
            sq = b * b - a * a
            values[u] += sq + 2 * dw * s0[v]
            values[v] += sq + 2 * dw * s0[u]
    # the own term of each touched node u, and w(x, u) * 2 * delta_s(u) for
    # every post-delta neighbor x of u, while counting touched | N(touched)
    recompute = set(s0)
    grow = recompute.update
    if weighted:
        strength = g.strengths()
        for u, a in s0.items():
            row = adj[u]
            b = strength[u]
            if b != a:
                values[u] += b * b - a * a
                diff = 2 * (b - a)
                for x, w in row.items():
                    values[x] += w * diff
            grow(row)
    else:
        for u, a in s0.items():
            row = adj[u]
            b = len(row)
            if b != a:
                values[u] += b * b - a * a
                diff = 2 * (b - a)
                for x in row:
                    values[x] += diff
            grow(row)
    cmap.computed_count = len(recompute)
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
    produce identical maps. A kept map's values are a :class:`NodeValues`
    view over a tuple copy of the step's values list and the graph's own
    node table, which every step of the run shares. A delta that cannot be
    applied aborts with :class:`DeltaError` carrying the step index.
    """
    kept = []
    for cmap, _ in evolve(initial, deltas, mode, variant):
        view = cmap.values
        values = NodeValues(view._pos, view._nodes, tuple(view._values))
        kept.append(CentralityMap(values, cmap.computed_count))
    return kept
