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
has w = 0 and a node new to the map starts from 0. Both variants run it in
one skeleton of two walks; the map carries its variant (an unweighted
map's scale is None). The apply checks and writes the delta and, in
the same loop, records s0 of every endpoint, keyed by node position (its
keys are the touched nodes), and logs every write ``(j, k, w_old, w_new)``,
None for absent, once: each add as it is written and each remove as it is
checked.
A pair written more than once has a term per write, and over a pair's
writes w_0, w_1, ..., w_n they telescope to the pair term above:

    sum((w_{i+1}^2 - w_i^2) + 2 * (w_{i+1} - w_i) * s0(j))
        = (w_n^2 - w_0^2) + 2 * (w_n - w_0) * s0(j)

so the step adds each log entry's term as it comes, with no second read of
the rows. After the pair terms, one walk over the touched nodes adds each
node's own term and, where its s changed, ``w * 2 * delta_s`` to every
member of its post-delta row. The step's ``computed_count`` is the size of
touched | N(touched), a set built in one call. The variants differ only in
how they read w and s: the unweighted one reads w as presence, 1 or 0
(so only a write that flips it adds a pair term), and s as the degree, so
that ``C = d^2 + d + 2 * sum(d_j)``. One skeleton, two inner loops: only
the walk along a row is written twice, with and without the weight.

Exactness. The difference equals a full recomputation, and telescopes,
only if neither side rounds. The graph stores every finite weight and
strength as an exact int scaled by 2**E (see :mod:`lapstream.graph`), so
both sides compute the exact int C(x) * 2**(2E), whatever the order of
their sums, on any history. A delta that raises E has rescaled s0 and the
log with the graph, so the step first scales the map's live values by
2**(2 * delta_E) to match. The public side divides once by 2**(2E),
correctly rounded (see :mod:`lapstream.centrality`); at E = 0 the values
are the ints themselves, and with m edges of integral weights within
+-2**53, T = sum(|w|) <= m * 2**53 bounds every |s|, so |C(x)| <= s^2 +
3 * T * sum(|w_xj|) <= 4*T^2 and the energy is at most 6*T^2, both below
2**1024 for any m below 2**457. Larger weights can give values past the
float range, which read as :class:`~lapstream.errors.FloatRangeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

from lapstream.centrality import CentralityMap, Variant, lap_cent
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
    weight, or the removal of an absent pair or of one pair twice (both
    :class:`~lapstream.errors.MissingEdgeError`) rejects the whole delta.
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


def lap_cent_add_remove(g: Graph, delta: EdgeDelta, cmap: CentralityMap) -> CentralityMap:
    """One incremental step: apply ``delta`` to ``g`` and update ``cmap`` in place.

    ``cmap`` must be a live map of ``g`` (one that :func:`lap_cent` or an
    earlier step made), batch-equivalent to ``g`` before the delta. On
    return it equals, node for node and bit for bit, a full recomputation
    of the post-delta graph, and its ``computed_count`` is the number of
    centralities brought up to date (touched nodes plus their neighbors).
    Both variants add the exact closed-form difference of the module
    docstring to each of them and evaluate no kernel, in one skeleton of two
    walks: the apply, which checks the delta, records what the step reads
    from before it and logs every write, and one walk over the touched nodes
    after the pair terms, which one loop adds from the log, one term per
    write (their sum over a pair's writes telescopes to the pair's term).
    The map's variant, the one :func:`lap_cent` made it with, decides how a
    write's weights and a node's s are read, and which of two inner loops
    walks a row.
    Both walks index lists by node position: the graph's rows and
    strengths, and the map's values list, which grows by a 0 for each node
    new to the graph, and which a weighted delta that raises the graph's
    scale E shifts first. Copy ``cmap`` first to keep the previous step's
    values. A rejected delta, a kept map (see :func:`run_evolving`) or a
    normalized one, whose values are a tuple, a map of another graph, or a
    stale one, which missed a delta applied to ``g`` (its version is not the
    graph's), raises before ``g`` or ``cmap`` changes. Returns ``cmap``,
    stamped with the graph's new version.
    """
    view = cmap.values
    values = getattr(view, "_values", None)
    if not isinstance(values, list) or view._nodes is not g._nodes or view._version != g._version:
        raise TypeError(
            "cmap is not a live map of g as it is now (a kept or normalized map is read-only); step a live map"
        )
    weighted = view._shift is not None
    adj = g._rows
    s0, log = g._apply(delta.adds, delta.removes, "weighted" if weighted else "unweighted")
    view._version = g._version
    # nodes are never deleted, so the nodes new to the graph hold the last
    # positions, in order of first mention; they start from 0
    values += [0] * (len(adj) - len(values))
    if weighted and view._shift != g._shift:
        # s0 and the log are at the graph's new scale; so are the values now
        d = 2 * (g._shift - view._shift)
        values[:] = [x << d for x in values]
        view._shift = g._shift
    # pair terms, on both ends of every write, which telescope over the
    # writes of a pair to its term in the difference; the unweighted variant
    # reads a weight as presence, so only a write that flips it adds a term
    for u, v, a, b in log:
        if weighted:
            a = a or 0
            b = b or 0
        else:
            a = a is not None
            b = b is not None
        if b != a:
            dw = b - a
            sq = b * b - a * a
            values[u] += sq + 2 * dw * s0[v]
            values[v] += sq + 2 * dw * s0[u]
    # the own term of each touched node u, and w(x, u) * 2 * delta_s(u) for
    # every post-delta neighbor x of u; s is the degree when unweighted
    strength = g._strength
    for u, a in s0.items():
        row = adj[u]
        b = strength[u] if weighted else len(row)
        if b != a:
            values[u] += b * b - a * a
            diff = 2 * (b - a)
            if weighted:
                for x, w in row.items():
                    values[x] += w * diff
            else:
                for x in row:
                    values[x] += diff
    # touched | N(touched): the keys of s0 and their post-delta rows, in one call
    cmap.computed_count = len(set(s0).union(*map(adj.__getitem__, s0)))
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
                lap_cent_add_remove(g, delta, cmap)
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
    produce identical maps. A kept map's values are the step's
    :meth:`~lapstream.centrality.NodeValues.copy`, a tuple over the graph's
    own node table, which every step of the run shares. A delta that cannot be
    applied aborts with :class:`DeltaError` carrying the step index.
    """
    kept = []
    for cmap, _ in evolve(initial, deltas, mode, variant):
        kept.append(CentralityMap(cmap.values.copy(), cmap.computed_count))
    return kept
