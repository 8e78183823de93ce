"""Incremental Laplacian centrality: bring up to date only nodes a delta can touch.

A snapshot transition is an :class:`EdgeDelta` (edges to add, edges to
remove). Centrality is local: a node's value depends only on its own
degree/strength and its neighbors', so after a delta only the endpoints of
changed edges (touched nodes) and their first-order neighbors can change
value. A removed edge touches both its endpoints, so the neighbors can be
gathered on the post-delta graph.

A delta is validated as a whole before anything is mutated, so a rejected
delta leaves the graph and the map as they were.

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
run it, in four stages: read s0 of every endpoint and w0 of every distinct
canonical pair before the delta; apply the delta with
:func:`affected_nodes`; add the own term and the pair terms to the touched
nodes; and for each node whose s changed, add ``w * 2 * delta_s`` to every
member of its post-delta row. The unweighted variant reads w as presence,
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

- kernel (s^2 - sub + 2 * cw, see :mod:`lapstream.centrality`): s^2 and
  a partial sum of cw are at most T^2. rem = s_j - w_xj is the sum of the
  other weights at j, so rem^2 and s_j^2 are at most T^2, and each term
  rem^2 - s_j^2 = w_xj^2 - 2 * w_xj * s_j is within 3 * |w_xj| * T; a
  partial sum of sub is within 3*a*T <= 3*T^2, and every partial sum of
  the kernel within 6*T^2.
- difference: let M = max(T0, T1). |C0(x)| <= 4*M^2; the own term is
  within M^2; inside a pair term 2 * (w1 - w0) is within 4*M and its
  product with s0(j) within 4*M^2, and the pair terms of x sum to at most
  (a0^2 + a1^2) + 2 * (a0 + a1) * M <= 6*M^2; 2 * delta_s is within 4*M,
  and the propagation adds at most 2 * a1 * 2*M = 4*M^2. A value plus any
  part of its pending difference stays within 15*M^2 <= 15 * 2**48 < 2**53.

B = 2**25 would allow 15 * 2**50 > 2**53, hence 2**24. So both sides
compute the exact integer C(x), whatever the order of their sums. No sign
of zero differs either: a sum is -0.0 only when both addends are, the
kernel's last addend 2 * cw never is, and so no stored value ever is.

The flag must be sticky: a fractional weight, or one above the bound, can
leave rounding in a strength after its edge has gone, and a gate on the
weights present alone lets such a step drift from batch. When the flag is
set before or after the delta, the weighted step falls back to the kernel
on every touched node and neighbor, which is bitwise equal to a full
recomputation by construction.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Iterable, Iterator

from lapstream.centrality import CentralityMap, Variant, evaluate_nodes, lap_cent
from lapstream.errors import (
    DeltaError,
    DuplicateEdgeError,
    LapstreamError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
)
from lapstream.graph import Edge, Graph

# the row read for a node not yet in the graph
_NO_ROW = MappingProxyType({})


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


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by this function's caller
    names the first frame outside this module, so a warning reached through
    :func:`lap_cent_add_remove` or :func:`run_evolving` names their caller."""
    frame = sys._getframe(1)
    here = frame.f_code.co_filename
    level = 1
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
        level += 1
    return level


def _check_delta(g: Graph, delta: EdgeDelta) -> set[int]:
    """Validate the whole of ``delta`` against ``g`` without mutating it.

    Raises on a self-loop, a non-finite weight, a remove of an edge that is
    neither in ``g`` nor added by the delta, a pair removed twice and, on a
    strict graph, an add of a pair already present; warns on a negative
    weight, as :meth:`Graph.add_edge` does. Returns the touched nodes.
    """
    isfinite = math.isfinite
    touched: set[int] = set()
    for u, v, w in delta.adds:
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        if not isfinite(w):
            raise NonFiniteWeightError(f"weight {w} on edge ({u}, {v}) is not finite")
        if w < 0:
            warnings.warn(
                f"negative weight {w} on edge ({u}, {v})",
                NegativeWeightWarning,
                stacklevel=_outside_stacklevel(),
            )
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


def _mutate(g: Graph, delta: EdgeDelta) -> None:
    """Apply a delta ``_check_delta`` has accepted, without checking it again."""
    g._apply(delta.adds, delta.removes, False)


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
    return it equals, node for node and bit for bit, a full recomputation
    of the post-delta graph, and its ``computed_count`` is the number of
    centralities brought up to date (touched nodes plus their neighbors).
    Both variants add the exact closed-form difference of the module
    docstring to each of them and evaluate no kernel; a weighted step on a
    graph whose exactness flag is set before or after the delta
    re-evaluates the kernel on all of them instead. Copy ``cmap`` first to
    keep the previous step's values. A rejected delta or an unknown variant
    raises before ``g`` or ``cmap`` changes. Returns ``cmap``.
    """
    if variant not in ("unweighted", "weighted"):
        raise ValueError(f"unknown variant {variant!r}")
    weighted = variant == "weighted"
    adj = g.adjacency()
    strength = g.strengths()
    # the old strength of every endpoint and the old weight of every distinct
    # canonical pair, read before the delta is applied; absent counts as 0.
    # Unweighted, s is the degree and w is presence, a bool, so that values
    # stay ints.
    s0: dict[int, float] = {}
    w0: dict[tuple[int, int], float] = {}
    if not weighted:
        for pairs in (delta.adds, delta.removes):
            for e in pairs:
                u = e[0]
                v = e[1]
                row = adj.get(u, ())
                s0[u] = len(row)
                s0[v] = len(adj.get(v, ()))
                w0[(u, v) if u <= v else (v, u)] = v in row
    elif not g._inexact:
        for pairs in (delta.adds, delta.removes):
            for e in pairs:
                u = e[0]
                v = e[1]
                s0[u] = strength.get(u, 0.0)
                s0[v] = strength.get(v, 0.0)
                w0[(u, v) if u <= v else (v, u)] = adj.get(u, _NO_ROW).get(v, 0.0)
    sets = affected_nodes(g, delta)
    values = cmap.values
    cmap.computed_count = len(sets.recompute)
    if weighted and g._inexact:
        if sets.recompute:
            values.update(evaluate_nodes(g, sets.recompute, variant))
        return cmap
    # own term on the touched nodes, the keys of s0; a new node starts from 0
    for x, a in s0.items():
        b = strength[x] if weighted else len(adj[x])
        values[x] = values.get(x, 0) + (b * b - a * a)
    # pair terms, on both ends of every pair whose weight changed
    for (u, v), a in w0.items():
        row = adj[u]
        b = row.get(v, 0.0) if weighted else v in row
        if b != a:
            dw = b - a
            sq = b * b - a * a
            values[u] += sq + 2 * dw * s0[v]
            values[v] += sq + 2 * dw * s0[u]
    # every post-delta neighbor x of u gains w(x, u) * 2 * delta_s(u)
    if weighted:
        for u, a in s0.items():
            b = strength[u]
            if b != a:
                diff = 2 * (b - a)
                for x, w in adj[u].items():
                    values[x] += w * diff
    else:
        for u, a in s0.items():
            row = adj[u]
            b = len(row)
            if b != a:
                diff = 2 * (b - a)
                for x in row:
                    values[x] += diff
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
