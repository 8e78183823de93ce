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
run it in three walks. One validating read of the delta raises whatever
rejects it and, in the same loop, records s0 of every endpoint (its keys
are the touched nodes) and w0 of every distinct canonical pair. The
delta is then applied without a second check. After the pair terms, one
walk over the touched nodes adds each node's own term and, where its s
changed, ``w * 2 * delta_s`` to every member of its post-delta row; as it
goes it grows touched | N(touched), whose size is the step's
``computed_count`` (:func:`affected_nodes` returns the same set, and is
its reference). The unweighted variant reads w as presence,
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

import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import islice
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


def _read_delta(
    g: Graph, delta: EdgeDelta, read: Variant | None
) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """The one validating read of ``delta`` against ``g``, which it does not mutate.

    Raises on a self-loop, a non-finite weight (an int too large for a float
    counts as one), a remove of an edge that is neither in ``g`` nor added
    by the delta, a pair removed twice and, on a strict graph, an add of a
    pair already present; warns on a negative weight, as
    :meth:`Graph.add_edge` does. The adds are checked edge by edge, then the
    first strict duplicate raises, then the removes are checked edge by edge.

    Returns ``(s0, w0)``, in order of first mention: s0 maps every endpoint,
    so its keys are the touched nodes, and w0 every distinct canonical pair.
    ``read`` says what they hold before the delta: for "unweighted" the
    degree and the presence of the pair, a bool; for "weighted" the strength
    and the weight, 0 when absent; for None nothing, only 0.

    Each endpoint is read through the graph's id table, so the keys of s0,
    the pairs of w0 and every probe made with them are the objects the graph
    stores (see :mod:`lapstream.graph`), and the step's walks over them take
    the dicts' identity fast path. A node new to the graph keeps the object
    of its first mention, which ``Graph._apply`` then registers, since it
    walks the adds in the same order.
    """
    adj = g.adjacency()
    strength = g.strengths()
    sget = strength.get
    canon = g._ids.get
    strict = g.strict
    isfinite = math.isfinite
    degrees = read == "unweighted"
    s0: dict[int, float] = {}
    w0: dict[tuple[int, int], float] = {}
    duplicate = None
    for u, v, w in delta.adds:
        u = canon(u, u)
        v = canon(v, v)
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        try:
            if not isfinite(w):
                raise NonFiniteWeightError(f"weight {w} on edge ({u}, {v}) is not finite")
        except OverflowError:
            raise NonFiniteWeightError(
                f"weight on edge ({u}, {v}) is too large for a float"
            ) from None
        if w < 0:
            warnings.warn(
                f"negative weight {w} on edge ({u}, {v})",
                NegativeWeightWarning,
                stacklevel=_outside_stacklevel(),
            )
        pair = (u, v) if u <= v else (v, u)
        if pair in w0:
            if strict and duplicate is None:
                duplicate = (u, v)
            continue
        row = adj.get(u, _NO_ROW)
        present = v in row
        if present and strict and duplicate is None:
            duplicate = (u, v)
        if degrees:
            w0[pair] = present
            s0[u] = len(row)
            s0[v] = len(adj.get(v, _NO_ROW))
        elif read:
            w0[pair] = row[v] if present else 0.0
            s0[u] = sget(u, 0.0)
            s0[v] = sget(v, 0.0)
        else:
            w0[pair] = s0[u] = s0[v] = 0
    if duplicate is not None:
        raise DuplicateEdgeError(f"edge ({duplicate[0]}, {duplicate[1]}) already present")
    removed: set[tuple[int, int]] = set()
    for u, v in delta.removes:
        u = canon(u, u)
        v = canon(v, v)
        pair = (u, v) if u <= v else (v, u)
        if pair in removed:
            raise MissingEdgeError(f"cannot remove edge ({u}, {v}) twice")
        removed.add(pair)
        if pair in w0:  # added by this delta, not removed before
            continue
        row = adj.get(u, _NO_ROW)
        if v not in row:
            raise MissingEdgeError(f"cannot remove absent edge ({u}, {v})")
        if degrees:
            w0[pair] = True
            s0[u] = len(row)
            s0[v] = len(adj[v])
        elif read:
            w0[pair] = row[v]
            s0[u] = strength[u]
            s0[v] = strength[v]
        else:
            w0[pair] = s0[u] = s0[v] = 0
    return s0, w0


def _gather(adj: dict[int, dict[int, float]], s0: dict[int, float]) -> AffectedSets:
    """The keys of ``s0`` as the touched nodes, and them plus their rows."""
    # key by key, not sized up front as set(s0) is: the set's layout, and so
    # the order in which the kernel fallback adds nodes new to the map, is
    # the one a touched set grown edge by edge has
    touched = set(s0.keys())
    recompute = set(touched)
    for x in touched:
        recompute.update(adj[x])
    return AffectedSets(touched, recompute)


def apply_delta(g: Graph, delta: EdgeDelta) -> None:
    """Apply adds then removes to ``g``.

    The whole delta is validated first; if it is rejected ``g`` is left
    unchanged.
    """
    _read_delta(g, delta, None)
    g._apply(delta.adds, delta.removes, False)


def affected_nodes(g: Graph, delta: EdgeDelta) -> AffectedSets:
    """Apply ``delta`` to ``g`` and return which nodes it can change.

    touched: endpoints of every added or removed edge. recompute: touched
    plus their neighbors; its size is the ``computed_count`` of a
    :func:`lap_cent_add_remove` step with this delta. On return ``g``
    reflects the full delta; if the delta is rejected ``g`` is left
    unchanged.
    """
    s0, _ = _read_delta(g, delta, None)
    g._apply(delta.adds, delta.removes, False)
    return _gather(g.adjacency(), s0)


def lap_cent_add_remove(
    g: Graph,
    delta: EdgeDelta,
    cmap: CentralityMap,
    variant: Variant,
) -> CentralityMap:
    """One incremental step: apply ``delta`` to ``g`` and update ``cmap`` in place.

    ``cmap`` must be the batch-equivalent map of ``g`` before the delta,
    with a value for every node of ``g``. On return it equals, node for
    node and bit for bit, a full recomputation of the post-delta graph, and
    its ``computed_count`` is the number of centralities brought up to date
    (touched nodes plus their neighbors).
    Both variants add the exact closed-form difference of the module
    docstring to each of them and evaluate no kernel, in three walks: one
    validating read of the delta, the apply, and one walk over the touched
    nodes after the pair terms. A weighted step on a graph whose exactness
    flag is set before or after the delta re-evaluates the kernel on all of
    them instead. Copy ``cmap`` first to keep the previous step's values. A
    rejected delta or an unknown variant raises before ``g`` or ``cmap``
    changes. Returns ``cmap``.
    """
    if variant not in ("unweighted", "weighted"):
        raise ValueError(f"unknown variant {variant!r}")
    weighted = variant == "weighted"
    s0, w0 = _read_delta(g, delta, None if weighted and g._inexact else variant)
    adj = g.adjacency()
    known = len(adj)
    g._apply(delta.adds, delta.removes, False)
    values = cmap.values
    if weighted and g._inexact:
        recompute = _gather(adj, s0).recompute
        cmap.computed_count = len(recompute)
        if recompute:
            values.update(evaluate_nodes(g, recompute, variant))
        return cmap
    if len(adj) > known:
        # nodes are never deleted, so the nodes new to the graph are the last
        # keys of its adjacency, in order of first mention; they start from 0
        fresh = list(islice(reversed(adj), len(adj) - known))
        values.update(dict.fromkeys(reversed(fresh), 0.0 if weighted else 0))
    # pair terms, on both ends of every pair whose weight changed
    for (u, v), a in w0.items():
        row = adj[u]
        b = row.get(v, 0.0) if weighted else v in row
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
    produce identical maps. Dynamic mode copies its map after every step so
    the per-step history survives. A delta that cannot be applied aborts
    with :class:`DeltaError` carrying the step index.
    """
    steps = evolve(initial, deltas, mode, variant)
    if mode == "dynamic":
        return [CentralityMap(dict(m.values), m.computed_count) for m, _ in steps]
    return [m for m, _ in steps]
