"""Expected outputs of each workload, computed without lapstream.

The edge state is replayed from the generated input with the benchmark's own
data structures, and each node's Laplacian centrality (the drop in
Laplacian energy when the node is deleted) is evaluated from a closed form
written apart from the program's kernels:

    unweighted:  d_v^2 + d_v + 2 * sum_{j in N(v)} d_j
    weighted:    s_v^2 + sum_{j in N(v)} (w_vj^2 + 2 * s_j * w_vj)

``test_oracle.py`` checks both forms against the spectral definition.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

DAY = 86400

# the same relative tolerance the program's batch-vs-dynamic gate uses
REL_TOL = 1e-9


@dataclass
class Expected:
    """Per-step facts the program's output must agree with (index = step)."""

    nodes: list[int] = field(default_factory=list)
    edges: list[int] = field(default_factory=list)
    added: list[int] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    touched: list[int] = field(default_factory=list)
    maps: dict[int, dict[int, float]] = field(default_factory=dict)  # check step -> values


def check_steps(last: int) -> list[int]:
    """Step 0, three intermediate steps and the final step."""
    return sorted({0, last // 4, last // 2, (3 * last) // 4, last})


def unweighted_values(adj: dict[int, set[int]]) -> dict[int, int]:
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    return {v: d * d + d + 2 * sum(deg[j] for j in adj[v]) for v, d in deg.items()}


def weighted_values(adj: dict[int, dict[int, float]]) -> dict[int, float]:
    s = {v: math.fsum(row.values()) for v, row in adj.items()}
    return {
        v: s[v] * s[v] + math.fsum(w * w + 2.0 * s[j] * w for j, w in row.items())
        for v, row in adj.items()
    }


def map_mismatch(expected: dict, actual: dict, rel_tol: float = 0.0) -> str | None:
    """First disagreement between two centrality maps, or None.

    A non-finite value in ``actual`` always disagrees; otherwise values agree
    when equal or, with ``rel_tol`` > 0, within that relative tolerance.
    """
    if expected.keys() != actual.keys():
        missing = sorted(expected.keys() - actual.keys())[:3]
        extra = sorted(actual.keys() - expected.keys())[:3]
        return f"node sets differ: missing {missing}, unexpected {extra}"
    for v in sorted(expected):
        x, y = actual[v], expected[v]
        if not math.isfinite(x):
            return f"node {v}: non-finite value {x!r}"
        if x != y and not abs(x - y) <= rel_tol * max(1.0, abs(x), abs(y)):
            return f"node {v}: got {x!r}, expected {y!r}"
    return None


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def expect_churn(initial, steps) -> Expected:
    """Replay ``desk-churn``: unweighted, removals and additions per step."""
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in initial:
        adj[u].add(v)
        adj[v].add(u)
    m = len(initial)
    last = len(steps)
    wanted = set(check_steps(last))
    exp = Expected()

    def record(k, added, removed, touched):
        exp.nodes.append(len(adj))
        exp.edges.append(m)
        exp.added.append(added)
        exp.removed.append(removed)
        exp.touched.append(touched)
        if k in wanted:
            exp.maps[k] = unweighted_values(adj)

    record(0, m, 0, len(adj))
    for k, (removes, adds) in enumerate(steps, start=1):
        touched = set()
        for u, v in removes:
            adj[u].remove(v)
            adj[v].remove(u)
            touched.update((u, v))
        for u, v in adds:
            adj[u].add(v)
            adj[v].add(u)
            touched.update((u, v))
        m += len(adds) - len(removes)
        record(k, len(adds), len(removes), len(touched))
    return exp


def _daily_weights(events) -> list[dict[tuple[int, int], float]]:
    """Per UTC day with events, in day order: summed weight of each pair."""
    days: dict[int, dict[tuple[int, int], float]] = defaultdict(dict)
    for u, v, w, t in events:
        bucket = days[t // DAY]
        pair = _pair(u, v)
        bucket[pair] = bucket.get(pair, 0.0) + w
    return [days[d] for d in sorted(days)]


def expect_window(events, window: int) -> Expected:
    """Sliding window of ``window`` days, weights accumulated, weighted forms.

    The window state is kept incrementally (the entering day added, the
    leaving day subtracted); the program rebuilds each window from scratch.
    """
    days = _daily_weights(events)
    state: dict[tuple[int, int], float] = {}
    present: dict[tuple[int, int], int] = {}  # days in the window holding the pair
    seen: set[int] = set()
    last = len(days) - 1
    wanted = set(check_steps(last))
    exp = Expected()
    for k, bucket in enumerate(days):
        leaving = days[k - window] if k >= window else {}
        before = {pair: state.get(pair) for pair in leaving.keys() | bucket.keys()}
        for pair, w in leaving.items():
            present[pair] -= 1
            if present[pair] == 0:
                del present[pair], state[pair]
            else:
                state[pair] -= w
        for pair, w in bucket.items():
            present[pair] = present.get(pair, 0) + 1
            state[pair] = state.get(pair, 0.0) + w
            seen.update(pair)
        changed = [p for p, old in before.items() if state.get(p) != old]
        exp.nodes.append(len(seen))
        exp.edges.append(len(state))
        exp.added.append(sum(1 for p in changed if p in state))
        exp.removed.append(sum(1 for p in changed if p not in state))
        exp.touched.append(len({x for p in changed for x in p}))
        if k in wanted:
            adj: dict[int, dict[int, float]] = {x: {} for x in seen}
            for (u, v), w in state.items():
                adj[u][v] = w
                adj[v][u] = w
            exp.maps[k] = weighted_values(adj)
    return exp


def expect_cumulative(events) -> Expected:
    """Cumulative daily snapshots, unweighted forms."""
    days = _daily_weights(events)
    adj: dict[int, set[int]] = defaultdict(set)
    m = 0
    last = len(days) - 1
    wanted = set(check_steps(last))
    exp = Expected()
    for k, bucket in enumerate(days):
        new = [p for p in bucket if p[1] not in adj[p[0]]]
        for u, v in new:
            adj[u].add(v)
            adj[v].add(u)
        m += len(new)
        exp.nodes.append(len(adj))
        exp.edges.append(m)
        exp.added.append(len(new))
        exp.removed.append(0)
        exp.touched.append(len({x for p in new for x in p}))
        if k in wanted:
            exp.maps[k] = unweighted_values(adj)
    return exp
