"""Tests of the benchmark's own checking code (not of lapstream).

    python3 -m pytest perfbench -q

The closed forms in ``oracle`` are checked against the spectral definition
of Laplacian centrality: the drop in sum(eigenvalue^2) of the Laplacian when
a node is isolated.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _energy(n, edges):
    lap = np.zeros((n, n))
    for (u, v), w in edges.items():
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return float(np.sum(np.linalg.eigvalsh(lap) ** 2))


def spectral_values(n, edges):
    """Centrality of each node 0..n-1 from the eigenvalues, before and after
    the node is isolated (an isolated node adds nothing to the energy)."""
    full = _energy(n, edges)
    return {
        v: full - _energy(n, {p: w for p, w in edges.items() if v not in p}) for v in range(n)
    }


def random_edges(rng, n, p, weighted):
    return {
        (u, v): float(rng.randint(1, 5)) + (rng.random() if weighted == "real" else 0.0)
        if weighted
        else 1.0
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }


def adjacency(n, edges, weighted):
    adj = {v: ({} if weighted else set()) for v in range(n)}
    for (u, v), w in edges.items():
        if weighted:
            adj[u][v] = adj[v][u] = w
        else:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def assert_close(got, want):
    assert got.keys() == want.keys()
    for v in want:
        assert got[v] == pytest.approx(want[v], rel=1e-9, abs=1e-7), v


@pytest.mark.parametrize("seed", range(6))
def test_unweighted_form_equals_spectral_drop(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    edges = random_edges(rng, n, rng.uniform(0.1, 0.7), weighted=False)
    assert_close(oracle.unweighted_values(adjacency(n, edges, False)), spectral_values(n, edges))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weights", ["integer", "real"])
def test_weighted_form_equals_spectral_drop(seed, weights):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    edges = random_edges(rng, n, rng.uniform(0.1, 0.7), weighted=weights)
    assert_close(oracle.weighted_values(adjacency(n, edges, True)), spectral_values(n, edges))


def test_map_mismatch_accepts_equal_and_rejects_wrong_or_non_finite():
    want = {1: 5.0, 2: 7.0}
    assert oracle.map_mismatch(want, dict(want)) is None
    assert oracle.map_mismatch(want, {1: 5.0, 2: 7.0 * (1 + 1e-12)}, oracle.REL_TOL) is None
    assert oracle.map_mismatch(want, {1: 6.0, 2: 7.0}) is not None
    assert oracle.map_mismatch(want, {1: 5.0, 2: 7.0 * (1 + 1e-6)}, oracle.REL_TOL) is not None
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert oracle.map_mismatch(want, {1: bad, 2: 7.0}, oracle.REL_TOL) is not None
    assert oracle.map_mismatch(want, {1: 5.0}) is not None
    assert oracle.map_mismatch(want, {1: 5.0, 2: 7.0, 3: 0.0}) is not None


def _small_churn(seed):
    spec = workloads.ChurnSpec(nodes=20, attach=2, steps=8, removes=3, adds=3)
    lines = workloads._churn_lines(spec, random.Random(seed), random.Random(seed + 1))
    return spec, lines


@pytest.mark.parametrize("seed", range(3))
def test_churn_oracle_matches_spectral_replay(seed, tmp_path):
    spec, lines = _small_churn(seed)
    path = tmp_path / "churn.txt"
    path.write_text("\n".join(lines) + "\n")
    initial, steps = workloads.read_churn(path)
    exp = oracle.expect_churn(initial, steps)
    edges = {tuple(sorted(p)): 1.0 for p in initial}
    for k, (removes, adds) in enumerate(steps, start=1):
        for p in removes:
            del edges[p]  # every removal names a present edge
        for p in adds:
            assert p not in edges  # every addition is new
            edges[p] = 1.0
        assert exp.edges[k] == len(edges)
        if k in exp.maps:
            assert_close(exp.maps[k], spectral_values(spec.nodes, edges))


@pytest.mark.parametrize("seed", range(3))
def test_window_oracle_matches_recomputed_windows(seed):
    spec = workloads.EventSpec(nodes=15, days=12, events_per_day=6, skew=2.0, max_weight=5)
    lines = workloads._event_lines(spec, random.Random(seed), random.Random(seed + 1))
    events = [tuple(map(int, line.split())) for line in lines]
    window = 4
    exp = oracle.expect_window(events, window)
    days = sorted({t // oracle.DAY for *_, t in events})
    for k in range(len(days)):
        state = {}
        for u, v, w, t in events:
            if days[max(0, k - window + 1)] <= t // oracle.DAY <= days[k]:
                p = (min(u, v), max(u, v))
                state[p] = state.get(p, 0.0) + w
        assert exp.edges[k] == len(state)
        if k in exp.maps:
            seen = {x for u, v, _, t in events if t // oracle.DAY <= days[k] for x in (u, v)}
            want = spectral_values(spec.nodes, state)
            assert_close(exp.maps[k], {v: want[v] for v in seen})


def test_seeds_change_the_inputs_but_not_the_work(tmp_path):
    exps = []
    for seed in (1, 2):
        path, _ = workloads.ensure_input("events-compare", seed, tmp_path)
        exps.append(oracle.expect_cumulative(workloads.read_events(path)))
    a, b = exps
    assert a.maps != b.maps
    assert (a.nodes, a.edges, a.added, a.touched) == (b.nodes, b.edges, b.added, b.touched)
    assert sorted(a.maps[0].values()) == sorted(b.maps[0].values())


def test_inputs_are_seeded_and_checksummed(tmp_path):
    assert workloads.generate("events-compare", 3) == workloads.generate("events-compare", 3)
    assert workloads.generate("events-compare", 3) != workloads.generate("events-compare", 4)
    path, digest = workloads.ensure_input("events-compare", 3, tmp_path)
    assert path.with_suffix(".sha256").read_text().strip() == digest
    path.write_text("0 1 1 0\n")  # a damaged cache entry is rebuilt
    assert workloads.ensure_input("events-compare", 3, tmp_path) == (path, digest)


def test_worker_check_rejects_a_wrong_or_nan_value(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lapstream
        import worker
    finally:
        sys.path.pop(0)
    spec = workloads.EventSpec(nodes=60, days=9, events_per_day=25, skew=2.0, max_weight=1)
    path = tmp_path / "events.txt"
    path.write_text("\n".join(workloads._event_lines(spec, random.Random(5), random.Random(6))) + "\n")
    workload = worker.EventsCompare(lapstream, path)
    exp = workload.expected()
    rnd = workload.round(None)
    assert worker.check(workload, exp, rnd) == []
    final = rnd.outputs["maps"][-1].values
    node = next(iter(final))
    good = final[node]
    for bad in (good + 1, float("nan")):
        final[node] = bad
        assert any(f"node {node}" in p for p in worker.check(workload, exp, rnd))
    final[node] = good


def test_figures_are_medians_of_rounds_scaled_by_their_probes():
    import worker

    rounds = [
        worker.Round(setup_s=2.0, run_s=9.0, steps_s=[1.0, 4.0], computed=[5, 3, 4], scale=0.5),
        worker.Round(setup_s=1.0, run_s=8.0, steps_s=[2.0, 3.0], computed=[5, 3, 4], scale=2.0),
        worker.Round(setup_s=3.0, run_s=5.0, steps_s=[1.0, 1.0], computed=[5, 3, 4], scale=1.0),
    ]
    for r, layer_s in zip(rounds, (4.0, 1.0, 3.0)):
        r.layers = {"kernels.s": layer_s, "kernels.ns_per_entry": layer_s, "kernels.nodes": 7}
    fig = worker.end_to_end(rounds)
    # scaled rounds: setup 1, 2, 3; run 4.5, 16, 5; steps (0.5, 4, 1) and (2, 6, 1)
    assert (fig["setup_s"], fig["run_s"], fig["nodes_evaluated"]) == (2.0, 5.0, 7)
    assert fig["step_p50_ms"] == 1500.0
    assert worker.end_to_end(rounds, scaled=False)["run_s"] == 8.0
    assert worker.per_layer(rounds) == {
        "kernels.s": 2.0,
        "kernels.ns_per_entry": 2.0,
        "kernels.nodes": 7,
    }
