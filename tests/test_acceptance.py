"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they complete.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from conftest import GOLDEN_DIR, TOY_EDGES, TOY_STEP1, TOY_STEP2
from genutil import affected_nodes, delta_energy_oracle, node_rows, random_delta, random_graph

from lapstream.bench import bench_stream, diff_maps, emit_csv
from lapstream.centrality import lap_cent
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, run_evolving
from lapstream.ingest import SnapshotStream, snapshots_cumulative, snapshots_window
from lapstream.synth import churn_stream

DAY = 86400


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- criterion 1: toy-network golden test -----------------------------------


def test_criterion_1_toy_golden():
    t0 = time.perf_counter()
    stream_deltas = [EdgeDelta(adds=[Edge(4, 6)])]

    batch = run_evolving(Graph(TOY_EDGES), stream_deltas, mode="batch")
    dynamic = run_evolving(Graph(TOY_EDGES), stream_deltas, mode="dynamic")

    ok = (
        batch[0].values == TOY_STEP1
        and batch[1].values == TOY_STEP2
        and dynamic[0].values == TOY_STEP1
        and dynamic[1].values == TOY_STEP2
        and dynamic[1].computed_count == 4
        and sum(r.computed_count for r in dynamic) == 11
        and sum(r.computed_count for r in batch) == 14
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(
        "1 toy golden",
        ok,
        f"dynamic work 11 vs batch 14, exact maps, {elapsed:.3f}s < 1s",
    )


# -- criteria 2 and 4: randomized batch/dynamic equivalence + work bound ----


@dataclass
class RandomizedRuns:
    mismatches: list = field(default_factory=list)
    bound_rows: list = field(default_factory=list)  # (computed, bound, recompute_size)
    runs: int = 0
    steps: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def randomized_runs() -> RandomizedRuns:
    out = RandomizedRuns()
    t0 = time.perf_counter()
    for i in range(200):
        rng = random.Random(1000 + i)
        variant = "unweighted" if i % 2 == 0 else "weighted"
        integer = i % 4 < 2
        n = rng.randint(20, 200)
        g = random_graph(rng, n, rng.randint(n // 2, 3 * n), integer)

        deltas = []
        sim = g.copy()
        for _ in range(30):
            d = random_delta(rng, sim, integer_weights=integer)
            deltas.append(d)
            apply_delta(sim, d)

        dynamic = run_evolving(g.copy(), deltas, mode="dynamic", variant=variant)
        batch = run_evolving(g.copy(), deltas, mode="batch", variant=variant)

        sim = g.copy()
        for step in range(len(dynamic)):
            bad = diff_maps(batch[step].values, dynamic[step].values)
            if bad is not None:
                out.mismatches.append((i, step, *bad))
            if step > 0:
                delta = deltas[step - 1]
                union = sim.copy()
                apply_delta(union, EdgeDelta(adds=delta.adds))
                sets = affected_nodes(sim, delta)  # advances sim to this step
                m_prime = delta.num_changes
                max_degree = max(map(len, node_rows(union).values()))
                bound = min(union.num_nodes, 2 * m_prime + 2 * m_prime * max_degree)
                out.bound_rows.append(
                    (dynamic[step].computed_count, bound, len(sets.recompute))
                )
        out.runs += 1
        out.steps += len(dynamic)
    out.elapsed = time.perf_counter() - t0
    return out


def test_criterion_2_batch_dynamic_equivalence(randomized_runs):
    r = randomized_runs
    ok = not r.mismatches and r.runs == 200 and r.elapsed < 60.0
    detail = (
        f"{r.runs} runs / {r.steps} steps, "
        f"{len(r.mismatches)} divergences, {r.elapsed:.1f}s < 60s"
    )
    if r.mismatches:
        detail += f"; first: run {r.mismatches[0][0]} step {r.mismatches[0][1]}"
    _verdict("2 batch-dynamic equivalence", ok, detail)


def test_criterion_4_work_bound(randomized_runs):
    r = randomized_runs
    count_matches = all(computed == size for computed, _, size in r.bound_rows)
    within_bound = all(computed <= bound for computed, bound, _ in r.bound_rows)
    _verdict(
        "4 work bound",
        count_matches and within_bound,
        f"{len(r.bound_rows)} dynamic steps, computed == |recompute| "
        f"and <= min(n, 2m' + 2m'*max_degree)",
    )


# -- criterion 3: energy-drop oracle ----------------------------------------


def test_criterion_3_energy_drop_oracle():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for i in range(100):
        rng = random.Random(7000 + i)
        integer = i % 2 == 0
        n = rng.randint(3, 100)
        g = random_graph(rng, n, rng.randint(2, 3 * n), integer)
        for variant in ("unweighted", "weighted"):
            values = lap_cent(g, variant).values
            for v in g._nodes:
                oracle = delta_energy_oracle(g, v, variant)
                if variant == "unweighted" or integer:
                    assert values[v] == oracle, (i, variant, v)
                else:
                    scale = max(1.0, abs(oracle))
                    err = abs(values[v] - oracle) / scale
                    worst = max(worst, err)
                    assert err <= 1e-9, (i, variant, v, err)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict(
        "3 energy-drop oracle",
        ok,
        f"{checked} node values on 100 graphs, worst rel err {worst:.2e}, "
        f"{elapsed:.1f}s < 30s",
    )


# -- criterion 5: desk-scale speedup ----------------------------------------


def test_criterion_5_desk_scale_speedup():
    t0 = time.perf_counter()
    stream = churn_stream(
        30000, 6, steps=40, adds_per_step=50, removes_per_step=50, seed=7
    )
    m = stream.initial.num_edges
    churn_fraction = 100 / m
    result = bench_stream(stream, "compare", "unweighted")
    speedups = [r.speedup for r in result.dynamic]
    mean = sum(speedups) / len(speedups)
    batch_total = result.batch[-1].cumulative_s
    dyn_total = result.dynamic[-1].cumulative_s
    elapsed = time.perf_counter() - t0
    ok = (
        stream.initial.num_nodes >= 20000
        and len(result.dynamic) >= 40
        and churn_fraction <= 0.005
        and mean >= 2.0
        and dyn_total < batch_total
        and elapsed < 300.0
    )
    _verdict(
        "5 desk-scale speedup",
        ok,
        f"n=30000 m={m} churn={churn_fraction:.2%}/step, mean speedup {mean:.2f} >= 2.0, "
        f"cumulative dynamic {dyn_total:.2f}s < batch {batch_total:.2f}s, {elapsed:.0f}s < 300s",
    )


# -- criterion 6: window semantics ------------------------------------------


def test_criterion_6_window_equals_cumulative():
    t0 = time.perf_counter()
    compared = 0
    for i in range(50):
        rng = random.Random(3000 + i)
        policy = "overwrite" if i % 2 == 0 else "accumulate"
        variant = "unweighted" if i % 4 < 2 else "weighted"
        events = []
        for _ in range(rng.randint(20, 120)):
            u, v = rng.randrange(25), rng.randrange(25)
            if u == v:
                continue
            w = float(rng.randint(1, 5)) if i % 3 else rng.uniform(0.1, 5.0)
            events.append((u, v, w, rng.randrange(6) * DAY))
        cumulative = snapshots_cumulative(events, "daily", weight_policy=policy)
        windowed = snapshots_window(events, "daily", 10**9, weight_policy=policy)

        g_c, g_w = cumulative.initial.copy(), windowed.initial.copy()
        assert lap_cent(g_c, variant).values == lap_cent(g_w, variant).values
        for d_c, d_w in zip(cumulative.deltas, windowed.deltas):
            apply_delta(g_c, d_c)
            apply_delta(g_w, d_w)
            assert lap_cent(g_c, variant).values == lap_cent(g_w, variant).values
            compared += 1
        assert len(cumulative.deltas) == len(windowed.deltas)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict(
        "6 window semantics",
        ok,
        f"50 event files, {compared} step maps identical, {elapsed:.1f}s < 30s",
    )


# -- criterion 7: CSV golden test -------------------------------------------


def _mask_timing(csv_text: str) -> bytes:
    lines = csv_text.split("\n")
    masked = [lines[0]]
    for line in lines[1:]:
        if not line:
            masked.append(line)
            continue
        fields = line.split(",")
        fields[6] = fields[7] = fields[8] = "-"
        masked.append(",".join(fields))
    return "\n".join(masked).encode()


def test_criterion_7_csv_golden():
    stream = SnapshotStream(Graph(TOY_EDGES), [EdgeDelta(adds=[Edge(4, 6)])])
    result = bench_stream(stream, "compare", "unweighted")
    ok = True
    for name, records in (("batch", result.batch), ("dynamic", result.dynamic)):
        produced = _mask_timing(emit_csv(records))
        golden = (GOLDEN_DIR / f"toy_compare_{name}.csv").read_bytes()
        if produced != golden:
            ok = False
    _verdict(
        "7 csv golden",
        ok,
        "toy compare batch+dynamic CSVs byte-equal to goldens (timing masked)",
    )
