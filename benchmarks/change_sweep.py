#!/usr/bin/env python3
"""Time a dynamic step against a full recomputation as the change grows.

A churn stream over a 30k-node preferential-attachment graph (about 180k
edges) makes K_STEPS steps of k changes for every k in KS, in two regimes:
fully dynamic (k adds plus k removes a step) and incremental (k adds, no
removes), for both variants, on the pure-Python kernels. Each step is
timed both ways on two copies of the graph, in alternating order: dynamic
times ``lap_cent_add_remove``, which validates and applies the delta
itself; batch times ``lap_cent`` alone (``batch_s``, the centrality-only
timing the paper style uses) and ``apply_delta`` plus ``lap_cent``
(``batch_e2e_s``, the like-for-like one). The rows run in ROUNDS rounds,
in reverse order every other round, so that a slow phase of the machine
does not fall on whole rows. A row gives the median over all its rounds'
steps of each of these seconds, the median per-step speedups (batch over
dynamic) on both clocks, the touched nodes and the values brought up to
date (``computed_count``), and checks that both sides end each step with
equal maps by compare's gate, ``diff_maps``, off the clock.

    python benchmarks/change_sweep.py --json BENCH_change_sweep.json

Measurement only: where dynamic falls behind batch is the input to a later
choice of path, not made here.
"""

import argparse
import json
import os
import platform
import statistics
import time

from lapstream.bench import diff_maps
from lapstream.centrality import lap_cent
from lapstream.incremental import apply_delta, lap_cent_add_remove
from lapstream.synth import churn_stream

NODES = 30_000
ATTACH = 6
SEED = 7
K_STEPS = 5
ROUNDS = 3
KS = (5, 50, 500, 5_000, 20_000)
REGIMES = ("fully dynamic", "incremental")
VARIANTS = ("unweighted", "weighted")


def sweep_row(regime, variant, k):
    """One round of a row: the initial edge count, and per step a dict of
    seconds, speedups and counts."""
    removes = k if regime == "fully dynamic" else 0
    weighted = variant == "weighted"
    stream = churn_stream(NODES, ATTACH, K_STEPS, k, removes, seed=SEED, weighted=weighted)
    batch_g, dyn_g = stream.initial.copy(), stream.initial
    cmap = lap_cent(dyn_g, variant)
    steps = []
    for i, delta in enumerate(stream.deltas):
        seconds = {}
        for side in ("batch", "dynamic") if i % 2 == 0 else ("dynamic", "batch"):
            if side == "batch":
                t0 = time.perf_counter()
                apply_delta(batch_g, delta)
                t1 = time.perf_counter()
                full = lap_cent(batch_g, variant)
                t2 = time.perf_counter()
                seconds["batch"] = t2 - t1
                seconds["batch_e2e"] = t2 - t0
            else:
                t0 = time.perf_counter()
                lap_cent_add_remove(dyn_g, delta, cmap)
                seconds["dynamic"] = time.perf_counter() - t0
        bad = diff_maps(full.values, cmap.values)
        if bad is not None:
            raise AssertionError(f"{regime} {variant} k={k}: maps differ at step {i + 1}: {bad}")
        ends = {x for e in delta.adds for x in e[:2]} | {x for p in delta.removes for x in p}
        steps.append(
            {
                "batch_s": seconds["batch"],
                "batch_e2e_s": seconds["batch_e2e"],
                "dynamic_s": seconds["dynamic"],
                "speedup": seconds["batch"] / seconds["dynamic"],
                "speedup_e2e": seconds["batch_e2e"] / seconds["dynamic"],
                "touched": len(ends),
                "computed": cmap.computed_count,
            }
        )
    return stream.initial.num_edges, steps


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the rows as JSON to PATH")
    args = parser.parse_args()

    order = [(regime, variant, k) for regime in REGIMES for variant in VARIANTS for k in KS]
    steps = {row: [] for row in order}
    initial_edges = {}
    for r in range(ROUNDS):
        for row in order if r % 2 == 0 else order[::-1]:
            initial_edges[row], got = sweep_row(*row)
            steps[row] += got

    print(
        f"{NODES} nodes, attach {ATTACH}, seed {SEED}, median of {ROUNDS} rounds of "
        f"{K_STEPS} steps, {platform.python_implementation()} {platform.python_version()}"
    )
    print(
        f"{'regime':>13} {'variant':>10} {'k':>6} {'batch ms':>9} {'+apply ms':>9} "
        f"{'dynamic ms':>10} {'speedup':>8} {'e2e':>7} {'touched':>8} {'computed':>8}"
    )
    rows = []
    for regime, variant, k in order:
        row = {"regime": regime, "variant": variant, "k": k}
        row["initial_edges"] = initial_edges[regime, variant, k]
        got = steps[regime, variant, k]
        for key in got[0]:
            row[key] = statistics.median(step[key] for step in got)
        rows.append(row)
        print(
            f"{regime:>13} {variant:>10} {k:>6} {row['batch_s'] * 1e3:9.2f} "
            f"{row['batch_e2e_s'] * 1e3:9.2f} {row['dynamic_s'] * 1e3:10.2f} "
            f"{row['speedup']:7.2f}x {row['speedup_e2e']:6.2f}x "
            f"{row['touched']:>8} {row['computed']:>8}"
        )
    if args.json:
        report = {
            "command": "python benchmarks/change_sweep.py --json " + args.json,
            "nodes": NODES,
            "attach": ATTACH,
            "seed": SEED,
            "steps": K_STEPS,
            "rounds": ROUNDS,
            "implementation": platform.python_implementation(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
