#!/usr/bin/env python3
"""Time the ingest layer: parsing, the cumulative build and window builds.

Generates the event workload in memory from a fixed seed (500k events
over 50k ids, one per minute, so 348 daily buckets), then reports the
median of ``--repeat`` runs of each phase under the ``accumulate`` weight
policy. Window builds are also given as a multiple of the cumulative build
on the same events. The share of events whose pair was already seen is
printed too: a window step copies the entries of each edge it touches and
re-sums those of an edge whose oldest entry leaves, so its cost grows with
the window length only as far as pairs repeat. The cumulative build keeps
no entries and folds each observation into its edge's weight. The size the
parsed events keep (``events_mb``) is ``tracemalloc``'s current size after
one untimed parse: the list, its tuples, their weights and node ids.

    python benchmarks/ingest_bench.py --repeat 3 --json BENCH_ingest.json
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import time
import tracemalloc

from lapstream.ingest import parse_edge_events, snapshots_cumulative, snapshots_window

EVENTS = 500_000
IDS = 50_000
SEED = 0
WINDOWS = (7, 30, 100)
POLICY = "accumulate"  # the window re-sums an edge whose oldest entry leaves


def event_lines(num_events, num_ids, seed):
    """``u v w t`` lines, one event a minute, distinct random endpoints."""
    rng = random.Random(seed)
    lines = []
    for i in range(num_events):
        u = rng.randrange(num_ids)
        v = rng.randrange(num_ids - 1)
        v += v >= u
        lines.append(f"{u} {v} {rng.randint(1, 5)} {60 * i}\n".encode())
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", metavar="PATH", help="also write the medians as JSON to PATH")
    args = parser.parse_args()

    lines = event_lines(EVENTS, IDS, SEED)
    tracemalloc.start()
    events = parse_edge_events(lines)
    events_mb = tracemalloc.get_traced_memory()[0] / 1e6
    tracemalloc.stop()
    pairs = {e[:2] if e[0] <= e[1] else (e[1], e[0]) for e in events}
    phases = [
        ("parse", lambda: parse_edge_events(lines)),
        ("cumulative build", lambda: snapshots_cumulative(events, "daily", POLICY)),
    ]
    phases += [
        (f"window W={w}", lambda w=w: snapshots_window(events, "daily", w, POLICY))
        for w in WINDOWS
    ]
    # rounds interleave the phases, so a change of CPU speed part-way
    # through a run shifts every phase rather than one
    samples = {name: [] for name, _ in phases}
    for _ in range(args.repeat):
        for name, fn in phases:
            gc.collect()
            t0 = time.perf_counter()
            out = fn()
            samples[name].append(time.perf_counter() - t0)
            del out
    buckets = snapshots_cumulative(events, "daily", POLICY).num_steps
    print(
        f"workload: {len(events)} events, {IDS} ids, {buckets} daily buckets, "
        f"policy {POLICY}, median of {args.repeat}"
    )
    repeated = 1 - len(pairs) / len(events)
    print(f"repeated pairs: {repeated:.4%} of events")
    print(f"parsed events keep: {events_mb:.2f} MB")
    medians = {name: statistics.median(samples[name]) for name, _ in phases}
    cumulative_s = medians["cumulative build"]
    for name, seconds in medians.items():
        ratio = f"  ({seconds / cumulative_s:.2f}x cumulative)" if name.startswith("window") else ""
        print(f"{name + ':':18}{seconds:8.3f} s{ratio}")
    if args.json:
        report = {
            "command": f"python benchmarks/ingest_bench.py --repeat {args.repeat} --json {args.json}",
            "events": len(events),
            "ids": IDS,
            "seed": SEED,
            "buckets": buckets,
            "policy": POLICY,
            "repeat": args.repeat,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "repeated_pairs": repeated,
            "events_mb": events_mb,
            "median_s": medians,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
