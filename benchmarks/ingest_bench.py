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
no entries and folds each observation into its edge's weight.

    python benchmarks/ingest_bench.py --repeat 3
"""

import argparse
import gc
import random
import statistics
import time

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
    args = parser.parse_args()

    lines = event_lines(EVENTS, IDS, SEED)
    events = parse_edge_events(lines)
    pairs = {(e.u, e.v) if e.u <= e.v else (e.v, e.u) for e in events}
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
    print(f"repeated pairs: {1 - len(pairs) / len(events):.4%} of events")
    cumulative_s = statistics.median(samples["cumulative build"])
    for name, _ in phases:
        seconds = statistics.median(samples[name])
        ratio = f"  ({seconds / cumulative_s:.2f}x cumulative)" if name.startswith("window") else ""
        print(f"{name + ':':18}{seconds:8.3f} s{ratio}")


if __name__ == "__main__":
    main()
