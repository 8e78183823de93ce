"""Benchmark harness: run batch/dynamic modes over a stream and measure.

Per step it records network size, delta size, centralities computed,
elapsed and cumulative seconds (monotonic clock), and, in compare mode,
the per-step batch/dynamic speedup. Timing covers centrality computation
only; for the dynamic algorithm that includes validating and applying the
delta (they are part of its step), while batch snapshots are materialized
off the clock and only the full recomputation is timed.

Compare mode cross-checks that batch and dynamic maps are equal, value for
value, at every step before any timing is reported; it is the only mode
that keeps a map per step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from lapstream.centrality import CentralityMap, Variant
from lapstream.errors import CompareMismatchError, EmptyDatasetError
from lapstream.incremental import evolve
from lapstream.ingest import (
    SnapshotStream,
    load_edge_events,
    snapshots_cumulative,
    snapshots_window,
    stream_from_snapshot_dir,
)

CSV_HEADER = (
    "step,num_nodes,num_edges,added_edges,removed_edges,"
    "centralities_computed,elapsed_s,cumulative_s,speedup"
)


@dataclass
class BenchRecord:
    step: int  # 1-based, matching the paper-style reports
    num_nodes: int
    num_edges: int
    added_edges: int
    removed_edges: int
    centralities_computed: int
    elapsed_s: float
    cumulative_s: float
    speedup: float | None = None
    elapsed_std_s: float | None = None  # populated when repeat > 1; not in CSV


@dataclass
class BenchResult:
    mode: str
    variant: Variant
    batch: list[BenchRecord] | None = None
    dynamic: list[BenchRecord] | None = None
    maps: list[CentralityMap] = field(default_factory=list)  # compare mode only

    @property
    def records(self) -> list[BenchRecord]:
        primary = self.dynamic if self.dynamic is not None else self.batch
        assert primary is not None
        return primary


def diff_maps(a: dict[int, float], b: dict[int, float]):
    """First (node, value_a, value_b) divergence in ascending node order, or None.

    Values must compare equal: a NaN on either side is a divergence, even
    against the same NaN object, and so is an infinity against any other
    value. Equal maps are answered in C, by a dict comparison and a sum
    whose difference with itself is 0 only if no value is NaN or infinite
    (the comparison takes a NaN object as equal to itself). Otherwise the
    keys are walked in sorted order.
    """
    if a == b:
        s = sum(a.values())
        if s - s == 0:
            return None
    for v in sorted(a.keys() | b.keys()):
        if v not in a or v not in b:
            return (v, a.get(v), b.get(v))
        x, y = a[v], b[v]
        if not x == y:
            return (v, x, y)
    return None


def _measure(
    stream: SnapshotStream, mode: str, variant: Variant, repeat: int, on_map=None
) -> list[BenchRecord]:
    """Replay ``stream`` ``repeat`` times through the driver; one record per step.

    During the first replay, off the clock, each step's sizes are read and,
    if given, ``on_map(step, cmap)`` is called (step 0 is the initial graph).
    """
    sizes = [(stream.initial.num_edges, 0)]
    sizes += [(len(d.adds), len(d.removes)) for d in stream.deltas]
    times: list[list[float]] = [[] for _ in range(stream.num_steps)]
    rows = []
    for r in range(repeat):
        g = stream.initial.copy()
        for step, (cmap, seconds) in enumerate(evolve(g, stream.deltas, mode, variant)):
            times[step].append(seconds)
            if r == 0:
                if on_map is not None:
                    on_map(step, cmap)
                rows.append((g.num_nodes, g.num_edges, *sizes[step], cmap.computed_count))
    records = []
    cumulative = 0.0
    for step, (row, samples) in enumerate(zip(rows, times), start=1):
        mean = statistics.fmean(samples)
        cumulative += mean
        records.append(
            BenchRecord(
                step,
                *row,
                elapsed_s=mean,
                cumulative_s=cumulative,
                elapsed_std_s=statistics.stdev(samples) if repeat > 1 else None,
            )
        )
    return records


def bench_stream(
    stream: SnapshotStream,
    mode: str,
    variant: Variant = "unweighted",
    repeat: int = 1,
) -> BenchResult:
    """Measure one stream. ``stream.initial`` is copied, never mutated.

    Each mode replays the stream once per repeat. In compare mode the
    dynamic pass runs first and keeps a copy of its map at every step, in
    ``maps``; each batch map is checked against the stored dynamic map as
    the batch pass produces it, so no timing leaves this function on a
    divergence. Batch and dynamic mode keep no map: ``maps`` stays empty.
    """
    if mode not in ("batch", "dynamic", "compare"):
        raise ValueError(f"unknown mode {mode!r}")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    result = BenchResult(mode=mode, variant=variant)
    maps = result.maps

    def keep(step, cmap):
        maps.append(CentralityMap(dict(cmap.values), cmap.computed_count))

    def gate(step, cmap):
        bad = diff_maps(cmap.values, maps[step].values)
        if bad is not None:
            raise CompareMismatchError(step + 1, *bad)

    if mode == "dynamic":
        result.dynamic = _measure(stream, "dynamic", variant, repeat)
    elif mode == "batch":
        result.batch = _measure(stream, "batch", variant, repeat)
    else:
        result.dynamic = _measure(stream, "dynamic", variant, repeat, keep)
        result.batch = _measure(stream, "batch", variant, repeat, gate)
        for b, d in zip(result.batch, result.dynamic):
            b.speedup = d.speedup = b.elapsed_s / d.elapsed_s
    return result


def emit_csv(records: list[BenchRecord]) -> str:
    """Fixed-header CSV, 6-decimal reals, empty speedup outside compare
    mode, LF endings, trailing newline."""
    lines = [CSV_HEADER]
    for r in records:
        speedup = "" if r.speedup is None else f"{r.speedup:.6f}"
        lines.append(
            f"{r.step},{r.num_nodes},{r.num_edges},{r.added_edges},{r.removed_edges},"
            f"{r.centralities_computed},{r.elapsed_s:.6f},{r.cumulative_s:.6f},{speedup}"
        )
    return "\n".join(lines) + "\n"


def build_stream(
    path: str | Path,
    snapshot: str = "daily",
    window: int | None = None,
    weight_policy: str = "overwrite",
) -> SnapshotStream:
    """The stream of an event file or a snapshot directory: cumulative, or
    sliding-window when ``window`` (in periods) is given."""
    path = Path(path)
    if path.is_dir():
        return stream_from_snapshot_dir(path)
    events = load_edge_events(path)
    if not events:
        raise EmptyDatasetError(f"no edge events in {path}")
    if window is not None:
        return snapshots_window(events, snapshot, window, weight_policy)
    return snapshots_cumulative(events, snapshot, weight_policy)
