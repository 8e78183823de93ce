"""Benchmark harness: run batch/dynamic modes over a stream and measure.

Per step it records network size, delta size, centralities computed,
elapsed and cumulative seconds (monotonic clock), and, in compare mode,
the per-step batch/dynamic speedup. Timing covers centrality computation
only; for the dynamic algorithm that includes delta application and
affected-set gathering (they are part of its work), while batch snapshots
are materialized off the clock and only the full recomputation is timed.

Compare mode cross-checks that batch and dynamic maps agree at every step
before any timing is reported.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from lapstream.centrality import (
    CentralityMap,
    Variant,
    laplacian_energy,
    normalize,
    write_centralities,
)
from lapstream.errors import CompareMismatchError, EmptyDatasetError
from lapstream.incremental import apply_delta, evolve
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

MAP_REL_TOL = 1e-9


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
class RunConfig:
    input_path: str | Path
    mode: str = "dynamic"  # batch | dynamic | compare
    variant: Variant = "unweighted"
    snapshot: str = "daily"  # daily | monthly | count:N
    window: int | None = None  # sliding window length in buckets
    normalized: bool = False
    out_dir: str | Path | None = None
    strict: bool = False
    repeat: int = 1
    dump_centralities: bool = False
    weight_policy: str = "overwrite"


@dataclass
class BenchResult:
    mode: str
    variant: Variant
    batch: list[BenchRecord] | None = None
    dynamic: list[BenchRecord] | None = None
    maps: list[CentralityMap] = field(default_factory=list)  # authoritative pass

    @property
    def records(self) -> list[BenchRecord]:
        primary = self.dynamic if self.dynamic is not None else self.batch
        assert primary is not None
        return primary


def diff_maps(a: dict[int, float], b: dict[int, float], rel_tol: float = MAP_REL_TOL):
    """First (node, value_a, value_b) divergence in ascending node order, or None.

    A NaN on either side is a divergence, and so is an infinity against any
    other value. Equal maps cost one linear pass; the keys are sorted only
    to locate a divergence that pass has found.
    """
    if len(a) == len(b):
        for v, x in a.items():
            if v not in b:
                break
            y = b[v]
            if x != y and not _close(x, y, rel_tol):  # skip the call on exact equality
                break
        else:
            return None
    for v in sorted(a.keys() | b.keys()):
        if v not in a or v not in b:
            return (v, a.get(v), b.get(v))
        x, y = a[v], b[v]
        if not _close(x, y, rel_tol):
            return (v, x, y)
    return None


def _close(x: float, y: float, rel_tol: float) -> bool:
    # every comparison with NaN is False, so NaN fails this test; an
    # infinite tolerance would let infinity match any finite value
    return x == y or abs(x - y) <= rel_tol * max(1.0, abs(x), abs(y)) < math.inf


def _measure(
    stream: SnapshotStream, mode: str, variant: Variant, repeat: int, strict: bool, on_map
) -> list[BenchRecord]:
    """Replay ``stream`` ``repeat`` times through the driver; one record per step.

    During the first replay, off the clock, each step's sizes are read and
    ``on_map(step, cmap)`` is called (step 0 is the initial graph).
    """
    sizes = [(stream.initial.num_edges, 0)]
    sizes += [(len(d.adds), len(d.removes)) for d in stream.deltas]
    times: list[list[float]] = [[] for _ in range(stream.num_steps)]
    rows = []
    for r in range(repeat):
        g = stream.initial.copy()
        g.strict = strict
        for step, (cmap, seconds) in enumerate(evolve(g, stream.deltas, mode, variant)):
            times[step].append(seconds)
            if r == 0:
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
    strict: bool = False,
) -> BenchResult:
    """Measure one stream. ``stream.initial`` is copied, never mutated.

    Each mode replays the stream once per repeat. In compare mode the
    dynamic pass runs first and keeps its maps; each batch map is checked
    against the stored dynamic map as the batch pass produces it, so no
    timing leaves this function on a divergence.
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

    if mode != "batch":
        result.dynamic = _measure(stream, "dynamic", variant, repeat, strict, keep)
    if mode != "dynamic":
        on_map = gate if mode == "compare" else lambda _, cmap: maps.append(cmap)
        result.batch = _measure(stream, "batch", variant, repeat, strict, on_map)
    if mode == "compare":
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


def build_stream(cfg: RunConfig) -> SnapshotStream:
    path = Path(cfg.input_path)
    if path.is_dir():
        return stream_from_snapshot_dir(path)
    events = load_edge_events(path)
    if not events:
        raise EmptyDatasetError(f"no edge events in {path}")
    if cfg.window is not None:
        return snapshots_window(events, cfg.snapshot, cfg.window, cfg.weight_policy)
    return snapshots_cumulative(events, cfg.snapshot, cfg.weight_policy)


def _dump_centralities(stream, maps, variant, normalized, out_dir: Path) -> None:
    dump_dir = out_dir / "centralities"
    dump_dir.mkdir(parents=True, exist_ok=True)
    g = stream.initial.copy() if normalized else None  # only normalizing needs the graph
    for step, cmap in enumerate(maps):
        if normalized:
            if step > 0:
                apply_delta(g, stream.deltas[step - 1])
            cmap = normalize(cmap, laplacian_energy(g, variant))
        with open(dump_dir / f"step_{step + 1:04d}.csv", "w", newline="\n") as fh:
            write_centralities(cmap, fh)


def run_benchmark(cfg: RunConfig) -> BenchResult:
    """Full harness entry point: build the stream per the config, measure,
    and write CSV/centrality artifacts if an output directory is set."""
    stream = build_stream(cfg)
    result = bench_stream(stream, cfg.mode, cfg.variant, cfg.repeat, cfg.strict)
    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if result.batch is not None:
            (out_dir / "batch.csv").write_text(emit_csv(result.batch), newline="\n")
        if result.dynamic is not None:
            (out_dir / "dynamic.csv").write_text(emit_csv(result.dynamic), newline="\n")
        if cfg.dump_centralities:
            _dump_centralities(stream, result.maps, cfg.variant, cfg.normalized, out_dir)
    return result
