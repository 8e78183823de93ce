"""Benchmark harness: run batch/dynamic modes over a stream and measure.

Per step it records network size, delta size, centralities computed,
elapsed and cumulative seconds (monotonic clock), and, in compare mode,
the per-step batch/dynamic speedup. Timing covers centrality computation
only; for the dynamic algorithm that includes validating and applying the
delta (they are part of its step), while batch mode applies each delta
off the clock and times only the full recomputation.

Every mode is one replay of the stream through the evolving-run driver,
on one copy of the initial graph, so each delta is applied once. Compare
mode follows each dynamic step with a timed full recomputation of the
same post-delta graph, then checks off the clock that the two maps are
equal, value for value, before any timing is reported; it is the only
mode that keeps a map per step.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from time import perf_counter

from lapstream.centrality import CentralityMap, NodeValues, Variant, lap_cent
from lapstream.errors import CompareMismatchError
from lapstream.incremental import evolve
from lapstream.ingest import SnapshotStream

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


@dataclass
class BenchResult:
    mode: str
    variant: Variant
    batch: list[BenchRecord] | None = None
    dynamic: list[BenchRecord] | None = None
    maps: list[CentralityMap] = field(default_factory=list)  # compare mode only


def diff_maps(a: NodeValues, b: NodeValues):
    """First (node, value_a, value_b) divergence in ascending node order, or None.

    Values must compare equal: a NaN on either side is a divergence, even
    against the same NaN object, and so is an infinity against any other
    value. Equal maps with the same keys in the same order and the same
    scale, as two maps over one graph's node table have, are answered in C,
    by comparing their exact value sequences and a sum whose difference
    with itself is 0 only if no value is NaN or infinite (the comparison
    takes a NaN object as equal to itself). Otherwise the keys are walked in
    sorted order.
    """
    x, y = a._values, b._values
    same_keys = a._nodes is b._nodes or a._nodes[: len(x)] == b._nodes[: len(y)]
    if same_keys and a._shift == b._shift and tuple(x) == tuple(y):
        s = sum(x)
        if s - s == 0:
            return None
    for v in sorted(a.keys() | b.keys()):
        if v not in a or v not in b:
            return (v, a.get(v), b.get(v))
        x, y = a[v], b[v]
        if not x == y:
            return (v, x, y)
    return None


def _records(rows) -> list[BenchRecord]:
    """One record per ``(*sizes, computed, seconds)`` row, with running totals."""
    records = []
    cumulative = 0.0
    for step, (*row, seconds) in enumerate(rows, start=1):
        cumulative += seconds
        records.append(BenchRecord(step, *row, elapsed_s=seconds, cumulative_s=cumulative))
    return records


def bench_stream(
    stream: SnapshotStream,
    mode: str,
    variant: Variant = "unweighted",
) -> BenchResult:
    """Measure one stream. ``stream.initial`` is copied, never mutated.

    Every mode is one replay of the stream through :func:`evolve`, on one
    copy of ``stream.initial``, so each delta is applied once: in batch
    mode the driver recomputes every step, in dynamic and compare mode it
    runs the dynamic step. Compare mode then times a :func:`lap_cent` of
    the same post-delta graph as that step's batch record, checks off the
    clock that the batch map equals the dynamic one, so no timing leaves
    this function on a divergence, and keeps the dynamic map in ``maps`` as
    :func:`run_evolving` keeps it, one tuple per step (see
    :meth:`NodeValues.copy`), behind an empty ``dict`` that takes any
    write, so a kept map reads as a ``dict`` and can be written like one
    without a ``dict`` per step. Batch and dynamic mode keep no map:
    ``maps`` stays empty.
    """
    if mode not in ("batch", "dynamic", "compare"):
        raise ValueError(f"unknown mode {mode!r}")
    result = BenchResult(mode=mode, variant=variant)
    sizes = [(stream.initial.num_edges, 0)]
    sizes += [(len(d.adds), len(d.removes)) for d in stream.deltas]
    g = stream.initial.copy()
    steps = evolve(g, stream.deltas, "batch" if mode == "batch" else "dynamic", variant)
    rows = []
    batch_rows = []
    for step, (cmap, seconds) in enumerate(steps):
        row = (g.num_nodes, g.num_edges, *sizes[step])
        rows.append((*row, cmap.computed_count, seconds))
        if mode == "compare":
            t0 = perf_counter()
            full = lap_cent(g, variant)
            batch_rows.append((*row, full.computed_count, perf_counter() - t0))
            bad = diff_maps(full.values, cmap.values)
            if bad is not None:
                raise CompareMismatchError(step + 1, *bad)
            kept = ChainMap({}, cmap.values.copy())
            result.maps.append(CentralityMap(kept, cmap.computed_count))
    if mode == "batch":
        result.batch = _records(rows)
    else:
        result.dynamic = _records(rows)
    if mode == "compare":
        result.batch = _records(batch_rows)
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

