"""The package's public surface: exactly these names, each importable."""

import lapstream

PUBLIC = [
    "CentralityMap",
    "CompareMismatchError",
    "DeltaError",
    "Edge",
    "EdgeDelta",
    "Graph",
    "KERNEL_BACKEND",
    "LapstreamError",
    "NegativeWeightWarning",
    "ParseError",
    "RunConfig",
    "SnapshotStream",
    "apply_delta",
    "bench_stream",
    "delta_between",
    "emit_csv",
    "lap_cent",
    "lap_cent_add_remove",
    "laplacian_energy",
    "load_edge_events",
    "normalize",
    "parse_edge_events",
    "run_benchmark",
    "run_evolving",
    "snapshots_cumulative",
    "snapshots_window",
    "stream_from_snapshot_dir",
]

# what perfbench/worker.py and perfbench/tracer.py read off the package
BENCHMARK_NAMES = [
    "Graph",
    "Edge",
    "EdgeDelta",
    "run_evolving",
    "load_edge_events",
    "snapshots_window",
    "snapshots_cumulative",
    "bench_stream",
    "emit_csv",
    "KERNEL_BACKEND",
]


def test_all_is_pinned():
    assert sorted(lapstream.__all__) == PUBLIC


def test_every_name_resolves():
    for name in lapstream.__all__:
        assert getattr(lapstream, name) is not None, name


def test_benchmark_names_present():
    assert set(BENCHMARK_NAMES) <= set(lapstream.__all__)

