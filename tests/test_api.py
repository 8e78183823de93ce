"""The package's public surface: exactly these names, each importable."""

import subprocess
from pathlib import Path

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
    "SnapshotStream",
    "apply_delta",
    "bench_stream",
    "emit_csv",
    "lap_cent",
    "lap_cent_add_remove",
    "laplacian_energy",
    "load_edge_events",
    "normalize",
    "parse_edge_events",
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


def test_kernel_backend_is_python():
    assert lapstream.KERNEL_BACKEND == "python"


def test_package_is_python_source_only():
    """Every file tracked in the package is ``.py`` source: no generated backend."""
    pkg = Path(lapstream.__file__).parent
    try:
        listed = subprocess.run(
            ["git", "ls-files"], cwd=pkg, capture_output=True, text=True, check=True
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):  # not a git checkout
        listed = [p.name for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert listed
    assert [name for name in listed if not name.endswith(".py")] == []
