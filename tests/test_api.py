"""The package's public surface: exactly these names, each importable."""

import dataclasses
import subprocess
from pathlib import Path

import lapstream
from lapstream.graph import Graph
from lapstream.ingest import SnapshotStream

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


def test_graph_surface_is_pinned():
    """Graph's public members are pinned: the package itself uses every one
    but ``nodes()``, which the tests read."""
    assert {n for n in dir(Graph) if not n.startswith("_")} == {
        "adjacency",
        "copy",
        "edges",
        "has_edge",
        "nodes",
        "num_edges",
        "num_nodes",
        "strengths",
    }


def test_edges_are_plain_tuples():
    """The graph gives back edges in the one shape the parser and the builders emit."""
    g = Graph([(1, 2), (3, 2, 2.5), lapstream.Edge(4, 1, 0.5)])
    assert [type(e) for e in g.edges()] == [tuple] * 3
    assert sorted(g.edges()) == [(1, 2, 1), (1, 4, 0.5), (2, 3, 2.5)]


def test_snapshot_stream_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(SnapshotStream)] == ["initial", "deltas"]


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
