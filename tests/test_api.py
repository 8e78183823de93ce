"""The package's public surface: exactly these names, each importable."""

import dataclasses
import subprocess
from pathlib import Path

import lapstream
from lapstream import kernels
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
    """Graph's public members are pinned, the ones a user of the package calls;
    the kernels and the step read the graph's slots."""
    assert {n for n in dir(Graph) if not n.startswith("_")} == {
        "copy",
        "edges",
        "num_edges",
        "num_nodes",
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


def test_kernels_read_their_last_argument_as_the_node_list():
    """perfbench/tracer.py counts a kernel call's nodes and entries from its
    last argument, so a kernel evaluates exactly the positions it is given.
    ROADMAP item 1a makes the tracer read the rows instead, and deletes this
    pin along with that read."""
    g = Graph([(1, 2, 3.0), (2, 3), (3, 4, 0.5), (4, 1)])
    rows, strength = g._rows, g._strength
    every = range(g.num_nodes)
    unweighted = kernels.unweighted_values(rows, every)
    weighted = kernels.weighted_values(rows, strength, every)
    for p in every:
        assert kernels.unweighted_values(rows, [p]) == [unweighted[p]]
        assert kernels.weighted_values(rows, strength, [p]) == [weighted[p]]


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
