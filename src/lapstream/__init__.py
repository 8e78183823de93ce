"""Laplacian centrality for evolving graphs: batch, incremental, benchmarked.

The incremental algorithms bring centrality up to date only for the
endpoints of added/removed edges and their first-order neighbors, producing
per-step maps identical to full recomputation at a fraction of the work.

The package exports the errors that carry fields, their base class and the
warning; the other errors live in :mod:`lapstream.errors`.
"""

from lapstream.bench import bench_stream, emit_csv
from lapstream.centrality import CentralityMap, lap_cent, laplacian_energy, normalize
from lapstream.errors import (
    CompareMismatchError,
    DeltaError,
    LapstreamError,
    NegativeWeightWarning,
    ParseError,
)
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, lap_cent_add_remove, run_evolving
from lapstream.ingest import (
    SnapshotStream,
    load_edge_events,
    parse_edge_events,
    snapshots_cumulative,
    snapshots_window,
    stream_from_snapshot_dir,
)

__version__ = "0.1.0"

# the kernels are pure Python; perfbench records this name with every result
KERNEL_BACKEND = "python"

__all__ = [
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
