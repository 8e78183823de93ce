"""Laplacian centrality for evolving graphs: batch, incremental, benchmarked.

The incremental algorithms bring centrality up to date only for the
endpoints of added/removed edges and their first-order neighbors, producing
per-step maps identical to full recomputation at a fraction of the work.
"""

from lapstream.bench import (
    BenchRecord,
    BenchResult,
    RunConfig,
    bench_stream,
    emit_csv,
    run_benchmark,
)
from lapstream.centrality import (
    CentralityMap,
    cw,
    delta_energy_oracle,
    lap_cent,
    laplacian_energy,
    normalize,
    write_centralities,
)
from lapstream.errors import (
    CompareMismatchError,
    DeltaError,
    DuplicateEdgeError,
    EmptyDatasetError,
    LapstreamError,
    MissingEdgeError,
    NegativeWeightWarning,
    ParseError,
    SelfLoopError,
    UnknownNodeError,
    ZeroEnergyError,
)
from lapstream.graph import Edge, Graph, GraphStats
from lapstream.incremental import (
    AffectedSets,
    EdgeDelta,
    affected_nodes,
    apply_delta,
    lap_cent_add_remove,
    run_evolving,
)
from lapstream.ingest import (
    EdgeEvent,
    SnapshotStream,
    delta_between,
    load_edge_events,
    parse_edge_events,
    snapshots_cumulative,
    snapshots_window,
    stream_from_snapshot_dir,
)
from lapstream.kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "AffectedSets",
    "BenchRecord",
    "BenchResult",
    "CentralityMap",
    "CompareMismatchError",
    "DeltaError",
    "DuplicateEdgeError",
    "Edge",
    "EdgeDelta",
    "EdgeEvent",
    "EmptyDatasetError",
    "Graph",
    "GraphStats",
    "KERNEL_BACKEND",
    "LapstreamError",
    "MissingEdgeError",
    "NegativeWeightWarning",
    "ParseError",
    "RunConfig",
    "SelfLoopError",
    "SnapshotStream",
    "UnknownNodeError",
    "ZeroEnergyError",
    "affected_nodes",
    "apply_delta",
    "bench_stream",
    "cw",
    "delta_between",
    "delta_energy_oracle",
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
    "write_centralities",
]
