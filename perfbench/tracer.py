"""Spans around calls into lapstream's modules, installed from outside.

Each wrapper replaces a function at the name its caller looks it up by
(``incremental`` and ``bench`` bind imported names at import time, so the
wrapper goes on the caller's module, not the defining one). A span records
its total time and its self time: the total minus the time spent in wrapped
callees, bookkeeping of those callees included, so counting work done in a
wrapper is charged to no layer.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.recompute_sets: list[set[int]] = []
        self._inner = [0.0]  # per open span: time its wrapped callees took
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # names a later version no longer has

    def _wrap(self, name, fn, on_exit):
        inner, total, self_time = self._inner, self.total, self.self_time

        def span(*args, **kwargs):
            t0 = perf_counter()
            inner.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                nested = inner.pop()
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - nested
            if on_exit is not None:
                on_exit(args, out)
            inner[-1] += perf_counter() - t0
            return out

        return span

    def _counter(self, name, fn):
        count = self.count

        def counted(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, wrapper_of) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def span(self, owner, attr: str, name: str, on_exit=None) -> None:
        self._set(owner, attr, lambda fn: self._wrap(name, fn, on_exit))

    def counter(self, owner, attr: str, name: str) -> None:
        self._set(owner, attr, lambda fn: self._counter(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(L) -> Tracer:
    """Wrap every layer boundary the three workloads cross."""
    from lapstream import bench, centrality, incremental, ingest, kernels
    from lapstream.graph import Graph

    t = Tracer()
    count = t.count

    def events(args, out):
        count["ingest.events"] += len(out)

    def changes(args, out):
        count["ingest.changes"] += sum(d.num_changes for d in out.deltas)

    def gathered(args, out):
        count["incremental.touched"] += len(out.touched)
        count["incremental.recompute"] += len(out.recompute)
        t.recompute_sets.append(out.recompute)

    def applied(args, out):
        count["incremental.apply_calls"] += 1

    def scanned(args, out):
        adj, nodes = args[0], args[-1]
        count["kernels.nodes"] += len(nodes)
        count["kernels.entries_scanned"] += sum(map(len, map(adj.__getitem__, nodes)))

    t.span(ingest, "parse_edge_events", "ingest.parse", events)
    t.span(ingest, "bucket_events", "ingest.bucket")
    t.span(L, "snapshots_window", "ingest.build", changes)
    t.span(L, "snapshots_cumulative", "ingest.build", changes)
    t.counter(Graph, "add_edge", "graph.mutations")
    t.counter(Graph, "remove_edge", "graph.mutations")
    t.span(incremental, "affected_nodes", "incremental.gather", gathered)
    t.span(incremental, "apply_delta", "incremental.apply", applied)
    t.span(bench, "apply_delta", "incremental.apply", applied)
    t.span(L, "run_evolving", "incremental.driver")
    t.span(bench, "lap_cent_add_remove", "incremental.driver")
    t.span(bench, "lap_cent_weighted_add_remove", "incremental.driver")
    t.span(incremental, "evaluate_nodes", "centrality.evaluate")
    t.span(centrality, "evaluate_nodes", "centrality.evaluate")
    t.span(incremental, "lap_cent", "centrality.batch")
    t.span(bench, "lap_cent", "centrality.batch")
    t.span(kernels, "unweighted_values", "kernels", scanned)
    t.span(kernels, "weighted_values", "kernels", scanned)
    t.span(L, "bench_stream", "bench.harness")
    t.span(bench, "diff_maps", "bench.gate")
    t.span(L, "emit_csv", "bench.csv")
    return t


def layer_metrics(t: Tracer, step_maps: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced round.

    ``step_maps`` are the dynamic run's per-step maps; with the recompute
    set of each step they give how many evaluations changed a value.
    """
    useful = 0
    for k, nodes in enumerate(t.recompute_sets, start=1):
        prev, cur = step_maps[k - 1], step_maps[k]
        useful += sum(1 for v in nodes if cur[v] != prev.get(v))
    evaluated = t.count["incremental.recompute"]
    kernel_s = t.total["kernels"]
    entries = t.count["kernels.entries_scanned"]
    return {
        "ingest.parse_s": t.total["ingest.parse"],
        "ingest.events": t.count["ingest.events"],
        "ingest.build_s": t.total["ingest.build"],
        "ingest.bucket_s": t.total["ingest.bucket"],
        "ingest.changes": t.count["ingest.changes"],
        "graph.mutations": t.count["graph.mutations"],
        "incremental.gather_s": t.total["incremental.gather"],
        "incremental.touched": t.count["incremental.touched"],
        "incremental.recompute": evaluated,
        "incremental.useful_ratio": useful / evaluated if evaluated else 0.0,
        "incremental.driver_self_s": t.self_time["incremental.driver"],
        "incremental.apply_s": t.total["incremental.apply"],
        "incremental.apply_calls": t.count["incremental.apply_calls"],
        "centrality.evaluate_self_s": t.self_time["centrality.evaluate"],
        "centrality.batch_s": t.total["centrality.batch"],
        "kernels.s": kernel_s,
        "kernels.nodes": t.count["kernels.nodes"],
        "kernels.entries_scanned": entries,
        "kernels.ns_per_entry": kernel_s / entries * 1e9 if entries else 0.0,
        "bench.self_s": t.self_time["bench.harness"],
        "bench.gate_s": t.total["bench.gate"],
        "bench.csv_s": t.total["bench.csv"],
    }
