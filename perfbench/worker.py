"""Runs one workload against lapstream in a fresh process and checks it.

    python3 perfbench/worker.py WORKLOAD INPUT ROUNDS TRACE

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and reads the JSON
object printed as the last line. Every round replays the whole input from
a fresh set-up and is timed between two runs of ``probe``, whose times
scale the round's; the outputs of the last round are then checked against
``oracle``, off the clock. With TRACE=1 half the rounds are traced, each
following an untraced one, so the per-layer figures come with the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import probe
import tracer
import workloads

WINDOW_DAYS = 14
# per-step times must add up to the run_evolving call minus its set-up within this
STEP_SUM_MARGIN = 0.02
STEP_SUM_SLACK_S = 0.002
# per-layer figures that are times, scaled like the end-to-end ones
TIME_SUFFIXES = ("_s", ".s", "ns_per_entry")


@dataclass
class Round:
    setup_s: float  # everything before the first delta is processed
    run_s: float
    steps_s: list[float]
    computed: list[int]  # computed_count per step, step 0 included
    layers: dict[str, float] | None = None
    problems: list[str] = field(default_factory=list)
    # probe.REFERENCE_S over the mean of the probes just before and after the round
    scale: float = 1.0
    outputs: dict = field(default_factory=dict)  # for the final check only


def _pulls(deltas, graph, stamps, edges):
    """Hands out deltas, stamping when run_evolving asks for each next one."""
    for d in deltas:
        stamps.append(perf_counter())
        edges.append(graph.num_edges)
        yield d
    stamps.append(perf_counter())
    edges.append(graph.num_edges)


def _evolve(L, graph, deltas, variant, t_setup0, t_setup1, trace):
    """Timed ``run_evolving`` call shared by desk-churn and events-window."""
    stamps: list[float] = []
    edges: list[int] = []
    maps = L.run_evolving(graph, _pulls(deltas, graph, stamps, edges), mode="dynamic", variant=variant)
    t_end = perf_counter()
    in_call_setup = stamps[0] - t_setup1
    steps = [b - a for a, b in zip(stamps, stamps[1:])]
    rnd = Round(
        setup_s=(t_setup1 - t_setup0) + in_call_setup,
        run_s=t_end - stamps[0],
        steps_s=steps,
        computed=[m.computed_count for m in maps],
    )
    stepped = sum(steps)
    if stepped < (1 - STEP_SUM_MARGIN) * rnd.run_s - STEP_SUM_SLACK_S:
        rnd.problems.append(
            f"step times add up to {stepped:.4f} s but run_evolving ran {rnd.run_s:.4f} s "
            "after set-up: deltas were not pulled one step at a time"
        )
    if trace is not None:
        rnd.layers = tracer.layer_metrics(trace, [m.values for m in maps])
    rnd.outputs = {"maps": maps, "edges": edges}
    return rnd


class DeskChurn:
    variant = "unweighted"

    def __init__(self, L, path):
        self.L = L
        self.initial, self.steps = workloads.read_churn(path)
        self.deltas = [
            L.EdgeDelta(adds=[L.Edge(u, v) for u, v in adds], removes=list(removes))
            for removes, adds in self.steps
        ]

    def round(self, trace):
        t0 = perf_counter()
        g = self.L.Graph(self.initial)
        t1 = perf_counter()
        return _evolve(self.L, g, self.deltas, self.variant, t0, t1, trace)

    def expected(self):
        return oracle.expect_churn(self.initial, self.steps)


class EventsWindow:
    variant = "weighted"

    def __init__(self, L, path):
        self.L = L
        self.path = path

    def round(self, trace):
        L = self.L
        t0 = perf_counter()
        events = L.load_edge_events(self.path)
        stream = L.snapshots_window(events, "daily", WINDOW_DAYS, "accumulate")
        t1 = perf_counter()
        del events
        rnd = _evolve(L, stream.initial, stream.deltas, self.variant, t0, t1, trace)
        rnd.outputs["delta_sizes"] = [(len(d.adds), len(d.removes)) for d in stream.deltas]
        return rnd

    def expected(self):
        return oracle.expect_window(workloads.read_events(self.path), WINDOW_DAYS)


class EventsCompare:
    variant = "unweighted"

    def __init__(self, L, path):
        self.L = L
        self.path = path

    def round(self, trace):
        L = self.L
        t0 = perf_counter()
        events = L.load_edge_events(self.path)
        stream = L.snapshots_cumulative(events, "daily")
        t1 = perf_counter()
        del events
        result = L.bench_stream(stream, "compare")
        csv = (L.emit_csv(result.batch), L.emit_csv(result.dynamic))
        t2 = perf_counter()
        # the harness's own centrality-only clock of each dynamic step
        steps = [r.elapsed_s for r in result.dynamic[1:]]
        rnd = Round(
            setup_s=t1 - t0,
            run_s=t2 - t1,
            steps_s=steps,
            computed=[m.computed_count for m in result.maps],
        )
        if not sum(steps) <= rnd.run_s:
            rnd.problems.append(f"harness step times {sum(steps):.4f} s exceed the run, {rnd.run_s:.4f} s")
        if trace is not None:
            rnd.layers = tracer.layer_metrics(trace, [m.values for m in result.maps])
        rnd.outputs = {"maps": result.maps, "csv": csv, "result": result}
        return rnd

    def expected(self):
        return oracle.expect_cumulative(workloads.read_events(self.path))


WORKLOADS = {"desk-churn": DeskChurn, "events-window": EventsWindow, "events-compare": EventsCompare}


# -- output checks ----------------------------------------------------------------


def _check_counts(exp, computed, nodes, edges, problems):
    last = len(exp.nodes) - 1
    if len(computed) != last + 1:
        problems.append(f"{len(computed)} step results for {last + 1} steps")
        return
    for k in range(last + 1):
        if nodes[k] != exp.nodes[k] or edges[k] != exp.edges[k]:
            problems.append(
                f"step {k}: {nodes[k]} nodes / {edges[k]} edges, "
                f"expected {exp.nodes[k]} / {exp.edges[k]}"
            )
            return
        low = exp.touched[k] if k else exp.nodes[k]
        if not low <= computed[k] <= exp.nodes[k]:
            problems.append(
                f"step {k}: computed_count {computed[k]} outside "
                f"[{low}, {exp.nodes[k]}] (touched endpoints, node count)"
            )
            return


def _check_maps(exp, maps, rel_tol, problems):
    for k, want in exp.maps.items():
        bad = oracle.map_mismatch(want, maps[k].values, rel_tol)
        if bad is not None:
            problems.append(f"step {k}: {bad}")


def _check_csv(exp, text, computed, problems):
    lines = text.splitlines()
    if len(lines) != len(exp.nodes) + 1:
        problems.append(f"CSV has {len(lines)} lines for {len(exp.nodes)} steps")
        return
    for k, line in enumerate(lines[1:]):
        f = line.split(",")
        got = [int(x) for x in f[:6]]
        want = [k + 1, exp.nodes[k], exp.edges[k], exp.added[k], exp.removed[k], computed[k]]
        if got != want:
            problems.append(f"CSV row {k + 1}: {got[:6]}, expected {want}")
            return


def check(workload, exp, rnd: Round) -> list[str]:
    problems: list[str] = []
    out = rnd.outputs
    maps = out["maps"]
    rel_tol = oracle.REL_TOL if workload.variant == "weighted" else 0.0
    nodes = [len(m.values) for m in maps]
    if isinstance(workload, EventsCompare):
        result = out["result"]
        recs = result.dynamic
        edges = [r.num_edges for r in recs]
        if [r.num_nodes for r in recs] != nodes:
            problems.append("harness node counts disagree with its own maps")
        batch_csv, dyn_csv = out["csv"]
        _check_csv(exp, batch_csv, exp.nodes, problems)
        _check_csv(exp, dyn_csv, rnd.computed, problems)
    else:
        edges = out["edges"]
    _check_counts(exp, rnd.computed, nodes, edges, problems)
    if "delta_sizes" in out and out["delta_sizes"] != list(zip(exp.added[1:], exp.removed[1:])):
        problems.append("window deltas' add/remove counts disagree with the replayed window")
    _check_maps(exp, maps, rel_tol, problems)
    return problems


# -- run ------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """This process's peak resident memory since it started this program.

    ``ru_maxrss`` would also count the parent's resident set at the moment
    it spawned this process, so the kernel's high-water mark of the
    current address space is read instead where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict[str, float]:
    """Figures of the run: medians over its rounds, each round scaled.

    Each round's times are multiplied by its ``scale``, which expresses
    them at the machine speed where the probe takes ``probe.REFERENCE_S``;
    the probes are timed right before and after the round, in the same
    phase of the shared machine's speed. ``setup_s`` and ``run_s`` are the
    medians over the rounds; each step's time is its median over the
    rounds, and the step quantiles are taken over those.
    """
    factor = [r.scale if scaled else 1.0 for r in rounds]
    steps = [
        statistics.median(t * f for t, f in zip(step, factor))
        for step in zip(*(r.steps_s for r in rounds))
    ]
    return {
        "setup_s": statistics.median(r.setup_s * f for r, f in zip(rounds, factor)),
        "run_s": statistics.median(r.run_s * f for r, f in zip(rounds, factor)),
        "step_p50_ms": statistics.median(steps) * 1e3,
        "step_p90_ms": statistics.quantiles(steps, n=10)[8] * 1e3,
        "nodes_evaluated": sum(rounds[-1].computed[1:]),
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    """Per-layer figures: medians over the traced rounds, times scaled."""
    return {
        key: statistics.median(
            r.layers[key] * r.scale if key.endswith(TIME_SUFFIXES) else r.layers[key] for r in rounds
        )
        for key in rounds[0].layers
    }


def main(argv) -> int:
    name, path, n_rounds, trace = argv[0], Path(argv[1]), int(argv[2]), argv[3] == "1"
    import lapstream as L

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(L.__file__).resolve().parent.parent != src:
        print(f"lapstream imported from {L.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[name](L, path)
    plain: list[Round] = []
    traced: list[Round] = []
    missing: set[str] = set()
    order: list[Round] = []
    probes: list[float] = []

    def run_round(into, trace_with):
        # only the last round's outputs are checked; earlier ones must not
        # stay alive into the next round and raise its memory peak
        for done in order:
            done.outputs = {}
        probes.append(probe.probe_s())
        order.append(workload.round(trace_with))
        into.append(order[-1])

    # a traced run takes as long as an untraced one: half its rounds are traced
    for _ in range(max(1, n_rounds // 2) if trace else n_rounds):
        run_round(plain, None)
        if trace:
            t = tracer.install(L)
            missing.update(t.missing)
            try:
                run_round(traced, t)
            finally:
                t.uninstall()
    peak_rss_mb = _peak_rss_mb()
    probes.append(probe.probe_s())
    for k, rnd in enumerate(order):
        rnd.scale = probe.REFERENCE_S / ((probes[k] + probes[k + 1]) / 2)

    rounds = order
    problems = [p for r in rounds for p in r.problems]
    if len({tuple(r.computed) for r in rounds}) != 1:
        problems.append("computed_count per step differs between rounds of one input")
    problems.extend(check(workload, workload.expected(), rounds[-1]))

    metrics = end_to_end(plain)
    metrics["peak_rss_mb"] = peak_rss_mb
    report = {
        "correct": not problems,
        "attempted": sum(len(r.computed) - 1 for r in rounds),
        "failed": 0,
        "end_to_end": metrics,
        "problems": problems,
        "meta": {
            "kernel_backend": L.KERNEL_BACKEND,
            "python": sys.version.split()[0],
            "lapstream_env": {k: v for k, v in os.environ.items() if k.startswith("LAPSTREAM_")},
            "rounds": len(rounds),
            "steps_per_round": len(rounds[0].computed) - 1,
            "probe_median_s": statistics.median(probes),
            "probe_range_s": [min(probes), max(probes)],
            "unscaled": end_to_end(plain, scaled=False),
        },
    }
    if trace:
        report["traced_end_to_end"] = end_to_end(traced)
        report["untraced_names"] = sorted(missing)
        report["per_layer"] = per_layer(traced)
    print(json.dumps(report))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
