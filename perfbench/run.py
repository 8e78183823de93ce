#!/usr/bin/env python3
"""Benchmark of lapstream: three seeded workloads, checked outputs, traced layers.

One run of one workload:

    python3 perfbench/run.py --workload desk-churn --seed 1 --seconds 10 --trace 0

prints the run's set-up (inputs, kernel backend, Python, nproc, git SHA,
LAPSTREAM_* variables) and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``. The traced run also prints its own end-to-end figures and
their overhead against the untraced rounds it interleaves.

A run is a whole number of rounds, each a full replay of the workload's
input; ``--seconds`` sets how many (see ROUND_SECONDS), never a clock.

Repeat mode, ``--repeat K``, runs each workload (or the one named) K times
on seeds ``--seed`` .. ``--seed``+K-1 and prints each metric's median,
quartiles and spread next to its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a run makes one round per ROUND_SECONDS of --seconds (at least one). On a
# 2-core x86 VM with the pure-Python kernels a round, its speed probe
# included, takes 0.6-1.25 s, 1.2-2.1 s and 0.65-1.1 s (in the order below)
# in the CPU's fast and slow phases, so a run of --seconds 20 takes 16-37 s
# with its set-up and checks
ROUND_SECONDS = {"desk-churn": 0.9, "events-window": 1.25, "events-compare": 0.8}
RUN_TIMEOUT_S = 170
# users run single-threaded with the default kernel selection
UNSET_ENV = ("LAPSTREAM_THREADS", "LAPSTREAM_PURE")


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the worker once; returns its report plus the run's set-up."""
    path, digest = workloads.ensure_input(workload, seed)
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        workload,
        str(path),
        str(rounds_for(workload, seconds)),
        "1" if trace else "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker exited with {proc.returncode} and no report")
    report = json.loads(lines[-1])
    report["meta"].update(
        workload=workload,
        seed=seed,
        input=path.name,
        input_sha256=digest,
        nproc=len(os.sched_getaffinity(0)),
        git_sha=git_sha(ROOT),
    )
    return report


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(report: dict, spec: dict, trace: bool) -> str:
    source = report["per_layer"] if trace else report["end_to_end"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_trace_overhead(report: dict) -> None:
    plain, traced = report["end_to_end"], report["traced_end_to_end"]
    print("# traced run, end to end (untraced rounds of this run -> traced rounds):")
    for name, traced_value in traced.items():
        base = plain[name]
        overhead = f"{traced_value / base - 1:+.1%}" if base else "n/a"
        print(f"#   {name:16s} {base:12.4f} -> {traced_value:12.4f}  overhead {overhead}")


def single(args, spec) -> int:
    report = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    print("# " + json.dumps(report["meta"], sort_keys=True))
    for problem in report["problems"]:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        print_trace_overhead(report)
        for name in report["untraced_names"]:
            print(f"# not traced, absent from this lapstream: {name}")
    print(result_line(report, spec, args.trace == 1))
    return 0 if report["correct"] else 1


def repeat(args, spec) -> int:
    trace = args.trace == 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    summary = {}
    ok = True
    for name in names:
        reports = [run_once(name, args.seed + i, args.seconds, trace) for i in range(args.repeat)]
        meta = reports[0]["meta"]
        print(
            f"{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
            f"backend {meta['kernel_backend']}, python {meta['python']}, "
            f"nproc {meta['nproc']}, git {meta['git_sha'][:12]}, env {meta['lapstream_env']}"
        )
        ok = ok and all(r["correct"] for r in reports)
        failed = sorted({(r["failed"], r["attempted"]) for r in reports})
        print(f"  correct {[r['correct'] for r in reports]}  (failed, attempted) {failed}")
        summary[name] = {}
        for m in declared:
            values = [(r["per_layer"] if trace else r["end_to_end"])[m["name"]] for r in reports]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[m["name"]]
            limit = f"  bound {bound:.2f}" if bound is not None else ""
            print(
                f"  {m['name']:28s} median {med:14.4f} {m['unit']:6s} "
                f"q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:6.1%}{limit}"
            )
            summary[name][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values
            }
    print(json.dumps(summary))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    args = parser.parse_args()
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lapstream" / "__init__.py").is_file():
        print(f"no lapstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.repeat:
        return repeat(args, spec)
    if args.workload is None:
        parser.error("--workload is required without --repeat")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
