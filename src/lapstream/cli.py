"""Command-line interface.

Subcommands:
    run         benchmark one algorithm (batch or dynamic) over a stream
    compare     run both algorithms, cross-check results, report speedups
    centrality  one-shot batch centrality of a single edge-list file
    validate    strict delta-consistency audit of a stream

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys

from lapstream import __version__
from lapstream.bench import RunConfig, build_stream, emit_csv, run_benchmark
from lapstream.centrality import lap_cent, laplacian_energy, normalize, write_centralities
from lapstream.errors import LapstreamError
from lapstream.graph import Graph
from lapstream.incremental import apply_delta
from lapstream.ingest import load_edge_events


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default exit(2) is reserved for data errors here
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _period(text: str) -> str:
    p = text.lower()
    if p in ("day", "daily", "month", "monthly"):
        return p
    if p.startswith("count:") and p[6:].isdigit() and int(p[6:]) >= 1:
        return p
    raise argparse.ArgumentTypeError(f"expected daily, monthly or count:N, got {text!r}")


def _add_common(p):
    p.add_argument("--input", required=True, help="edge-event file or snapshot directory")
    p.add_argument(
        "--variant", choices=("unweighted", "weighted"), default="unweighted"
    )
    p.add_argument(
        "--snapshot",
        type=_period,
        default="daily",
        metavar="{daily|monthly|count:N}",
        help="aggregation period for event files (default: daily)",
    )
    p.add_argument(
        "--window",
        type=_positive_int,
        default=None,
        metavar="N",
        help="sliding window length in periods (full-dynamic semantics)",
    )
    p.add_argument(
        "--weight-policy",
        choices=("overwrite", "accumulate"),
        default="overwrite",
        help="how re-observed edge weights combine (default: overwrite)",
    )
    p.add_argument("--strict", action="store_true", help="treat re-added edges as errors")


def _add_bench(p):
    p.add_argument(
        "--normalized",
        action="store_true",
        help="normalize dumped centralities (needs --dump-centralities)",
    )
    p.add_argument("--out", metavar="DIR", default=None, help="write CSV/dumps here")
    p.add_argument("--repeat", type=_positive_int, default=1, metavar="K", help="timing repeats")
    p.add_argument(
        "--dump-centralities",
        action="store_true",
        help="write per-step node,centrality files under DIR (needs --out)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lapstream", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lapstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="benchmark one algorithm over a stream")
    p_run.add_argument("--mode", choices=("batch", "dynamic"), default="dynamic")
    _add_common(p_run)
    _add_bench(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="batch vs dynamic with speedup per step")
    _add_common(p_cmp)
    _add_bench(p_cmp)
    p_cmp.set_defaults(func=_cmd_run, mode="compare")

    p_cent = sub.add_parser("centrality", help="batch centrality of one edge-list file")
    p_cent.add_argument("--input", required=True)
    p_cent.add_argument("--variant", choices=("unweighted", "weighted"), default="unweighted")
    p_cent.add_argument("--normalized", action="store_true")
    p_cent.add_argument("--out", metavar="FILE", default=None)
    p_cent.set_defaults(func=_cmd_centrality)

    p_val = sub.add_parser("validate", help="audit a stream's delta consistency")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def _config(args, mode) -> RunConfig:
    return RunConfig(
        input_path=args.input,
        mode=mode,
        variant=args.variant,
        snapshot=args.snapshot,
        window=args.window,
        normalized=getattr(args, "normalized", False),
        out_dir=getattr(args, "out", None),
        strict=args.strict,
        repeat=getattr(args, "repeat", 1),
        dump_centralities=getattr(args, "dump_centralities", False),
        weight_policy=args.weight_policy,
    )


def _report(result, out_dir) -> None:
    if out_dir is None:
        sys.stdout.write(emit_csv(result.records))
    else:
        print(f"wrote results to {out_dir}", file=sys.stderr)
    records = result.records
    total = records[-1].cumulative_s
    line = f"{result.mode}/{result.variant}: {len(records)} steps, cumulative {total:.3f}s"
    if result.mode == "compare":
        batch_total = result.batch[-1].cumulative_s
        mean_speedup = sum(r.speedup for r in records) / len(records)
        line += f" dynamic vs {batch_total:.3f}s batch, mean speedup {mean_speedup:.2f}x"
    stds = [r.elapsed_std_s for r in records if r.elapsed_std_s is not None]
    if stds:
        line += f", per-step std {sum(stds) / len(stds) * 1e3:.3f}ms mean"
    print(line, file=sys.stderr)


def _cmd_run(args) -> int:
    if args.dump_centralities and args.out is None:
        raise _UsageError("--dump-centralities needs --out DIR")
    if args.normalized and not args.dump_centralities:
        raise _UsageError("--normalized needs --dump-centralities")
    cfg = _config(args, args.mode)
    result = run_benchmark(cfg)
    _report(result, cfg.out_dir)
    return 0


def _cmd_centrality(args) -> int:
    g = Graph((e.u, e.v, e.weight) for e in load_edge_events(args.input))
    cmap = lap_cent(g, args.variant)
    if args.normalized:
        cmap = normalize(cmap, laplacian_energy(g, args.variant))
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            write_centralities(cmap, fh)
    else:
        write_centralities(cmap, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    cfg = _config(args, "dynamic")
    stream = build_stream(cfg)
    g = stream.initial.copy()
    g.strict = True
    for step, delta in enumerate(stream.deltas, start=1):
        try:
            apply_delta(g, delta)
        except LapstreamError as exc:
            print(f"inconsistent delta at step {step}: {exc}", file=sys.stderr)
            return 2
    print(
        f"ok: {stream.num_steps} steps, final graph "
        f"{g.num_nodes} nodes / {g.num_edges} edges"
    )
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LapstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
