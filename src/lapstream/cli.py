"""Command-line interface.

Subcommands:
    run         benchmark one algorithm (batch or dynamic) over a stream
    compare     run both algorithms, cross-check results, report speedups
    centrality  one-shot batch centrality of a single edge-list file

Exit codes: 0 success, 1 usage error, 2 data error (a value past the float range too).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from lapstream import __version__
from lapstream.bench import bench_stream, emit_csv
from lapstream.centrality import lap_cent, normalize, write_centralities
from lapstream.errors import EmptyDatasetError, FloatRangeError, LapstreamError, ZeroEnergyError
from lapstream.graph import Graph
from lapstream.incremental import evolve
from lapstream.ingest import (
    load_edge_events,
    period_key,
    snapshots_cumulative,
    snapshots_window,
    stream_from_snapshot_dir,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default exit(2) is reserved for data errors here
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    # ASCII digits only, as count:N and every event field are read
    value = int(text) if text.isascii() and text.isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, in ASCII digits")
    return value


def _period(text: str) -> str:
    try:
        period_key(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected daily, monthly or count:N, got {text!r}") from None
    return text


def _add_run_flags(p):
    p.add_argument("--input", required=True, help="edge-event file or snapshot directory")
    p.add_argument(
        "--snapshot",
        type=_period,
        default=argparse.SUPPRESS,
        metavar="{daily|monthly|count:N}",
        help="aggregation period for event files (default: daily)",
    )
    p.add_argument(
        "--window",
        type=_positive_int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="sliding window length in periods (full-dynamic semantics)",
    )
    p.add_argument(
        "--weight-policy",
        choices=("overwrite", "accumulate"),
        default=argparse.SUPPRESS,
        help="how re-observed edge weights combine (default: overwrite)",
    )
    p.add_argument("--variant", choices=("unweighted", "weighted"), default="unweighted")
    p.add_argument(
        "--normalized",
        action="store_true",
        help="normalize dumped centralities (needs --dump-centralities)",
    )
    p.add_argument("--out", metavar="DIR", default=None, help="write CSV/dumps here")
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
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="batch vs dynamic with speedup per step")
    _add_run_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_run, mode="compare")

    p_cent = sub.add_parser("centrality", help="batch centrality of one edge-list file")
    p_cent.add_argument("--input", required=True)
    p_cent.add_argument("--variant", choices=("unweighted", "weighted"), default="unweighted")
    p_cent.add_argument("--normalized", action="store_true")
    p_cent.add_argument("--out", metavar="FILE", default=None)
    p_cent.set_defaults(func=_cmd_centrality)
    return parser


def _report(result, out_dir) -> None:
    records = result.dynamic or result.batch
    if out_dir is None:
        sys.stdout.write(emit_csv(records))
    else:
        print(f"wrote results to {out_dir}", file=sys.stderr)
    total = records[-1].cumulative_s
    line = f"{result.mode}/{result.variant}: {len(records)} steps, cumulative {total:.3f}s"
    if result.mode == "compare":
        batch_total = result.batch[-1].cumulative_s
        mean_speedup = sum(r.speedup for r in records) / len(records)
        line += f" dynamic vs {batch_total:.3f}s batch, mean speedup {mean_speedup:.2f}x"
    print(line, file=sys.stderr)


def _events(path):
    """The edge events of ``path``; a file without any is a data error."""
    events = load_edge_events(path)
    if not events:
        raise EmptyDatasetError(f"no edge events in {path}")
    return events


def _stream(args):
    """The stream of ``--input``: a snapshot directory's, or an event file's,
    cumulative, or sliding-window with ``--window`` (in periods). The flags
    only an event file uses are absent unless given, so a snapshot directory
    can refuse them."""
    path = Path(args.input)
    if path.is_dir():
        given = [k for k in ("snapshot", "window", "weight_policy") if k in args]
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise _UsageError(f"{flags} would do nothing on a snapshot directory")
        return stream_from_snapshot_dir(path)
    events = _events(path)
    snapshot = getattr(args, "snapshot", "daily")
    weight_policy = getattr(args, "weight_policy", "overwrite")
    if "window" in args:
        return snapshots_window(events, snapshot, args.window, weight_policy)
    return snapshots_cumulative(events, snapshot, weight_policy)


def _cmd_run(args) -> int:
    if args.dump_centralities and args.out is None:
        raise _UsageError("--dump-centralities needs --out DIR")
    if args.normalized and not args.dump_centralities:
        raise _UsageError("--normalized needs --dump-centralities")
    stream = _stream(args)
    result = bench_stream(stream, args.mode, args.variant)
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if result.batch is not None:
            (out_dir / "batch.csv").write_text(emit_csv(result.batch), newline="\n")
        if result.dynamic is not None:
            (out_dir / "dynamic.csv").write_text(emit_csv(result.dynamic), newline="\n")
        if args.dump_centralities:
            _dump_centralities(stream, args.mode, args.variant, args.normalized, out_dir)
    _report(result, args.out)
    return 0


def _dump_centralities(stream, mode, variant, normalized, out_dir: Path) -> None:
    """Write each step's map under ``out_dir/centralities``, replaying
    ``stream`` through the driver once more in the run's mode (compare
    dumps the dynamic maps). A value past the float range, or a graph of
    zero energy when normalized, names its step."""
    dump_dir = out_dir / "centralities"
    dump_dir.mkdir(parents=True, exist_ok=True)
    g = stream.initial.copy()
    steps = evolve(g, stream.deltas, "batch" if mode == "batch" else "dynamic", variant)
    for step, (cmap, _) in enumerate(steps, start=1):
        try:
            if normalized:
                cmap = normalize(cmap, g)
            with open(dump_dir / f"step_{step:04d}.csv", "w", newline="\n") as fh:
                write_centralities(cmap, fh)
        except (FloatRangeError, ZeroEnergyError) as exc:
            raise type(exc)(f"step {step}: {exc}") from None


def _cmd_centrality(args) -> int:
    g = Graph(e[:3] for e in _events(args.input))
    cmap = lap_cent(g, args.variant)
    if args.normalized:
        cmap = normalize(cmap, g)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            write_centralities(cmap, fh)
    else:
        write_centralities(cmap, sys.stdout)
    return 0


def _warning(message, category, filename, lineno, file=None, line=None) -> None:
    # no frame: under ``python -m`` the first one outside the package is the interpreter's
    print(f"warning: {message}", file=sys.stderr)


def cli_main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except (LapstreamError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
