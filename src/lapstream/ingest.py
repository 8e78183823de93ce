"""Parse timestamped edge events and build snapshot streams.

Input grammar, per line: optional ``#`` comments; otherwise 2 to 4 fields
split on commas or runs of whitespace, ``u v [w] [t]`` with u, v
non-negative decimal integers, w a finite decimal real (default 1.0) and t a
decimal integer timestamp (default: the event's ordinal).

Commas are replaced by spaces and the line is split with ``str.split()``.
``str.split()`` and the ``re`` module's whitespace class agree on which
characters are whitespace, so fields and error positions are those of a
regex split on runs of commas and whitespace with empty fields dropped.

Two evaluation regimes are supported: cumulative streams (edges only ever
added, bucketed by period) and sliding-window streams (an edge stays
active for the last ``window_length`` buckets it was observed in, so
deltas carry removals too).

The window is built incrementally. Each edge in the window keeps its
per-bucket weights in bucket order, as a tuple: a tuple of floats drops
out of the cyclic garbage collector's scans, a list would not. A step drops
the front entry of every edge in the bucket leaving the window, appends
the entering bucket's weights, and re-derives only those edges: the last
entry under ``overwrite``, the entries summed left to right under
``accumulate``. That is the order a full rebuild of the window adds them
in, so the weights are bitwise the same as rebuilding every bucket at every
step. A step costs O(entries in the window) for each edge it touches, since
the edge's tuple is rebuilt and, under ``accumulate``, re-summed: the cost
follows the buckets entering and leaving and not the window's length only
when edges are seldom re-observed within a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, NamedTuple

from lapstream.errors import EmptyDatasetError, NonFiniteWeightError, ParseError, SelfLoopError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta

class EdgeEvent(NamedTuple):
    u: int
    v: int
    weight: float = 1.0
    timestamp: int = 0


@dataclass
class SnapshotStream:
    """Initial graph plus the ordered deltas that replay the snapshots."""

    initial: Graph
    deltas: list[EdgeDelta] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)  # one per step, incl. initial

    @property
    def num_steps(self) -> int:
        return len(self.deltas) + 1


def parse_edge_events(lines: Iterable[str | bytes]) -> list[EdgeEvent]:
    """Parse edge-event lines; every non-comment line yields an event or a
    positioned error."""
    events: list[EdgeEvent] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.replace(",", " ").split()
        if not 2 <= len(fields) <= 4:
            raise ParseError(lineno, f"expected 2-4 fields, got {len(fields)}: {text!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"node ids must be integers: {text!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"node ids must be non-negative: {text!r}")
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop on node {u}")
        weight = 1.0
        if len(fields) >= 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise ParseError(lineno, f"bad weight {fields[2]!r}") from None
            if not math.isfinite(weight):
                raise ParseError(lineno, f"weight must be finite, got {fields[2]!r}")
        if len(fields) == 4:
            try:
                timestamp = int(fields[3])
            except ValueError:
                raise ParseError(lineno, f"bad timestamp {fields[3]!r}") from None
        else:
            timestamp = len(events)
        events.append(EdgeEvent(u, v, weight, timestamp))
    return events


def load_edge_events(path: str | Path) -> list[EdgeEvent]:
    with open(path, "rb") as fh:
        return parse_edge_events(fh)


# -- bucketing -------------------------------------------------------------


def _month_key(ts: int) -> tuple[int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (dt.year, dt.month)


def bucket_events(events: list[EdgeEvent], period: str) -> list[tuple[str, list[EdgeEvent]]]:
    """Group events into ordered (label, events) buckets.

    ``period``: ``day``/``daily`` (UTC calendar days), ``month``/``monthly``,
    or ``count:N`` (fixed-size chunks in file order, for timestamp-free
    data). Only periods that contain events become buckets.
    """
    if not events:
        raise EmptyDatasetError("no edge events")
    p = period.lower()
    if p.startswith("count:"):
        try:
            size = int(p.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad period {period!r}") from None
        if size < 1:
            raise ValueError(f"bad period {period!r}")
        chunks = [events[i : i + size] for i in range(0, len(events), size)]
        return [(str(i), chunk) for i, chunk in enumerate(chunks)]
    if p in ("day", "daily"):
        key = lambda e: e.timestamp // 86400
        label = lambda k: datetime.fromtimestamp(k * 86400, tz=timezone.utc).date().isoformat()
    elif p in ("month", "monthly"):
        key = lambda e: _month_key(e.timestamp)
        label = lambda k: f"{k[0]:04d}-{k[1]:02d}"
    else:
        raise ValueError(f"unknown period {period!r}")
    grouped: dict = {}
    for e in events:
        grouped.setdefault(key(e), []).append(e)
    return [(label(k), grouped[k]) for k in sorted(grouped)]


def _bucket_weights(bucket: list[EdgeEvent], policy: str) -> dict[tuple[int, int], float]:
    """Collapse a bucket's observations to one weight per edge."""
    weights: dict[tuple[int, int], float] = {}
    accumulate = policy == "accumulate"
    for u, v, w, _ in bucket:
        pair = (u, v) if u <= v else (v, u)
        if accumulate and pair in weights:
            weights[pair] += w
        else:
            weights[pair] = w
    return weights


def _check_weight(u: int, v: int, w: float, label: str) -> None:
    """Reject a weight the builder would emit that is not finite: accumulated
    finite weights can overflow."""
    if not math.isfinite(w):
        raise NonFiniteWeightError(
            f"weight {w} on edge ({u}, {v}) in bucket {label} is not finite"
        )


def _graph_from_weights(weights: dict[tuple[int, int], float], label: str) -> Graph:
    if not all(map(math.isfinite, weights.values())):
        # the graph would reject it too, but only this error names the bucket
        for (u, v), w in weights.items():
            _check_weight(u, v, w, label)
    return Graph((u, v, w) for (u, v), w in weights.items())


def _diff_states(
    prev: dict[tuple[int, int], float], cur: dict[tuple[int, int], float]
) -> EdgeDelta:
    adds = [
        Edge(u, v, w)
        for (u, v), w in cur.items()
        if (u, v) not in prev or prev[(u, v)] != w
    ]
    removes = [pair for pair in prev if pair not in cur]
    adds.sort(key=lambda e: (e.u, e.v))
    removes.sort()
    return EdgeDelta(adds=adds, removes=removes)


def snapshots_cumulative(
    events: list[EdgeEvent], period: str, weight_policy: str = "overwrite"
) -> SnapshotStream:
    """Incremental regime: each delta only adds the edges first seen (or,
    for weighted data, re-weighted) in its bucket; removes stay empty."""
    _check_policy(weight_policy)
    buckets = bucket_events(events, period)
    state: dict[tuple[int, int], float] = {}
    deltas: list[EdgeDelta] = []
    labels: list[str] = []
    initial: Graph | None = None
    for label, bucket in buckets:
        labels.append(label)
        observed = _bucket_weights(bucket, weight_policy)
        adds: list[Edge] = []
        for pair, w in observed.items():
            target = state[pair] + w if weight_policy == "accumulate" and pair in state else w
            if pair not in state or state[pair] != target:
                _check_weight(pair[0], pair[1], target, label)
                state[pair] = target
                adds.append(Edge(pair[0], pair[1], target))
        adds.sort(key=lambda e: (e.u, e.v))
        if initial is None:
            initial = _graph_from_weights(dict(state), label)
        else:
            deltas.append(EdgeDelta(adds=adds))
    assert initial is not None
    return SnapshotStream(initial, deltas, labels)


def snapshots_window(
    events: list[EdgeEvent],
    period: str,
    window_length: int,
    weight_policy: str = "overwrite",
) -> SnapshotStream:
    """Full-dynamic regime: snapshot k holds the edges observed in the last
    ``window_length`` buckets; edges sliding out of the window become
    removals. A window covering every bucket degenerates to the
    cumulative stream.
    """
    _check_policy(weight_policy)
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    buckets = bucket_events(events, period)
    per_bucket = [_bucket_weights(bucket, weight_policy) for _, bucket in buckets]
    labels = [label for label, _ in buckets]
    accumulate = weight_policy == "accumulate"
    state = dict(per_bucket[0])  # the window's current weight per edge
    history = {pair: (w,) for pair, w in state.items()}  # per-bucket weights in the window
    initial = _graph_from_weights(state, labels[0])
    deltas: list[EdgeDelta] = []
    for k in range(1, len(buckets)):
        leaving = per_bucket[k - window_length] if k >= window_length else {}
        entering = per_bucket[k]
        adds: list[Edge] = []
        removes: list[tuple[int, int]] = []
        changed: list[tuple[int, int]] = []  # pairs staying in the window, entries changed
        for pair in leaving:
            entries = history[pair] = history[pair][1:]
            if pair in entering:
                continue  # re-derived once its new entry is in
            if entries:
                changed.append(pair)
            else:
                del history[pair], state[pair]
                removes.append(pair)
        for pair, w in entering.items():
            entries = history.get(pair)
            if entries is None:
                history[pair] = (w,)
                state[pair] = w
                adds.append(Edge(pair[0], pair[1], w))
            else:
                history[pair] = entries + (w,)
                changed.append(pair)
        for pair in changed:
            entries = history[pair]
            if accumulate:
                w = entries[0]
                for x in entries[1:]:
                    w += x
            else:
                w = entries[-1]
            if state[pair] != w:
                adds.append(Edge(pair[0], pair[1], w))
            state[pair] = w  # also when ==, as a rebuild would: 0.0 and -0.0 compare equal
        adds.sort(key=lambda e: (e.u, e.v))
        removes.sort()
        for u, v, w in adds:
            _check_weight(u, v, w, labels[k])
        deltas.append(EdgeDelta(adds=adds, removes=removes))
    return SnapshotStream(initial, deltas, labels)


def _check_policy(policy: str) -> None:
    if policy not in ("overwrite", "accumulate"):
        raise ValueError(f"unknown weight policy {policy!r}")


def delta_between(prev: Graph, next_graph: Graph) -> EdgeDelta:
    """Delta turning ``prev`` into ``next_graph``: new or re-weighted edges
    as upsert-adds, vanished edges as removes."""
    prev_state = {e.canonical(): e.weight for e in prev.edges()}
    next_state = {e.canonical(): e.weight for e in next_graph.edges()}
    return _diff_states(prev_state, next_state)


def stream_from_snapshot_dir(path: str | Path) -> SnapshotStream:
    """Build a stream from a directory of pre-materialized snapshots, one
    edge-list file per snapshot, applied in lexicographic filename order."""
    directory = Path(path)
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise EmptyDatasetError(f"no snapshot files in {directory}")
    graphs = [Graph((e.u, e.v, e.weight) for e in load_edge_events(p)) for p in files]
    deltas = [delta_between(graphs[i - 1], graphs[i]) for i in range(1, len(graphs))]
    labels = [p.name for p in files]
    return SnapshotStream(graphs[0], deltas, labels)
