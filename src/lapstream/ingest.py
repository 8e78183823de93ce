"""Parse timestamped edge events and build snapshot streams.

Input grammar, per line: optional ``#`` comments; otherwise 2 to 4 fields
split on commas or runs of whitespace, ``u v [w] [t]``, each in ASCII
digits with no ``_`` separators (a sign and leading zeros allowed): u, v
non-negative decimal integers, w a finite decimal real (default 1.0), zero
only where its digits are, so that no text underflows to 0.0, and t a
decimal integer timestamp in epoch seconds (default: the event's ordinal),
within years 1 to 9999 UTC, the range ``datetime`` can bucket.

Commas are replaced by spaces and the line is split with ``str.split()``.
``str.split()`` and the ``re`` module's whitespace class agree on which
characters are whitespace, so fields and error positions are those of a
regex split on runs of commas and whitespace with empty fields dropped.

Two evaluation regimes are supported: cumulative streams (edges only ever
added, bucketed by period) and sliding-window streams (an edge stays
active for the last ``window_length`` buckets it was observed in, so
deltas carry removals too). A directory of snapshot files is a third
source: one bucket per file. :func:`period_key` alone reads a period
name, for :func:`bucket_events` and for the CLI's ``--snapshot``.

Events are plain ``(u, v, weight, timestamp)`` tuples: a tuple costs no
Python-level ``__new__``, and the cyclic garbage collector untracks one that
holds only numbers, so a build's collections do not rescan every event. It
never untracks an instance of a tuple subclass such as a ``NamedTuple``.
Every mention of one node id is the same int object, and every weight equal
to one of 1.0 to 256.0 is the same float object, so the events hold one
object per node and per small integral weight, and so do the buckets,
windows and deltas that pass them on.

One loop, ``_build``, turns per-bucket edge weights into deltas for all
three: a window slid over the buckets, where the cumulative stream is the
window covering every bucket and a snapshot directory the window of one
bucket under ``overwrite``. An edge's weight is the last of its per-bucket
weights in the window under ``overwrite``, and their sum left to right
under ``accumulate``. That is the order a full rebuild of the window adds
them in, so the weights are bitwise the same as rebuilding every bucket at
every step.

Fold identity: ``state`` always holds that weight, so for an edge whose
oldest entry did not leave this step the new weight is ``old + x``
(accumulate) or ``x`` (overwrite), bitwise the sum a rebuild would take.
A step walks the entering bucket (a new edge, an appended entry, or
the fold), then the leaving one: it drops the oldest entry, and removes
the edge if none is left or else derives its weight again from its
entries. Those are kept per edge in bucket order as a tuple, which drops
out of the cyclic garbage collector's scans where a list would not, and
only when the window is shorter than the stream: a covering window never
loses an entry, so it keeps none, and a cumulative build costs O(1) per
observation. A shorter window also pays, for each edge a step touches,
the copy of that edge's tuple, and under ``accumulate`` the re-sum of an
edge whose oldest entry leaves: O(entries in the window) each.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from lapstream.errors import EmptyDatasetError, NonFiniteWeightError, ParseError, SelfLoopError
from lapstream.graph import Graph
from lapstream.incremental import EdgeDelta

# the first and last second of years 1 to 9999 UTC
_MIN_TIMESTAMP = -62135596800
_MAX_TIMESTAMP = 253402300799

_Event = tuple[int, int, float, int]  # (u, v, weight, timestamp)

# the floats 1.0 to 256.0, each keyed by itself: a parsed weight equal to one
# of them is replaced by it, so the events and deltas share one object per value
_SMALL_WEIGHTS = {w: w for w in map(float, range(1, 257))}
_ONE = _SMALL_WEIGHTS[1.0]  # the weight of a line without one


@dataclass
class SnapshotStream:
    """Initial graph plus the deltas that replay the snapshots; bucket_events has the labels."""

    initial: Graph
    deltas: list[EdgeDelta] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.deltas) + 1


def parse_edge_events(lines: Iterable[str | bytes]) -> list[_Event]:
    """Parse edge-event lines; every non-comment line yields an event or a
    positioned error.

    An event is a plain ``(u, v, weight, timestamp)`` tuple, which needs no
    ``__new__`` and which the garbage collector untracks.

    Bytes are decoded as UTF-8; a line that is not raises :class:`ParseError`.
    Every mention of one node id is the same int object, the first parsed
    (see :mod:`lapstream.graph` for why), so the events, and the buckets,
    windows, graphs and deltas built from them, hold one object per node.
    Likewise every weight equal to one of 1.0 to 256.0 (``3``, ``3.0``,
    ``3e0``) is one float object from a fixed table, so the events and
    deltas hold one object per such weight rather than one per event; any
    other weight, ``0`` and ``-0`` included, is the float parsed. A field
    with ``_`` or a non-ASCII character is a :class:`ParseError`, although
    ``int()`` and ``float()`` read ``1_0`` and ``\u0661``, and so is a
    nonzero weight text that ``float()`` rounds to zero, such as ``1e-400``.
    """
    events: list[_Event] = []
    by_text: dict[str, int] = {}  # field text -> its node's object
    ids: dict[int, int] = {}  # node -> its object, for "7" and "07" alike
    small_texts: dict[str, float] = {}  # text of a table weight -> the table's float
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, (bytes, bytearray)):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(lineno, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
        else:
            line = raw
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.replace(",", " ").split()
        if not 2 <= len(fields) <= 4:
            raise ParseError(lineno, f"expected 2-4 fields, got {len(fields)}: {text!r}")
        # a new id text is checked once: int() alone also takes "1_000" and "\u0661"
        try:
            u = by_text.get(fields[0])
            if u is None:
                if not fields[0].isascii() or "_" in fields[0]:
                    raise ValueError
                u = int(fields[0])
                u = by_text[fields[0]] = ids.setdefault(u, u)
            v = by_text.get(fields[1])
            if v is None:
                if not fields[1].isascii() or "_" in fields[1]:
                    raise ValueError
                v = int(fields[1])
                v = by_text[fields[1]] = ids.setdefault(v, v)
        except ValueError:
            raise ParseError(lineno, f"node ids must be ASCII integers: {text!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"node ids must be non-negative: {text!r}")
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop on node {u}")
        weight = _ONE
        if len(fields) >= 3:
            # float() alone also takes "1_0" and "\u0661". The text of a table
            # weight is checked once, any other text each time, so that the memo
            # keeps only texts of the table's weights
            weight = small_texts.get(fields[2])
            if weight is None:
                try:
                    if not fields[2].isascii() or "_" in fields[2]:
                        raise ValueError
                    weight = float(fields[2])
                except ValueError:
                    raise ParseError(lineno, f"bad weight {fields[2]!r}") from None
                if not math.isfinite(weight):
                    raise ParseError(lineno, f"weight must be finite, got {fields[2]!r}")
                # a zero weight must be written as one: 0, -0.0 or 0e5, not 1e-400
                if not weight and fields[2].lower().partition("e")[0].strip("+-0."):
                    raise ParseError(lineno, f"weight {fields[2]!r} underflows to zero")
                if weight in _SMALL_WEIGHTS:
                    weight = small_texts[fields[2]] = _SMALL_WEIGHTS[weight]
        if len(fields) == 4:
            # nearly every timestamp text is new, so each is checked
            try:
                if not fields[3].isascii() or "_" in fields[3]:
                    raise ValueError
                timestamp = int(fields[3])
            except ValueError:
                raise ParseError(lineno, f"bad timestamp {fields[3]!r}") from None
            if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:
                raise ParseError(lineno, f"timestamp {fields[3]!r} outside years 1 to 9999 UTC")
        else:
            timestamp = len(events)
        events.append((u, v, weight, timestamp))
    return events


def load_edge_events(path: str | Path) -> list[_Event]:
    with open(path, "rb") as fh:
        return parse_edge_events(fh)


# -- bucketing -------------------------------------------------------------


def _month_key(ts: int) -> tuple[int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (dt.year, dt.month)


def period_key(period: str):
    """The bucket key and label of ``period``: ``key(i, e)`` of the i-th
    event ``e``, and ``label(k)`` of a key. ValueError names an unknown
    period, or a ``count:N`` whose N is not ASCII digits, at least 1."""
    p = period.lower()
    if p in ("day", "daily"):
        day = lambda k: datetime.fromtimestamp(k * 86400, tz=timezone.utc).date().isoformat()
        return lambda i, e: e[3] // 86400, day
    if p in ("month", "monthly"):
        return lambda i, e: _month_key(e[3]), lambda k: f"{k[0]:04d}-{k[1]:02d}"
    if not p.startswith("count:"):
        raise ValueError(f"unknown period {period!r}")
    n = p[6:]
    # ASCII digits only: int() alone also takes "1_000", " 2" and "\u0661"
    size = int(n) if n.isascii() and n.isdigit() else 0
    if size < 1:
        raise ValueError(f"bad period {period!r}")
    return lambda i, e: i // size, str


def bucket_events(events: list[_Event], period: str) -> list[tuple[str, list[_Event]]]:
    """Group events into ordered (label, events) buckets.

    ``period``: ``day``/``daily`` (UTC calendar days), ``month``/``monthly``,
    or ``count:N`` (chunks of N events in file order, for timestamp-free
    data; N in ASCII digits, at least 1), in any case; :func:`period_key`
    reads it. One loop keys every event, a ``count:N`` event by its
    position ``i // N``, and the buckets come in key order. Only periods
    that contain events become buckets.
    """
    if not events:
        raise EmptyDatasetError("no edge events")
    key, label = period_key(period)
    grouped: dict = {}
    for i, e in enumerate(events):
        grouped.setdefault(key(i, e), []).append(e)
    return [(label(k), grouped[k]) for k in sorted(grouped)]


def _bucket_weights(bucket: list[_Event], policy: str) -> dict[tuple[int, int], float]:
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


def _check_weights(adds: list[tuple[int, int, float]], label: str) -> None:
    """Reject the first weight the builder would emit that is not finite:
    accumulated finite weights can overflow. The graph would reject it too,
    but only this error names the bucket."""
    for u, v, w in adds:
        if not math.isfinite(w):
            raise NonFiniteWeightError(
                f"weight {w} on edge ({u}, {v}) in bucket {label} is not finite"
            )


def _build(
    buckets: list[tuple[str, list[_Event]]], window_length: int, policy: str
) -> SnapshotStream:
    """The stream of a window of ``window_length`` buckets slid over
    ``buckets`` (see the module docstring): snapshot k holds the edges
    observed in buckets k - window_length + 1 to k."""
    accumulate = policy == "accumulate"
    windowed = window_length < len(buckets)  # else no entry ever leaves
    window: deque[dict[tuple[int, int], float]] = deque()  # bucket weights yet to leave
    state: dict[tuple[int, int], float] = {}  # the window's weight per edge
    history: dict[tuple[int, int], tuple[float, ...]] = {}  # per-bucket weights in the window
    initial: Graph | None = None
    deltas: list[EdgeDelta] = []
    for label, bucket in buckets:
        entering = _bucket_weights(bucket, policy)
        leaving = window.popleft() if len(window) == window_length else {}
        if windowed:
            window.append(entering)
        adds: list[tuple[int, int, float]] = []
        removes: list[tuple[int, int]] = []
        for pair, x in entering.items():
            old = state.get(pair)
            if old is None:
                state[pair] = x
                if windowed:
                    history[pair] = (x,)
                adds.append((pair[0], pair[1], x))
                continue
            if windowed:
                history[pair] += (x,)
                if pair in leaving:
                    continue  # derived again below, once its oldest entry is gone
            w = old + x if accumulate else x  # the fold identity
            if w != old:
                adds.append((pair[0], pair[1], w))
            state[pair] = w  # also when ==, as a rebuild would: 0.0 and -0.0 compare equal
        for pair in leaving:
            entries = history[pair] = history[pair][1:]
            if not entries:
                del history[pair], state[pair]
                removes.append(pair)
                continue
            if accumulate:
                w = entries[0]
                for x in entries[1:]:
                    w += x
            else:
                w = entries[-1]
            if state[pair] != w:
                adds.append((pair[0], pair[1], w))
            state[pair] = w
        if initial is None:
            # every edge of the first snapshot, in first-observed order
            _check_weights(adds, label)
            initial = Graph(adds)
            continue
        adds.sort()  # pairs are unique within a step, so no weight is compared
        removes.sort()
        _check_weights(adds, label)
        deltas.append(EdgeDelta(adds=adds, removes=removes))
    assert initial is not None
    return SnapshotStream(initial, deltas)


def snapshots_cumulative(
    events: list[_Event], period: str, weight_policy: str = "overwrite"
) -> SnapshotStream:
    """Incremental regime: each delta only adds the edges first seen (or,
    for weighted data, re-weighted) in its bucket; removes stay empty.
    This is the window covering every bucket."""
    _check_policy(weight_policy)
    buckets = bucket_events(events, period)
    return _build(buckets, len(buckets), weight_policy)


def snapshots_window(
    events: list[_Event],
    period: str,
    window_length: int,
    weight_policy: str = "overwrite",
) -> SnapshotStream:
    """Full-dynamic regime: snapshot k holds the edges observed in the last
    ``window_length`` buckets; edges sliding out of the window become
    removals. A window covering every bucket is the cumulative stream. A
    ``window_length`` that is no int is a TypeError, one below 1 a ValueError.
    """
    _check_policy(weight_policy)
    # a length that is no int, 2.5 say, would never fill the window
    if operator.index(window_length) < 1:
        raise ValueError("window_length must be >= 1")
    return _build(bucket_events(events, period), window_length, weight_policy)


def _check_policy(policy: str) -> None:
    if policy not in ("overwrite", "accumulate"):
        raise ValueError(f"unknown weight policy {policy!r}")


def stream_from_snapshot_dir(path: str | Path) -> SnapshotStream:
    """Build a stream from a directory of pre-materialized snapshots, one
    edge-list file per snapshot, applied in lexicographic filename order.

    Each file is one bucket of a window of one bucket under ``overwrite``:
    the last weight of a repeated edge wins, and each delta upserts the
    edges new or re-weighted since the previous file and removes those it
    no longer lists."""
    directory = Path(path)
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise EmptyDatasetError(f"no snapshot files in {directory}")
    return _build([(p.name, load_edge_events(p)) for p in files], 1, "overwrite")
