import gc
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_EDGES
from genutil import bits, graph_state, node_rows, node_strengths, stored

from lapstream.centrality import lap_cent
from lapstream.errors import EmptyDatasetError, NonFiniteWeightError, ParseError, SelfLoopError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta
from lapstream.ingest import (
    _SMALL_WEIGHTS,
    bucket_events,
    load_edge_events,
    parse_edge_events,
    snapshots_cumulative,
    snapshots_window,
    stream_from_snapshot_dir,
)

DAY = 86400


class TestParser:
    def test_two_field_lines(self):
        events = parse_edge_events(["1 2\n", "2 3\n"])
        assert events == [(1, 2, 1.0, 0), (2, 3, 1.0, 1)]

    def test_bitcoin_alpha_row(self):
        (event,) = parse_edge_events(["7188,1,10,1407470400"])
        assert event == (7188, 1, 10.0, 1407470400)

    def test_comment_only(self):
        assert parse_edge_events(["# comment\n"]) == []

    def test_blank_lines_skipped(self):
        assert len(parse_edge_events(["\n", "1 2\n", "   \n"])) == 1

    def test_three_fields_is_weight(self):
        (event,) = parse_edge_events(["4 5 2.5"])
        assert event[2] == 2.5
        assert event[3] == 0

    def test_bytes_input(self):
        (event,) = parse_edge_events([b"1 2 1.0 99"])
        assert event == (1, 2, 1.0, 99)

    def test_mixed_separators(self):
        (event,) = parse_edge_events(["1, 2,3.0, 7"])
        assert event == (1, 2, 3.0, 7)

    @pytest.mark.parametrize(
        "line",
        [
            "1",
            "1 2 3 4 5",
            "a b",
            "-1 2",
            "2 -1",
            "1 2 heavy",
            "1 2 1.0 soon",
            "1 2 nan",
            "1 2 -inf 5",
            "1_000 2",
            "2 \u0661",
            "1 2 1_0 5",
            "1 2 \u0661 6",
            "1 2 \uff13 7",
            "1 2 1 1_000",
            "1 2 1 \u0661\u0662",
        ],
    )
    def test_bad_lines_have_position(self, line):
        with pytest.raises(ParseError) as err:
            parse_edge_events(["1 2\n", line])
        assert err.value.lineno == 2

    @pytest.mark.parametrize(
        "timestamp", ["253402300800", "-62135596801", "99999999999999999", str(10**30)]
    )
    def test_timestamp_outside_datetime_range(self, timestamp):
        with pytest.raises(ParseError, match="years 1 to 9999") as err:
            parse_edge_events(["1 2 1 0\n", f"2 3 1 {timestamp}\n"])
        assert err.value.lineno == 2

    @pytest.mark.parametrize(
        "period, labels",
        [("daily", ["0001-01-01", "9999-12-31"]), ("monthly", ["0001-01", "9999-12"])],
    )
    def test_timestamp_bounds_accepted_and_labelled(self, period, labels):
        events = parse_edge_events(["1 2 1 -62135596800\n", "2 3 1 253402300799\n"])
        assert [e[3] for e in events] == [-62135596800, 253402300799]
        assert [label for label, _ in bucket_events(events, period)] == labels

    def test_self_loop_line(self):
        with pytest.raises(SelfLoopError, match="line 3"):
            parse_edge_events(["1 2", "2 3", "4 4"])

    def test_non_utf8_line_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_edge_events([b"1 2\n", b"# caf\xc3\xa9\n", b"3 \xe94\n"])
        assert err.value.lineno == 3

    def test_one_object_per_node_id(self):
        """Every mention of an id is one int object, "0700" and "700" alike;
        ids above 256 are outside CPython's small-int cache."""
        lines = [f"{700 + i % 7} {900 + i % 5} 1.0 {i}\n" for i in range(40)]
        events = parse_edge_events(lines + ["0700 901\n", "+701,+0902\n"])
        own = {}
        for e in events:
            assert own.setdefault(e[0], e[0]) is e[0]
            assert own.setdefault(e[1], e[1]) is e[1]
        assert len(own) == 12

    def test_load_from_file(self, data_dir):
        events = load_edge_events(data_dir / "toy_initial.txt")
        assert len(events) == 7
        assert events[0] == (1, 2, 1.0, 0)


def _regex_parse(lines):
    """The parser with every line split by the comma-or-whitespace pattern:
    the reference for the ``str.split()`` split."""
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = [f for f in re.split(r"[,\s]+", text) if f]
        if not 2 <= len(fields) <= 4:
            raise ParseError(lineno, f"expected 2-4 fields, got {len(fields)}: {text!r}")
        # a sign and ASCII digits, where int() also takes "1_000" and "\u0661"
        if not all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields[:2]):
            raise ParseError(lineno, f"node ids must be ASCII integers: {text!r}")
        u = int(fields[0])
        v = int(fields[1])
        if u < 0 or v < 0:
            raise ParseError(lineno, f"node ids must be non-negative: {text!r}")
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop on node {u}")
        weight = 1.0
        if len(fields) >= 3:
            try:
                if re.search(r"[_\x80-\U0010ffff]", fields[2]):
                    raise ValueError
                weight = float(fields[2])
            except ValueError:
                raise ParseError(lineno, f"bad weight {fields[2]!r}") from None
            if not math.isfinite(weight):
                raise ParseError(lineno, f"weight must be finite, got {fields[2]!r}")
            if weight == 0 and re.search(r"[1-9]", re.split(r"[eE]", fields[2])[0]):
                raise ParseError(lineno, f"weight {fields[2]!r} underflows to zero")
        if len(fields) == 4:
            if not re.fullmatch(r"[+-]?[0-9]+", fields[3]):
                raise ParseError(lineno, f"bad timestamp {fields[3]!r}")
            timestamp = int(fields[3])
        else:
            timestamp = len(events)
        events.append((u, v, weight, timestamp))
    return events


def _outcome(parse, lines):
    try:
        return [tuple(e) for e in parse(lines)]
    except (ParseError, SelfLoopError) as err:
        return type(err), getattr(err, "lineno", None), str(err)


SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]


class TestParserFastPath:
    """Lines are split by ``str.split()`` once commas become spaces; every
    outcome, error positions and messages included, must equal the pattern
    split."""

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_whitespace_separators(self, sep):
        lines = [
            "1 2\n",
            f"3{sep}4{sep}2.5{sep}9\n",
            f"{sep}5{sep}{sep}6{sep}\r\n",
            f"7,{sep}8{sep},{sep}1.5,9{sep}\n",
        ]
        assert _outcome(parse_edge_events, lines) == _outcome(_regex_parse, lines)
        assert parse_edge_events(lines)[1] == (3, 4, 2.5, 9)

    @pytest.mark.parametrize(
        "line",
        [
            "1\t2\r\n",
            "  # leading-space comment\n",
            "\t#tab comment",
            ",#x",
            "1 2 # c",
            "1,2 # c",
            "1,,2",
            ",1 2,",
            "1 2,3.5 7",
            "1 2 3 4 5",
            "7",
            "a b",
            "-1 2",
            "1_000 2",
            "2 \u0661",
            "3 3",
            "1 2 nan",
            "1 2 2.0 soon",
            "1 2 1_0 5",
            "1 2 \uff13 7",
            "1 2 1 1_000",
            "1 2 1 \u0661\u0662",
            "1 2 -0.5 +007",
            "1 2 1e-400 5",
            "1 2 -0e-400 5",
            "1\u200b2",
            "",
            "\r\n",
        ],
    )
    def test_lines_match_pattern_split(self, line):
        lines = ["1 2\n", line, "5 6 1.5\n"]
        assert _outcome(parse_edge_events, lines) == _outcome(_regex_parse, lines)

    @pytest.mark.parametrize("line", [b"1\t2 3\r\n", b"1\xc2\xa02", b" # c\n", b",#x", b"4 4"])
    def test_bytes_match_pattern_split(self, line):
        lines = [b"1 2\n", line]
        assert _outcome(parse_edge_events, lines) == _outcome(_regex_parse, lines)

    def test_events_are_tuples(self):
        """An event is an exact tuple, which the cyclic collector untracks;
        it never untracks an instance of a tuple subclass."""
        (event,) = parse_edge_events(["1001 1002 2.5 7"])
        assert type(event) is tuple
        gc.collect()
        assert not gc.is_tracked(event)


# derandomized: the same examples on every run, so the suite stays a stable gate
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# a weight text that float() reads as one of 1.0 to 256.0
TABLED = st.integers(1, 256).flatmap(
    lambda n: st.sampled_from([str(n), f"{n}.0", f"{n}e0", f"+{n}", f"0{n}", f"{n * 10}e-1"])
)
UNTABLED = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "+0", "257", "257.0", "1e3", "0.5", "256.5"]),
    st.sampled_from(["0e5", "-0e-400", "00.000", ".0", "5e-324", "-2.5e-324"]),
    st.integers(-300, -1).map(str),
    st.integers(0, 300).map(lambda n: f"{n}.25"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
REJECTED = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e999", "heavy", "1..2", "0x10", "5e"]
    + ["1_0", "2_5.0", "1e1_0", "\u0661", "\uff13", "\u0661.5", "1\u0660"]
    + ["1e-400", "-1e-400", "2e-324", "0.00001e-320", "10E-400"]
)
# a timestamp text, signed or zero-padded, and the int it reads as
STAMPS = st.tuples(
    st.integers(-(10**10), 10**10), st.sampled_from(["", "+"]), st.sampled_from(["", "0", "00"])
).map(lambda d: (("-" if d[0] < 0 else d[1]) + d[2] + str(abs(d[0])), d[0]))


class TestSmallWeights:
    """A weight equal to one of 1.0 to 256.0 is the table's float object;
    every weight still equals a plain ``float()`` parse in value, type and
    sign of zero."""

    @SETTINGS
    @given(
        st.lists(st.tuples(st.one_of(TABLED, UNTABLED, st.none()), STAMPS), min_size=1, max_size=30)
    )
    def test_weights_equal_float_parse(self, drawn):
        # every line twice: the second sight of a table weight's text is the memo's
        drawn = drawn * 2
        lines = [
            f"{i} {i + 1}\n" if w is None else f"{i} {i + 1} {w} {stamp}\n"
            for i, (w, (stamp, _)) in enumerate(drawn)
        ]
        events = parse_edge_events(lines)
        assert len(events) == len(drawn)
        tabled = set(map(id, _SMALL_WEIGHTS.values()))
        for i, ((u, v, weight, t), (text, (_, stamp))) in enumerate(zip(events, drawn)):
            expected = 1.0 if text is None else float(text)
            assert (u, v, t) == (i, i + 1, i if text is None else stamp)
            assert type(weight) is float and type(t) is int
            assert weight == expected
            assert math.copysign(1.0, weight) == math.copysign(1.0, expected)
            if expected.is_integer() and 1 <= expected <= 256:
                assert weight is _SMALL_WEIGHTS[expected]
            else:
                assert id(weight) not in tabled

    @SETTINGS
    @given(st.lists(st.one_of(TABLED, UNTABLED), max_size=10), REJECTED)
    def test_rejected_weight_has_position(self, texts, bad):
        lines = [f"{i} {i + 1} {w} {i}\n" for i, w in enumerate(texts)]
        lines.append(f"1 2 {bad} 0\n")
        with pytest.raises(ParseError) as err:
            parse_edge_events(lines)
        assert err.value.lineno == len(lines)

    @pytest.mark.parametrize("text", ["1e-400", "-1e-400", "2e-324", "0.00001e-320", "10E-400"])
    def test_weight_that_underflows_to_zero_has_position(self, text):
        """float() reads these as 0.0 or -0.0; the parser refuses them, as it
        refuses a text that overflows."""
        with pytest.raises(ParseError, match="underflows to zero") as err:
            parse_edge_events(["1 2 1e-300 5\n", f"2 3 {text} 6\n"])
        assert err.value.lineno == 2

    @pytest.mark.parametrize("text", ["0", "-0", "0.0", "0e5", "-0e-400", "+00.000", ".0"])
    def test_zero_weight_texts_parse(self, text):
        (event,) = parse_edge_events([f"1 2 {text} 5"])
        assert event[2] == 0
        assert math.copysign(1.0, event[2]) == (-1.0 if text.startswith("-") else 1.0)

    def test_table_holds_1_to_256(self):
        assert sorted(_SMALL_WEIGHTS) == [float(n) for n in range(1, 257)]
        assert all(type(w) is float and _SMALL_WEIGHTS[w] is w for w in _SMALL_WEIGHTS)


class TestBucketing:
    def test_count_chunks(self):
        events = parse_edge_events(["1 2", "2 3", "3 4"])
        buckets = bucket_events(events, "count:2")
        assert [label for label, _ in buckets] == ["0", "1"]
        assert [len(b) for _, b in buckets] == [2, 1]

    def test_daily_buckets_use_utc_days(self):
        events = [(1, 2, 1.0, 10), (2, 3, 1.0, DAY + 5)]
        buckets = bucket_events(events, "daily")
        assert [label for label, _ in buckets] == ["1970-01-01", "1970-01-02"]

    def test_monthly_buckets(self):
        events = [(1, 2, 1.0, 0), (2, 3, 1.0, 40 * DAY)]
        buckets = bucket_events(events, "month")
        assert [label for label, _ in buckets] == ["1970-01", "1970-02"]

    def test_unknown_period(self):
        with pytest.raises(ValueError, match="unknown period 'weekly'"):
            bucket_events([(1, 2, 1.0, 0)], "weekly")

    def test_bad_count(self):
        with pytest.raises(ValueError, match="bad period 'count:0'"):
            bucket_events([(1, 2, 1.0, 0)], "count:0")
        with pytest.raises(ValueError, match="bad period 'Count:many'"):
            bucket_events([(1, 2, 1.0, 0)], "Count:many")

    @pytest.mark.parametrize("size", ["\u0661", "\uff12", "1_000", " 2", "2 ", "+2"])
    def test_count_needs_ascii_digits(self, size):
        """int() alone would take each of these as a count."""
        with pytest.raises(ValueError, match="bad period"):
            bucket_events([(1, 2, 1.0, 0)], "count:" + size)

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            bucket_events([], "daily")


class _Counted(float):
    """A weight that counts the additions made with it."""

    additions = 0

    def __add__(self, other):
        _Counted.additions += 1
        return _Counted(float.__add__(self, other))

    __radd__ = __add__


class TestCumulative:
    def test_count_one_stream(self):
        events = parse_edge_events(["1 2", "2 3", "3 4"])
        stream = snapshots_cumulative(events, "count:1")
        assert stream.initial.num_edges == 1
        assert len(stream.deltas) == 2
        assert all(not d.removes for d in stream.deltas)
        assert stream.deltas[0].adds == [Edge(2, 3, 1.0)]

    def test_single_bucket(self):
        events = parse_edge_events(["1 2", "2 3"])
        stream = snapshots_cumulative(events, "count:10")
        assert stream.num_steps == 1
        assert stream.initial.num_edges == 2

    def test_daily_buckets(self):
        events = [
            (1, 2, 1.0, 0),
            (2, 3, 1.0, DAY),
            (3, 4, 1.0, DAY + 1),
            (4, 5, 1.0, 3 * DAY),
        ]
        stream = snapshots_cumulative(events, "daily")
        assert stream.num_steps == 3
        labels = [label for label, _ in bucket_events(events, "daily")]
        assert labels == ["1970-01-01", "1970-01-02", "1970-01-04"]
        assert [len(d.adds) for d in stream.deltas] == [2, 1]

    def test_reobserved_unit_edge_not_readded(self):
        events = [(1, 2, 1.0, 0), (1, 2, 1.0, DAY)]
        stream = snapshots_cumulative(events, "daily")
        assert stream.deltas[0] == EdgeDelta()

    def test_reweighted_edge_is_upsert_add(self):
        events = [(1, 2, 1.0, 0), (1, 2, 4.0, DAY)]
        stream = snapshots_cumulative(events, "daily")
        assert stream.deltas[0].adds == [Edge(1, 2, 4.0)]

    def test_accumulate_policy_sums(self):
        events = [(1, 2, 2.0, 0), (1, 2, 3.0, DAY)]
        stream = snapshots_cumulative(events, "daily", weight_policy="accumulate")
        assert stream.deltas[0].adds == [Edge(1, 2, 5.0)]

    def test_duplicates_within_initial_bucket_collapse(self):
        events = [(1, 2, 1.0, 0), (1, 2, 9.0, 0)]
        stream = snapshots_cumulative(events, "daily")
        assert node_rows(stream.initial)[1][2] == 9.0  # last observation wins
        accumulated = snapshots_cumulative(events, "daily", weight_policy="accumulate")
        assert node_rows(accumulated.initial)[1][2] == 10.0

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            snapshots_cumulative([(1, 2, 1.0, 0)], "count:1", weight_policy="max")

    def test_reobserved_pair_costs_one_addition(self):
        """n observations of one pair, one per bucket: each step folds its
        weight into the pair's sum rather than summing every entry again."""
        n = 2_000
        events = [(1, 2, _Counted(1.0), i) for i in range(n)]
        _Counted.additions = 0
        stream = snapshots_cumulative(events, "count:1", "accumulate")
        assert _Counted.additions <= 2 * n
        assert stream.deltas[-1].adds == [(1, 2, float(n))]


class TestWindow:
    def test_full_turnover(self):
        events = [(1, 2, 1.0, 0), (3, 4, 1.0, DAY)]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_straddling_edge_untouched(self):
        events = [
            (1, 2, 1.0, 0),
            (1, 2, 1.0, DAY),
            (3, 4, 1.0, DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == []

    def test_reobservation_refreshes_expiry(self):
        # (1,2) seen in days 0 and 2: with a 2-day window it must survive
        # until day 4, when both supporting observations have slid out
        events = [
            (1, 2, 1.0, 0),
            (3, 4, 1.0, DAY),
            (1, 2, 1.0, 2 * DAY),
            (3, 4, 1.0, 3 * DAY),
            (3, 4, 1.0, 4 * DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=2)
        assert [d.removes for d in stream.deltas] == [[], [], [], [(1, 2)]]

    def test_expiry_can_outnumber_arrivals(self):
        # three edges in day 0, one in day 1: net added edge count is negative
        events = [
            (1, 2, 1.0, 0),
            (2, 3, 1.0, 0),
            (3, 4, 1.0, 0),
            (5, 6, 1.0, DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert len(delta.adds) - len(delta.removes) < 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            snapshots_window([(1, 2, 1.0, 0)], "daily", window_length=0)

    @pytest.mark.parametrize("length", [2.5, 2.0])
    def test_window_length_must_be_an_int(self, length):
        """A length that is no int is refused; 2.5 never filled the window,
        so its stream was the cumulative one, with no removes."""
        events = [(1, 2, 1.0, 0), (3, 4, 1.0, DAY), (5, 6, 1.0, 2 * DAY), (7, 8, 1.0, 3 * DAY)]
        assert snapshots_window(events, "daily", 2).deltas[-1].removes == [(3, 4)]
        with pytest.raises(TypeError):
            snapshots_window(events, "daily", length)

    def test_covering_window_equals_cumulative(self):
        rng = random.Random(8)
        events = [
            (rng.randrange(10), rng.randrange(10), float(rng.randint(1, 3)), rng.randrange(5) * DAY)
            for _ in range(60)
        ]
        events = [e for e in events if e[0] != e[1]]
        windowed = snapshots_window(events, "daily", window_length=10_000)
        cumulative = snapshots_cumulative(events, "daily")
        assert graph_state(windowed.initial) == graph_state(cumulative.initial)
        assert windowed.deltas == cumulative.deltas


def _rebuilt_window(events, period, window_length, policy):
    """Reference window stream that rebuilds every bucket of the window at
    each step and diffs the whole state against the previous one.

    Returns the initial state and per-step ``(adds, removes)``, weights as
    ``float.hex``, plus the edge and label of the first non-finite weight
    the builder must reject, in the order it checks them (None if none).
    """
    buckets = bucket_events(events, period)
    per_bucket = []
    for _, bucket in buckets:
        weights = {}
        for e in bucket:
            pair = tuple(sorted(e[:2]))
            if policy == "accumulate" and pair in weights:
                weights[pair] += e[2]
            else:
                weights[pair] = e[2]
        per_bucket.append(weights)

    def window_state(k):
        state = {}
        for i in range(max(0, k - window_length + 1), k + 1):
            for pair, w in per_bucket[i].items():
                if policy == "accumulate" and pair in state:
                    state[pair] += w
                else:
                    state[pair] = w
        return state

    labels = [label for label, _ in buckets]
    prev = window_state(0)
    rejected = next(((pair, labels[0]) for pair, w in prev.items() if not math.isfinite(w)), None)
    initial = bits({pair: stored(w) for pair, w in prev.items()})
    steps = []
    for k in range(1, len(buckets)):
        cur = window_state(k)
        adds = sorted((u, v, w) for (u, v), w in cur.items() if (u, v) not in prev or prev[(u, v)] != w)
        removes = sorted(pair for pair in prev if pair not in cur)
        if rejected is None:
            bad = [(u, v) for u, v, w in adds if not math.isfinite(w)]
            rejected = (bad[0], labels[k]) if bad else None
        steps.append(([(u, v, w.hex()) for u, v, w in adds], removes))
        prev = cur
    return initial, steps, rejected


def _built_window(events, period, window_length, policy):
    if window_length == "cumulative":
        stream = snapshots_cumulative(events, period, policy)
    else:
        stream = snapshots_window(events, period, window_length, policy)
    initial = bits({(u, v): w for u, v, w in stream.initial.edges()})
    steps = [([(u, v, w.hex()) for u, v, w in d.adds], d.removes) for d in stream.deltas]
    return initial, steps


ORACLE_WEIGHTS = [1.0, 0.1, 0.3, 2.5, -0.7, 1e16, -0.0]


def _random_events(seed, weights=ORACLE_WEIGHTS, days=8):
    rng = random.Random(seed)
    events = []
    for _ in range(rng.randint(20, 120)):
        u, v = rng.randrange(10), rng.randrange(10)
        if u != v:
            when = rng.randrange(days) * DAY + rng.randrange(DAY)
            events.append((u, v, rng.choice(weights), when))
    return events


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
class TestWindowOracle:
    """The incremental window builder against a full rebuild per step."""

    @pytest.mark.parametrize("policy", ["overwrite", "accumulate"])
    @pytest.mark.parametrize("window", [1, 2, 3, 8, 50, "cumulative"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_rebuild(self, seed, window, policy):
        events = _random_events(seed)
        length = 10_000 if window == "cumulative" else window
        initial, steps, rejected = _rebuilt_window(events, "daily", length, policy)
        assert rejected is None
        assert _built_window(events, "daily", window, policy) == (initial, steps)

    @pytest.mark.parametrize("policy", ["overwrite", "accumulate"])
    def test_edge_leaving_and_reobserved_in_one_step(self, policy):
        events = [
            (1, 2, 0.1, 0),
            (1, 2, 0.2, 0),
            (3, 4, 1.0, DAY),
            (2, 1, 0.3, 2 * DAY),  # day 0 slides out as this arrives
            (5, 6, -0.7, 2 * DAY),
            (3, 4, 1.0, 3 * DAY),  # day 1 slides out, same weight back
            (1, 2, 0.3, 4 * DAY),
        ]
        initial, steps, _ = _rebuilt_window(events, "daily", 2, policy)
        assert _built_window(events, "daily", 2, policy) == (initial, steps)
        first = 0.1 + 0.2 if policy == "accumulate" else 0.2
        assert initial == bits({(1, 2): first})
        assert steps[1] == ([(1, 2, (0.3).hex()), (5, 6, (-0.7).hex())], [])
        assert steps[2] == ([], [])

    @pytest.mark.parametrize("policy", ["overwrite", "accumulate"])
    def test_covering_window_on_count_buckets(self, policy):
        events = _random_events(99)
        initial, steps, _ = _rebuilt_window(events, "count:5", 10_000, policy)
        assert _built_window(events, "count:5", 10_000, policy) == (initial, steps)

    @pytest.mark.parametrize("day", [0, 1])
    def test_two_overflows_in_one_bucket_name_the_same_edge(self, day):
        events = [
            (7, 8, 1.0, 0),
            (5, 6, 1e308, 0),
            (1, 2, 1e308, 0),
            (6, 5, 1e308, day * DAY),
            (2, 1, 1e308, day * DAY),
            (7, 8, 1.0, 2 * DAY),
        ]
        _, _, ((u, v), label) = _rebuilt_window(events, "daily", 2, "accumulate")
        assert (u, v) == ((5, 6) if day == 0 else (1, 2))
        with pytest.raises(NonFiniteWeightError, match=rf"\({u}, {v}\) in bucket {label}"):
            snapshots_window(events, "daily", 2, "accumulate")

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_random_overflows_name_the_same_edge(self, window):
        for seed in range(30):
            events = _random_events(seed, weights=[1e308, 0.5, -1e308], days=6)
            _, _, rejected = _rebuilt_window(events, "daily", window, "accumulate")
            if rejected is None:
                continue
            (u, v), label = rejected
            with pytest.raises(NonFiniteWeightError, match=rf"\({u}, {v}\) in bucket {label}"):
                snapshots_window(events, "daily", window, "accumulate")


BUILDERS = {
    "cumulative": lambda events: snapshots_cumulative(events, "daily", "accumulate"),
    "window": lambda events: snapshots_window(events, "daily", 2, "accumulate"),
}


class TestAccumulateOverflow:
    """Finite weights that sum past the float range are rejected while the
    stream is built, naming the edge and the bucket."""

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("day, label", [(0, "1970-01-01"), (1, "1970-01-02")])
    def test_overflow_names_edge_and_bucket(self, builder, day, label):
        events = [
            (3, 4, 1.0, 0),
            (1, 2, 1e308, 0),
            (1, 2, 1e308, day * DAY),
            (3, 4, 1.0, 2 * DAY),
        ]
        with pytest.raises(NonFiniteWeightError, match=rf"\(1, 2\) in bucket {label}"):
            BUILDERS[builder](events)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_two_overflows_in_one_bucket_name_the_smallest_pair(self, builder):
        events = [
            (5, 6, 1e308, 0),
            (1, 2, 1e308, 0),
            (6, 5, 1e308, DAY),
            (2, 1, 1e308, DAY),
        ]
        with pytest.raises(NonFiniteWeightError, match=r"\(1, 2\) in bucket 1970-01-02"):
            BUILDERS[builder](events)

    def test_large_weights_sliding_apart_are_fine(self):
        events = [(1, 2, 1e308, 0), (1, 2, 1e308, DAY)]
        stream = snapshots_window(events, "daily", 1, "accumulate")
        assert node_rows(stream.initial)[1][2] == 1e308
        assert stream.deltas[0].adds == []


class TestRoundTrip:
    """Folding a stream's deltas reproduces each declared snapshot."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy", ["overwrite", "accumulate"])
    def test_window_states_reproduced(self, seed, policy):
        rng = random.Random(seed)
        events = []
        for _ in range(80):
            u, v = rng.randrange(12), rng.randrange(12)
            if u != v:
                events.append((u, v, float(rng.randint(1, 4)), rng.randrange(6) * DAY))
        window = rng.randint(1, 4)
        stream = snapshots_window(events, "daily", window, weight_policy=policy)
        labels = [label for label, _ in bucket_events(events, "daily")]
        g = stream.initial.copy()
        for k, delta in enumerate(stream.deltas, start=1):
            apply_delta(g, delta)
            # independently materialized target snapshot
            sub = [e for e in events if _in_window(e, labels, k, window)]
            target = snapshots_window(sub, "daily", window, weight_policy=policy)
            expected = target.initial
            for d in target.deltas:
                apply_delta(expected, d)
            assert {(u, v): w for u, v, w in g.edges()} == {
                (u, v): w for u, v, w in expected.edges()
            }


def _in_window(event, labels, step, window):
    from datetime import datetime, timezone

    day = datetime.fromtimestamp(event[3], tz=timezone.utc).date().isoformat()
    active = labels[max(0, step - window + 1) : step + 1]
    return day in active


class TestSnapshotDir:
    def test_stream_from_directory(self, tmp_path):
        (tmp_path / "a_first.txt").write_text("1 2\n2 3\n")
        (tmp_path / "b_second.txt").write_text("2 3\n3 4\n")
        stream = stream_from_snapshot_dir(tmp_path)
        # a_first.txt, the first name in sorted order, is the initial snapshot
        assert list(stream.initial.edges()) == [(1, 2, 1), (2, 3, 1)]
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            stream_from_snapshot_dir(tmp_path)

    def test_centralities_over_directory_stream(self, tmp_path, toy_graph):
        toy_with_edge = Graph(TOY_EDGES + [(4, 6)])
        for name, g in (("s0.txt", toy_graph), ("s1.txt", toy_with_edge)):
            lines = "".join(f"{u} {v}\n" for u, v, _ in g.edges())
            (tmp_path / name).write_text(lines)
        stream = stream_from_snapshot_dir(tmp_path)
        g = stream.initial.copy()
        apply_delta(g, stream.deltas[0])
        assert lap_cent(g, "unweighted").values == lap_cent(toy_with_edge, "unweighted").values

    def test_equal_snapshots(self, tmp_path, toy_graph):
        _write_snapshots(tmp_path, toy_graph, toy_graph)
        assert stream_from_snapshot_dir(tmp_path).deltas == [EdgeDelta()]

    def test_new_edge(self, tmp_path, toy_graph):
        _write_snapshots(tmp_path, toy_graph, Graph(TOY_EDGES + [(4, 6)]))
        (delta,) = stream_from_snapshot_dir(tmp_path).deltas
        assert delta.adds == [(4, 6, 1.0)]
        assert delta.removes == []

    def test_disjoint_snapshots(self, tmp_path):
        _write_snapshots(tmp_path, Graph([(1, 2)]), Graph([(2, 3)]))
        (delta,) = stream_from_snapshot_dir(tmp_path).deltas
        assert delta.adds == [(2, 3, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_weight_change_is_upsert(self, tmp_path):
        _write_snapshots(tmp_path, Graph([(1, 2, 1.0)]), Graph([(1, 2, 2.0)]))
        (delta,) = stream_from_snapshot_dir(tmp_path).deltas
        assert delta.adds == [(1, 2, 2.0)]
        assert delta.removes == []

    def test_applying_deltas_reaches_each_snapshot(self, tmp_path):
        rng = random.Random(12)
        graphs = []
        for _ in range(20):
            edges = []
            for _ in range(rng.randint(0, 30)):
                u, v = rng.randrange(8), rng.randrange(8)
                if u != v:
                    edges.append((u, v, float(rng.randint(1, 3))))
            graphs.append(Graph(edges))
        _write_snapshots(tmp_path, *graphs)
        stream = stream_from_snapshot_dir(tmp_path)
        g = stream.initial
        for delta, nxt in zip(stream.deltas, graphs[1:]):
            apply_delta(g, delta)
            rows = node_rows(g)
            for u, row in node_rows(nxt).items():
                assert rows[u] == row
            assert g.num_edges == nxt.num_edges

    @pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_diff_of_last_weights(self, tmp_path, seed):
        """Files with repeated and reversed pairs and fractional weights: the
        stream is, bitwise, the diff of consecutive files' states, where the
        last weight of a repeated edge wins."""
        rng = random.Random(seed)
        states = []
        for i in range(rng.randint(1, 6)):
            state, lines = {}, []
            for _ in range(rng.randint(0, 25)):
                u, v = rng.randrange(7), rng.randrange(7)
                if u != v:
                    w = rng.choice(ORACLE_WEIGHTS + [0.0, 0.2])
                    state[(min(u, v), max(u, v))] = w
                    lines.append(f"{u} {v} {w!r}\n")
            (tmp_path / f"{i:02d}.txt").write_text("".join(lines))
            states.append(state)
        stream = stream_from_snapshot_dir(tmp_path)
        expected = Graph((u, v, w) for (u, v), w in states[0].items())
        assert bits({(u, v): w for u, v, w in stream.initial.edges()}) == bits(
            {pair: stored(w) for pair, w in states[0].items()}
        )
        assert bits(node_strengths(stream.initial)) == bits(node_strengths(expected))
        built = [([(u, v, w.hex()) for u, v, w in d.adds], d.removes) for d in stream.deltas]
        diffs = []
        for prev, cur in zip(states, states[1:]):
            adds = sorted((u, v, w) for (u, v), w in cur.items() if prev.get((u, v)) != w)
            removes = sorted(pair for pair in prev if pair not in cur)
            diffs.append(([(u, v, w.hex()) for u, v, w in adds], removes))
        assert built == diffs


def _write_snapshots(directory, *graphs):
    """One snapshot file per graph, named so they sort in the given order."""
    for i, g in enumerate(graphs):
        lines = "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges())
        (directory / f"{i:02d}.txt").write_text(lines)
