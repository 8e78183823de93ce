import random

import pytest

from lapstream.centrality import lap_cent
from lapstream.errors import EmptyDatasetError, NonFiniteWeightError, ParseError, SelfLoopError
from lapstream.graph import Edge, Graph
from lapstream.incremental import apply_delta
from lapstream.ingest import (
    EdgeEvent,
    bucket_events,
    delta_between,
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
        assert events == [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(2, 3, 1.0, 1)]

    def test_bitcoin_alpha_row(self):
        (event,) = parse_edge_events(["7188,1,10,1407470400"])
        assert event == EdgeEvent(7188, 1, 10.0, 1407470400)

    def test_comment_only(self):
        assert parse_edge_events(["# comment\n"]) == []

    def test_blank_lines_skipped(self):
        assert len(parse_edge_events(["\n", "1 2\n", "   \n"])) == 1

    def test_three_fields_is_weight(self):
        (event,) = parse_edge_events(["4 5 2.5"])
        assert event.weight == 2.5
        assert event.timestamp == 0

    def test_bytes_input(self):
        (event,) = parse_edge_events([b"1 2 1.0 99"])
        assert event == EdgeEvent(1, 2, 1.0, 99)

    def test_mixed_separators(self):
        (event,) = parse_edge_events(["1, 2,3.0, 7"])
        assert event == EdgeEvent(1, 2, 3.0, 7)

    @pytest.mark.parametrize(
        "line",
        ["1", "1 2 3 4 5", "a b", "-1 2", "1 2 heavy", "1 2 1.0 soon", "1 2 nan", "1 2 -inf 5"],
    )
    def test_bad_lines_have_position(self, line):
        with pytest.raises(ParseError) as err:
            parse_edge_events(["1 2\n", line])
        assert err.value.lineno == 2

    def test_self_loop_line(self):
        with pytest.raises(SelfLoopError, match="line 3"):
            parse_edge_events(["1 2", "2 3", "4 4"])

    def test_load_from_file(self, data_dir):
        events = load_edge_events(data_dir / "toy_initial.txt")
        assert len(events) == 7
        assert events[0] == EdgeEvent(1, 2, 1.0, 0)


class TestBucketing:
    def test_count_chunks(self):
        events = parse_edge_events(["1 2", "2 3", "3 4"])
        buckets = bucket_events(events, "count:2")
        assert [label for label, _ in buckets] == ["0", "1"]
        assert [len(b) for _, b in buckets] == [2, 1]

    def test_daily_buckets_use_utc_days(self):
        events = [EdgeEvent(1, 2, 1.0, 10), EdgeEvent(2, 3, 1.0, DAY + 5)]
        buckets = bucket_events(events, "daily")
        assert [label for label, _ in buckets] == ["1970-01-01", "1970-01-02"]

    def test_monthly_buckets(self):
        events = [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(2, 3, 1.0, 40 * DAY)]
        buckets = bucket_events(events, "month")
        assert [label for label, _ in buckets] == ["1970-01", "1970-02"]

    def test_unknown_period(self):
        with pytest.raises(ValueError):
            bucket_events([EdgeEvent(1, 2)], "weekly")

    def test_bad_count(self):
        with pytest.raises(ValueError):
            bucket_events([EdgeEvent(1, 2)], "count:0")
        with pytest.raises(ValueError):
            bucket_events([EdgeEvent(1, 2)], "count:many")

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            bucket_events([], "daily")


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
            EdgeEvent(1, 2, 1.0, 0),
            EdgeEvent(2, 3, 1.0, DAY),
            EdgeEvent(3, 4, 1.0, DAY + 1),
            EdgeEvent(4, 5, 1.0, 3 * DAY),
        ]
        stream = snapshots_cumulative(events, "daily")
        assert stream.num_steps == 3
        assert stream.labels == ["1970-01-01", "1970-01-02", "1970-01-04"]
        assert [len(d.adds) for d in stream.deltas] == [2, 1]

    def test_reobserved_unit_edge_not_readded(self):
        events = [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(1, 2, 1.0, DAY)]
        stream = snapshots_cumulative(events, "daily")
        assert stream.deltas[0].is_empty()

    def test_reweighted_edge_is_upsert_add(self):
        events = [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(1, 2, 4.0, DAY)]
        stream = snapshots_cumulative(events, "daily")
        assert stream.deltas[0].adds == [Edge(1, 2, 4.0)]

    def test_accumulate_policy_sums(self):
        events = [EdgeEvent(1, 2, 2.0, 0), EdgeEvent(1, 2, 3.0, DAY)]
        stream = snapshots_cumulative(events, "daily", weight_policy="accumulate")
        assert stream.deltas[0].adds == [Edge(1, 2, 5.0)]

    def test_duplicates_within_initial_bucket_collapse(self):
        events = [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(1, 2, 9.0, 0)]
        stream = snapshots_cumulative(events, "daily")
        assert stream.initial.edge_weight(1, 2) == 9.0  # last observation wins
        accumulated = snapshots_cumulative(events, "daily", weight_policy="accumulate")
        assert accumulated.initial.edge_weight(1, 2) == 10.0

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            snapshots_cumulative([EdgeEvent(1, 2)], "count:1", weight_policy="max")


class TestWindow:
    def test_full_turnover(self):
        events = [EdgeEvent(1, 2, 1.0, 0), EdgeEvent(3, 4, 1.0, DAY)]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_straddling_edge_untouched(self):
        events = [
            EdgeEvent(1, 2, 1.0, 0),
            EdgeEvent(1, 2, 1.0, DAY),
            EdgeEvent(3, 4, 1.0, DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == []

    def test_reobservation_refreshes_expiry(self):
        # (1,2) seen in days 0 and 2: with a 2-day window it must survive
        # until day 4, when both supporting observations have slid out
        events = [
            EdgeEvent(1, 2, 1.0, 0),
            EdgeEvent(3, 4, 1.0, DAY),
            EdgeEvent(1, 2, 1.0, 2 * DAY),
            EdgeEvent(3, 4, 1.0, 3 * DAY),
            EdgeEvent(3, 4, 1.0, 4 * DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=2)
        assert [d.removes for d in stream.deltas] == [[], [], [], [(1, 2)]]

    def test_expiry_can_outnumber_arrivals(self):
        # three edges in day 0, one in day 1: net added edge count is negative
        events = [
            EdgeEvent(1, 2, 1.0, 0),
            EdgeEvent(2, 3, 1.0, 0),
            EdgeEvent(3, 4, 1.0, 0),
            EdgeEvent(5, 6, 1.0, DAY),
        ]
        stream = snapshots_window(events, "daily", window_length=1)
        (delta,) = stream.deltas
        assert len(delta.adds) - len(delta.removes) < 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            snapshots_window([EdgeEvent(1, 2)], "daily", window_length=0)

    def test_covering_window_equals_cumulative(self):
        rng = random.Random(8)
        events = [
            EdgeEvent(rng.randrange(10), rng.randrange(10), float(rng.randint(1, 3)), rng.randrange(5) * DAY)
            for _ in range(60)
        ]
        events = [e for e in events if e.u != e.v]
        windowed = snapshots_window(events, "daily", window_length=10_000)
        cumulative = snapshots_cumulative(events, "daily")
        assert windowed.initial == cumulative.initial
        assert windowed.deltas == cumulative.deltas


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
            EdgeEvent(3, 4, 1.0, 0),
            EdgeEvent(1, 2, 1e308, 0),
            EdgeEvent(1, 2, 1e308, day * DAY),
            EdgeEvent(3, 4, 1.0, 2 * DAY),
        ]
        with pytest.raises(NonFiniteWeightError, match=rf"\(1, 2\) in bucket {label}"):
            BUILDERS[builder](events)

    def test_large_weights_sliding_apart_are_fine(self):
        events = [EdgeEvent(1, 2, 1e308, 0), EdgeEvent(1, 2, 1e308, DAY)]
        stream = snapshots_window(events, "daily", 1, "accumulate")
        assert stream.initial.edge_weight(1, 2) == 1e308
        assert stream.deltas[0].adds == []


class TestDeltaBetween:
    def test_equal_graphs(self, toy_graph):
        assert delta_between(toy_graph, toy_graph.copy()).is_empty()

    def test_toy_transition(self, toy_graph):
        nxt = toy_graph.copy()
        nxt.add_edge(4, 6)
        delta = delta_between(toy_graph, nxt)
        assert delta.adds == [Edge(4, 6, 1.0)]
        assert delta.removes == []

    def test_disjoint_graphs(self):
        delta = delta_between(Graph([(1, 2)]), Graph([(2, 3)]))
        assert delta.adds == [Edge(2, 3, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_weight_change_is_upsert(self):
        prev = Graph([(1, 2, 1.0)])
        nxt = Graph([(1, 2, 2.0)])
        assert delta_between(prev, nxt).adds == [Edge(1, 2, 2.0)]

    def test_applying_delta_reaches_target(self):
        rng = random.Random(12)
        for _ in range(20):
            prev = Graph()
            nxt = Graph()
            for _ in range(rng.randint(0, 30)):
                u, v = rng.randrange(8), rng.randrange(8)
                if u != v:
                    prev.add_edge(u, v, float(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 30)):
                u, v = rng.randrange(8), rng.randrange(8)
                if u != v:
                    nxt.add_edge(u, v, float(rng.randint(1, 3)))
            g = prev.copy()
            apply_delta(g, delta_between(prev, nxt))
            for u in nxt.nodes():
                assert dict(g.neighbors(u)) == dict(nxt.neighbors(u))
            assert g.num_edges == nxt.num_edges


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
                events.append(EdgeEvent(u, v, float(rng.randint(1, 4)), rng.randrange(6) * DAY))
        window = rng.randint(1, 4)
        stream = snapshots_window(events, "daily", window, weight_policy=policy)
        g = stream.initial.copy()
        for k, delta in enumerate(stream.deltas, start=1):
            apply_delta(g, delta)
            # independently materialized target snapshot
            sub = [e for e in events if _in_window(e, stream.labels, k, window)]
            target = snapshots_window(sub, "daily", window, weight_policy=policy)
            expected = target.initial
            for d in target.deltas:
                apply_delta(expected, d)
            assert {e.canonical(): e.weight for e in g.edges()} == {
                e.canonical(): e.weight for e in expected.edges()
            }


def _in_window(event, labels, step, window):
    from datetime import datetime, timezone

    day = datetime.fromtimestamp(event.timestamp, tz=timezone.utc).date().isoformat()
    active = labels[max(0, step - window + 1) : step + 1]
    return day in active


class TestSnapshotDir:
    def test_stream_from_directory(self, tmp_path):
        (tmp_path / "a_first.txt").write_text("1 2\n2 3\n")
        (tmp_path / "b_second.txt").write_text("2 3\n3 4\n")
        stream = stream_from_snapshot_dir(tmp_path)
        assert stream.labels == ["a_first.txt", "b_second.txt"]
        assert stream.initial.num_edges == 2
        (delta,) = stream.deltas
        assert delta.adds == [Edge(3, 4, 1.0)]
        assert delta.removes == [(1, 2)]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            stream_from_snapshot_dir(tmp_path)

    def test_centralities_over_directory_stream(self, tmp_path, toy_graph):
        toy_with_edge = toy_graph.copy()
        toy_with_edge.add_edge(4, 6)
        for name, g in (("s0.txt", toy_graph), ("s1.txt", toy_with_edge)):
            lines = "".join(f"{e.u} {e.v}\n" for e in g.edges())
            (tmp_path / name).write_text(lines)
        stream = stream_from_snapshot_dir(tmp_path)
        g = stream.initial.copy()
        apply_delta(g, stream.deltas[0])
        assert lap_cent(g, "unweighted").values == lap_cent(toy_with_edge, "unweighted").values
