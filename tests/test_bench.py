import math
import random
import tracemalloc
import warnings
from operator import attrgetter

import pytest

from conftest import TOY_EDGES
from genutil import bits, graph_state, set_value, view

from lapstream import cli, incremental
from lapstream.bench import (
    CSV_HEADER,
    BenchRecord,
    bench_stream,
    diff_maps,
    emit_csv,
)
from lapstream.centrality import lap_cent
from lapstream.cli import cli_main
from lapstream.errors import CompareMismatchError, DeltaError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, run_evolving
from lapstream.ingest import SnapshotStream, snapshots_cumulative, snapshots_window
from lapstream.synth import churn_stream


def toy_stream() -> SnapshotStream:
    return SnapshotStream(Graph(TOY_EDGES), [EdgeDelta(adds=[Edge(4, 6)])])


class TestBenchStream:
    def test_toy_compare_counts(self):
        result = bench_stream(toy_stream(), "compare", "unweighted")
        assert [r.centralities_computed for r in result.batch] == [7, 7]
        assert [r.centralities_computed for r in result.dynamic] == [7, 4]
        assert all(r.speedup is not None for r in result.dynamic)
        assert [r.num_edges for r in result.dynamic] == [7, 8]
        assert [r.added_edges for r in result.dynamic] == [7, 1]
        assert [r.removed_edges for r in result.dynamic] == [0, 0]
        assert [r.step for r in result.dynamic] == [1, 2]

    def test_batch_computes_all_nodes_every_step(self):
        stream = churn_stream(150, 3, steps=6, adds_per_step=4, removes_per_step=4, seed=2)
        result = bench_stream(stream, "compare", "unweighted")
        for rec in result.batch:
            assert rec.centralities_computed == rec.num_nodes
        for rec in result.dynamic:
            assert rec.centralities_computed <= rec.num_nodes
        # both records of a step describe the same post-delta graph and delta
        sizes = attrgetter("step", "num_nodes", "num_edges", "added_edges", "removed_edges")
        assert list(map(sizes, result.batch)) == list(map(sizes, result.dynamic))
        assert len(result.batch) == stream.num_steps

    def test_cumulative_is_prefix_sum(self):
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        result = bench_stream(stream, "dynamic", "unweighted")
        total = 0.0
        for rec in result.dynamic:
            total += rec.elapsed_s
            assert rec.cumulative_s == pytest.approx(total, abs=1e-9)

    def test_single_snapshot_work_parity(self):
        stream = SnapshotStream(churn_stream(2000, 3, 0, 0, 0, seed=5).initial)
        result = bench_stream(stream, "compare", "unweighted")
        (batch_rec,) = result.batch
        (dyn_rec,) = result.dynamic
        assert batch_rec.centralities_computed == dyn_rec.centralities_computed
        # both sides run the identical full computation on step 1
        assert 0.3 < dyn_rec.speedup < 3.0

    @pytest.mark.parametrize("mode", ["batch", "dynamic"])
    def test_single_mode_keeps_no_maps(self, mode):
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        assert bench_stream(stream, mode, "unweighted").maps == []

    def test_compare_keeps_one_map_per_step(self):
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        result = bench_stream(stream, "compare", "unweighted")
        assert len(result.maps) == stream.num_steps
        assert len({id(m.values) for m in result.maps}) == stream.num_steps
        computed = [m.computed_count for m in result.maps]
        assert computed == [r.centralities_computed for r in result.dynamic]

    def test_compare_maps_take_writes(self):
        """A write to a kept map changes that map's reading only."""
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        kept = bench_stream(stream, "compare", "unweighted").maps
        maps = run_evolving(stream.initial.copy(), stream.deltas, "dynamic")
        last = kept[-1].values
        node = next(iter(last))
        last[node] = -1
        assert last[node] == -1
        assert dict(last) == {**maps[-1].values, node: -1}
        assert [dict(m.values) for m in kept[:-1]] == [dict(m.values) for m in maps[:-1]]

    def test_compare_maps_memory(self):
        """Compare keeps its maps as run_evolving does, under 16 bytes per
        node per step; a dict copy per step costs about 32."""
        stream = churn_stream(5000, 4, 30, 5, 5, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            maps = bench_stream(stream, "compare", "unweighted").maps
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / sum(len(m.values) for m in maps) < 16

    @pytest.mark.parametrize("scale", [1.0, 0.1], ids=["integral", "fractional"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_compare_keeps_run_evolving_maps(self, variant, scale):
        """Compare keeps what run_evolving's maps read: ints at E = 0, the
        correctly rounded floats above it."""
        rng = random.Random(3)
        events = [
            (*rng.sample(range(60), 2), rng.randint(1, 5) * scale, rng.randrange(10 * 86400))
            for _ in range(300)
        ]
        events.sort(key=lambda e: e[3])
        stream = snapshots_window(events, "daily", 3, "accumulate")
        kept = bench_stream(stream, "compare", variant).maps
        maps = run_evolving(stream.initial.copy(), stream.deltas, "dynamic", variant)
        assert len(kept) == len(maps) == stream.num_steps
        assert len(maps[0].values) < len(maps[-1].values)
        assert any(d.removes for d in stream.deltas)
        for a, b in zip(kept, maps):
            assert list(bits(a.values).items()) == list(bits(b.values).items())
            assert a.computed_count == b.computed_count

    @pytest.mark.parametrize("mode", ["batch", "dynamic", "compare"])
    def test_one_copy_and_one_apply_per_delta(self, mode, monkeypatch):
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        calls = []
        copy, apply = Graph.copy, Graph._apply

        def counted_copy(g):
            calls.append("copy")
            return copy(g)

        def counted_apply(g, *args):
            calls.append("apply")
            return apply(g, *args)

        monkeypatch.setattr(Graph, "copy", counted_copy)
        monkeypatch.setattr(Graph, "_apply", counted_apply)
        bench_stream(stream, mode, "unweighted")
        assert calls == ["copy"] + ["apply"] * len(stream.deltas)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bench_stream(toy_stream(), "both")

    def test_stream_initial_never_mutated(self):
        stream = toy_stream()
        before = stream.initial.copy()
        bench_stream(stream, "compare", "unweighted")
        assert graph_state(stream.initial) == graph_state(before)

    @pytest.mark.parametrize("mode", ["batch", "dynamic", "compare"])
    def test_inconsistent_delta_carries_step(self, mode):
        stream = SnapshotStream(
            Graph(TOY_EDGES), [EdgeDelta(adds=[Edge(4, 6)]), EdgeDelta(removes=[(1, 4)])]
        )
        with pytest.raises(DeltaError) as err:
            bench_stream(stream, mode)
        assert err.value.step == 2

    def test_compare_gate_aborts_on_divergence(self, monkeypatch):
        step = incremental.lap_cent_add_remove

        def corrupted(g, delta, cmap):
            step(g, delta, cmap)
            node = min(cmap.values)
            set_value(cmap.values, node, cmap.values[node] + 1)
            return cmap

        monkeypatch.setattr(incremental, "lap_cent_add_remove", corrupted)
        with pytest.raises(CompareMismatchError) as err:
            bench_stream(toy_stream(), "compare", "unweighted")
        assert err.value.step == 2
        assert err.value.node == 1

    def test_compare_gate_catches_nan(self, monkeypatch):
        step = incremental.lap_cent_add_remove

        def nan_step(g, delta, cmap):
            step(g, delta, cmap)
            set_value(cmap.values, 4, float("nan"))
            return cmap

        monkeypatch.setattr(incremental, "lap_cent_add_remove", nan_step)
        with pytest.raises(CompareMismatchError) as err:
            bench_stream(toy_stream(), "compare", "unweighted")
        assert err.value.step == 2
        assert err.value.node == 4


def _diff(a: dict, b: dict):
    """diff_maps on two views, each over a node table of its own."""
    return diff_maps(view(a), view(b))


class TestDiffMaps:
    def test_equal(self):
        assert _diff({1: 2.0}, {1: 2.0}) is None

    def test_value_divergence(self):
        assert _diff({1: 2.0, 2: 5.0}, {1: 2.0, 2: 6.0}) == (2, 5.0, 6.0)

    def test_missing_key(self):
        assert _diff({1: 2.0}, {}) == (1, 2.0, None)

    @pytest.mark.parametrize(
        "a, b",
        [
            (float("nan"), 5.0),
            (5.0, float("nan")),
            (float("nan"), float("nan")),
            (float("inf"), 5.0),
            (-5.0, float("-inf")),
        ],
    )
    def test_non_finite_divergence(self, a, b):
        bad = _diff({0: 1.0, 1: a}, {0: 1.0, 1: b})
        assert bad is not None and bad[0] == 1

    def test_tiny_difference_diverges(self):
        assert _diff({1: 1.0}, {1: 1.0 + 1e-12}) == (1, 1.0, 1.0 + 1e-12)

    def test_same_nan_object_diverges(self):
        nan = float("nan")
        bad = _diff({1: nan}, {1: nan})
        assert bad is not None and bad[0] == 1

    def test_same_nan_object_in_equal_maps_diverges(self):
        nan = float("nan")
        a = {v: float(v) for v in range(50)}
        bad = _diff({**a, 17: nan}, {**a, 17: nan})
        assert bad is not None and bad[0] == 17

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ({1: math.inf, 2: 3.0}, {2: 3.0, 1: math.inf}, None),
            ({1: math.inf, 2: -math.inf}, {1: math.inf, 2: -math.inf}, None),
            ({1: 1e308, 2: 1e308}, {1: 1e308, 2: 1e308}, None),
            ({1: 2, 2: 0}, {1: 2.0, 2: 0.0}, None),
            ({1: 2, 2: 0}, {1: 2.0, 2: 0.5}, (2, 0, 0.5)),
        ],
        ids=["inf-inf", "infs-sum-to-nan", "sum-overflows", "int-float", "int-float-diverge"],
    )
    def test_equal_maps_beyond_floats(self, a, b, expected):
        assert _diff(a, b) == expected

    def test_first_divergence_in_node_order(self):
        a = {9: 1.0, 5: 2.0, 3: 3.0, 7: 4.0}
        b = {9: 0.0, 5: 2.0, 3: 3.0, 7: 0.0}
        assert _diff(a, b) == (7, 4.0, 0.0)
        assert _diff(a, {**b, 9: 1.0, 1: 0.0}) == (1, None, 0.0)
        assert _diff({2: 1.0, 4: 1.0}, {4: 1.0, 3: 1.0}) == (2, 1.0, None)


class TestDiffMapsOneTable:
    """Two maps over one graph's node table, whose first-mention order runs
    from the largest node id down, as compare's gate sees them."""

    @staticmethod
    def _maps(variant="weighted"):
        g = Graph([(9, 8, 2.0), (8, 7), (7, 5, 3.0), (5, 3), (3, 1), (1, 9)])
        assert g._nodes == [9, 8, 7, 5, 3, 1]
        return lap_cent(g, variant).values, lap_cent(g, variant).values

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_equal(self, variant):
        a, b = self._maps(variant)
        assert a._nodes is b._nodes and a._values is not b._values
        assert diff_maps(a, b) is None

    def test_the_same_ints_at_another_scale_diverge(self):
        """A map's stored ints stand for values only with their scale."""
        a, b = self._maps()
        b._shift = 1
        assert a._values == b._values
        assert diff_maps(a, b) == (1, a[1], a[1] / 4)

    def test_names_the_smallest_divergent_node(self):
        a, b = self._maps()
        for node in (9, 5, 3):
            set_value(b, node, b[node] + 1.0)
        assert diff_maps(a, b) == (3, a[3], b[3])
        assert diff_maps(b, a) == (3, b[3], a[3])

    def test_shared_nan_object_diverges(self):
        a, b = self._maps()
        nan = float("nan")
        for node in (8, 5):
            set_value(a, node, nan)
            set_value(b, node, nan)
        assert diff_maps(a, b)[0] == 5

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinity_against_a_finite_value_diverges(self, inf):
        a, b = self._maps()
        set_value(a, 7, inf)
        assert diff_maps(a, b) == (7, inf, b[7])
        set_value(b, 7, inf)
        assert diff_maps(a, b) is None


# one weight kind per seed: integral weights, small or large, keep the graph's
# scale at E = 0; the others are fractional and raise it, so that the weighted
# step and batch both run on exact ints scaled by 2**E
WEIGHTS = {
    "integral": lambda rng: float(rng.randint(1, 5)),
    "fractional": lambda rng: rng.uniform(0.01, 5.0),
    "negative": lambda rng: -rng.uniform(0.01, 5.0) if rng.random() < 0.3 else 1.5,
    "12345.678": lambda rng: 12345.678 * rng.randint(1, 3),
    "large": lambda rng: float(rng.randint(1, 3) * 10**6),
}


class TestExactGate:
    """Batch and dynamic maps of event streams pass the exact gate at every step."""

    @pytest.mark.parametrize("seed", range(10))
    def test_compare_on_event_streams(self, seed):
        rng = random.Random(seed)
        kind = list(WEIGHTS)[seed % len(WEIGHTS)]
        weight = WEIGHTS[kind]
        events = []
        for day in range(20):
            for _ in range(rng.randint(5, 40)):
                u, v = rng.sample(range(60), 2)
                events.append((u, v, weight(rng), day * 86400 + rng.randrange(86400)))
        events.sort(key=lambda e: e[3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # negative weights warn
            streams = [
                snapshots_cumulative(events, "daily"),
                snapshots_window(events, "daily", 3, "accumulate"),
                snapshots_window(events, "daily", 3, "overwrite"),
            ]
            for stream in streams:
                g = stream.initial.copy()
                for delta in stream.deltas:
                    apply_delta(g, delta)
                assert (g._shift > 0) == (kind not in ("integral", "large"))
                for variant in ("unweighted", "weighted"):
                    result = bench_stream(stream, "compare", variant)
                    assert len(result.maps) == stream.num_steps == 20
        assert any(d.removes for d in streams[1].deltas)


class TestEmitCsv:
    def test_empty_records(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_header_fields(self):
        assert CSV_HEADER == (
            "step,num_nodes,num_edges,added_edges,removed_edges,"
            "centralities_computed,elapsed_s,cumulative_s,speedup"
        )

    def test_row_formatting(self):
        rec = BenchRecord(1, 7, 7, 7, 0, 7, 0.001234567, 0.001234567, None)
        out = emit_csv([rec])
        assert out == CSV_HEADER + "\n1,7,7,7,0,7,0.001235,0.001235,\n"

    def test_speedup_column_in_compare(self):
        rec = BenchRecord(2, 7, 8, 1, 0, 4, 0.5, 1.0, 2.25)
        assert emit_csv([rec]).splitlines()[1].endswith(",2.250000")

    def test_lf_endings_and_trailing_newline(self):
        out = emit_csv([BenchRecord(1, 1, 1, 1, 0, 1, 0.0, 0.0)])
        assert "\r" not in out
        assert out.endswith("\n")
        assert not out.endswith("\n\n")

    def test_toy_compare_rows(self):
        result = bench_stream(toy_stream(), "compare", "unweighted")
        rows = emit_csv(result.dynamic).splitlines()
        assert rows[2].split(",")[:6] == ["2", "7", "8", "1", "0", "4"]


def _run(data_dir, out_dir, command, *flags):
    toy = str(data_dir / "toy_stream.txt")
    argv = [*command, "--input", toy, "--snapshot", "count:7", "--out", str(out_dir), *flags]
    return cli_main(argv)


class TestRunArtifacts:
    def test_writes_artifacts(self, data_dir, tmp_path):
        assert _run(data_dir, tmp_path, ["compare"], "--dump-centralities") == 0
        batch_csv = (tmp_path / "batch.csv").read_text()
        dynamic_csv = (tmp_path / "dynamic.csv").read_text()
        assert batch_csv.startswith(CSV_HEADER)
        assert dynamic_csv.splitlines()[2].split(",")[5] == "4"
        step2 = (tmp_path / "centralities" / "step_0002.csv").read_text().splitlines()
        assert step2 == ["1,6", "2,12", "3,18", "4,28", "5,38", "6,20", "7,20"]

    @pytest.mark.parametrize(
        "command, replayed",
        [
            (["run", "--mode", "batch"], "batch"),
            (["run", "--mode", "dynamic"], "dynamic"),
            (["compare"], "dynamic"),
        ],
    )
    def test_dump_replays_in_run_mode(self, data_dir, tmp_path, monkeypatch, command, replayed):
        """The dump replays the stream once more through the driver, in the
        run's mode (compare dumps the dynamic maps), after the measurement."""
        modes = []

        def recorded(g, deltas, mode, variant):
            modes.append(mode)
            return incremental.evolve(g, deltas, mode, variant)

        monkeypatch.setattr(cli, "evolve", recorded)
        assert _run(data_dir, tmp_path, command, "--dump-centralities") == 0
        assert modes == [replayed]
        assert len(list((tmp_path / "centralities").iterdir())) == 2

    def test_failed_gate_writes_no_dump(self, data_dir, tmp_path, monkeypatch, capsys):
        step = incremental.lap_cent_add_remove

        def corrupted(g, delta, cmap):
            step(g, delta, cmap)
            node = min(cmap.values)
            set_value(cmap.values, node, cmap.values[node] + 1)
            return cmap

        monkeypatch.setattr(incremental, "lap_cent_add_remove", corrupted)
        assert _run(data_dir, tmp_path, ["compare"], "--dump-centralities") == 2
        assert "step 2" in capsys.readouterr().err
        assert not (tmp_path / "centralities").exists()

    def test_normalized_dump(self, data_dir, tmp_path):
        argv = [
            "run", "--mode", "batch",
            "--input", str(data_dir / "toy_initial.txt"),
            "--snapshot", "count:7",
            "--out", str(tmp_path),
            "--normalized", "--dump-centralities",
        ]
        assert cli_main(argv) == 0
        rows = (tmp_path / "centralities" / "step_0001.csv").read_text().splitlines()
        values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert values[5] == pytest.approx(34 / 48)
        assert all(0 < x <= 1 for x in values.values())


class TestMeasuredSpeedup:
    def test_dynamic_beats_batch_on_low_churn_stream(self):
        """Small-scale version of the headline property: low churn, clear win."""
        stream = churn_stream(
            4000, 4, steps=8, adds_per_step=10, removes_per_step=10, seed=9
        )
        result = bench_stream(stream, "compare", "unweighted")
        assert result.dynamic[-1].cumulative_s < result.batch[-1].cumulative_s
        tail = [r.speedup for r in result.dynamic[1:]]
        assert sum(tail) / len(tail) > 1.0
