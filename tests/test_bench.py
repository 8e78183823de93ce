import pytest

from conftest import TOY_EDGES

from lapstream import bench, incremental
from lapstream.bench import (
    CSV_HEADER,
    BenchRecord,
    RunConfig,
    bench_stream,
    build_stream,
    diff_maps,
    emit_csv,
    run_benchmark,
)
from lapstream.errors import CompareMismatchError, DeltaError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta
from lapstream.ingest import SnapshotStream
from lapstream.synth import churn_stream


def toy_stream() -> SnapshotStream:
    return SnapshotStream(Graph(TOY_EDGES), [EdgeDelta(adds=[Edge(4, 6)])], ["0", "1"])


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

    def test_cumulative_is_prefix_sum(self):
        stream = churn_stream(100, 3, steps=5, adds_per_step=3, removes_per_step=3, seed=1)
        result = bench_stream(stream, "dynamic", "unweighted")
        total = 0.0
        for rec in result.dynamic:
            total += rec.elapsed_s
            assert rec.cumulative_s == pytest.approx(total, abs=1e-9)

    def test_single_snapshot_work_parity(self):
        stream = SnapshotStream(churn_stream(2000, 3, 0, 0, 0, seed=5).initial, [], ["0"])
        result = bench_stream(stream, "compare", "unweighted", repeat=3)
        (batch_rec,) = result.batch
        (dyn_rec,) = result.dynamic
        assert batch_rec.centralities_computed == dyn_rec.centralities_computed
        # both sides run the identical full computation on step 1
        assert 0.3 < dyn_rec.speedup < 3.0

    def test_repeat_populates_std(self):
        result = bench_stream(toy_stream(), "dynamic", "unweighted", repeat=3)
        assert all(r.elapsed_std_s is not None for r in result.dynamic)

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            bench_stream(toy_stream(), "dynamic", repeat=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bench_stream(toy_stream(), "both")

    def test_stream_initial_never_mutated(self):
        stream = toy_stream()
        before = stream.initial.copy()
        bench_stream(stream, "compare", "unweighted")
        assert stream.initial == before

    def test_inconsistent_delta_carries_step(self):
        stream = SnapshotStream(
            Graph(TOY_EDGES),
            [EdgeDelta(adds=[Edge(4, 6)]), EdgeDelta(removes=[(1, 4)])],
            ["0", "1", "2"],
        )
        with pytest.raises(DeltaError) as err:
            bench_stream(stream, "dynamic")
        assert err.value.step == 2

    def test_compare_gate_aborts_on_divergence(self, monkeypatch):
        step = incremental.lap_cent_add_remove

        def corrupted(g, delta, cmap, variant):
            step(g, delta, cmap, variant)
            cmap.values[min(cmap.values)] += 1
            return cmap

        monkeypatch.setattr(incremental, "lap_cent_add_remove", corrupted)
        with pytest.raises(CompareMismatchError) as err:
            bench_stream(toy_stream(), "compare", "unweighted")
        assert err.value.step == 2
        assert err.value.node == 1

    def test_compare_gate_catches_nan(self, monkeypatch):
        step = incremental.lap_cent_add_remove

        def nan_step(g, delta, cmap, variant):
            step(g, delta, cmap, variant)
            cmap.values[4] = float("nan")
            return cmap

        monkeypatch.setattr(incremental, "lap_cent_add_remove", nan_step)
        with pytest.raises(CompareMismatchError) as err:
            bench_stream(toy_stream(), "compare", "unweighted")
        assert err.value.step == 2
        assert err.value.node == 4


class TestDiffMaps:
    def test_equal(self):
        assert diff_maps({1: 2.0}, {1: 2.0}) is None

    def test_value_divergence(self):
        assert diff_maps({1: 2.0, 2: 5.0}, {1: 2.0, 2: 6.0}) == (2, 5.0, 6.0)

    def test_missing_key(self):
        assert diff_maps({1: 2.0}, {}) == (1, 2.0, None)

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
        bad = diff_maps({0: 1.0, 1: a}, {0: 1.0, 1: b})
        assert bad is not None and bad[0] == 1

    def test_tolerance(self):
        assert diff_maps({1: 1.0}, {1: 1.0 + 1e-12}) is None

    def test_same_nan_object_diverges(self):
        nan = float("nan")
        bad = diff_maps({1: nan}, {1: nan})
        assert bad is not None and bad[0] == 1

    def test_first_divergence_in_node_order(self):
        a = {9: 1.0, 5: 2.0, 3: 3.0, 7: 4.0}
        b = {9: 0.0, 5: 2.0, 3: 3.0, 7: 0.0}
        assert diff_maps(a, b) == (7, 4.0, 0.0)
        assert diff_maps(a, {**b, 9: 1.0, 1: 0.0}) == (1, None, 0.0)
        assert diff_maps({2: 1.0, 4: 1.0}, {4: 1.0, 3: 1.0}) == (2, 1.0, None)


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


class TestBuildStream:
    def test_from_event_file(self, data_dir):
        cfg = RunConfig(input_path=data_dir / "toy_stream.txt", snapshot="count:7")
        stream = build_stream(cfg)
        assert stream.initial.num_edges == 7
        assert len(stream.deltas) == 1

    def test_window_selects_dynamic_semantics(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1.0 0\n3 4 1.0 86400\n")
        cfg = RunConfig(input_path=path, snapshot="daily", window=1)
        stream = build_stream(cfg)
        assert stream.deltas[0].removes == [(1, 2)]

    def test_from_directory(self, tmp_path):
        (tmp_path / "00.txt").write_text("1 2\n")
        (tmp_path / "01.txt").write_text("1 2\n2 3\n")
        cfg = RunConfig(input_path=tmp_path)
        stream = build_stream(cfg)
        assert len(stream.deltas) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            build_stream(RunConfig(input_path=tmp_path / "missing.txt"))


class TestRunBenchmark:
    def test_writes_artifacts(self, data_dir, tmp_path):
        cfg = RunConfig(
            input_path=data_dir / "toy_stream.txt",
            mode="compare",
            snapshot="count:7",
            out_dir=tmp_path,
            dump_centralities=True,
        )
        run_benchmark(cfg)
        batch_csv = (tmp_path / "batch.csv").read_text()
        dynamic_csv = (tmp_path / "dynamic.csv").read_text()
        assert batch_csv.startswith(CSV_HEADER)
        assert dynamic_csv.splitlines()[2].split(",")[5] == "4"
        step2 = (tmp_path / "centralities" / "step_0002.csv").read_text().splitlines()
        assert step2 == ["1,6", "2,12", "3,18", "4,28", "5,38", "6,20", "7,20"]

    def test_unnormalized_dump_replays_nothing(self, data_dir, tmp_path, monkeypatch):
        def run(out_dir):
            cfg = RunConfig(
                input_path=data_dir / "toy_stream.txt",
                snapshot="count:7",
                out_dir=out_dir,
                dump_centralities=True,
            )
            run_benchmark(cfg)
            dump_dir = out_dir / "centralities"
            return {p.name: p.read_bytes() for p in sorted(dump_dir.iterdir())}

        expected = run(tmp_path / "replayed")

        def no_replay(*args):
            raise AssertionError("an unnormalized dump needs no graph")

        monkeypatch.setattr(bench, "apply_delta", no_replay)
        dumped = run(tmp_path / "direct")
        assert len(dumped) == 2
        assert dumped == expected

    def test_normalized_dump(self, data_dir, tmp_path):
        cfg = RunConfig(
            input_path=data_dir / "toy_initial.txt",
            mode="batch",
            snapshot="count:7",
            out_dir=tmp_path,
            normalized=True,
            dump_centralities=True,
        )
        run_benchmark(cfg)
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
