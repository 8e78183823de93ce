import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import TOY_EDGES
from genutil import far_delta, far_graph, graph_state

import lapstream
from lapstream import cli
from lapstream.bench import CSV_HEADER
from lapstream.cli import cli_main
from lapstream.errors import LapstreamError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta
from lapstream.ingest import SnapshotStream, bucket_events

# deltas validate rejects on the toy graph, each with the index of the add its
# duplicate audit reports, or None where the audit passes and apply_delta's own
# check rejects; the audit runs over every add before any is applied
AUDITED_DELTAS = [
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 1)]), 1),
    (EdgeDelta(adds=[Edge(1, 9), Edge(9, 1)]), 1),
    (EdgeDelta(adds=[Edge(2, 1), Edge(3, 3)]), 0),
    (EdgeDelta(adds=[Edge(9, 1), Edge(1, 9), Edge(2, 8, 10**400)]), 1),
    (EdgeDelta(adds=[Edge(3, 2)], removes=[(1, 6)]), 0),
    (EdgeDelta(adds=[Edge(1, 9), Edge(3, 3)]), None),
    (EdgeDelta(adds=[Edge(1, 9)], removes=[(1, 2), (2, 1)]), None),
]

# a delta of the second window adds (3, 4) at weight -5e-324
NEGATIVE_WEIGHT = "1 2 5e-324 0\n2 3 0.1 86400\n1 2 1.5 86400\n3 4 -5e-324 172800\n"
NEGATIVE_WEIGHT_ARGV = ["compare", "--variant", "weighted", "--window", "2", "--input"]


def _stream(*argv):
    """The stream ``validate`` would read from these flags."""
    return cli._stream(cli.build_parser().parse_args(["validate", *map(str, argv)]))


class TestStream:
    def test_from_event_file(self, data_dir):
        stream = _stream("--input", data_dir / "toy_stream.txt", "--snapshot", "count:7")
        assert stream.initial.num_edges == 7
        assert len(stream.deltas) == 1

    def test_window_selects_dynamic_semantics(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1.0 0\n3 4 1.0 86400\n")
        stream = _stream("--input", path, "--snapshot", "daily", "--window", 1)
        assert stream.deltas[0].removes == [(1, 2)]

    def test_from_directory(self, tmp_path):
        (tmp_path / "00.txt").write_text("1 2\n")
        (tmp_path / "01.txt").write_text("1 2\n2 3\n")
        stream = _stream("--input", tmp_path)
        assert len(stream.deltas) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            _stream("--input", tmp_path / "missing.txt")


class TestCentralityCommand:
    def test_toy_table(self, data_dir, capsys):
        code = cli_main(
            ["centrality", "--input", str(data_dir / "toy_initial.txt"), "--variant", "unweighted"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,6", "2,12", "3,18", "4,18", "5,34", "6,10", "7,18"]

    def test_normalized(self, data_dir, capsys):
        code = cli_main(
            ["centrality", "--input", str(data_dir / "toy_initial.txt"), "--normalized"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "5,0.708333333333"

    def test_weighted_variant(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        path.write_text("0 1 2.0\n0 2 3.0\n")
        assert cli_main(["centrality", "--input", str(path), "--variant", "weighted"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0,64", "1,28", "2,48"]

    def test_normalized_past_the_float_range(self, tmp_path, capsys):
        """Values and energy near 4e400 are exact ints; their ratio is 1."""
        path = tmp_path / "huge.txt"
        path.write_text("1 2 1e200 0\n")
        argv = ["centrality", "--input", str(path), "--variant", "weighted", "--normalized"]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["1,1", "2,1"]

    @pytest.mark.parametrize(
        "text, want",
        [
            ("1 2 1e200 0\n2 3 0.5 0\n", ["1,1", "2,1", "3,2.5e-201"]),
            ("1 2 5e-324 0\n", ["1,1", "2,1"]),
        ],
    )
    def test_normalized_by_the_exact_energy(self, tmp_path, capsys, text, want):
        """An energy past the float range or below it, at E > 0: each value
        is divided by the exact energy, not by its rounded float."""
        path = tmp_path / "edges.txt"
        path.write_text(text)
        argv = ["centrality", "--input", str(path), "--variant", "weighted", "--normalized"]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.splitlines() == want

    def test_value_past_the_float_range_names_the_node(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("1 2 1e200 0\n")
        assert cli_main(["centrality", "--input", str(path), "--variant", "weighted"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the centrality of node 1 is past the float range\n"

    def test_out_file(self, data_dir, tmp_path):
        target = tmp_path / "cent.csv"
        code = cli_main(
            ["centrality", "--input", str(data_dir / "toy_initial.txt"), "--out", str(target)]
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "1,6"


class TestCompareCommand:
    def test_toy_compare_stdout(self, data_dir, capsys):
        code = cli_main(
            [
                "compare",
                "--input", str(data_dir / "toy_stream.txt"),
                "--snapshot", "count:7",
                "--variant", "unweighted",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        # speedup column populated in compare mode
        assert all(row.rsplit(",", 1)[1] for row in rows[1:])
        assert rows[2].split(",")[5] == "4"

    def test_out_dir(self, data_dir, tmp_path):
        code = cli_main(
            [
                "compare",
                "--input", str(data_dir / "toy_stream.txt"),
                "--snapshot", "count:7",
                "--out", str(tmp_path / "results"),
            ]
        )
        assert code == 0
        assert (tmp_path / "results" / "batch.csv").exists()
        assert (tmp_path / "results" / "dynamic.csv").exists()

    @pytest.mark.parametrize(
        "text",
        ["1 2 1e308 0\n2 3 1e308 0\n", "1 2 1e308 0\n2 3 1e308 0\n3 4 0.5 0\n"],
        ids=["integral", "fractional"],
    )
    def test_dump_past_the_float_range_names_step_and_node(self, tmp_path, capsys, text):
        """Exact values near 1e617 pass the gate, and compare keeps them exact,
        at E = 0 and above it; their dump exits 2, naming step and node."""
        path = tmp_path / "huge.txt"
        path.write_text(text)
        out = tmp_path / "out"
        argv = ["compare", "--input", str(path), "--variant", "weighted", "--out", str(out)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main([*argv, "--dump-centralities"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step 1: the centrality of node 1 is past the float range\n"

    @pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
    def test_subnormal_weights_pass_the_gate(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("1 2 5e-324 0\n2 3 0.1 86400\n1 2 1.5 86400\n3 4 -5e-324 172800\n")
        argv = ["compare", "--input", str(path), "--variant", "weighted", "--window", "2"]
        out = tmp_path / "out"
        assert cli_main([*argv, "--out", str(out), "--dump-centralities"]) == 0
        assert (out / "centralities" / "step_0001.csv").read_text() == "1,0\n2,0\n"


class TestRunCommand:
    def test_dynamic_run(self, data_dir, capsys):
        code = cli_main(
            [
                "run",
                "--input", str(data_dir / "toy_stream.txt"),
                "--mode", "dynamic",
                "--snapshot", "count:7",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        # speedup column empty outside compare mode
        assert rows[1].endswith(",")
        assert rows[2].split(",")[5] == "4"

    def test_dump_of_zero_energy_names_its_step(self, tmp_path, capsys):
        """An edge reweighted to 0 leaves the weighted graph no energy: the
        normalized dump exits 2 at that step, naming it."""
        path = tmp_path / "zero.txt"
        path.write_text("1 2 5 0\n1 2 0 86400\n")
        out = tmp_path / "out"
        argv = ["run", "--input", str(path), "--variant", "weighted", "--out", str(out)]
        assert cli_main([*argv, "--dump-centralities", "--normalized"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step 2: graph has zero Laplacian energy\n"
        assert (out / "centralities" / "step_0001.csv").read_text() == "1,1\n2,1\n"

    def test_missing_input_is_data_error(self, capsys):
        code = cli_main(["run", "--input", "missing.txt"])
        assert code == 2
        assert "missing.txt" in capsys.readouterr().err

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\nnot numbers\n")
        code = cli_main(["run", "--input", str(bad), "--snapshot", "count:1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "--snapshot", "count:1"], ["centrality"]])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1 2\n2 3 \xe9\n")
        code = cli_main([command[0], "--input", str(bad), *command[1:]])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "validate", "centrality"])
    def test_empty_dataset_is_data_error(self, tmp_path, capsys, command):
        empty = tmp_path / "only_comments.txt"
        empty.write_text("# nothing here\n")
        assert cli_main([command, "--input", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no edge events in {empty}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("window", [[], ["--window", "2"]])
    def test_accumulated_overflow_is_data_error(self, tmp_path, capsys, window):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1e308 0\n1 2 1e308 86400\n")
        code = cli_main(
            ["run", "--input", str(path), "--snapshot", "daily", "--weight-policy", "accumulate"]
            + window
        )
        assert code == 2
        assert "bucket 1970-01-02" in capsys.readouterr().err

    @pytest.mark.parametrize("snapshot", ["daily", "monthly"])
    @pytest.mark.parametrize(
        "timestamp", ["253402300800", "-62135596801", "99999999999999999", str(10**30)]
    )
    def test_timestamp_outside_datetime_range_is_data_error(
        self, tmp_path, capsys, snapshot, timestamp
    ):
        path = tmp_path / "events.txt"
        path.write_text(f"1 2 1 0\n2 3 1 {timestamp}\n")
        code = cli_main(["run", "--input", str(path), "--snapshot", snapshot])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_window_run(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1.0 0\n2 3 1.0 0\n3 4 1.0 86400\n")
        code = cli_main(
            ["run", "--input", str(path), "--snapshot", "daily", "--window", "1"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].split(",")[4] == "2"  # both day-0 edges slide out


# fractional weights; re-observed edges change weight, and a window drops edges
FRACTIONAL_EVENTS = """\
1 2 0.1
2 3 0.7
3 4 0.3
1 3 2.25
4 5 0.05
1 2 0.7
2 3 0.2
5 6 1.9
1 6 0.7
2 6 0.1
3 4 0.3
4 5 1.1
"""


class TestDumps:
    @pytest.mark.parametrize("normalized", [[], ["--normalized"]])
    @pytest.mark.parametrize(
        "source, flags",
        [
            ("toy", ["--snapshot", "count:7"]),
            ("fractional", ["--snapshot", "count:4", "--variant", "weighted"]),
            ("fractional", ["--snapshot", "count:3", "--variant", "weighted", "--window", "2"]),
        ],
    )
    def test_same_files_in_every_mode(self, data_dir, tmp_path, source, flags, normalized):
        if source == "toy":
            path = data_dir / "toy_stream.txt"
        else:
            path = tmp_path / "fractional.txt"
            path.write_text(FRACTIONAL_EVENTS)
        dumps = []
        for command in (["run", "--mode", "batch"], ["run", "--mode", "dynamic"], ["compare"]):
            out = tmp_path / "_".join(command)
            argv = [*command, "--input", str(path), *flags, "--out", str(out)]
            assert cli_main([*argv, "--dump-centralities", *normalized]) == 0
            files = sorted((out / "centralities").iterdir())
            dumps.append({f.name: f.read_bytes() for f in files})
        assert len(dumps[0]) > 1
        assert dumps[0] == dumps[1] == dumps[2]


class TestUsageErrors:
    @pytest.mark.parametrize("mode", ["sideways", "compare"])
    def test_unknown_mode(self, capsys, mode):
        code = cli_main(["run", "--input", "x.txt", "--mode", mode])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "validate"])
    def test_strict_flag_is_gone(self, data_dir, capsys, command):
        stream = str(data_dir / "toy_stream.txt")
        code = cli_main([command, "--input", stream, "--snapshot", "count:7", "--strict"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_validate_takes_no_variant(self, data_dir, capsys):
        stream = str(data_dir / "toy_stream.txt")
        code = cli_main(
            ["validate", "--input", stream, "--snapshot", "count:7", "--variant", "weighted"]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "validate"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "1"],
            ["--snapshot", "monthly"],
            ["--weight-policy", "accumulate"],
            ["--window", "1", "--weight-policy", "accumulate", "--snapshot", "monthly"],
        ],
    )
    def test_event_flag_on_snapshot_dir(self, tmp_path, capsys, command, flags):
        (tmp_path / "a.txt").write_text("1 2\n")
        (tmp_path / "b.txt").write_text("2 3\n")
        assert cli_main([command, "--input", str(tmp_path), *flags]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert all(flag in captured.err for flag in flags[::2])
        assert "would do nothing on a snapshot directory" in captured.err
        assert captured.out == ""

    def test_missing_required_flag(self, capsys):
        assert cli_main(["run"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snapshot", "weekly"],
            ["--window", "-2"],
            # --window reads ASCII digits, as count:N does
            ["--window", "1_0"],
            ["--window", "\u0662"],
            ["--window", " 2"],
            ["--snapshot", "count:0"],
        ],
    )
    def test_bad_flag_values(self, flags, capsys):
        assert cli_main(["run", "--input", "x.txt", *flags]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "period, ok",
        [
            ("daily", True),
            ("DAILY", True),
            ("Month", True),
            ("count:1", True),
            ("Count:3", True),
            ("weekly", False),
            ("count:0", False),
            ("count:+2", False),
            ("count:1_0", False),
            ("count:\u0663", False),
        ],
    )
    def test_snapshot_takes_what_bucket_events_takes(self, period, ok):
        """--snapshot and bucket_events read a period with one grammar."""
        try:
            bucket_events([(1, 2, 1.0, 0)], period)
            taken = True
        except ValueError:
            taken = False
        try:
            cli.build_parser().parse_args(["validate", "--input", "x.txt", "--snapshot", period])
            parsed = True
        except cli._UsageError:
            parsed = False
        assert (taken, parsed) == (ok, ok)

    @pytest.mark.parametrize("size", ["\u0661", "\uff12", "1_000", " 2"])
    def test_count_needs_ascii_digits(self, data_dir, size, capsys):
        stream = str(data_dir / "toy_stream.txt")
        assert cli_main(["run", "--input", stream, "--snapshot", "count:" + size]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "count:N" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "flags, missing",
        [
            (["--dump-centralities"], "--out"),
            (["--normalized"], "--dump-centralities"),
            (["--normalized", "--out", "OUT"], "--dump-centralities"),
        ],
    )
    def test_flag_that_would_do_nothing(self, data_dir, tmp_path, capsys, command, flags, missing):
        flags = [str(tmp_path / "out") if f == "OUT" else f for f in flags]
        stream = str(data_dir / "toy_stream.txt")
        code = cli_main([command, "--input", stream, "--snapshot", "count:7", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert f"needs {missing}" in err
        assert not (tmp_path / "out").exists()


class TestValidateCommand:
    def test_consistent_stream(self, data_dir, capsys):
        code = cli_main(
            ["validate", "--input", str(data_dir / "toy_stream.txt"), "--snapshot", "count:7"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_upsert_flagged_in_strict_audit(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1.0 0\n1 2 5.0 86400\n")
        code = cli_main(["validate", "--input", str(path), "--snapshot", "daily"])
        assert code == 2
        assert "step 1" in capsys.readouterr().err

    def test_consistent_snapshot_dir_passes(self, tmp_path, capsys):
        # the second snapshot removes (1, 2) and adds (2, 3)
        (tmp_path / "a.txt").write_text("1 2\n")
        (tmp_path / "b.txt").write_text("2 3\n")
        code = cli_main(["validate", "--input", str(tmp_path)])
        assert code == 0
        assert "ok: 2 steps" in capsys.readouterr().out

    def test_reweighted_snapshot_dir_fails(self, tmp_path, capsys):
        # the second snapshot re-weights (1, 2), an upsert of a present edge
        (tmp_path / "a.txt").write_text("1 2 1.0\n2 3\n")
        (tmp_path / "b.txt").write_text("1 2 5.0\n2 3\n")
        code = cli_main(["validate", "--input", str(tmp_path)])
        assert code == 2
        assert "step 1: edge (1, 2) already present" in capsys.readouterr().err

    def test_pair_added_twice_in_one_delta(self, monkeypatch, capsys):
        # no builder emits such a delta, so hand one to the command
        stream = SnapshotStream(Graph([(1, 2)]), [EdgeDelta(adds=[Edge(1, 9), Edge(9, 1)])])
        monkeypatch.setattr(cli, "_stream", lambda args: stream)
        code = cli_main(["validate", "--input", "unused.txt"])
        assert code == 2
        assert "step 1: edge (9, 1) already present" in capsys.readouterr().err

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("delta, culprit", AUDITED_DELTAS)
    def test_audit_reports_first_duplicate(
        self, monkeypatch, capsys, delta, culprit, fractional, far
    ):
        """validate names the step and the first duplicate add, ahead of any
        other fault in the delta, and leaves the stream's graph as it was."""
        g = Graph(TOY_EDGES + ([(6, 7, 0.5)] if fractional else []))
        deltas = [EdgeDelta(adds=[Edge(6, 8)]), delta]
        if far:
            g, deltas = far_graph(g), [far_delta(d) for d in deltas]
        if culprit is None:
            after = g.copy()
            apply_delta(after, deltas[0])
            with pytest.raises(LapstreamError) as raised:
                apply_delta(after, deltas[1])
            message = str(raised.value)
        else:
            u, v, _ = deltas[1].adds[culprit]
            message = f"edge ({u}, {v}) already present"
        before = g.copy()
        stream = SnapshotStream(g, deltas)
        monkeypatch.setattr(cli, "_stream", lambda args: stream)
        assert cli_main(["validate", "--input", "unused.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"inconsistent delta at step 2: {message}\n"
        assert captured.out == ""
        assert graph_state(stream.initial) == graph_state(before)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "lapstream" in capsys.readouterr().out

    def test_module_entry_point(self):
        """``python -m lapstream.cli`` runs the module's ``__main__`` lines."""
        src = str(Path(lapstream.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "lapstream.cli", "--version"], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"lapstream {lapstream.__version__}\n", "")


class TestWarnings:
    def test_warning_is_one_line(self, tmp_path, capsys):
        """A warning prints as ``warning: <message>``, naming no frame, and
        the warnings module is as it was afterwards."""
        path = tmp_path / "negative.txt"
        path.write_text(NEGATIVE_WEIGHT)
        show = warnings.showwarning
        assert cli_main([*NEGATIVE_WEIGHT_ARGV, str(path)]) == 0
        assert warnings.showwarning is show
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: negative weight -5e-324 on edge (3, 4)"
        assert not any("NegativeWeightWarning" in line for line in err)

    def test_module_entry_point_names_no_interpreter_frame(self, tmp_path):
        """Under ``python -m`` the first frame outside the package is the
        interpreter's; the line names none."""
        path = tmp_path / "negative.txt"
        path.write_text(NEGATIVE_WEIGHT)
        src = str(Path(lapstream.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "lapstream.cli", *NEGATIVE_WEIGHT_ARGV, str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines()[0] == "warning: negative weight -5e-324 on edge (3, 4)"
        assert "<frozen" not in proc.stderr
