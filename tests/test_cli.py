import pytest

from lapstream.bench import CSV_HEADER
from lapstream.cli import cli_main


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

    def test_empty_dataset_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "only_comments.txt"
        empty.write_text("# nothing here\n")
        assert cli_main(["run", "--input", str(empty)]) == 2

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

    def test_window_run(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("1 2 1.0 0\n2 3 1.0 0\n3 4 1.0 86400\n")
        code = cli_main(
            ["run", "--input", str(path), "--snapshot", "daily", "--window", "1"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].split(",")[4] == "2"  # both day-0 edges slide out


class TestUsageErrors:
    @pytest.mark.parametrize("mode", ["sideways", "compare"])
    def test_unknown_mode(self, capsys, mode):
        code = cli_main(["run", "--input", "x.txt", "--mode", mode])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli_main(["run"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snapshot", "weekly"],
            ["--repeat", "0"],
            ["--window", "-2"],
            ["--snapshot", "count:0"],
        ],
    )
    def test_bad_flag_values(self, flags, capsys):
        assert cli_main(["run", "--input", "x.txt", *flags]) == 1
        assert "usage error" in capsys.readouterr().err

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

    def test_inconsistent_snapshot_dir_remove(self, tmp_path, capsys):
        # two snapshot files whose delta is fine, then corrupt it by hand
        (tmp_path / "a.txt").write_text("1 2\n")
        (tmp_path / "b.txt").write_text("2 3\n")
        code = cli_main(["validate", "--input", str(tmp_path)])
        assert code == 0


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "lapstream" in capsys.readouterr().out
