"""``benchmarks/ingest_bench.py`` refuses a ``--repeat`` that gives no run
to take a median of, before it generates any events."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ingest_bench.py"
spec = importlib.util.spec_from_file_location("ingest_bench", SCRIPT)
ingest_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ingest_bench)


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_repeat_below_one_is_a_usage_error(monkeypatch, capsys, repeat):
    def no_events(*args):
        raise AssertionError("events generated before the arguments were checked")

    monkeypatch.setattr(ingest_bench, "event_lines", no_events)
    monkeypatch.setattr(sys, "argv", ["ingest_bench.py", "--repeat", repeat])
    with pytest.raises(SystemExit) as exited:
        ingest_bench.main()
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument --repeat: must be at least 1, not {repeat}" in err
