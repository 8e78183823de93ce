"""``benchmarks/change_sweep.py`` runs against the package: a small sweep
of every regime and variant, whose ``sweep_row`` raises where the dynamic
and batch maps of a step differ."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "change_sweep.py"
spec = importlib.util.spec_from_file_location("change_sweep", SCRIPT)
change_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(change_sweep)


@pytest.mark.parametrize("variant", change_sweep.VARIANTS)
@pytest.mark.parametrize("regime", change_sweep.REGIMES)
def test_sweep_row(monkeypatch, regime, variant):
    monkeypatch.setattr(change_sweep, "NODES", 300)
    edges, steps = change_sweep.sweep_row(regime, variant, 5)
    assert edges > 300
    assert len(steps) == change_sweep.K_STEPS
    for step in steps:
        assert 0 < step["touched"] <= step["computed"] < 300
        assert step["dynamic_s"] > 0 and step["batch_s"] > 0


# the keys of a row of the committed BENCH_change_sweep.json, in its order
ROW_KEYS = [
    "regime", "variant", "k", "initial_edges", "batch_s", "batch_e2e_s",
    "dynamic_s", "speedup", "speedup_e2e", "touched", "computed",
]


def test_main_writes_the_rows(monkeypatch, tmp_path):
    """``main`` writes a row per regime and variant, each with the keys of
    the committed ``BENCH_change_sweep.json``'s rows."""
    monkeypatch.setattr(change_sweep, "NODES", 300)
    monkeypatch.setattr(change_sweep, "KS", (5,))
    monkeypatch.setattr(change_sweep, "ROUNDS", 2)
    out = tmp_path / "sweep.json"
    monkeypatch.setattr(sys, "argv", ["change_sweep.py", "--json", str(out)])
    change_sweep.main()
    report = json.loads(out.read_text())
    assert report["rounds"] == 2
    rows = report["rows"]
    assert len(rows) == len(change_sweep.REGIMES) * len(change_sweep.VARIANTS) == 4
    assert all(list(row) == ROW_KEYS for row in rows)
    assert {(row["regime"], row["variant"]) for row in rows} == {
        (regime, variant) for regime in change_sweep.REGIMES for variant in change_sweep.VARIANTS
    }
