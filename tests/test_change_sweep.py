"""``benchmarks/change_sweep.py`` runs against the package: a small sweep
of every regime and variant, whose ``sweep_row`` raises where the dynamic
and batch maps of a step differ."""

import importlib.util
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
