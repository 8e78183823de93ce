"""The mutation gate's list, ``tests/mutants.py``, is well formed: every
mutant's text occurs once in its file, its module has its own test file
(the one run the gate judges it by), and no mutant is listed twice.

This file is no module's own test file, so the gate never runs it on a
mutated copy, where the mutant's text is gone."""

import importlib.util
from collections import Counter
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_text_occurs_once():
    assert mutants.check_texts(list(enumerate(mutants.MUTANTS))) == []


def test_every_module_has_its_own_test_file():
    missing = {mutants.own(m) for m in mutants.MUTANTS if not (mutants.ROOT / mutants.own(m)).is_file()}
    assert missing == set()


def test_no_mutant_is_listed_twice():
    counts = Counter((m.path, m.text, m.replacement) for m in mutants.MUTANTS)
    assert [key for key, n in counts.items() if n > 1] == []
