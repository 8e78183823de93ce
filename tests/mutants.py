"""Mutation gate: every mutant below must make the test suite fail.

Each mutant is one exact text in one file of ``src`` or ``tests``, its
replacement, and a line on what the change breaks. For each mutant the
script copies ``src`` and ``tests`` to a temporary directory, applies the
change there and runs ``pytest -x -q tests`` on the copy; the working tree
is never edited. It fails if a mutant survives, or if a mutant's text does
not occur exactly once in its file, so a refactor cannot leave a mutant
pointing at code that is gone.

Run it from anywhere (pytest does not collect it), two copies at a time::

    python tests/mutants.py

A mutant that no test kills gets a new test, not a removal. An equivalent
mutant, one that no input can tell from the program, is left out of the
list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # copies tested at a time


class Mutant(NamedTuple):
    path: str
    text: str
    replacement: str
    breaks: str


G = "src/lapstream/graph.py"
I = "src/lapstream/incremental.py"
K = "src/lapstream/kernels.py"
C = "src/lapstream/centrality.py"
B = "src/lapstream/bench.py"
N = "src/lapstream/ingest.py"
L = "src/lapstream/cli.py"

MUTANTS = [
    # Graph._apply: the checks, the storage of a weight, the undo and the log
    Mutant(G, "if u == v:", "if u == v and u is None:", "self-loops are written"),
    Mutant(G, "if not isfinite(w):", "if w != w:", "infinite weights are written"),
    Mutant(G, "if w < 0:", "if w < -1:", "a weight in (-1, 0) or of -1 does not warn"),
    Mutant(
        G,
        "elif not shift and 0 < w <= limit and not w % 1:",
        "elif 0 < w <= limit and not w % 1:",
        "an integral weight written at E > 0 is stored unscaled",
    ),
    Mutant(G, "w = num << (shift - k)", "w = num << shift", "a fractional weight is stored too large"),
    Mutant(G, "_rescale(rows, strength, lshift, d)", "pass", "a finer weight leaves the rows and strengths unscaled"),
    Mutant(G, "was[x] <<= d", "pass", "a rescale leaves s0 and the strengths kept for the undo unscaled"),
    Mutant(
        G,
        "log[:] = [(p, q, a if a is None else a << d, b << d) for p, q, a, b in log]",
        "pass",
        "a rescale leaves the write log unscaled",
    ),
    Mutant(G, "if pair in gone:", "if pair in gone and w is None:", "a pair removed twice is not refused"),
    Mutant(
        G,
        "rows[p][q] = rows[q][p] = old",
        "rows[p][q] = old",
        "a rejected delta's upsert is undone on one side of the pair only",
    ),
    Mutant(
        G,
        "for p, s in was.items():\n                    strength[p] = s",
        "for p, s in was.items():\n                    pass",
        "a rejected delta leaves its strengths written",
    ),
    Mutant(G, "del pos[nodes.pop()]", "nodes.pop()", "a rejected delta leaves its new nodes in the position table"),
    Mutant(G, "n, shift = n0, shift0", "n = n0", "a rejected delta leaves E raised"),
    Mutant(
        G,
        "_rescale(rows, strength, rshift, shift - shift0)",
        "pass",
        "a rejected delta leaves the weights and strengths rescaled",
    ),
    Mutant(G, "write((p, q, w, None))", "pass", "removes are missing from the write log"),
    Mutant(G, "g._shift = self._shift", "pass", "copy() drops E"),
    Mutant(G, "w = w / scale if w % scale else w >> shift", "w = w / scale", "edges() gives integral weights as floats at E > 0"),
    # the incremental step: pair terms, own terms, the walk and the count
    Mutant(
        I,
        "values[u] += sq + 2 * dw * s0[v]",
        "values[u] += sq + 2 * dw * s0[u]",
        "the weighted pair term reads the wrong end's strength",
    ),
    Mutant(
        I,
        "values[u] -= 1 + 2 * s0[v]",
        "values[u] -= 1 + 2 * s0[u]",
        "the unweighted remove term reads the wrong end's degree",
    ),
    Mutant(
        I,
        "values[u] += 1 + 2 * s0[v]",
        "values[u] += 1 + 2 * s0[u]",
        "the unweighted add term reads the wrong end's degree",
    ),
    Mutant(I, "values[u] += b * b - a * a\n                diff = 2 * (b - a)\n                for x, w in adj[u].items():",
           "values[u] += b * b + a * a\n                diff = 2 * (b - a)\n                for x, w in adj[u].items():",
           "the weighted own term has the wrong sign"),
    Mutant(I, "values[x] += w * diff", "values[x] += diff", "the weighted walk drops the edge weight"),
    Mutant(I, "values[x] += diff\n", "values[x] += diff // 2\n", "the unweighted walk adds half the change"),
    Mutant(
        I,
        "cmap.computed_count = len(set(s0).union(*map(adj.__getitem__, s0)))",
        "cmap.computed_count = len(s0)",
        "the count leaves out the touched nodes' neighbours",
    ),
    Mutant(
        I,
        "d = 2 * (g._shift - view._shift)",
        "d = g._shift - view._shift",
        "a delta that raises E shifts the live values by delta_E, not 2 * delta_E",
    ),
    Mutant(I, "view._shift = g._shift", "pass", "the live map keeps its old scale after a rescale"),
    # the kernels and the energy
    Mutant(
        K,
        "d * d + d + 2 * sum(map(neighbour_degree, adj[v]))",
        "d * d + 2 * sum(map(neighbour_degree, adj[v]))",
        "the unweighted kernel drops the own-degree term",
    ),
    Mutant(K, "acc += w * (w + 2 * strength[j])", "acc += w * (w + strength[j])", "the weighted kernel halves the neighbour term"),
    Mutant(C, "total += d * d + d", "total += d * d", "the unweighted energy drops the degree term"),
    Mutant(C, "total += w * w", "total += w", "the weighted energy drops the square of the weights"),
    Mutant(C, "if num == 0:", "if num is None:", "normalize divides by a zero energy"),
    # the public side's one division by 2**(2E)
    Mutant(
        C,
        "return _quotient(self._values[i], 1 << 2 * self._shift, node)",
        "return _quotient(self._values[i], 1 << self._shift, node)",
        "a value reads divided by 2**E, not 2**(2E)",
    ),
    Mutant(
        C,
        'shift = g._shift if variant == "weighted" else 0',
        "shift = g._shift",
        "unweighted values on a fractional graph read scaled down",
    ),
    Mutant(
        C,
        "return i is not None and i < len(self._values)",
        "return i is not None",
        "a kept map holds the nodes that came later",
    ),
    Mutant(C, "return num if den == 1 else _quotient(num, den)", "return num", "the weighted energy reads scaled"),
    Mutant(
        C,
        "return _divide(cmap, *_energy(g, variant))",
        "return normalize(cmap, laplacian_energy(g, variant))",
        "--normalized divides by the rounded energy, which can overflow or underflow",
    ),
    Mutant(C, "num <<= 2 * view._shift", "num <<= view._shift", "normalize divides by 2**E, not 2**(2E)"),
    Mutant(
        C,
        'stream.write(f"{v},{_quotient(x, 1, v):.12g}\\n")',
        'stream.write(f"{v},{x:.12g}\\n")',
        "a dump of an int past the float range is an OverflowError",
    ),
    Mutant(C, "    except OverflowError:\n        what", "    except ZeroDivisionError:\n        what", "a value past the float range is an OverflowError"),
    Mutant(C, "values = [_quotient(x * den, num, v)", "values = [_quotient(x, num, v)", "normalize drops the energy's denominator"),
    # the compare gate
    Mutant(B, "if s - s == 0:", "if True:", "the gate passes a NaN object against itself on the fast path"),
    Mutant(B, "if not x == y:", "if x is not y and not x == y:", "the gate passes a NaN object against itself on the slow path"),
    Mutant(B, "if same_keys and a._shift == b._shift and", "if same_keys and", "the gate compares ints of two scales"),
    Mutant(
        C,
        "tuple(self._values), self._shift)",
        "tuple(self._values))",
        "a kept copy reads the scaled ints of a fractional graph",
    ),
    Mutant(B, "ChainMap({}, cmap.values.copy())", "ChainMap({}, cmap.values)", "compare keeps the live map, which later steps change"),
    Mutant(
        I,
        "CentralityMap(cmap.values.copy(), cmap.computed_count)",
        "CentralityMap(cmap.values, cmap.computed_count)",
        "run_evolving keeps the live map, which later steps change",
    ),
    Mutant(
        B,
        "raise CompareMismatchError(step + 1, *bad)",
        "raise CompareMismatchError(step, *bad)",
        "a mismatch names the step before it",
    ),
    # the stream builder
    Mutant(N, "w = old + x if accumulate else x", "w = x", "accumulate keeps only the newest weight"),
    Mutant(
        N,
        "entries = history[pair] = history[pair][1:]",
        "entries = history[pair] = history[pair][:-1]",
        "the window drops the newest entry of a leaving edge, not its oldest",
    ),
    Mutant(N, "        if not math.isfinite(w):", "        if False:", "an overflowing accumulated weight names no bucket"),
    # the parser's field checks
    Mutant(
        N,
        'if not weight and fields[2].lower().partition("e")[0].strip("+-0."):',
        'if weight is None and fields[2].lower().partition("e")[0].strip("+-0."):',
        "a weight text that underflows to zero is read",
    ),
    Mutant(N, "if not 2 <= len(fields) <= 4:", "if not 2 <= len(fields) <= 5:", "a line of 5 fields is read"),
    Mutant(N, "if u < 0 or v < 0:", "if u < 0:", "a negative second node id is read"),
    Mutant(
        N,
        'if not fields[2].isascii() or "_" in fields[2]:',
        "if not fields[2].isascii():",
        "a weight with a '_' separator is read",
    ),
    Mutant(
        N,
        "if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:",
        "if not _MIN_TIMESTAMP <= timestamp:",
        "a timestamp past year 9999 is read",
    ),
    # the CLI's exit codes
    Mutant(
        L,
        'print(f"usage error: {exc}", file=sys.stderr)\n        return 1',
        'print(f"usage error: {exc}", file=sys.stderr)\n        return 2',
        "a usage error exits 2",
    ),
    Mutant(
        L,
        "    except LapstreamError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n        return 2",
        "    except LapstreamError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n        return 1",
        "a data error exits 1",
    ),
    Mutant(
        L,
        'print(f"inconsistent delta at step {step}: {exc}", file=sys.stderr)\n            return 2',
        'print(f"inconsistent delta at step {step}: {exc}", file=sys.stderr)\n            return 0',
        "validate exits 0 on an inconsistent stream",
    ),
]


def check_texts(mutants) -> list[str]:
    """One problem line per mutant whose text does not occur exactly once."""
    problems = []
    for k, m in mutants:
        found = (ROOT / m.path).read_text().count(m.text)
        if found != 1:
            problems.append(f"mutant {k} ({m.path}): text found {found} times, not once: {m.text!r}")
    return problems


def run(k: int, m: Mutant) -> tuple[int, bool, float]:
    """Apply mutant ``k`` to a fresh copy and run the tests on it; returns
    ``(k, killed, seconds)``."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant{k}-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        target = Path(tmp) / m.path
        target.write_text(target.read_text().replace(m.text, m.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"],
            cwd=tmp,
            env=env,
            capture_output=True,
        )
    return k, proc.returncode != 0, time.perf_counter() - t0


def main() -> int:
    mutants = list(enumerate(MUTANTS))
    problems = check_texts(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    survivors = []
    with ThreadPoolExecutor(JOBS) as pool:
        for k, killed, seconds in pool.map(lambda km: run(*km), mutants):
            m = MUTANTS[k]
            print(f"{k:3d} {'killed  ' if killed else 'SURVIVED'} {seconds:5.1f}s {m.path}: {m.breaks}", flush=True)
            if not killed:
                survivors.append(k)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed in {time.perf_counter() - t0:.0f}s")
    if survivors:
        print(f"survivors: {' '.join(map(str, survivors))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
