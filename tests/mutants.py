"""Mutation gate: every mutant below must make its module's tests fail.

Each mutant is one exact text in one module of ``src/lapstream``, its
replacement, and a line on what the change breaks. For each mutant the
script copies ``src`` and ``tests`` to a temporary directory and applies
the change there; the working tree is never edited. On the copy it runs
``pytest -x -q`` once, on the mutated module's own test file,
``tests/test_<stem>.py``. A mutant is killed when that run fails, or when
it takes more than ``TIMEOUT_FACTOR`` times as long as the same file
unmutated, and at least ``MIN_TIMEOUT`` seconds: the run's process group
is then killed and a line says the mutant timed out, so a mutant that
makes a loop endless cannot hang the gate. To know those times, the gate
first runs each of those files once on an unmutated copy; it fails if one
of them fails there or is missing. The gate fails if a mutant survives, or
if a mutant's text does not occur exactly once in its file, so a refactor
cannot leave a mutant pointing at code that is gone. ``tests/test_mutants.py``
checks the list itself in the tier-1 suite.

Run it from anywhere (pytest does not collect it), two copies at a time
(115 mutants in about 100 s on a 2-core VM)::

    python tests/mutants.py

A mutant that its module's tests do not kill gets a new test there, not a
removal. An equivalent mutant, one that no input can tell from the
program, is left out of the list.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # copies tested at a time
# a mutant's pytest run is stopped, and its mutant counted as killed, past this
# many times the unmutated run of the same tests, and never before MIN_TIMEOUT s
TIMEOUT_FACTOR = 5
MIN_TIMEOUT = 60
# pytest's search of the installed packages for plugins cost each run about
# 0.8 s on a 2-core VM, so it is turned off and the one plugin the tests use
# is loaded by name; the "mutants" profile (tests/conftest.py) does not shrink
# a failing example, as the gate reads only whether the tests fail
HYPOTHESIS = ["-p", "hypothesis.extra.pytestplugin", "--hypothesis-seed=0", "--hypothesis-profile=mutants"]


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
    Mutant(
        G,
        "[{q: x << d for q, x in row.items()} for row in rows],",
        "list(rows),",
        "a finer weight leaves the rows unscaled",
    ),
    Mutant(G, "[s << d for s in strength],", "list(strength),", "a finer weight leaves the strengths unscaled"),
    Mutant(G, "s0[x] <<= d", "pass", "a rescale leaves the strengths in s0 unscaled"),
    Mutant(
        G,
        "[(p, q, a if a is None else a << d, b << d) for p, q, a, b in log],",
        "list(log),",
        "a rescale leaves the write log unscaled",
    ),
    Mutant(G, "if pair in gone:", "if pair in gone and w is None:", "a pair removed twice is not refused"),
    Mutant(
        G,
        "rows[p][q] = rows[q][p] = old",
        "rows[p][q] = old",
        "a rejected delta's upsert is undone on one side of the pair only",
    ),
    Mutant(G, "strength[x] = sum(rows[x].values())", "pass", "a rejected delta leaves its strengths written"),
    Mutant(G, "self._version = stamp", "pass", "a rejected delta renews the stamp"),
    Mutant(G, "pos.popitem()", "pass", "a rejected delta keeps the nodes it made"),
    Mutant(
        G,
        "strength[q] -= w\n            self._num_edges, self._shift = n, shift",
        "strength[q] -= w\n            self._num_edges = n",
        "a delta that raises E leaves the graph's E as it was",
    ),
    Mutant(
        G,
        "self._version = stamp\n            raise",
        "self._version = stamp\n            self._num_edges, self._shift = n, shift\n            raise",
        "a rejected delta leaves E raised",
    ),
    Mutant(
        G,
        "_unscale(rows, strength, shift - shift0)",
        "pass",
        "a rejected delta leaves the weights and strengths rescaled",
    ),
    Mutant(G, "write((p, q, w, None))", "pass", "removes are missing from the write log"),
    Mutant(G, "g._shift = self._shift", "pass", "copy() drops E"),
    Mutant(
        G,
        "        g._shift = self._shift\n        return g",
        "        g._shift = self._shift\n        g._version = self._version\n        return g",
        "a copy carries the stamp, so a map of the graph steps its copy",
    ),
    Mutant(
        G,
        "stamp, self._version = self._version, object()",
        "stamp = self._version",
        "an applied delta leaves the stamp, so a map that missed it steps",
    ),
    Mutant(
        G,
        "for p, q, old, _ in reversed(log):",
        "for p, q, old, _ in log:",
        "the undo replays the log oldest first, so a pair written twice ends at its second old weight",
    ),
    Mutant(G, "w = w / scale if w % scale else w >> shift", "w = w / scale", "edges() gives integral weights as floats at E > 0"),
    # the incremental step: pair terms, own terms, the walk and the count
    Mutant(
        I,
        "values[u] += sq + 2 * dw * s0[v]",
        "values[u] += sq + 2 * dw * s0[u]",
        "the pair term reads the wrong end's strength",
    ),
    Mutant(I, "b = b is not None", "b = True", "an unweighted remove adds no pair term"),
    Mutant(I, "a = a is not None", "a = False", "an unweighted upsert of a present pair adds a pair term"),
    Mutant(
        I,
        "a = a is not None\n            b = b is not None",
        "a = a or 0\n            b = b or 0",
        "the unweighted pair terms read the weights, not presence",
    ),
    Mutant(I, "values[u] += b * b - a * a", "values[u] += b * b + a * a", "the own term has the wrong sign"),
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
    Mutant(I, "weighted = view._shift is not None", "weighted = view._shift is None", "a map is stepped as the other variant"),
    Mutant(I, " or view._version is not g._version:", ":", "the step takes a map of another graph"),
    Mutant(
        I,
        "view._version is not g._version:",
        "view._pos is not g._pos:",
        "the step takes a live map that missed a delta",
    ),
    Mutant(I, "view._version = g._version", "pass", "a stepped map keeps the stamp before its delta"),
    Mutant(
        I,
        'g._apply(delta.adds, delta.removes, "weighted" if weighted else "unweighted")\n',
        'g._apply(delta.adds, delta.removes, "weighted" if weighted else "unweighted")\n'
        "    view._version = g._version\n",
        "a step cut short leaves a map with the new stamp, which normalizes and steps",
    ),
    # the kernels and the energy
    Mutant(
        K,
        "d * d + d + 2 * sum(map(neighbour_degree, adj[v]))",
        "d * d + 2 * sum(map(neighbour_degree, adj[v]))",
        "the unweighted kernel drops the own-degree term",
    ),
    Mutant(K, "acc += w * (w + 2 * strength[j])", "acc += w * (w + strength[j])", "the weighted kernel halves the neighbour term"),
    Mutant(
        C,
        "num = sum(view._values) - 2 * sum(x * x for x in s)",
        "num = sum(view._values)",
        "normalize divides by the sum of the values, not the energy",
    ),
    Mutant(
        C,
        "if view._shift is None else g._strength",
        "if not view._shift else g._strength",
        "a weighted map of integral weights subtracts squared degrees, not strengths",
    ),
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
        "values, shift = kernels.unweighted_values(adj, nodes), None",
        "values, shift = kernels.unweighted_values(adj, nodes), g._shift",
        "unweighted values on a fractional graph read scaled down",
    ),
    Mutant(
        C,
        "values, shift = kernels.unweighted_values(adj, nodes), None",
        "values, shift = kernels.unweighted_values(adj, nodes), 0",
        "an unweighted map is stepped and normalized as a weighted one",
    ),
    Mutant(
        C,
        "return i is not None and i < len(self._values)",
        "return i is not None",
        "a kept map holds the nodes that came later",
    ),
    Mutant(C, "islice(self._pos, len(self._values))", "iter(self._pos)", "a kept map iterates the nodes that came later"),
    Mutant(C, "- 2 * sum(x * x for x in s)", "- sum(x * x for x in s)", "the energy keeps one sum(s^2) too many"),
    Mutant(
        C,
        "    if num == 0:\n        raise ZeroEnergyError",
        "    num = float(num)\n    if num == 0:\n        raise ZeroEnergyError",
        "normalize divides by the energy rounded to a float, which can overflow",
    ),
    Mutant(
        C,
        'getattr(view, "_version", None) is not g._version',
        'getattr(view, "_version", None) is None',
        "normalize divides a map of another graph by this one's energy",
    ),
    Mutant(
        C,
        'getattr(view, "_version", None) is not g._version',
        'getattr(view, "_pos", None) is not g._pos',
        "normalize divides a kept map by the energy of a later step",
    ),
    Mutant(C, "sum(x * x for x in s)", "sum(s)", "the energy subtracts sum(s), not sum(s^2)"),
    Mutant(
        C,
        'stream.write(f"{v},{_quotient(x, 1, v):.12g}\\n")',
        'stream.write(f"{v},{x:.12g}\\n")',
        "a dump of an int past the float range is an OverflowError",
    ),
    Mutant(
        C,
        "    except OverflowError:\n        raise FloatRangeError",
        "    except ZeroDivisionError:\n        raise FloatRangeError",
        "a value past the float range is an OverflowError",
    ),
    Mutant(
        C,
        "s = map(len, g._rows) if view._shift is None else g._strength",
        "s = g._strength",
        "an unweighted map's energy subtracts squared strengths, not degrees",
    ),
    Mutant(
        C,
        "values = tuple(x / num for x in view._values)\n"
        "    return CentralityMap(NodeValues(view._pos, values),",
        "values = [x / num for x in view._values]\n"
        "    return CentralityMap(NodeValues(view._pos, values, None, view._version),",
        "a normalized map can be stepped as a live one",
    ),
    # the compare gate
    Mutant(B, "if s - s == 0:", "if True:", "the gate passes a NaN object against itself on the fast path"),
    Mutant(B, "if not x == y:", "if x is not y and not x == y:", "the gate passes a NaN object against itself on the slow path"),
    Mutant(B, "if same_keys and a._shift == b._shift and", "if same_keys and", "the gate compares ints of two scales"),
    Mutant(
        C,
        "tuple(self._values), self._shift, self._version)",
        "tuple(self._values), None, self._version)",
        "a kept copy reads the scaled ints of a fractional graph",
    ),
    Mutant(
        C,
        "tuple(self._values), self._shift, self._version)",
        "tuple(self._values), self._shift)",
        "a kept copy drops its stamp, so it cannot be normalized at its own step",
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
    Mutant(N, "w = old + x if accumulate and old is not None else x", "w = x", "accumulate keeps only the newest weight"),
    Mutant(
        N,
        "history.get(pair, ()) + (x,)",
        "(x,)",
        "a re-observed edge keeps only its newest entry, so it leaves the window early",
    ),
    Mutant(
        N,
        "functools.reduce(operator.add, entries)",
        "entries[-1]",
        "accumulate re-derives a leaving edge's weight as its newest entry",
    ),
    Mutant(
        N,
        "functools.reduce(operator.add, entries)",
        "sum(entries)",
        "the re-sum starts from the int 0, so a lone -0.0 entry reads 0.0",
    ),
    Mutant(
        N,
        "entries = history[pair] = history[pair][1:]",
        "entries = history[pair] = history[pair][:-1]",
        "the window drops the newest entry of a leaving edge, not its oldest",
    ),
    Mutant(N, "removes.append(pair)", "pass", "an edge with no entry left in the window stays"),
    Mutant(N, "return lambda i, e: i // size, str", "return lambda i, e: i // (size + 1), str", "count:N buckets hold N + 1 events"),
    Mutant(N, "if not math.isfinite(w)]", "if False]", "an overflowing accumulated weight names no bucket"),
    Mutant(N, "u, v, w = min(bad)", "u, v, w = max(bad)", "an overflow names the largest non-finite pair, not the smallest"),
    Mutant(
        N,
        "EdgeDelta(adds=adds, removes=removes)",
        "EdgeDelta(adds=sorted(adds), removes=sorted(removes))",
        "a delta lists its edges sorted, not in the order its step observes them",
    ),
    Mutant(N, "initial = Graph(adds)", "initial = Graph(sorted(adds))", "the first snapshot's edges are built sorted, not in first-observed order"),
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
    # the CLI's exit codes and messages
    Mutant(
        L,
        'print(f"usage error: {exc}", file=sys.stderr)\n            return 1',
        'print(f"usage error: {exc}", file=sys.stderr)\n            return 2',
        "a usage error exits 2",
    ),
    Mutant(
        L,
        'except (LapstreamError, OSError) as exc:\n            print(f"error: {exc}", file=sys.stderr)\n            return 2',
        'except (LapstreamError, OSError) as exc:\n            print(f"error: {exc}", file=sys.stderr)\n            return 1',
        "a data error exits 1",
    ),
    Mutant(L, "period_key(text)", 'period_key(text.replace("_", ""))', "--snapshot takes a count bucket_events refuses"),
    Mutant(L, "warnings.showwarning = _warning", "pass", "a warning names the frame it is attributed to"),
    Mutant(
        L,
        "except (FloatRangeError, ZeroEnergyError) as exc:",
        "except FloatRangeError as exc:",
        "a dump of a graph of zero energy does not name its step",
    ),
    # a normalized map's stamp, and the window length read as an int
    Mutant(
        C,
        "NodeValues(view._pos, values), cmap.computed_count)",
        "NodeValues(view._pos, values, None, view._version), cmap.computed_count)",
        "a normalized map keeps its stamp, so it is normalized again",
    ),
    Mutant(
        N,
        "if operator.index(window_length) < 1:",
        "if window_length < 1:",
        "a fractional window never fills, so it gives the cumulative stream",
    ),
    Mutant(
        L,
        "value = int(text) if text.isascii() and text.isdigit() else 0",
        "value = int(text)",
        "--window takes 1_0, a non-ASCII digit and spaces",
    ),
    # the undo of a delta, rejected or cut short
    Mutant(G, "rows[q].pop(p, None)", "pass", "a rejected delta leaves a new pair on its second end"),
    Mutant(
        G,
        "del rows[known:], strength[known:]",
        "del rows[known:]",
        "a rejected delta leaves the strengths of its new nodes",
    ),
    Mutant(
        G,
        "rows[p].pop(q, None)\n                    rows[q].pop(p, None)",
        "del rows[p][q], rows[q][p]",
        "an undo that meets a logged add not yet written raises KeyError and leaves the delta half applied",
    ),
    # the refusals of bad input, unknown names and flags that would do nothing
    Mutant(N, 'if not text or text.startswith("#"):', "if not text:", "a comment line is parsed as an edge"),
    Mutant(N, "if u == v:", "if u == v and u is None:", "the parser reads a self-loop"),
    Mutant(N, 'if policy not in ("overwrite", "accumulate"):', "if False:", "an unknown weight policy is taken"),
    Mutant(N, "if not files:", "if False:", "an empty snapshot directory gives a stream"),
    Mutant(N, "if not grouped:", "if False:", "bucket_events takes no events"),
    Mutant(B, 'if mode not in ("batch", "dynamic", "compare"):', "if False:", "bench_stream takes an unknown mode"),
    Mutant(I, 'if mode not in ("batch", "dynamic"):', "if False:", "evolve takes an unknown mode"),
    Mutant(C, "if i >= len(self._values):", "if i > len(self._values):", "a kept map reads the first node that came later"),
    Mutant(
        C,
        'raise ValueError(f"unknown variant {variant!r}")',
        "values, shift = kernels.unweighted_values(adj, nodes), None",
        "lap_cent reads an unknown variant as unweighted",
    ),
    Mutant(L, "if args.dump_centralities and args.out is None:", "if False:", "--dump-centralities is taken without --out"),
    Mutant(L, "if given:", "if False:", "a snapshot directory takes the flags only an event file uses"),
    Mutant(G, "level += 1", "pass", "a warning names a frame inside the package"),
    # the edge count and the strengths of a write, and the clocks the harness reads
    Mutant(G, "n += 1", "pass", "a new edge is not counted"),
    Mutant(G, "d = w - old", "d = w", "an upsert adds its new weight without taking off the old"),
    Mutant(G, "rows[p][q] = rows[q][p] = w", "rows[p][q] = w", "the constructor writes each pair on one end only"),
    Mutant(
        G,
        "if not delta:\n                    rows[p][q]",
        "if True:\n                    rows[p][q]",
        "a delta takes the constructor's branch: no log, no running strengths or count",
    ),
    Mutant(G, "strength[:] = map(sum, map(dict.values, rows))", "pass", "the constructor leaves every strength 0"),
    Mutant(
        G,
        "strength[:] = map(sum, map(dict.values, rows))",
        "strength[:] = map(len, rows)",
        "the constructor's strengths are its degrees",
    ),
    Mutant(G, "n = sum(map(len, rows)) // 2", "n = sum(map(len, rows))", "the constructor counts each edge twice"),
    Mutant(G, "_INT_WEIGHT_LIMIT = 2**53", "_INT_WEIGHT_LIMIT = 2**54", "an int weight past 2**53 is stored as itself, not its float"),
    Mutant(
        N,
        'if not fields[0].isascii() or "_" in fields[0]:',
        'if "_" in fields[0]:',
        "the parser reads a non-ASCII digit in the first id",
    ),
    Mutant(
        I,
        "                apply_delta(g, delta)\n                t0 = perf_counter()\n",
        "                t0 = perf_counter()\n                apply_delta(g, delta)\n",
        "batch mode times the delta's apply with its recomputation",
    ),
    Mutant(
        L,
        "sum(r.speedup for r in records) / len(records)",
        "max(r.speedup for r in records)",
        "compare's summary prints the largest speedup, not the mean",
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


def own(m: Mutant) -> str:
    """The test file of mutant ``m``'s module, the one run it is judged by."""
    return f"tests/test_{Path(m.path).stem}.py"


def copy(tmp: str, m: Mutant | None = None) -> None:
    """Copy ``src`` and ``tests`` to ``tmp``, with mutant ``m`` applied where
    it is given."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
    if m is not None:
        target = Path(tmp) / m.path
        target.write_text(target.read_text().replace(m.text, m.replacement))


def fails(tmp: str, path: str, timeout: float | None) -> bool | None:
    """True when the tests under ``path`` fail on the copy at ``tmp``, None
    when they run past ``timeout`` seconds. The run has its own process
    group, which is killed on a timeout before this returns."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *HYPOTHESIS, path]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    out = subprocess.DEVNULL
    proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=out, stderr=out, start_new_session=True)
    try:
        return proc.wait(timeout) != 0
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.returncode is None:  # timed out, or the gate itself was interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def timed(path: str) -> tuple[str, float, bool]:
    """Run the test file ``path`` once on an unmutated copy; returns
    ``(path, seconds, failed)``."""
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy(tmp)
        t0 = time.perf_counter()
        failed = fails(tmp, path, None)
        return path, time.perf_counter() - t0, failed


def run(k: int, m: Mutant, limits: dict[str, float]) -> tuple[int, bool | None, float]:
    """Apply mutant ``k`` to a fresh copy and run its own test file on it,
    within that file's time limit; returns ``(k, outcome, seconds)``, the
    outcome as :func:`fails` gives it."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant{k}-") as tmp:
        copy(tmp, m)
        outcome = fails(tmp, own(m), limits[own(m)])
    return k, outcome, time.perf_counter() - t0


def main() -> int:
    mutants = list(enumerate(MUTANTS))
    problems = check_texts(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    with ThreadPoolExecutor(JOBS) as pool:
        runs = list(pool.map(timed, sorted({own(m) for m in MUTANTS})))
    broken = [path for path, _, failed in runs if failed]
    if broken:
        print(f"the unmutated tests fail or are missing: {' '.join(broken)}", file=sys.stderr)
        return 1
    limits = {path: max(MIN_TIMEOUT, TIMEOUT_FACTOR * seconds) for path, seconds, _ in runs}
    print(f"unmutated test files timed in {time.perf_counter() - t0:.0f}s", flush=True)
    survivors = []
    with ThreadPoolExecutor(JOBS) as pool:
        for k, outcome, seconds in pool.map(lambda km: run(*km, limits), mutants):
            m = MUTANTS[k]
            killed = outcome is not False
            print(f"{k:3d} {'killed  ' if killed else 'SURVIVED'} {seconds:5.1f}s {m.path}: {m.breaks}", flush=True)
            if outcome is None:
                print(f"    mutant {k} timed out", flush=True)
            if not killed:
                survivors.append(k)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed in {time.perf_counter() - t0:.0f}s")
    if survivors:
        print(f"survivors: {' '.join(map(str, survivors))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
