"""Seeded inputs of the three benchmark workloads, and their on-disk cache.

Nothing here imports lapstream: the inputs are made by the benchmark's own
generators, so a change to the program cannot change a workload. Each input
is a plain text file, written once per (workload, seed) under
``perfbench/.cache`` and verified against the SHA-256 recorded next to it.

A workload's shape (its graph, its churn, its events per day) comes from a
fixed random stream; the seed draws a relabelling of the node ids and the
times of the events within their day. Every seed thus gives different
inputs with the same work: counts such as the number of nodes evaluated
repeat exactly from seed to seed, and timings vary only with the machine.

File formats (one record per line, fields separated by single spaces):

* churn (``desk-churn``): ``# header``, then ``e u v`` for every edge of the
  initial graph, then for each step a ``s k`` line followed by its ``- u v``
  removals and ``+ u v`` additions.
* events (``events-window``, ``events-compare``): ``u v w t`` with integer
  weight ``w`` and epoch-second timestamp ``t``, in time order. This is
  also the edge-event format ``lapstream`` reads.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path

DAY = 86400
EPOCH = 1388534400  # 2014-01-01T00:00:00Z, a whole number of days

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
FORMAT_VERSION = 5  # bump when a generator or a format changes


@dataclass(frozen=True)
class ChurnSpec:
    nodes: int
    attach: int
    steps: int
    removes: int
    adds: int


@dataclass(frozen=True)
class EventSpec:
    nodes: int
    days: int
    events_per_day: int
    skew: float  # endpoint id = int(nodes * r ** skew), r uniform in [0, 1)
    max_weight: int  # weights uniform in 1..max_weight; 1 means unweighted


SPECS = {
    "desk-churn": ChurnSpec(nodes=10000, attach=6, steps=100, removes=25, adds=25),
    "events-window": EventSpec(nodes=8000, days=110, events_per_day=500, skew=2.5, max_weight=5),
    "events-compare": EventSpec(nodes=4000, days=120, events_per_day=120, skew=2.5, max_weight=1),
}


# -- generators -------------------------------------------------------------


def _relabelling(n: int, rng: random.Random) -> list[int]:
    ids = list(range(n))
    rng.shuffle(ids)
    return ids


def preferential_attachment(nodes: int, attach: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges (u < v): a clique on ``attach + 1`` nodes, then every further
    node joined to ``attach`` distinct earlier nodes drawn by degree."""
    core = attach + 1
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    ends = [x for pair in edges for x in pair]
    for new in range(core, nodes):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(ends[rng.randrange(len(ends))])
        for t in sorted(targets):
            edges.append((t, new))
            ends += (new, t)
    return edges


def _churn_lines(spec: ChurnSpec, rng: random.Random, labels: random.Random) -> list[str]:
    """Preferential attachment base graph, then uniform churn per step.

    Removals are distinct edges drawn uniformly from the current graph;
    additions are distinct node pairs drawn uniformly among pairs absent
    before the step, so no step both adds and removes the same pair.
    """
    edges: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}

    def add(u: int, v: int) -> None:
        pair = (u, v) if u < v else (v, u)
        index[pair] = len(edges)
        edges.append(pair)

    def remove(pair: tuple[int, int]) -> None:
        i = index.pop(pair)
        last = edges.pop()
        if i < len(edges):
            edges[i] = last
            index[last] = i

    for u, v in preferential_attachment(spec.nodes, spec.attach, rng):
        add(u, v)

    ids = _relabelling(spec.nodes, labels)

    def pair_line(tag, pair):
        u, v = sorted((ids[pair[0]], ids[pair[1]]))
        return f"{tag} {u} {v}"

    lines = [f"# churn nodes={spec.nodes} attach={spec.attach} steps={spec.steps}"]
    lines.extend(pair_line("e", p) for p in edges)
    for step in range(1, spec.steps + 1):
        removes = [edges[i] for i in sorted(rng.sample(range(len(edges)), spec.removes))]
        adds: list[tuple[int, int]] = []
        fresh: set[tuple[int, int]] = set()
        while len(adds) < spec.adds:
            u = rng.randrange(spec.nodes)
            v = rng.randrange(spec.nodes)
            pair = (u, v) if u < v else (v, u)
            if u == v or pair in index or pair in fresh:
                continue
            fresh.add(pair)
            adds.append(pair)
        lines.append(f"s {step}")
        lines.extend(pair_line("-", p) for p in removes)
        lines.extend(pair_line("+", p) for p in adds)
        for pair in removes:
            remove(pair)
        for u, v in adds:
            add(u, v)
    return lines


def _event_lines(spec: EventSpec, rng: random.Random, labels: random.Random) -> list[str]:
    """Events spread over ``days`` whole UTC days, endpoints skewed towards
    a few popular nodes (low ids before the relabelling)."""
    n, skew = spec.nodes, spec.skew
    ids = _relabelling(n, labels)
    lines = []
    for day in range(spec.days):
        batch = []
        while len(batch) < spec.events_per_day:
            u = int(n * rng.random() ** skew)
            v = int(n * rng.random() ** skew)
            if u == v:
                continue
            w = rng.randint(1, spec.max_weight)
            t = EPOCH + day * DAY + labels.randrange(DAY)
            batch.append((t, ids[u], ids[v], w))
        batch.sort()
        lines.extend(f"{u} {v} {w} {t}" for t, u, v, w in batch)
    return lines


def generate(workload: str, seed: int) -> str:
    spec = SPECS[workload]
    shape = random.Random(f"{workload}:shape")
    labels = random.Random(f"{workload}:{seed}")
    if isinstance(spec, ChurnSpec):
        lines = _churn_lines(spec, shape, labels)
    else:
        lines = _event_lines(spec, shape, labels)
    return "\n".join(lines) + "\n"


# -- cache --------------------------------------------------------------------


def input_path(workload: str, seed: int, cache_dir: Path = CACHE_DIR) -> Path:
    return cache_dir / f"{workload}-v{FORMAT_VERSION}-seed{seed}.txt"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure_input(workload: str, seed: int, cache_dir: Path = CACHE_DIR) -> tuple[Path, str]:
    """Path and SHA-256 of the workload's input, generating it if the cached
    copy is missing or does not match its recorded checksum."""
    path = input_path(workload, seed, cache_dir)
    sum_path = path.with_suffix(".sha256")
    if path.exists() and sum_path.exists():
        recorded = sum_path.read_text().strip()
        if _sha256(path) == recorded:
            return path, recorded
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(generate(workload, seed))
    os.replace(tmp, path)
    digest = _sha256(path)
    sum_path.write_text(digest + "\n")
    return path, digest


# -- readers (the benchmark's own, used by the oracle and to feed desk-churn) --


def read_churn(path: Path):
    """(initial edges, [(removes, adds) per step]) as lists of int pairs."""
    initial: list[tuple[int, int]] = []
    steps: list[tuple[list, list]] = []
    with open(path) as fh:
        for line in fh:
            tag, *rest = line.split()
            if tag == "e":
                initial.append((int(rest[0]), int(rest[1])))
            elif tag == "s":
                steps.append(([], []))
            elif tag == "-":
                steps[-1][0].append((int(rest[0]), int(rest[1])))
            elif tag == "+":
                steps[-1][1].append((int(rest[0]), int(rest[1])))
    return initial, steps


def read_events(path: Path) -> list[tuple[int, int, int, int]]:
    """(u, v, w, t) per line."""
    with open(path) as fh:
        return [tuple(map(int, line.split())) for line in fh]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="(Re)generate cached benchmark inputs.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(SPECS), action="append")
    args = parser.parse_args()
    for name in args.workload or sorted(SPECS):
        p, digest = ensure_input(name, args.seed)
        print(f"{name}: {p} sha256={digest}")
