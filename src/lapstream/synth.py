"""Synthetic preferential-attachment graphs and evolving streams.

Used by the benchmark suite to produce desk-scale workloads with a known
shape: a scale-free base graph and per-step churn that is a small fraction
of the edge count. Fully deterministic under a seed.
"""

from __future__ import annotations

import random
from typing import Iterator

from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta
from lapstream.ingest import SnapshotStream


def preferential_attachment_graph(num_nodes: int, attach: int, seed: int = 0) -> Graph:
    """Barabasi-Albert style graph: each new node links to ``attach``
    distinct existing nodes chosen proportionally to degree."""
    if num_nodes < attach + 1:
        raise ValueError("need num_nodes > attach")
    return Graph(_attachment_edges(num_nodes, attach, random.Random(seed)))


def _attachment_edges(num_nodes: int, attach: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    # seed clique keeps early attachment well-defined
    clique = [(u, v) for u in range(attach + 1) for v in range(u + 1, attach + 1)]
    yield from clique
    endpoints = [x for pair in clique for x in pair]
    for new in range(attach + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(rng.choice(endpoints))
        for t in targets:
            yield new, t
            endpoints.append(new)
            endpoints.append(t)


def churn_stream(
    num_nodes: int,
    attach: int,
    steps: int,
    adds_per_step: int,
    removes_per_step: int,
    seed: int = 0,
    weighted: bool = False,
) -> SnapshotStream:
    """Evolving stream over a preferential-attachment base graph.

    Each delta removes ``removes_per_step`` uniformly random existing
    edges and adds ``adds_per_step`` new edges between uniformly random
    node pairs (uniform, not preferential: edge-uniform removal already
    biases touched endpoints toward hubs).
    """
    rng = random.Random(seed)
    g = preferential_attachment_graph(num_nodes, attach, seed=seed)
    if weighted:
        g = Graph((e.u, e.v, float(rng.randint(1, 5))) for e in g.edges())

    # indexed edge list: O(1) uniform pick, swap-remove, append; ``g`` itself
    # stays the initial graph
    edge_list = [(e.u, e.v) for e in g.edges()]
    index = {pair: i for i, pair in enumerate(edge_list)}
    deltas: list[EdgeDelta] = []
    for _ in range(steps):
        removes: list[tuple[int, int]] = []
        picked: set[tuple[int, int]] = set()
        while len(removes) < removes_per_step and len(picked) < len(edge_list):
            pair = edge_list[rng.randrange(len(edge_list))]
            if pair in picked:
                continue
            picked.add(pair)
            removes.append(pair)
        adds: list[Edge] = []
        while len(adds) < adds_per_step:
            u = rng.randrange(num_nodes)
            v = rng.randrange(num_nodes)
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            # only brand-new edges: keeps adds and removes disjoint, so the
            # apply order (adds first) cannot interact with this step's removes
            if pair in index:
                continue
            index[pair] = len(edge_list)
            edge_list.append(pair)
            w = float(rng.randint(1, 5)) if weighted else 1.0
            adds.append(Edge(pair[0], pair[1], w))
        deltas.append(EdgeDelta(adds=adds, removes=removes))
        for pair in removes:
            i = index.pop(pair)
            last = edge_list.pop()
            if last != pair:
                edge_list[i] = last
                index[last] = i
    labels = [str(i) for i in range(steps + 1)]
    return SnapshotStream(g, deltas, labels)
