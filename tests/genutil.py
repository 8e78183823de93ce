"""Seeded random graph and delta generators shared across test modules."""

import random

from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta


def random_weight(rng: random.Random, integer: bool) -> float:
    return float(rng.randint(1, 5)) if integer else rng.uniform(0.01, 5.0)


def random_graph(
    rng: random.Random,
    num_nodes: int,
    num_edges: int,
    integer_weights: bool = True,
) -> Graph:
    g = Graph()
    for u in range(num_nodes):
        g.add_node(u)
    tries = 0
    while g.num_edges < num_edges and tries < 50 * num_edges:
        tries += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, random_weight(rng, integer_weights))
    return g


def random_delta(
    rng: random.Random,
    g: Graph,
    integer_weights: bool = True,
    isolate_prob: float = 0.15,
) -> EdgeDelta:
    """Mixed adds/removes against the current state of ``g``.

    Occasionally isolates a node (removes its whole neighborhood) and
    occasionally nets an added edge out again via a same-delta removal.
    ``g`` is not modified.
    """
    nodes = list(g.nodes())
    edges = list(g.edges())
    adds: list[Edge] = []
    removes: list[tuple[int, int]] = []
    removed: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()

    if edges and rng.random() < isolate_prob:
        victim = rng.choice([u for u in nodes if g.degree(u) > 0])
        for j, _ in g.neighbors(victim):
            pair = (victim, j) if victim < j else (j, victim)
            if pair not in removed:
                removed.add(pair)
                removes.append(pair)

    for _ in range(rng.randint(0, 5)):
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        pair = (u, v) if u < v else (v, u)
        if u == v or pair in added or pair in removed:
            continue
        # re-adding an existing edge is a legal weight upsert
        added.add(pair)
        adds.append(Edge(pair[0], pair[1], random_weight(rng, integer_weights)))

    for _ in range(rng.randint(0, 4)):
        if not edges:
            break
        e = edges[rng.randrange(len(edges))]
        pair = (e.u, e.v)
        if pair in removed or pair in added:
            continue
        removed.add(pair)
        removes.append(pair)

    if adds and rng.random() < 0.2:
        # net-removal: drop one of this delta's own additions
        e = adds[rng.randrange(len(adds))]
        pair = (e.u, e.v)
        if pair not in removed:
            removed.add(pair)
            removes.append(pair)

    return EdgeDelta(adds=adds, removes=removes)


def bits(values):
    """Each value with its type, floats by bits: ``3.0`` and ``3`` differ."""
    return {v: (type(x), x.hex() if isinstance(x, float) else x) for v, x in values.items()}
