"""Seeded random graph and delta generators and reference oracles shared
across test modules."""

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from lapstream.centrality import NodeValues, Variant
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta


def random_weight(rng: random.Random, integer: bool) -> float:
    return float(rng.randint(1, 5)) if integer else rng.uniform(0.01, 5.0)


def random_graph(
    rng: random.Random,
    num_nodes: int,
    num_edges: int,
    integer_weights: bool = True,
) -> Graph:
    edges: dict[tuple[int, int], float] = {}
    tries = 0
    while len(edges) < num_edges and tries < 50 * num_edges:
        tries += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v or (u, v) in edges or (v, u) in edges:
            continue
        edges[(u, v)] = random_weight(rng, integer_weights)
    g = with_isolated(Graph(), range(num_nodes))
    apply_delta(g, EdgeDelta(adds=[(u, v, w) for (u, v), w in edges.items()]))
    return g


def with_isolated(g: Graph, nodes) -> Graph:
    """``g`` with each of ``nodes`` it lacks added at degree 0, in order.

    Each arrives on an edge that the same delta removes again: to the next
    new node, or, for a lone new node, to the graph's first node.
    """
    known = set(g._nodes)
    new = [x for x in dict.fromkeys(nodes) if x not in known]
    pairs = list(zip(new, new[1:]))
    if len(new) == 1:
        assert known, "a lone node needs a node of the graph to arrive with"
        pairs = [(new[0], g._nodes[0])]
    apply_delta(g, EdgeDelta(adds=pairs, removes=pairs))
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
    nodes = list(g._nodes)
    edges = list(g.edges())
    adds: list[Edge] = []
    removes: list[tuple[int, int]] = []
    removed: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()

    adj = node_rows(g)
    if edges and rng.random() < isolate_prob:
        victim = rng.choice([u for u in nodes if adj[u]])
        for j in adj[victim]:
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
        pair = edges[rng.randrange(len(edges))][:2]
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


# ids at or above 2**20 leave CPython's small-int cache (-5..256), so two
# equal ids made apart are distinct objects
FAR = 1 << 20


def far(x: int) -> int:
    """Node id ``x`` moved to ``FAR + x``, a fresh int object on every call."""
    return FAR + x


def far_graph(g: Graph) -> Graph:
    """``g`` with every node id moved by :func:`far`, each mention its own object."""
    h = with_isolated(Graph(), [far(u) for u in g._nodes])
    apply_delta(h, EdgeDelta(adds=[(far(u), far(v), w) for u, v, w in g.edges()]))
    return h


def far_delta(delta: EdgeDelta) -> EdgeDelta:
    """``delta`` with every node id moved by :func:`far`, each mention its own object."""
    return EdgeDelta(
        adds=[Edge(far(u), far(v), w) for u, v, w in delta.adds],
        removes=[(far(u), far(v)) for u, v in delta.removes],
    )


def stored(w):
    """``w`` as :meth:`Graph.edges` gives it back, whatever the graph's scale:
    the float it converts to, as an ``int`` where that is integral."""
    w = float(w)
    return int(w) if w.is_integer() else w


def exponent(weights) -> int:
    """The least E with every weight an integer times 2**-E: the scale a graph
    takes from them."""
    return max((Fraction(float(w)).denominator.bit_length() - 1 for w in weights), default=0)


def bits(values):
    """Each value with its type, floats by bits: ``3.0`` and ``3`` differ."""
    return {v: (type(x), x.hex() if isinstance(x, float) else x) for v, x in values.items()}


def view(values: dict) -> NodeValues:
    """``values`` as a map's read-only view, over a node table of its own
    whose order is the dict's key order."""
    return NodeValues({v: i for i, v in enumerate(values)}, list(values), list(values.values()))


def set_value(values: NodeValues, node: int, x) -> None:
    """Write ``x`` as ``node``'s value under a live map's read-only view."""
    values._values[values._pos[node]] = x


def node_rows(g: Graph) -> dict:
    """``g``'s rows keyed by node, ``{u: {v: w}}``, in position order."""
    nodes = g._nodes
    return {u: {nodes[q]: w for q, w in row.items()} for u, row in zip(nodes, g._rows)}


def node_strengths(g: Graph) -> dict:
    """``g``'s strengths keyed by node, in position order."""
    return dict(zip(g._nodes, g._strength))


def graph_state(g: Graph):
    """Everything a writer sets, to compare two graphs: the position table
    (node -> position in its order, and the node list), rows by position in
    their order, strengths by position, both as the stored ints, the scale
    exponent E and ``num_edges``."""
    return (
        list(g._pos.items()),
        list(g._nodes),
        [list(bits(row).items()) for row in g._rows],
        list(bits(dict(enumerate(g._strength))).items()),
        g._shift,
        g.num_edges,
    )


def edge_energy(edges, variant: Variant) -> float:
    """Laplacian energy of an edge list: sum(s^2) + 2 * sum(w^2) over the
    edges, every w read as 1 when unweighted. Exact on int weights."""
    strength: dict[int, float] = defaultdict(int)
    squares = 0
    for u, v, w in edges:
        if variant == "unweighted":
            w = 1
        strength[u] += w
        strength[v] += w
        squares += w * w
    return sum(s * s for s in strength.values()) + 2 * squares


def delta_energy_oracle(g: Graph, v: int, variant: Variant) -> float:
    """Centrality of ``v`` computed the definitional way: the energy of
    ``g.edges()`` less that of the edges that do not touch ``v``.
    ``KeyError`` if ``g`` lacks ``v``.

    Independent of the library's closed forms; exists to validate them.
    """
    if v not in g._nodes:
        raise KeyError(v)
    edges = list(g.edges())
    # deleting v == dropping its edges: a degree-0 node adds nothing to the energy
    kept = [e for e in edges if v not in e[:2]]
    return edge_energy(edges, variant) - edge_energy(kept, variant)


@dataclass
class AffectedSets:
    """Nodes a delta names (touched) and all nodes whose value it can change."""

    touched: set[int]
    recompute: set[int]


def affected_nodes(g: Graph, delta: EdgeDelta) -> AffectedSets:
    """Apply ``delta`` to ``g`` and return which nodes it can change: the
    reference for the ``computed_count`` of a dynamic step.

    touched: endpoints of every added or removed edge. recompute: touched
    plus their post-delta neighbors; its size is the ``computed_count`` of
    a ``lap_cent_add_remove`` step with this delta. On return ``g``
    reflects the full delta; if the delta is rejected ``g`` is left
    unchanged.
    """
    s0, _ = g._apply(delta.adds, delta.removes, "weighted")
    nodes, adj = g._nodes, g._rows
    touched = {nodes[p] for p in s0}
    recompute = touched | {nodes[q] for p in s0 for q in adj[p]}
    return AffectedSets(touched, recompute)
