"""The two kernels against energy drops computed without their closed form:
the trace of the squared dense Laplacian, exact in fractions, before and
after a node's edges are deleted."""

import random
from fractions import Fraction

import pytest

from conftest import TOY_EDGES, TOY_STEP1
from genutil import random_graph, with_isolated

from lapstream import kernels
from lapstream.graph import Graph


def trace_energy(edges, nodes) -> Fraction:
    """trace(L @ L) of the dense Laplacian of ``edges`` over ``nodes``."""
    index = {u: i for i, u in enumerate(nodes)}
    lap = [[Fraction(0)] * len(nodes) for _ in nodes]
    for u, v, w in edges:
        i, j = index[u], index[v]
        lap[i][j] -= w
        lap[j][i] -= w
        lap[i][i] += w
        lap[j][j] += w
    return sum(a * b for row, col in zip(lap, zip(*lap)) for a, b in zip(row, col))


def energy_drops(g: Graph, weighted: bool) -> list[Fraction]:
    """E(G) - E(G - v) for every node v in position order, weights read as
    1 when unweighted."""
    edges = [(u, v, Fraction(w) if weighted else 1) for u, v, w in g.edges()]
    full = trace_energy(edges, g._nodes)
    return [full - trace_energy([e for e in edges if v not in e[:2]], g._nodes) for v in g._nodes]


def test_unweighted_toy_network():
    g = Graph(TOY_EDGES)
    assert kernels.unweighted_values(g._rows, range(g.num_nodes)) == [TOY_STEP1[v] for v in g._nodes]


def test_weighted_by_hand():
    """A path 1 -2- 2 -3- 3: s = (2, 5, 3), so C(1) = 4 + 2*(2 + 10),
    C(2) = 25 + 2*(2 + 4) + 3*(3 + 6) and C(3) = 9 + 3*(3 + 10)."""
    g = Graph([(1, 2, 2.0), (2, 3, 3.0)])
    assert kernels.weighted_values(g._rows, g._strength, range(3)) == [28, 64, 48]
    assert energy_drops(g, True) == [28, 64, 48]


@pytest.mark.parametrize("seed", range(8))
def test_unweighted_matches_the_dense_drop(seed):
    rng = random.Random(seed)
    g = with_isolated(random_graph(rng, rng.randint(2, 12), rng.randint(1, 25), integer_weights=False), [99])
    assert kernels.unweighted_values(g._rows, range(g.num_nodes)) == energy_drops(g, False)


@pytest.mark.parametrize("integer_weights", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_weighted_matches_the_dense_drop(seed, integer_weights):
    """The kernel reads the graph's exact ints, so each value is the drop
    scaled by 2**(2E), exactly; at E = 0 it is the drop itself."""
    rng = random.Random(seed)
    g = with_isolated(random_graph(rng, rng.randint(2, 12), rng.randint(1, 25), integer_weights), [99])
    assert (g._shift == 0) == integer_weights
    scale = 4**g._shift
    values = kernels.weighted_values(g._rows, g._strength, range(g.num_nodes))
    assert values == [x * scale for x in energy_drops(g, True)]
