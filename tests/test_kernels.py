"""The two kernels against the shared node-deletion oracle,
``genutil.deletion_oracle``, which computes each drop without their closed
form; and the oracle's energy against the one dense reference, the trace of
the squared dense Laplacian, exact in fractions."""

import random
from fractions import Fraction

import pytest

from conftest import TOY_EDGES, TOY_STEP1
from genutil import deletion_oracle, random_graph, with_isolated

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


def random_case(seed: int, integer_weights: bool) -> Graph:
    """A random graph of up to 12 nodes and 25 edges, and a node 99 of degree 0."""
    rng = random.Random(seed)
    return with_isolated(random_graph(rng, rng.randint(2, 12), rng.randint(1, 25), integer_weights), [99])


def drops(g: Graph, variant: str) -> list[Fraction]:
    """The oracle's drop of every node of ``g``, in position order."""
    return list(deletion_oracle(g._pos, g.edges(), variant)[0].values())


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@pytest.mark.parametrize("seed", range(8))
def test_oracle_energy_is_the_dense_trace(seed, variant):
    g = random_case(seed, integer_weights=False)
    edges = [(u, v, Fraction(w) if variant == "weighted" else 1) for u, v, w in g.edges()]
    assert deletion_oracle(g._pos, g.edges(), variant)[1] == trace_energy(edges, g._pos)


def test_unweighted_toy_network():
    g = Graph(TOY_EDGES)
    assert kernels.unweighted_values(g._rows, range(g.num_nodes)) == [TOY_STEP1[v] for v in g._pos]


def test_weighted_by_hand():
    """A path 1 -2- 2 -3- 3: s = (2, 5, 3), so C(1) = 4 + 2*(2 + 10),
    C(2) = 25 + 2*(2 + 4) + 3*(3 + 6) and C(3) = 9 + 3*(3 + 10)."""
    g = Graph([(1, 2, 2.0), (2, 3, 3.0)])
    assert kernels.weighted_values(g._rows, g._strength, range(3)) == [28, 64, 48]
    assert drops(g, "weighted") == [28, 64, 48]


@pytest.mark.parametrize("seed", range(8))
def test_unweighted_matches_the_dense_drop(seed):
    g = random_case(seed, integer_weights=False)
    assert kernels.unweighted_values(g._rows, range(g.num_nodes)) == drops(g, "unweighted")


@pytest.mark.parametrize("integer_weights", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_weighted_matches_the_dense_drop(seed, integer_weights):
    """The kernel reads the graph's exact ints, so each value is the drop
    scaled by 2**(2E), exactly; at E = 0 it is the drop itself."""
    g = random_case(seed, integer_weights)
    assert (g._shift == 0) == integer_weights
    scale = 4**g._shift
    values = kernels.weighted_values(g._rows, g._strength, range(g.num_nodes))
    assert values == [x * scale for x in drops(g, "weighted")]
