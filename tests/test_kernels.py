"""Backend parity: the compiled kernels must match the pure-Python ones
bitwise, value for value."""

import random

import pytest

from genutil import random_graph

from lapstream import _kernels_py
from lapstream import kernels

try:
    from lapstream import _kernels_c
except ImportError:
    _kernels_c = None

needs_ext = pytest.mark.skipif(_kernels_c is None, reason="compiled kernels not built")


def test_selected_backend_is_known():
    assert kernels.BACKEND in ("c", "python")


@needs_ext
def test_extension_preferred_when_built():
    assert kernels.BACKEND == "c"


@needs_ext
@pytest.mark.parametrize("seed", range(6))
def test_unweighted_parity(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 80), rng.randint(1, 200))
    nodes = list(g.nodes())
    adj = g.adjacency()
    py = _kernels_py.unweighted_values(adj, nodes)
    cc = _kernels_c.unweighted_values(adj, nodes)
    assert py == cc
    assert all(isinstance(x, int) for x in cc.values())


@needs_ext
@pytest.mark.parametrize("seed", range(6))
def test_weighted_parity_bitwise(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 80), rng.randint(1, 200), integer_weights=False)
    nodes = list(g.nodes())
    adj = g.adjacency()
    strength = g.strengths()
    py = _kernels_py.weighted_values(adj, strength, nodes)
    cc = _kernels_c.weighted_values(adj, strength, nodes)
    for v in nodes:
        assert py[v] == cc[v]  # exact, not approx


@needs_ext
def test_subset_evaluation_parity():
    rng = random.Random(42)
    g = random_graph(rng, 50, 120)
    subset = [v for v in g.nodes() if v % 3 == 0]
    assert _kernels_py.unweighted_values(g.adjacency(), subset) == _kernels_c.unweighted_values(
        g.adjacency(), subset
    )
