"""Closed forms against the spectrum: a node's centrality is the drop in
sum(lambda^2) over the Laplacian's eigenvalues when the node is isolated.

Unlike ``genutil.deletion_oracle``, which sums the energy's trace form
sum(s^2) + 2 * sum(w^2) over the edge list, this computes the eigenvalues of the dense
Laplacian. networkx's ``laplacian_centrality``, an implementation of Qi et
al. that shares no code with lapstream, is a third check.
"""

import random

import pytest

from genutil import random_graph

from lapstream.centrality import lap_cent

np = pytest.importorskip("numpy")


def spectral_energy(g, variant, isolated=None):
    """sum(lambda^2) of the Laplacian of ``g``, minus the edges of ``isolated``."""
    index = {u: i for i, u in enumerate(sorted(g._pos))}
    lap = np.zeros((len(index), len(index)))
    for u, v, w in g.edges():
        if isolated in (u, v):
            continue
        w = 1.0 if variant == "unweighted" else w
        i, j = index[u], index[v]
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return float(np.sum(np.linalg.eigvalsh(lap) ** 2))


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@pytest.mark.parametrize("seed", range(8))
def test_closed_forms_equal_spectral_drop(seed, variant):
    rng = random.Random(seed)
    integer = seed % 2 == 0  # odd seeds draw non-integer weights
    g = random_graph(rng, rng.randint(2, 24), rng.randint(1, 60), integer)
    energy = spectral_energy(g, variant)
    values = lap_cent(g, variant).values
    for v in g._pos:
        drop = energy - spectral_energy(g, variant, isolated=v)
        assert values[v] == pytest.approx(drop, rel=1e-9, abs=1e-9 * energy)


@pytest.mark.parametrize("variant, weight", [("unweighted", None), ("weighted", "weight")])
@pytest.mark.parametrize("seed", range(20))
def test_networkx_laplacian_centrality(seed, variant, weight):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    g = random_graph(rng, 25, 50, integer_weights=True)
    G = nx.Graph()
    G.add_nodes_from(g._pos)
    G.add_weighted_edges_from(g.edges())
    expected = nx.laplacian_centrality(G, normalized=False, weight=weight)
    # weights 1-5: every value is an integer well below 2**53, so exact in any order
    assert lap_cent(g, variant).values == expected
