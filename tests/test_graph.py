import random

import pytest

from conftest import TOY_EDGES

from lapstream.errors import (
    DuplicateEdgeError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
    UnknownNodeError,
)
from lapstream.graph import Graph


class TestAddEdge:
    def test_single_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.degree(1) == 1

    def test_toy_addition(self):
        g = Graph(TOY_EDGES)
        g.add_edge(4, 6)
        assert g.degree(4) == 3
        assert g.degree(6) == 2

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(SelfLoopError):
            g.add_edge(1, 1)

    def test_auto_creates_nodes(self):
        g = Graph()
        g.add_edge(10, 20, 0.5)
        assert g.has_node(10) and g.has_node(20)

    def test_upsert_replaces_weight(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(1, 2, 3.0)
        assert g.num_edges == 1
        assert g.edge_weight(1, 2) == 3.0
        assert g.edge_weight(2, 1) == 3.0
        assert g.strength(1) == 3.0

    def test_strict_rejects_duplicate(self):
        g = Graph(strict=True)
        g.add_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(2, 1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        g = Graph([(1, 2, 2.0)])
        before = g.copy()
        with pytest.raises(NonFiniteWeightError):
            g.add_edge(1, 2, weight)
        with pytest.raises(NonFiniteWeightError):
            g.add_edge(2, 3, weight)
        assert g == before
        assert g.strengths() == before.strengths()

    def test_negative_weight_warns(self):
        g = Graph()
        with pytest.warns(NegativeWeightWarning):
            g.add_edge(1, 2, -4.0)
        assert g.edge_weight(1, 2) == -4.0


class TestRemoveEdge:
    def test_inverse_of_add(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        assert g.num_nodes == 2  # endpoints retained at degree 0
        assert g.num_edges == 0
        assert g.degree(1) == 0

    def test_restores_toy_graph(self):
        g = Graph(TOY_EDGES)
        g.add_edge(4, 6)
        g.remove_edge(4, 6)
        assert g == Graph(TOY_EDGES)

    def test_missing_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        with pytest.raises(MissingEdgeError):
            g.remove_edge(9, 9)
        with pytest.raises(MissingEdgeError):
            g.remove_edge(1, 3)


class TestQueries:
    def test_toy_neighbors(self):
        g = Graph(TOY_EDGES)
        assert {j for j, _ in g.neighbors(5)} == {3, 4, 6, 7}
        assert {j for j, _ in g.neighbors(1)} == {2}

    def test_isolated_neighbors_empty(self):
        g = Graph()
        g.add_node(3)
        assert set(g.neighbors(3)) == set()
        assert g.degree(3) == 0

    def test_unknown_node(self):
        g = Graph()
        for call in (g.neighbors, g.degree, g.strength):
            with pytest.raises(UnknownNodeError):
                call(42)

    def test_toy_degrees(self):
        g = Graph(TOY_EDGES)
        assert g.degree(5) == 4

    def test_star_strength(self):
        g = Graph()
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 2, 3.0)
        assert g.strength(0) == 5.0
        assert g.strength(1) == 2.0

    def test_stats_toy(self):
        s = Graph(TOY_EDGES).stats()
        assert (s.num_nodes, s.num_edges, s.max_degree) == (7, 7, 4)
        assert s.avg_degree == pytest.approx(2.0)

    def test_stats_empty_and_single(self):
        assert Graph().stats() == Graph().stats()
        s = Graph().stats()
        assert (s.num_nodes, s.num_edges, s.max_degree, s.avg_degree) == (0, 0, 0, 0.0)
        s = Graph([(1, 2)]).stats()
        assert (s.num_nodes, s.num_edges, s.max_degree, s.avg_degree) == (2, 1, 1, 1.0)

    def test_edges_canonical(self):
        g = Graph()
        g.add_edge(5, 2, 1.5)
        assert [(e.u, e.v, e.weight) for e in g.edges()] == [(2, 5, 1.5)]

    def test_copy_is_independent(self):
        g = Graph(TOY_EDGES)
        h = g.copy()
        h.add_edge(1, 7)
        assert not g.has_edge(1, 7)
        assert g != h


class TestInvariants:
    """Randomized mutation sequences preserve the structural invariants."""

    def _random_ops(self, seed, steps=300):
        rng = random.Random(seed)
        g = Graph()
        for _ in range(steps):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v:
                continue
            if g.has_edge(u, v) and rng.random() < 0.5:
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v, rng.choice([1.0, 2.0, 0.5]))
        return g

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_sum_is_twice_edges(self, seed):
        g = self._random_ops(seed)
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.num_edges

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry_full_scan(self, seed):
        g = self._random_ops(seed)
        adj = g.adjacency()
        for u, row in adj.items():
            for v, w in row.items():
                assert u != v
                assert adj[v][u] == w

    @pytest.mark.parametrize("seed", range(8))
    def test_strength_matches_incident_weight_sum(self, seed):
        g = self._random_ops(seed)
        for u in g.nodes():
            assert g.strength(u) == pytest.approx(
                sum(w for _, w in g.neighbors(u)), abs=1e-12
            )

    def test_add_remove_roundtrip_random(self):
        rng = random.Random(99)
        g = self._random_ops(7)
        before = g.copy()
        pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(5)]
        touched = []
        for u, v in pairs:
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
                touched.append((u, v))
        for u, v in reversed(touched):
            g.remove_edge(u, v)
        # nodes created by the adds persist, so compare adjacency rows of
        # the original node set plus emptiness of any new ones
        for u in before.nodes():
            assert dict(g.neighbors(u)) == dict(before.neighbors(u))
        for u in g.nodes():
            if not before.has_node(u):
                assert g.degree(u) == 0
        assert g.num_edges == before.num_edges
