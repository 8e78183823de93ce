import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_EDGES
from genutil import far

from lapstream.errors import (
    LapstreamError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
    UnknownNodeError,
)
from lapstream import graph as graph_module
from lapstream.graph import Edge, Graph
from lapstream.centrality import lap_cent
from lapstream.incremental import EdgeDelta, apply_delta, lap_cent_add_remove


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

    def test_no_strict_mode(self):
        with pytest.raises(TypeError):
            Graph(strict=True)

    @pytest.mark.parametrize(
        "weight",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10**400, id="int-too-large"),
            pytest.param(-(10**400), id="-int-too-large"),
        ],
    )
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(NonFiniteWeightError, match=r"edge \(2, 3\)"):
            Graph([(1, 2, 2.0), (2, 3, weight)])
        g = Graph([(1, 2, 2.0)])
        before = g.copy()
        with pytest.raises(NonFiniteWeightError):
            g.add_edge(1, 2, weight)
        with pytest.raises(NonFiniteWeightError, match=r"edge \(2, 3\)"):
            g.add_edge(2, 3, weight)
        assert g == before
        assert g.strengths() == before.strengths()
        assert (g.num_edges, g._excess, g._inexact) == (before.num_edges, before._excess, False)

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


class TestOneObjectPerNode:
    """Each node is one int object everywhere the graph and its maps keep it,
    whatever objects its ids arrived as."""

    @staticmethod
    def _assert_own_objects(g, *maps):
        own = {u: u for u in g.adjacency()}  # equal lookup, returns the adjacency key
        for row in g.adjacency().values():
            assert all(x is own[x] for x in row)
        for keys in (g.strengths(), *maps):
            assert all(x is own[x] for x in keys)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_keys_are_the_graph_objects(self, variant):
        g = Graph([(far(u), far(v), 2.0) for u, v in TOY_EDGES])
        g.add_edge(far(1), far(7), 3.0)
        g.add_edge(far(7), far(40))  # a node new to the graph
        g.add_node(far(50))
        g.add_node(far(5))
        apply_delta(
            g,
            EdgeDelta(
                adds=[Edge(far(2), far(60)), Edge(far(60), far(1), 4.0)],
                removes=[(far(5), far(3))],
            ),
        )
        h = g.copy()
        cmap = lap_cent(h, variant)
        self._assert_own_objects(g)
        self._assert_own_objects(h, cmap.values)
        delta = EdgeDelta(
            adds=[Edge(far(50), far(4)), Edge(far(70), far(5), 5.0), Edge(far(3), far(70))],
            removes=[(far(2), far(1)), (far(60), far(2))],
        )
        lap_cent_add_remove(h, delta, cmap, variant)
        self._assert_own_objects(h, cmap.values)
        assert cmap.values == lap_cent(h, variant).values


# -- the bulk path against the per-edge path ----------------------------------

# derandomized: the same examples on every run, so the suite stays a stable gate
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.5, 0.1, -1.0, -2.5, 0.0, -0.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def edge_lists(draw, nodes=8):
    """2- and 3-tuples, Edge or plain, over few nodes so pairs repeat (upserts)."""
    node = st.integers(0, nodes - 1)
    pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    forms = st.sampled_from(["pair", "triple", "edge"])
    out = []
    for (u, v), w, form in draw(st.lists(st.tuples(pairs, WEIGHTS, forms), max_size=30)):
        out.append((u, v) if form == "pair" else (u, v, w) if form == "triple" else Edge(u, v, w))
    return out


def _state(g):
    """Everything a writer sets, floats by bits, in insertion order."""
    rows = [(u, [(v, w.hex()) for v, w in row.items()]) for u, row in g.adjacency().items()]
    return rows, g.num_edges, [(u, s.hex()) for u, s in g.strengths().items()]


def _recorded(fn):
    """Run ``fn``; return its result and the warnings it gave, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    assert all(w.filename == __file__ for w in caught), "a warning points inside the package"
    return result, [(w.category, str(w.message)) for w in caught]


def _add_each(g, edges):
    for e in edges:
        g.add_edge(*e)
    return g


class TestBulkPath:
    """``Graph(edges)`` and a validated delta take the one mutation loop in
    bulk; each must do exactly what the per-edge calls do."""

    @SETTINGS
    @given(edges=edge_lists())
    def test_constructor_equals_add_edge(self, edges):
        bulk, bulk_warnings = _recorded(lambda: Graph(edges))
        seq, seq_warnings = _recorded(lambda: _add_each(Graph(), edges))
        assert _state(bulk) == _state(seq)
        assert bulk_warnings == seq_warnings

    @SETTINGS
    @given(
        edges=edge_lists(),
        bad=st.sampled_from(["self-loop", "nan", "inf"]),
        data=st.data(),
    )
    def test_bad_edge_raises_the_same_at_the_same_edge(self, edges, bad, data):
        at = data.draw(st.integers(0, len(edges)))
        wrong = (3, 3, 1.0) if bad == "self-loop" else (1, 2, float(bad))
        feed = edges[:at] + [wrong] + edges[at:]

        def run(build):
            taken = []

            def pulled():
                for e in feed:
                    taken.append(e)
                    yield e

            g = Graph()
            with pytest.raises(LapstreamError) as raised:
                build(g, pulled())
            return type(raised.value), str(raised.value), len(taken), _state(g)

        def by_loop(g, edges):
            g._apply(edges, ())

        (bulk, _), (seq, _) = _recorded(lambda: run(by_loop)), _recorded(lambda: run(_add_each))
        assert bulk == seq
        kind, message, pulled, (rows, num_edges, _) = bulk
        assert pulled == at + 1
        assert num_edges == sum(len(row) for _, row in rows) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(kind) as raised:
                Graph(feed)
        assert str(raised.value) == message

    @SETTINGS
    @given(initial=edge_lists(), adds=edge_lists(nodes=10), data=st.data())
    def test_validated_delta_equals_per_edge(self, initial, adds, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = Graph(initial)
        adds = [Edge(*e) for e in adds]
        removable = sorted({e[:2] for e in g.edges()} | {tuple(sorted(e[:2])) for e in adds})
        removes = data.draw(st.lists(st.sampled_from(removable), unique=True)) if removable else []
        removes = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in removes]
        delta = EdgeDelta(adds=adds, removes=removes)

        bulk, seq = g.copy(), g.copy()
        _, bulk_warnings = _recorded(lambda: apply_delta(bulk, delta))

        def per_edge():
            _add_each(seq, adds)
            for u, v in removes:
                seq.remove_edge(u, v)

        _, seq_warnings = _recorded(per_edge)
        assert _state(bulk) == _state(seq)
        assert bulk_warnings == seq_warnings


# -- the running figures: T and the sticky exactness flag ----------------------


def _recount(g):
    """T recounted over the edges, and whether an edge is non-integral now."""
    weights = [e.weight for e in g.edges()]
    return math.fsum(abs(w) for w in weights), any(w % 1.0 for w in weights)


def _written(edges):
    """Whether any of ``edges`` carries a non-integral weight."""
    return any(len(e) == 3 and e[2] % 1.0 for e in edges)


def _check_figures(g, ever_fractional):
    total, fractional_now = _recount(g)
    running = g.num_edges + g._excess
    assert g._inexact == (ever_fractional or total > graph_module._EXACT_BOUND)
    assert g._inexact or not fractional_now
    if g._inexact:
        assert math.isclose(running, total, rel_tol=1e-12, abs_tol=1e-9)
    else:
        assert running == total  # exact while the flag is clear


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
class TestRunningFigures:
    @SETTINGS
    @given(edges=edge_lists())
    def test_constructor(self, edges):
        _check_figures(Graph(edges), _written(edges))

    @SETTINGS
    @given(initial=edge_lists(), adds=edge_lists(nodes=10), data=st.data())
    def test_every_writer(self, initial, adds, data):
        g = Graph(initial)
        ever = _written(initial)
        for e in adds:  # add_edge, upserts included
            g.add_edge(*e)
            ever = ever or _written([e])
            _check_figures(g, ever)
        copied = g.copy()
        assert (copied._inexact, copied._excess) == (g._inexact, g._excess)
        _check_figures(copied, ever)
        present = sorted(e[:2] for e in g.edges())
        for u, v in data.draw(st.lists(st.sampled_from(present), unique=True)) if present else []:
            g.remove_edge(u, v)
            _check_figures(g, ever)
        delta_adds = [Edge(*e) for e in data.draw(edge_lists(nodes=12))]
        removable = sorted({e[:2] for e in g.edges()} | {tuple(sorted(e[:2])) for e in delta_adds})
        removes = data.draw(st.lists(st.sampled_from(removable), unique=True)) if removable else []
        apply_delta(g, EdgeDelta(adds=delta_adds, removes=removes))
        _check_figures(g, ever or _written(delta_adds))
        _check_figures(copied, ever)  # the copy is independent

    def test_flag_stays_set_after_fractional_edges_leave(self):
        g = Graph([(0, 1, 0.5), (1, 2, 2.0), (2, 3, 0.25)])
        assert g._inexact
        g.remove_edge(0, 1)
        g.add_edge(2, 3, 3.0)  # the last fractional edge turns integral
        assert not _recount(g)[1]
        assert g._inexact
        assert g.num_edges + g._excess == 5.0
        assert g.copy()._inexact

    @pytest.mark.parametrize(
        "bad", [(1, 2, float("nan")), (1, 2, float("inf")), (3, 3, 0.5), (3, 3), (1, 2, 10**400)]
    )
    def test_rejected_edge_leaves_figures(self, bad):
        g = Graph([(0, 1, 2.0), (1, 2, -3.0)])
        with pytest.raises(LapstreamError):
            g.add_edge(*bad)
        with pytest.raises(LapstreamError):
            apply_delta(g, EdgeDelta(adds=[Edge(6, 7, 0.5), Edge(*bad)]))
        with pytest.raises(LapstreamError):
            g._apply([(4, 5, 7.0), bad], ())  # the edge before it is written
        assert not g._inexact
        assert g.num_edges + g._excess == 12.0

    @pytest.mark.parametrize(
        "adds, removes, end",
        [
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [], 5.0),  # unit edges alone
            ([(0, 1, 3.0), (1, 2), (2, 3), (0, 1, 1.0)], [], 3.0),  # peak before an upsert
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [(0, 1), (1, 2)], 3.0),  # before removes
            ([(0, 1, 9.0), (1, 2, 1.0)], [(1, 0)], 1.0),
        ],
    )
    def test_bound_seen_at_every_peak(self, monkeypatch, adds, removes, end):
        monkeypatch.setattr(graph_module, "_EXACT_BOUND", 4.0)
        g = Graph()
        g._apply(adds, removes)
        assert g._inexact
        assert g.num_edges + g._excess == _recount(g)[0] == end

    def test_bound_seen_when_a_call_raises(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_EXACT_BOUND", 2.0)
        g = Graph()
        with pytest.raises(SelfLoopError):
            g._apply([(0, 1), (1, 2), (2, 3), (4, 4)], ())
        assert g.num_edges == 3
        assert g._inexact
