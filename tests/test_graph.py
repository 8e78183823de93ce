import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_EDGES
from genutil import (
    bits,
    exponent,
    far,
    graph_state,
    node_rows,
    node_strengths,
    stored,
    with_isolated,
)

from lapstream.errors import (
    LapstreamError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
)
from lapstream.graph import Edge, Graph
from lapstream.centrality import lap_cent
from lapstream.incremental import EdgeDelta, apply_delta, lap_cent_add_remove


def _add(g, *edges):
    apply_delta(g, EdgeDelta(adds=list(edges)))
    return g


def _remove(g, *pairs):
    apply_delta(g, EdgeDelta(removes=list(pairs)))
    return g


class TestAddEdge:
    """An edge written by the constructor or by a delta."""

    def test_single_edge(self):
        g = Graph([(1, 2)])
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert len(node_rows(g)[1]) == 1

    def test_toy_addition(self):
        g = _add(Graph(TOY_EDGES), (4, 6))
        assert len(node_rows(g)[4]) == 3
        assert len(node_rows(g)[6]) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph([(1, 2), (1, 1)])
        with pytest.raises(SelfLoopError):
            _add(Graph(), (1, 1))

    def test_auto_creates_nodes(self):
        g = Graph([(10, 20, 0.5)])
        assert 10 in node_rows(g) and 20 in node_rows(g)

    def test_upsert_replaces_weight(self):
        for g in Graph([(1, 2, 1.0), (1, 2, 3.0)]), _add(Graph([(1, 2, 1.0)]), (1, 2, 3.0)):
            assert g.num_edges == 1
            assert node_rows(g)[1][2] == 3.0
            assert node_rows(g)[2][1] == 3.0
            assert node_strengths(g)[1] == 3.0

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
            _add(g, (1, 2, weight))
        with pytest.raises(NonFiniteWeightError, match=r"edge \(2, 3\)"):
            _add(g, (2, 3, weight))
        assert graph_state(g) == graph_state(before)
        assert g._shift == 0

    def test_negative_weight_warns(self):
        """Stored, with a warning that names this file, whichever writer."""
        with pytest.warns(NegativeWeightWarning) as caught:
            g = Graph([(1, 2, -4.0)])
            _add(g, (2, 3, -1.0))
        assert [w.filename for w in caught] == [__file__] * 2
        assert node_rows(g)[1][2] == -4.0


class TestRemoveEdge:
    def test_inverse_of_add(self):
        g = _remove(Graph([(1, 2)]), (1, 2))
        assert g.num_nodes == 2  # endpoints retained at degree 0
        assert g.num_edges == 0
        assert node_rows(g)[1] == {}
        assert node_strengths(g) == {1: 0.0, 2: 0.0}

    def test_restores_toy_graph(self):
        g = _remove(_add(Graph(TOY_EDGES), (4, 6)), (4, 6))
        assert graph_state(g) == graph_state(Graph(TOY_EDGES))

    def test_missing_edge(self):
        g = Graph([(1, 2)])
        with pytest.raises(MissingEdgeError):
            _remove(g, (9, 9))
        with pytest.raises(MissingEdgeError):
            _remove(g, (1, 3))


class TestQueries:
    def test_toy_neighbors(self):
        adj = node_rows(Graph(TOY_EDGES))
        assert set(adj[5]) == {3, 4, 6, 7}
        assert set(adj[1]) == {2}

    def test_isolated_neighbors_empty(self):
        g = with_isolated(Graph([(1, 2)]), [3])
        assert node_rows(g)[3] == {}
        assert node_strengths(g)[3] == 0.0
        assert g.num_edges == 1

    def test_star_strength(self, weighted_star):
        assert node_strengths(weighted_star) == {0: 5.0, 1: 2.0, 2: 3.0}

    def test_edges_canonical(self):
        g = Graph([(5, 2, 1.5)])
        assert list(g.edges()) == [(2, 5, 1.5)]

    def test_copy_is_independent(self):
        g = Graph(TOY_EDGES)
        h = _add(g.copy(), (1, 7))
        assert not g.has_edge(1, 7)
        assert graph_state(g) == graph_state(Graph(TOY_EDGES))
        assert graph_state(g) != graph_state(h)


class TestVersion:
    """Each write that succeeds raises the version by one, so a map can tell
    the state it holds; a rejected delta leaves it, and a copy carries it."""

    def test_applied_delta_raises_it(self):
        assert Graph()._version == 0
        g = Graph(TOY_EDGES)
        v = g._version
        apply_delta(g, EdgeDelta(adds=[(1, 9)]))
        assert g._version == v + 1
        assert g.copy()._version == g._version

    @pytest.mark.parametrize("step", [False, True])
    def test_rejected_delta_leaves_it(self, step):
        """A fractional weight raises E before the remove rejects the delta:
        the undo puts the version back with the scale."""
        g = Graph(TOY_EDGES)
        cmap = lap_cent(g, "weighted")
        v = g._version
        with pytest.raises(MissingEdgeError):
            bad = EdgeDelta(adds=[(1, 9, 0.5)], removes=[(1, 99)])
            if step:
                lap_cent_add_remove(g, bad, cmap)
            else:
                apply_delta(g, bad)
        assert g._version == cmap.values._version == v
        lap_cent_add_remove(g, EdgeDelta(adds=[(1, 9, 0.5)]), cmap)
        assert g._version == cmap.values._version == v + 1


class TestInvariants:
    """Randomized one-edge deltas preserve the structural invariants."""

    def _random_ops(self, seed, steps=300):
        rng = random.Random(seed)
        g = Graph()
        for _ in range(steps):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v:
                continue
            if g.has_edge(u, v) and rng.random() < 0.5:
                _remove(g, (u, v))
            else:
                _add(g, (u, v, rng.choice([1.0, 2.0, 0.5])))
        return g

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_sum_is_twice_edges(self, seed):
        g = self._random_ops(seed)
        assert sum(map(len, node_rows(g).values())) == 2 * g.num_edges

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry_full_scan(self, seed):
        g = self._random_ops(seed)
        adj = node_rows(g)
        for u, row in adj.items():
            for v, w in row.items():
                assert u != v
                assert adj[v][u] == w

    @pytest.mark.parametrize("seed", range(8))
    def test_strength_matches_incident_weight_sum(self, seed):
        g = self._random_ops(seed)
        strengths = node_strengths(g)
        for u, row in node_rows(g).items():
            assert strengths[u] == pytest.approx(sum(row.values()), abs=1e-12)

    def test_add_remove_roundtrip_random(self):
        rng = random.Random(99)
        g = self._random_ops(7)
        before = g.copy()
        pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(5)]
        touched = []
        for u, v in pairs:
            if u != v and not g.has_edge(u, v):
                _add(g, (u, v))
                touched.append((u, v))
        for u, v in reversed(touched):
            _remove(g, (u, v))
        # nodes created by the adds persist, so compare adjacency rows of
        # the original node set plus emptiness of any new ones
        adj, adj0 = node_rows(g), node_rows(before)
        for u in adj0:
            assert adj[u] == adj0[u]
        for u in adj.keys() - adj0.keys():
            assert adj[u] == {}
        assert g.num_edges == before.num_edges


class TestOneObjectPerNode:
    """Each node is one int object everywhere the graph and its maps keep it,
    whatever objects its ids arrived as, and each position one int object
    in every row."""

    @staticmethod
    def _assert_own_objects(g, *maps):
        own = {u: u for u in g._nodes}  # equal lookup, returns the table's object
        for keys in (g._pos, *maps):
            assert all(x is own[x] for x in keys)
        held = {p: p for p in g._pos.values()}
        for row in g._rows:
            assert all(q is held[q] for q in row)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_keys_are_the_graph_objects(self, variant):
        g = Graph([(far(u), far(v), 2.0) for u, v in TOY_EDGES])
        _add(g, (far(1), far(7), 3.0), (far(7), far(40)))  # a node new to the graph
        # far(50) arrives and is left at degree 0; far(5) comes as a fresh object
        _remove(_add(g, (far(50), far(5))), (far(5), far(50)))
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
        lap_cent_add_remove(h, delta, cmap)
        self._assert_own_objects(h, cmap.values)
        assert cmap.values == lap_cent(h, variant).values


# -- the bulk path against one-edge deltas --------------------------------------

# derandomized: the same examples on every run, so the suite stays a stable gate
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.5, 0.1, -1.0, -2.5, 0.0, -0.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def edge_lists(draw, nodes=8, weights=WEIGHTS):
    """2- and 3-tuples, Edge or plain, over few nodes so pairs repeat (upserts)."""
    node = st.integers(0, nodes - 1)
    pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    forms = st.sampled_from(["pair", "triple", "edge"])
    out = []
    for (u, v), w, form in draw(st.lists(st.tuples(pairs, weights, forms), max_size=30)):
        out.append((u, v) if form == "pair" else (u, v, w) if form == "triple" else Edge(u, v, w))
    return out


def _recorded(fn):
    """Run ``fn``; return its result and the warnings it gave, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    assert all(w.filename == __file__ for w in caught), "a warning points inside the package"
    return result, [(w.category, str(w.message)) for w in caught]


def _add_each(g, edges):
    """One delta per edge."""
    for e in edges:
        _add(g, e)
    return g


class TestBulkPath:
    """``Graph(edges)`` and a validated delta take the one mutation loop in
    bulk; each must do exactly what a chain of one-edge deltas does."""

    @SETTINGS
    @given(edges=edge_lists())
    def test_constructor_equals_one_edge_deltas(self, edges):
        bulk, bulk_warnings = _recorded(lambda: Graph(edges))
        seq, seq_warnings = _recorded(lambda: _add_each(Graph(), edges))
        assert graph_state(bulk) == graph_state(seq)
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
            return type(raised.value), str(raised.value), len(taken), graph_state(g)

        def by_loop(g, edges):
            g._apply(edges, ())

        (bulk, _), (seq, _) = _recorded(lambda: run(by_loop)), _recorded(lambda: run(_add_each))
        assert bulk == seq
        kind, message, pulled, (_, _, rows, _, _, num_edges) = bulk
        assert pulled == at + 1
        assert num_edges == sum(map(len, rows)) // 2
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
            for pair in removes:
                _remove(seq, pair)

        _, seq_warnings = _recorded(per_edge)
        assert graph_state(bulk) == graph_state(seq)
        assert bulk_warnings == seq_warnings


# -- the running figure: the sticky scale exponent E ------------------------------

# weights on both sides of 2**53, the largest weight the integral fast path takes
BIG_WEIGHTS = st.sampled_from([2.0**53, -(2**53), 2**53 + 1, 2.0**53 + 2, 2**60, 3e20, 1e7])


def _exponent(edges):
    return exponent(e[2] for e in edges if len(e) == 3)


def _check_figures(g, exponent):
    assert g._shift == exponent
    assert all(type(w) is int for row in g._rows for w in row.values())
    # exact: every strength is the int sum of its row
    assert [(type(s), s) for s in g._strength] == [
        (int, sum(row.values())) for row in g._rows
    ]


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
class TestRunningFigures:
    @SETTINGS
    @given(edges=edge_lists(weights=st.one_of(WEIGHTS, BIG_WEIGHTS)))
    def test_constructor(self, edges):
        _check_figures(Graph(edges), _exponent(edges))

    @SETTINGS
    @given(
        initial=edge_lists(weights=st.one_of(WEIGHTS, BIG_WEIGHTS)),
        adds=edge_lists(nodes=10, weights=st.one_of(WEIGHTS, BIG_WEIGHTS)),
        data=st.data(),
    )
    def test_every_writer(self, initial, adds, data):
        g = Graph(initial)
        ever = _exponent(initial)
        for e in adds:  # one-edge deltas, upserts included
            _add(g, e)
            ever = max(ever, _exponent([e]))
            _check_figures(g, ever)
        copied = g.copy()
        assert copied._shift == g._shift
        _check_figures(copied, ever)
        present = sorted(e[:2] for e in g.edges())
        for u, v in data.draw(st.lists(st.sampled_from(present), unique=True)) if present else []:
            _remove(g, (u, v))
            _check_figures(g, ever)
        delta_adds = [Edge(*e) for e in data.draw(edge_lists(nodes=12))]
        removable = sorted({e[:2] for e in g.edges()} | {tuple(sorted(e[:2])) for e in delta_adds})
        removes = data.draw(st.lists(st.sampled_from(removable), unique=True)) if removable else []
        apply_delta(g, EdgeDelta(adds=delta_adds, removes=removes))
        _check_figures(g, max(ever, _exponent(delta_adds)))
        _check_figures(copied, ever)  # the copy is independent

    @pytest.mark.parametrize("weight, exponent", [(0.5, 1), (0.375, 3), (5e-324, 1074), (0.1, 55)])
    def test_scale_stays_after_fractional_edges_leave(self, weight, exponent):
        g = Graph([(0, 1, weight), (1, 2, 2.0), (2, 3, 0.5)])
        assert g._shift == exponent
        _remove(g, (0, 1))
        _add(g, (2, 3, 3.0))  # the last fractional edge turns integral
        assert sorted(g.edges()) == [(1, 2, 2), (2, 3, 3)]
        assert all(type(w) is int for _, _, w in g.edges())
        assert node_strengths(g) == {0: 0, 1: 2 << exponent, 2: 5 << exponent, 3: 3 << exponent}
        assert g._shift == exponent
        assert g.copy()._shift == exponent

    def test_edges_read_the_same_at_any_scale(self):
        """A weight reads as it was stored at E = 0 however fine a later weight is."""
        weights = [1.0, 3, -2.0, 0.0, 2.0**60, 0.5, 1e308, -0.75]
        g = Graph((0, j + 1, w) for j, w in enumerate(weights))
        fine = g.copy()
        _add(fine, (0, 99, 5e-324))
        for graph in (g, fine):
            got = {v: w for _, v, w in graph.edges() if v != 99}
            assert bits(got) == bits({j + 1: stored(w) for j, w in enumerate(weights)})
        assert [w for _, v, w in fine.edges() if v == 99] == [5e-324]

    def test_integral_weights_stay_exact_past_float_precision(self):
        """Strengths and values pass 2**53 as exact ints, at E = 0."""
        big = 2**53
        g = Graph([(0, 1, float(big)), (1, 2, big), (2, 3, -big), (3, 4, 2.0**52)])
        _add(g, (0, 1, big - 1), (4, 5, 1.0))
        assert g._shift == 0
        assert node_strengths(g) == {0: big - 1, 1: 2 * big - 1, 2: 0, 3: 2**52 - big, 4: 2**52 + 1, 5: 1}
        assert all(type(s) is int for s in g._strength)
        values = lap_cent(g, "weighted").values
        assert values[1] == (2 * big - 1) ** 2 + (big - 1) * (big - 1 + 2 * (big - 1)) + big * big
        assert all(type(x) is int for x in values.values())

    @pytest.mark.parametrize(
        "bad", [(1, 2, float("nan")), (1, 2, float("inf")), (3, 3, 0.5), (3, 3), (1, 2, 10**400)]
    )
    def test_rejected_edge_leaves_figures(self, bad):
        g = Graph([(0, 1, 2.0), (1, 2, -3.0)])
        with pytest.raises(LapstreamError):
            _add(g, bad)
        with pytest.raises(LapstreamError):
            apply_delta(g, EdgeDelta(adds=[Edge(6, 7, 0.5), Edge(*bad)]))
        with pytest.raises(LapstreamError):
            apply_delta(g, EdgeDelta(adds=[Edge(6, 7, 2**60)], removes=[(6, 8)]))
        with pytest.raises(LapstreamError):
            g._apply([(4, 5, 7.0), bad], ())  # the edge before it is written
        assert g._shift == 0
        strengths = node_strengths(g)
        assert strengths == {0: 2, 1: -1, 2: -3, 4: 7, 5: 7}
        assert all(type(s) is int for s in strengths.values())
