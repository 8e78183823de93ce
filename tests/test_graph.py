import inspect
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_EDGES
from genutil import (
    bits,
    deletion_oracle,
    exponent,
    far,
    graph_state,
    node_rows,
    node_strengths,
    reading,
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

    def test_pair_removed_twice(self):
        """A pair removed twice in one delta, in either orientation, rejects
        the delta, though the pair is present."""
        g = Graph(TOY_EDGES)
        state = graph_state(g)
        with pytest.raises(MissingEdgeError, match="twice"):
            _remove(g, (1, 2), (2, 1))
        assert graph_state(g) == state


class TestApplyRecord:
    """What ``_apply`` returns for a delta: s0, each endpoint's strength
    before the call, and the log of every write, both at the scale of the
    return."""

    def test_a_finer_weight_rescales_what_was_recorded(self):
        """The 0.5 raises E from 0 to 1 after the first add is recorded."""
        g = Graph([(1, 2, 3)])
        s0, log = g._apply([(1, 3), (2, 3, 0.5)], [(1, 2)], "weighted")
        assert g._shift == 1
        assert s0 == {0: 6, 2: 0, 1: 6}
        assert log == [(0, 2, None, 2), (1, 2, None, 1), (0, 1, 6, None)]

    def test_degrees_are_not_rescaled(self):
        g = Graph([(1, 2, 3)])
        s0, log = g._apply([(1, 3), (2, 3, 0.5)], (), "unweighted")
        assert s0 == {0: 1, 2: 0, 1: 1}
        assert log == [(0, 2, None, 2), (1, 2, None, 1)]


class TestRejectedDeltaUndo:
    """A rejected delta puts back every row entry and strength it wrote, on
    both ends of each pair, whatever it wrote them with."""

    @pytest.mark.parametrize("read", ["weighted", "unweighted"])
    @pytest.mark.parametrize(
        "adds",
        [
            [(1, 2, 5)],  # an upsert of a present pair
            [(2, 1, 5), (1, 2, 7), (4, 6)],  # written twice, then a new pair
            [(1, 2, 5), (3, 4, 0.5), (9, 1)],  # a rescale between writes, a new node
        ],
    )
    def test_graph_as_it_was(self, adds, read):
        g = Graph(TOY_EDGES)
        state = graph_state(g)
        with pytest.raises(MissingEdgeError):
            g._apply(adds, [(1, 99)], read)
        assert graph_state(g) == state


def _cut_at(call, at):
    """Run ``call()`` with a ``KeyboardInterrupt`` raised at the ``at``-th line
    event (from 0) of ``Graph._apply``, where CPython delivers a Ctrl-C.
    Returns the line it fired at, or None, and the exception ``call`` raised,
    or None."""
    code = Graph._apply.__code__
    hits = 0
    fired = None

    def local(frame, event, arg):
        nonlocal hits, fired
        if event == "line":
            if hits == at:
                fired = frame.f_lineno - code.co_firstlineno
                raise KeyboardInterrupt
            hits += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    except BaseException as exc:
        return fired, exc
    finally:
        sys.settrace(previous)
    return fired, None


def _rows_state(g):
    """``graph_state`` with each row compared as a dict: a cut-short commit
    puts its pairs back at the ends of their rows."""
    return list(g._pos.items()), [dict(row) for row in g._rows], list(g._strength), g.num_edges, g._shift


# integral weights: new nodes on both ends (5, 6), an upsert (2, 3), a pair
# written twice (5, 6), a remove of a pair the delta adds (4, 7); the first
# delta applies, the second fails on its last remove
SWEEP_ADDS = [(5, 6, 2), (2, 3, 5), (1, 5), (6, 5, 3), (4, 7)]
SWEEP_DELTAS = [
    EdgeDelta(adds=SWEEP_ADDS, removes=[(1, 2), (7, 4), (3, 4)]),
    EdgeDelta(adds=SWEEP_ADDS, removes=[(1, 2), (7, 4), (1, 3)]),
]


def _sweep(edges, delta, driver):
    """Cut ``delta`` short at every line ``_apply`` runs for it, one at a time,
    each on a fresh graph of ``edges`` and its map. Returns the number of
    points; the points that left anything but an interrupt and either the
    old stamp over the graph as it was, with a map that still steps equal to
    batch, or a new stamp, which the step refuses; and, for a delta that
    applies, the points that left a new stamp over a graph neither as it was
    nor as the whole delta leaves it."""
    variant = "weighted" if driver == "apply_delta" else driver
    follow = EdgeDelta(adds=[(1, 5, 2), (2, 4)], removes=[(2, 3)])
    g = Graph(edges)
    try:
        apply_delta(g, delta)
        done = _rows_state(g)
    except LapstreamError:
        done = None
    bad = []
    torn = []
    at = 0
    while True:
        g = Graph(edges)
        cmap = lap_cent(g, variant)
        stamp, state = g._version, _rows_state(g)
        if driver == "apply_delta":
            fired, raised = _cut_at(lambda: apply_delta(g, delta), at)
        else:
            fired, raised = _cut_at(lambda: lap_cent_add_remove(g, delta, cmap), at)
        if fired is None:
            return at, bad, torn
        if type(raised) is not KeyboardInterrupt:
            bad.append((fired, repr(raised)))
        elif g._version is stamp:
            if _rows_state(g) != state:
                bad.append((fired, "graph changed under the old stamp"))
            else:
                lap_cent_add_remove(g, follow, cmap)
                if cmap.values != lap_cent(g, variant).values:
                    bad.append((fired, "the map steps unlike batch"))
        else:
            if done is not None and _rows_state(g) not in (state, done):
                torn.append(fired)
            try:
                lap_cent_add_remove(g, follow, cmap)
                bad.append((fired, "the step takes the map under a new stamp"))
            except TypeError:
                pass
        at += 1


def _is_try_line(offset):
    """True when line ``offset`` of ``Graph._apply`` is a ``try:``."""
    lines, _ = inspect.getsourcelines(Graph._apply)
    return lines[offset].strip() == "try:"


class TestInterruptedDelta:
    """A delta cut short by an interrupt at any line of ``_apply`` leaves
    either its old stamp, over the graph as it was, or a new stamp, which
    the step refuses; it raises nothing but the interrupt. Under a new
    stamp, a delta that applies leaves the graph as it was or as the whole
    delta leaves it, figures and scale included. A trace function that
    raises at a ``try:`` line can skip its handler (CPython 3.11): the
    stamp, renewed before that line, covers what that leaves."""

    @pytest.mark.parametrize("driver", ["unweighted", "weighted", "apply_delta"])
    @pytest.mark.parametrize("delta", SWEEP_DELTAS, ids=["applied", "rejected"])
    def test_every_line(self, delta, driver):
        points, bad, torn = _sweep([(1, 2, 2), (2, 3, 3), (3, 4, 1)], delta, driver)
        assert points > 100
        assert bad == []
        assert all(map(_is_try_line, torn)), torn

    def test_every_line_of_a_rise(self):
        """A fractional add on an E = 0 graph raises E after a write."""
        delta = EdgeDelta(adds=[(5, 6, 2), (1, 5, 0.5)], removes=[(1, 2)])
        points, bad, torn = _sweep([(1, 2, 2), (2, 3, 3), (3, 4, 1)], delta, "weighted")
        assert points > 50
        assert bad == []
        assert all(map(_is_try_line, torn)), torn


# a fractional weight raises E after two writes, and (1, 2) is written twice,
# the second time an upsert at the new scale
BUILD_EDGES = [(1, 2, 2), (2, 3), (3, 4, 0.5), (2, 1, 3), (4, 5, 1.0), (5, 1, 0.25)]


class TestInterruptedConstructor:
    """The constructor's write cut short by an interrupt at any line of
    ``_apply`` leaves the graph empty or fully built: the undo drops every
    node it made, and the edge count and E are stored in one statement. A
    cut at a ``try:`` line can skip the handler (CPython 3.11), as in
    :class:`TestInterruptedDelta`."""

    def test_every_line(self):
        empty, built = _rows_state(Graph()), _rows_state(Graph(BUILD_EDGES))
        torn = []
        at = 0
        while True:
            g = Graph()
            fired, raised = _cut_at(lambda: g._apply(BUILD_EDGES, ()), at)
            if fired is None:
                break
            assert type(raised) is KeyboardInterrupt
            if _rows_state(g) not in (empty, built):
                torn.append(fired)
            at += 1
        assert at > 100
        assert all(map(_is_try_line, torn)), torn


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
        assert 7 not in node_rows(g)[1]
        assert graph_state(g) == graph_state(Graph(TOY_EDGES))
        assert graph_state(g) != graph_state(h)


class TestVersion:
    """Each write that succeeds gives the graph a new state stamp, so a map
    can tell the state it holds; a rejected delta leaves it, and a copy has
    its own."""

    def test_applied_delta_renews_it(self):
        assert Graph()._version is not Graph()._version
        g = Graph(TOY_EDGES)
        v = g._version
        apply_delta(g, EdgeDelta(adds=[(1, 9)]))
        assert g._version is not v
        assert g.copy()._version is not g._version

    @pytest.mark.parametrize("step", [False, True])
    def test_rejected_delta_leaves_it(self, step):
        """A fractional weight raises E before the remove rejects the delta:
        the undo leaves the stamp with the scale."""
        g = Graph(TOY_EDGES)
        cmap = lap_cent(g, "weighted")
        v = g._version
        with pytest.raises(MissingEdgeError):
            bad = EdgeDelta(adds=[(1, 9, 0.5)], removes=[(1, 99)])
            if step:
                lap_cent_add_remove(g, bad, cmap)
            else:
                apply_delta(g, bad)
        assert g._version is v and cmap.values._version is v
        lap_cent_add_remove(g, EdgeDelta(adds=[(1, 9, 0.5)]), cmap)
        assert g._version is not v and cmap.values._version is g._version


class TestInvariants:
    """Randomized one-edge deltas preserve the structural invariants."""

    def _random_ops(self, seed, steps=300):
        rng = random.Random(seed)
        g = Graph()
        for _ in range(steps):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v:
                continue
            if v in node_rows(g).get(u, ()) and rng.random() < 0.5:
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
            assert strengths[u] == sum(row.values())

    def test_add_remove_roundtrip_random(self):
        rng = random.Random(99)
        g = self._random_ops(7)
        before = g.copy()
        pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(5)]
        touched = []
        for u, v in pairs:
            if u != v and v not in node_rows(g).get(u, ()):
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
        own = {u: u for u in g._pos}  # equal lookup, returns the table's object
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

            with pytest.raises(LapstreamError) as raised:
                build(pulled())
            return type(raised.value), str(raised.value), len(taken)

        g = Graph()
        bulk, bulk_warnings = _recorded(lambda: run(Graph))
        seq, seq_warnings = _recorded(lambda: run(lambda edges: _add_each(g, edges)))
        assert bulk == seq
        assert bulk_warnings == seq_warnings
        assert bulk[2] == at + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = Graph(edges[:at])
        # the deltas keep the edges before the bad one, which is rejected
        assert graph_state(g) == graph_state(before)

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
        drops, _ = deletion_oracle(g._pos, g.edges(), "weighted")
        assert bits(lap_cent(g, "weighted").values) == bits({v: reading(x, True) for v, x in drops.items()})

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_int_past_the_limit_is_stored_as_its_float(self, variant):
        """An int weight above 2**53 is stored as the float it converts to,
        from the constructor and from a delta."""
        big = 2**53 + 1
        g = Graph([(0, 1, big), (1, 2)])
        cmap = lap_cent(g, variant)
        lap_cent_add_remove(g, EdgeDelta(adds=[Edge(2, 3, big)]), cmap)
        assert sorted(g.edges()) == [(0, 1, 9007199254740992), (1, 2, 1), (2, 3, 9007199254740992)]
        assert all(type(w) is int for _, _, w in g.edges())
        assert g._shift == 0
        drops, _ = deletion_oracle(g._pos, g.edges(), variant)
        assert bits(cmap.values) == bits({v: reading(x, True) for v, x in drops.items()})

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
        assert g._shift == 0 and g.num_edges == 2
        strengths = node_strengths(g)
        assert strengths == {0: 2, 1: -1, 2: -3}
        assert all(type(s) is int for s in strengths.values())
