import io
import random
import tracemalloc
import warnings

import pytest

from conftest import TOY_EDGES, TOY_STEP1, TOY_STEP2
from genutil import (
    FAR,
    AffectedSets,
    affected_nodes,
    bits,
    far_delta,
    far_graph,
    graph_state,
    node_rows,
    random_delta,
    random_graph,
)

from lapstream import kernels
from lapstream.bench import bench_stream
from lapstream.centrality import CentralityMap, lap_cent, normalize, write_centralities
from lapstream.errors import (
    DeltaError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
)
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, evolve, lap_cent_add_remove, run_evolving
from lapstream.ingest import SnapshotStream, snapshots_cumulative, snapshots_window
from lapstream.synth import churn_stream


class TestAffectedNodes:
    def test_toy_addition(self, toy_graph):
        sets = affected_nodes(toy_graph, EdgeDelta(adds=[Edge(4, 6)]))
        assert sets.touched == {4, 6}
        assert sets.recompute == {4, 5, 6, 7}
        assert toy_graph.has_edge(4, 6)  # delta fully applied on return

    def test_empty_delta(self, toy_graph):
        sets = affected_nodes(toy_graph, EdgeDelta())
        assert sets == AffectedSets(set(), set())

    def test_neighbors_gathered_before_removal(self):
        g = Graph([(1, 2)])
        sets = affected_nodes(g, EdgeDelta(removes=[(1, 2)]))
        assert sets.touched == {1, 2}
        assert sets.recompute == {1, 2}
        assert g.num_edges == 0

    def test_absent_remove_fails_fast(self, toy_graph):
        with pytest.raises(MissingEdgeError):
            affected_nodes(toy_graph, EdgeDelta(removes=[(1, 6)]))

    def test_self_loop_add_rejected(self, toy_graph):
        with pytest.raises(SelfLoopError):
            affected_nodes(toy_graph, EdgeDelta(adds=[Edge(3, 3)]))

    def test_add_and_remove_same_edge_nets_to_removal(self, toy_graph):
        before = toy_graph.copy()
        delta = EdgeDelta(adds=[Edge(1, 6)], removes=[(1, 6)])
        sets = affected_nodes(toy_graph, delta)
        assert graph_state(toy_graph) == graph_state(before)
        # both endpoints and their union-graph neighbors still recomputed
        assert {1, 6} <= sets.recompute

    def test_touched_subset_of_recompute_random(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 40), rng.randint(3, 80))
            work = g.copy()
            sets = affected_nodes(work, random_delta(rng, g))
            assert sets.touched <= sets.recompute
            assert sets.recompute <= set(work._nodes)


# each delta is rejected only by a change listed after one that would apply
REJECTED_DELTAS = [
    (EdgeDelta(adds=[Edge(1, 9)], removes=[(1, 6)]), MissingEdgeError),
    (EdgeDelta(removes=[(1, 2), (2, 1)]), MissingEdgeError),
    (EdgeDelta(removes=[(4, 7), (4, 7)]), MissingEdgeError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(3, 3)]), SelfLoopError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 8, float("nan"))]), NonFiniteWeightError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 8, float("inf"))], removes=[(1, 2)]),
     NonFiniteWeightError),
    # an int too large for a float
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 8, 10**400)]), NonFiniteWeightError),
    (EdgeDelta(adds=[Edge(1, 9, 2.0), Edge(8, 2, -10**400)], removes=[(1, 2)]),
     NonFiniteWeightError),
]


def _state(g, cmap):
    """Everything a step may change: the graph in insertion order, its
    position table, its scale and its version, and the map, its stored values
    and their scale as well as what it reads, and its version."""
    view = cmap.values
    return (
        graph_state(g),
        g._version,
        len(view),
        list(view._values),
        view._shift,
        view._version,
        list(bits(view).items()),
        cmap.computed_count,
    )


def _step_rejects_as_apply_delta(g, delta, error, variant):
    """The step raises the type and message apply_delta raises, and changes nothing."""
    with pytest.raises(error) as applied:
        apply_delta(g.copy(), delta)
    cmap = lap_cent(g, variant)
    before = _state(g, cmap)
    with pytest.raises(error) as stepped:
        lap_cent_add_remove(g, delta, cmap)
    assert str(stepped.value) == str(applied.value)
    assert _state(g, cmap) == before


class TestRejectedDelta:
    """A rejected delta leaves the graph, and the map the step updates, as they were."""

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("delta, error", REJECTED_DELTAS)
    @pytest.mark.parametrize("apply", [apply_delta, affected_nodes])
    def test_graph_unchanged(self, toy_graph, delta, error, apply, far):
        if far:
            toy_graph, delta = far_graph(toy_graph), far_delta(delta)
        before = toy_graph.copy()
        with pytest.raises(error):
            apply(toy_graph, delta)
        cmap = lap_cent(before, "weighted")
        assert _state(toy_graph, cmap) == _state(before, cmap)

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("delta, error", REJECTED_DELTAS)
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_in_place_step_unchanged(self, toy_graph, delta, error, variant, far):
        if far:
            toy_graph, delta = far_graph(toy_graph), far_delta(delta)
        _step_rejects_as_apply_delta(toy_graph, delta, error, variant)

    @pytest.mark.parametrize("step", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_positions_dropped_then_reused(self, toy_graph, variant, step):
        """New nodes, then a remove that fails: the node table, its order,
        the row list and the strength list are as they were, and the
        next delta's new nodes take the positions the rejected one dropped."""
        g = toy_graph
        nodes, rows, strength = g._nodes, g._rows, g._strength
        table = (list(g._pos.items()), list(nodes), [list(r.items()) for r in rows], list(strength))
        known = len(nodes)
        cmap = lap_cent(g, variant)
        bad = EdgeDelta(adds=[Edge(20, 21, 2.0), Edge(1, 22)], removes=[(1, 2), (21, 99)])
        with pytest.raises(MissingEdgeError):
            if step:
                lap_cent_add_remove(g, bad, cmap)
            else:
                apply_delta(g, bad)
        assert g._nodes is nodes and g._rows is rows and g._strength is strength
        assert (list(g._pos.items()), list(nodes), [list(r.items()) for r in rows], list(strength)) == table
        assert len(cmap.values) == known and 20 not in cmap.values
        later = EdgeDelta(adds=[Edge(1, 22), Edge(21, 20, 3.0)])
        if step:
            lap_cent_add_remove(g, later, cmap)
        else:
            apply_delta(g, later)
            cmap = lap_cent(g, variant)
        assert nodes[known:] == [22, 21, 20]
        assert [g._pos[x] for x in (22, 21, 20)] == [known, known + 1, known + 2]
        assert len(rows) == len(strength) == known + 3
        assert bits(cmap.values) == bits(lap_cent(Graph(TOY_EDGES + later.adds), variant).values)

    @pytest.mark.parametrize("delta", [EdgeDelta(adds=[Edge(3, 4)]), EdgeDelta()])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_variant_argument_refused(self, toy_graph, delta, variant):
        """The map carries its variant: a fourth argument is a TypeError,
        and the graph and the map are as they were."""
        cmap = lap_cent(toy_graph, variant)
        before = _state(toy_graph, cmap)
        with pytest.raises(TypeError):
            lap_cent_add_remove(toy_graph, delta, cmap, variant)
        assert _state(toy_graph, cmap) == before

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("delta, error", REJECTED_DELTAS)
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_fractional_step_unchanged(self, toy_graph, delta, error, variant, far):
        """The step rejects as apply_delta does on a graph with a fractional
        weight too, whose values are scaled by 2**(2E)."""
        apply_delta(toy_graph, EdgeDelta(adds=[Edge(6, 7, 0.5)]))
        assert toy_graph._shift == 1
        if far:
            toy_graph, delta = far_graph(toy_graph), far_delta(delta)
        _step_rejects_as_apply_delta(toy_graph, delta, error, variant)

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    @pytest.mark.parametrize(
        "delta, error",
        [
            (EdgeDelta(adds=[Edge(3, 2, 4.0), Edge(1, 9, 5e-324), Edge(9, 2, 0.75), Edge(4, 4)]),
             SelfLoopError),
            (EdgeDelta(adds=[Edge(1, 9, 5e-324), Edge(5, 6, 2.5)], removes=[(5, 6), (1, 6)]),
             MissingEdgeError),
            (EdgeDelta(adds=[Edge(3, 2, 4.0), Edge(1, 9, 5e-324), Edge(2, 3, 0.75), Edge(4, 4)]),
             SelfLoopError),
        ],
        ids=["self-loop", "absent-remove", "pair-rewritten-across-rescale"],
    )
    def test_rescale_undone(self, toy_graph, delta, error, variant, fractional):
        """A subnormal weight raises E to 1074, rescaling the rows, the
        strengths, s0 and the log, and a later change rejects the delta: E,
        rows in their order, strengths, the node table and the map are as
        they were. The undo takes each write's change off the strengths from
        the rescaled log, also for a pair written before and after the
        rescale."""
        if fractional:
            apply_delta(toy_graph, EdgeDelta(adds=[Edge(6, 7, 0.5)]))
        shift = toy_graph._shift
        rows = [list(r.items()) for r in toy_graph._rows]
        _step_rejects_as_apply_delta(toy_graph, delta, error, variant)
        assert toy_graph._shift == shift
        assert [list(r.items()) for r in toy_graph._rows] == rows
        assert 9 not in toy_graph._pos
        # the same delta without its fault is written at E = 1074
        adds = delta.adds[:-1] if error is SelfLoopError else delta.adds
        cmap = lap_cent(toy_graph, variant)
        lap_cent_add_remove(toy_graph, EdgeDelta(adds, delta.removes[:-1]), cmap)
        assert toy_graph._shift == 1074
        assert cmap.values._shift == (1074 if variant == "weighted" else None)
        assert bits(cmap.values) == bits(lap_cent(toy_graph, variant).values)

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_undo_restores_upsert_and_drops_new_node(self, toy_graph, variant, far):
        """An upsert of an existing edge and a new node, then a bad remove: the
        old weight goes back in place and the node leaves rows and node table."""
        delta = EdgeDelta(adds=[Edge(3, 2, 4.0), Edge(1, 9)], removes=[(1, 6)])
        if far:
            toy_graph, delta = far_graph(toy_graph), far_delta(delta)
        _step_rejects_as_apply_delta(toy_graph, delta, MissingEdgeError, variant)
        base = FAR if far else 0
        assert list(node_rows(toy_graph)[base + 2].items()) == [(base + 1, 1.0), (base + 3, 1.0)]
        assert base + 9 not in node_rows(toy_graph)
        assert base + 9 not in toy_graph._pos

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_undo_replays_repeated_writes(self, toy_graph, variant, far):
        """A new pair added and upserted twice, an existing pair upserted
        twice, then an absent remove: the undo replays the writes newest
        first, so each pair goes back to its weight before the delta, and
        rows in their order, typed strengths, the edge count, the node table,
        E and the map are as they were."""
        delta = EdgeDelta(
            adds=[Edge(4, 6, 2.0), Edge(6, 4, 3), Edge(4, 6, 5.0), Edge(2, 3, 4.0), Edge(3, 2, 7)],
            removes=[(5, 6), (1, 6)],
        )
        if far:
            toy_graph, delta = far_graph(toy_graph), far_delta(delta)
        _step_rejects_as_apply_delta(toy_graph, delta, MissingEdgeError, variant)
        # the state compared is the toy graph's, whose weights and strengths are ints
        assert toy_graph.num_edges == len(TOY_EDGES)
        assert all(type(s) is int for s in toy_graph._strength)


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
def test_negative_weight_warning_names_caller(variant):
    delta = EdgeDelta(adds=[Edge(1, 3, -1.0)])
    events = [(1, 2, 1.0, 0), (1, 3, -1.0, 0)]

    def stream(g):
        return SnapshotStream(g, [delta])

    calls = [
        lambda g: lap_cent_add_remove(g, delta, lap_cent(g, variant)),
        lambda g: run_evolving(g, [delta], "dynamic", variant),
        lambda g: run_evolving(g, [delta], "batch", variant),
        lambda g: apply_delta(g, delta),
        lambda g: bench_stream(stream(g), "dynamic", variant),
        lambda g: bench_stream(stream(g), "batch", variant),
        # compare applies each delta once, for both algorithms
        lambda g: bench_stream(stream(g), "compare", variant),
        lambda g: snapshots_cumulative(events, "daily"),
        lambda g: snapshots_window(events, "daily", 2),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(Graph([(1, 2)]))
        assert [w.category for w in caught] == [NegativeWeightWarning]
        assert caught[0].filename == __file__


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
def test_absent_remove_raises_one_message(variant):
    """A delta, the affected-set oracle and a step name an absent edge the same way."""
    delta = EdgeDelta(removes=[(1, 6)])
    calls = [
        lambda g: apply_delta(g, delta),
        lambda g: affected_nodes(g, delta),
        lambda g: lap_cent_add_remove(g, delta, lap_cent(g, variant)),
    ]
    messages = []
    for call in calls:
        with pytest.raises(MissingEdgeError) as raised:
            call(Graph(TOY_EDGES))
        messages.append(str(raised.value))
    assert messages == ["cannot remove absent edge (1, 6)"] * len(calls)


@pytest.mark.parametrize("weight", [2.0, 0.5], ids=["integral", "fractional"])
@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
def test_new_nodes_take_batch_key_order(variant, weight):
    """Nodes new to the graph enter the map in batch's order, at E = 0 and
    above it."""
    g = Graph([(1, 2, weight)])
    cmap = lap_cent(g, variant)
    delta = EdgeDelta(adds=[Edge(100, 1), Edge(50, 2), Edge(7, 300, 3.0), Edge(33, 2)])
    lap_cent_add_remove(g, delta, cmap)
    assert list(cmap.values) == list(lap_cent(g, variant).values)
    assert list(cmap.values) == [1, 2, 100, 50, 7, 300, 33]


class TestAddRemove:
    def test_toy_step(self, toy_graph):
        cmap = lap_cent(toy_graph, "unweighted")
        assert cmap.values == TOY_STEP1
        lap_cent_add_remove(toy_graph, EdgeDelta(adds=[Edge(4, 6)]), cmap)
        assert cmap.values == TOY_STEP2
        assert cmap.computed_count == 4
        assert toy_graph.has_edge(4, 6)

    def test_empty_delta_returns_prev_values(self, toy_graph):
        prev = lap_cent(toy_graph, "unweighted")
        values = dict(prev.values)
        cmap = lap_cent_add_remove(toy_graph, EdgeDelta(), prev)
        assert cmap.computed_count == 0
        assert cmap.values == values

    def test_in_place_updates_prev(self, toy_graph):
        prev = lap_cent(toy_graph, "unweighted")
        values = prev.values
        cmap = lap_cent_add_remove(toy_graph, EdgeDelta(adds=[Edge(4, 6)]), prev)
        assert cmap is prev
        assert prev.values is values
        assert prev.values == TOY_STEP2

    def test_random_delta_matches_batch(self):
        rng = random.Random(17)
        g = random_graph(rng, 50, 120)
        cmap = lap_cent(g, "unweighted")
        delta = random_delta(rng, g)
        lap_cent_add_remove(g, delta, cmap)
        assert cmap.values == lap_cent(g, "unweighted").values
        assert cmap.computed_count <= g.num_nodes

    def test_new_nodes_get_entries(self):
        g = Graph([(1, 2)])
        cmap = lap_cent(g, "unweighted")
        lap_cent_add_remove(g, EdgeDelta(adds=[Edge(8, 9)]), cmap)
        assert cmap.values[8] == 4
        assert cmap.values[9] == 4

    def test_isolated_nodes_keep_zero_entries(self):
        g = Graph([(1, 2), (2, 3)])
        cmap = lap_cent(g, "unweighted")
        lap_cent_add_remove(g, EdgeDelta(removes=[(1, 2), (2, 3)]), cmap)
        assert cmap.values == {1: 0, 2: 0, 3: 0}


# hub 0 joined to 1..6, a path 6-7-8 and a pendant 8-9
HUB_EDGES = [(0, j) for j in range(1, 7)] + [(6, 7), (7, 8), (8, 9)]

# each case is a sequence of deltas walked over a fresh hub graph
PAIR_TERM_CASES = {
    "upsert of an existing edge": [EdgeDelta(adds=[Edge(0, 1, 4.0)]), EdgeDelta(adds=[Edge(1, 0)])],
    "same new pair added and removed": [EdgeDelta(adds=[Edge(1, 2)], removes=[(2, 1)])],
    "existing pair in both lists": [EdgeDelta(adds=[Edge(7, 6)], removes=[(6, 7)])],
    "new node added and removed": [
        EdgeDelta(adds=[Edge(0, 50)], removes=[(50, 0)]),
        EdgeDelta(adds=[Edge(50, 51)]),
    ],
    "hub loses one edge and gains another": [
        EdgeDelta(adds=[Edge(0, 8)], removes=[(0, 3)]),
        EdgeDelta(adds=[Edge(9, 0)], removes=[(0, 8)]),
    ],
    "duplicate adds in both orders": [
        EdgeDelta(adds=[Edge(2, 9), Edge(9, 2)]),
        EdgeDelta(adds=[Edge(3, 40), Edge(40, 3), Edge(3, 40)]),
    ],
}


class TestUnweightedPropagation:
    def test_no_kernel_call(self, monkeypatch):
        """The step brings every value up to date by difference, no kernel run."""
        rng = random.Random(5)
        g = random_graph(rng, 60, 150)
        cmap = lap_cent(g, "unweighted")
        delta = random_delta(rng, g, isolate_prob=1.0)
        sets = affected_nodes(g.copy(), delta)
        assert sets.touched != sets.recompute
        calls = []

        def recording(adj, nodes):
            calls.append(set(nodes))
            return {}

        monkeypatch.setattr(kernels, "unweighted_values", recording)
        lap_cent_add_remove(g, delta, cmap)
        monkeypatch.undo()
        assert calls == []
        assert cmap.computed_count == len(sets.recompute)
        assert cmap.values == lap_cent(g, "unweighted").values

    @pytest.mark.parametrize("deltas", PAIR_TERM_CASES.values(), ids=PAIR_TERM_CASES.keys())
    def test_pair_terms_equal_batch(self, deltas):
        g = Graph(HUB_EDGES)
        cmap = lap_cent(g, "unweighted")
        for delta in deltas:
            sets = affected_nodes(g.copy(), delta)
            lap_cent_add_remove(g, delta, cmap)
            full = lap_cent(g, "unweighted").values
            assert cmap.values.keys() == full.keys()
            assert cmap.values == full
            assert all(type(v) is int for v in cmap.values.values())
            assert cmap.computed_count == len(sets.recompute)


WEIGHTED_HUB_EDGES = [(0, j, float(j)) for j in range(1, 7)] + [
    (6, 7, -2.0),
    (7, 8, 0.0),
    (8, 9, 3.0),
]

# each case is a sequence of deltas walked over a fresh weighted hub graph
WEIGHTED_PAIR_TERM_CASES = {
    "upsert to the same weight": [
        EdgeDelta(adds=[Edge(0, 2, 2.0)]),
        EdgeDelta(adds=[Edge(9, 8, 3.0)]),
    ],
    "upsert to a new weight": [
        EdgeDelta(adds=[Edge(0, 1, 4.0)]),
        EdgeDelta(adds=[Edge(1, 0, -3.0), Edge(8, 7, 5.0)]),
        EdgeDelta(adds=[Edge(6, 7, -0.0)]),
    ],
    "same new pair added and removed": [EdgeDelta(adds=[Edge(1, 2, 7.0)], removes=[(2, 1)])],
    "existing pair in both lists": [
        EdgeDelta(adds=[Edge(7, 6, 9.0)], removes=[(6, 7)]),
        EdgeDelta(adds=[Edge(0, 3, 3.0)], removes=[(3, 0)]),
    ],
    "new node added and removed": [
        EdgeDelta(adds=[Edge(0, 50, 6.0)], removes=[(50, 0)]),
        EdgeDelta(adds=[Edge(50, 51, 2.0)]),
    ],
    "duplicate adds with different weights": [
        EdgeDelta(adds=[Edge(2, 9, 1.0), Edge(9, 2, 4.0)]),
        EdgeDelta(adds=[Edge(3, 40, 2.0), Edge(40, 3, 0.0), Edge(3, 40, -5.0)]),
    ],
}


@pytest.fixture
def weighted_kernel_calls(monkeypatch):
    """The node sets the weighted kernel is called on, recorded in order."""
    calls = []
    real = kernels.weighted_values

    def recording(adj, strength, nodes):
        calls.append(set(nodes))
        return real(adj, strength, nodes)

    monkeypatch.setattr(kernels, "weighted_values", recording)
    return calls


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
class TestWeightedPropagation:
    """Integral weights: the weighted step adds the closed-form difference
    and runs no kernel, bitwise equal to batch."""

    @pytest.mark.parametrize(
        "deltas", WEIGHTED_PAIR_TERM_CASES.values(), ids=WEIGHTED_PAIR_TERM_CASES.keys()
    )
    def test_pair_terms_equal_batch(self, deltas, weighted_kernel_calls):
        g = Graph(WEIGHTED_HUB_EDGES)
        cmap = lap_cent(g, "weighted")
        for delta in deltas:
            sets = affected_nodes(g.copy(), delta)
            weighted_kernel_calls.clear()
            lap_cent_add_remove(g, delta, cmap)
            assert weighted_kernel_calls == []
            assert g._shift == 0
            full = lap_cent(g, "weighted").values
            assert cmap.values.keys() == full.keys()
            assert bits(cmap.values) == bits(full)
            assert all(type(v) is int for v in cmap.values.values())
            assert cmap.computed_count == len(sets.recompute)

    @pytest.mark.parametrize("weight, shift", [(0.5, 1), (0.1, 55), (5e-324, 1074)])
    def test_fractional_weight_runs_no_kernel(self, weighted_kernel_calls, weight, shift):
        """A delta that raises E: the step shifts the live values by 2 * delta_E
        and then adds the difference, bitwise equal to batch."""
        g = Graph(WEIGHTED_HUB_EDGES)
        cmap = lap_cent(g, "weighted")
        values = cmap.values._values
        delta = EdgeDelta(adds=[Edge(6, 9, weight)], removes=[(0, 1)])
        sets = affected_nodes(g.copy(), delta)
        weighted_kernel_calls.clear()
        lap_cent_add_remove(g, delta, cmap)
        assert weighted_kernel_calls == []
        assert g._shift == cmap.values._shift == shift
        assert cmap.values._values is values
        assert bits(cmap.values) == bits(lap_cent(g, "weighted").values)
        assert all(type(x) is float for x in cmap.values.values())
        assert cmap.computed_count == len(sets.recompute)


class TestWeightedAddRemove:
    def test_unit_weights_match_unweighted(self, toy_graph):
        unit = Graph((u, v, 1.0) for u, v, _ in toy_graph.edges())
        cmap = lap_cent(unit, "weighted")
        lap_cent_add_remove(unit, EdgeDelta(adds=[Edge(4, 6, 1.0)]), cmap)
        assert cmap.values == {v: float(x) for v, x in TOY_STEP2.items()}
        assert cmap.computed_count == 4

    def test_the_map_carries_its_variant(self):
        """A weighted map steps as weighted, with no variant to pass."""
        g = Graph([(1, 2, 3.0), (2, 3, 5.0)])
        cmap = lap_cent(g, "weighted")
        lap_cent_add_remove(g, EdgeDelta(adds=[(3, 4, 2.0)]), cmap)
        assert cmap.values == {1: 66, 2: 186, 3: 166, 4: 36}
        assert bits(cmap.values) == bits(lap_cent(g, "weighted").values)

    def test_star_to_triangle(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        delta = EdgeDelta(adds=[Edge(1, 2, 1.0)])
        lap_cent_add_remove(weighted_star, delta, cmap)
        assert cmap.values == lap_cent(weighted_star, "weighted").values

    def test_weight_upsert_recomputes_neighborhood(self):
        g = Graph([(0, 1, 2.0), (1, 2, 1.0)])
        cmap = lap_cent(g, "weighted")
        lap_cent_add_remove(g, EdgeDelta(adds=[Edge(0, 1, 5.0)]), cmap)
        assert cmap.values == lap_cent(g, "weighted").values
        assert cmap.computed_count == 3  # 0, 1 and 1's neighbor 2

    def test_weighted_removal(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        lap_cent_add_remove(weighted_star, EdgeDelta(removes=[(0, 1)]), cmap)
        # remaining graph: 0-2 with weight 3, node 1 isolated
        assert cmap.values == {0: 36.0, 1: 0.0, 2: 36.0}
        assert cmap.computed_count == 3
        assert cmap.values == lap_cent(weighted_star, "weighted").values

    def test_empty_delta(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        values = dict(cmap.values)
        lap_cent_add_remove(weighted_star, EdgeDelta(), cmap)
        assert cmap.computed_count == 0
        assert cmap.values == values


# deltas over the toy graph that bring in new nodes, out of id order, at E = 0
# and above it (the 0.5 weight raises the graph's scale E to 1)
GROWING_DELTAS = [
    EdgeDelta(adds=[Edge(100, 1), Edge(50, 2, 2.0)]),
    EdgeDelta(adds=[Edge(7, 300, 3.0)], removes=[(1, 2)]),
    EdgeDelta(adds=[Edge(33, 2, 0.5)]),
    EdgeDelta(removes=[(2, 50)]),
    EdgeDelta(),
]


class TestRunEvolving:
    def test_toy_dynamic_work(self, toy_graph):
        results = run_evolving(toy_graph, [EdgeDelta(adds=[Edge(4, 6)])], mode="dynamic")
        assert [r.computed_count for r in results] == [7, 4]
        assert sum(r.computed_count for r in results) == 11
        assert results[0].values == TOY_STEP1
        assert results[1].values == TOY_STEP2

    def test_toy_batch_work(self, toy_graph):
        results = run_evolving(toy_graph, [EdgeDelta(adds=[Edge(4, 6)])], mode="batch")
        assert [r.computed_count for r in results] == [7, 7]
        assert sum(r.computed_count for r in results) == 14

    def test_dynamic_history_survives(self, toy_graph):
        deltas = [EdgeDelta(adds=[Edge(4, 6)]), EdgeDelta(removes=[(4, 6)])]
        results = run_evolving(toy_graph, deltas, mode="dynamic")
        assert [r.values for r in results] == [TOY_STEP1, TOY_STEP2, TOY_STEP1]
        assert [r.computed_count for r in results] == [7, 4, 4]

    def test_zero_deltas(self, toy_graph):
        results = run_evolving(toy_graph, [], mode="dynamic")
        assert len(results) == 1
        assert results[0].values == TOY_STEP1

    def test_bad_delta_aborts_with_step(self, toy_graph):
        deltas = [EdgeDelta(adds=[Edge(4, 6)]), EdgeDelta(removes=[(1, 5)])]
        with pytest.raises(DeltaError) as err:
            run_evolving(toy_graph, deltas, mode="dynamic")
        assert err.value.step == 2

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_huge_int_weight_aborts_with_step(self, toy_graph, mode, variant):
        deltas = [
            EdgeDelta(adds=[Edge(4, 6, 2)]),
            EdgeDelta(adds=[Edge(1, 8), Edge(8, 9, 10**400)]),
        ]
        with pytest.raises(DeltaError) as err:
            run_evolving(toy_graph, deltas, mode, variant)
        assert err.value.step == 2
        assert isinstance(err.value.cause, NonFiniteWeightError)
        assert "(8, 9)" in str(err.value)
        assert 8 not in node_rows(toy_graph)

    def test_unknown_mode(self, toy_graph):
        with pytest.raises(ValueError):
            run_evolving(toy_graph, [], mode="incremental")

    def test_determinism(self):
        rng = random.Random(31)
        g = random_graph(rng, 30, 60)
        deltas = []
        sim = g.copy()
        for _ in range(10):
            d = random_delta(rng, sim)
            deltas.append(d)
            apply_delta(sim, d)
        a = run_evolving(g.copy(), deltas, mode="dynamic")
        b = run_evolving(g.copy(), deltas, mode="dynamic")
        assert [r.values for r in a] == [r.values for r in b]
        assert [r.computed_count for r in a] == [r.computed_count for r in b]

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_values_in_graph_node_order(self, variant):
        dynamic = run_evolving(Graph(TOY_EDGES), GROWING_DELTAS, "dynamic", variant)
        batch = run_evolving(Graph(TOY_EDGES), GROWING_DELTAS, "batch", variant)
        sim = Graph(TOY_EDGES)
        for k in range(len(GROWING_DELTAS) + 1):
            if k:
                apply_delta(sim, GROWING_DELTAS[k - 1])
            assert list(dynamic[k].values) == list(batch[k].values) == list(sim._nodes)
            assert list(dynamic[k].values.items()) == list(batch[k].values.items())

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    def test_kept_maps_read_the_rounded_values(self, mode):
        """A kept map of a fractional graph (E > 0) reads its step's correctly
        rounded floats, as a batch map of that step's graph reads them."""
        deltas = [EdgeDelta(adds=[(4, 6, 0.1)]), EdgeDelta(adds=[(1, 8, 2.5)]), EdgeDelta(removes=[(4, 6)])]
        maps = run_evolving(Graph(TOY_EDGES), deltas, mode, "weighted")
        sim = Graph(TOY_EDGES)
        for cmap, delta in zip(maps[1:], deltas):
            apply_delta(sim, delta)
            assert list(bits(cmap.values).items()) == list(bits(lap_cent(sim, "weighted").values).items())
        assert any(isinstance(x, float) for x in maps[-1].values.values())

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_node_added_later_is_absent_before(self, mode, variant):
        deltas = [EdgeDelta(adds=[Edge(4, 6)]), EdgeDelta(adds=[Edge(1, 8)])]
        maps = run_evolving(Graph(TOY_EDGES), deltas, mode, variant)
        before, after = maps[1].values, maps[2].values
        assert 8 not in before
        with pytest.raises(KeyError):
            before[8]
        assert before.get(8) is None
        assert len(before) == 7
        assert 8 in after
        assert len(after) == 8
        assert after == lap_cent(Graph(TOY_EDGES + [(4, 6), (1, 8)]), variant).values

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_kept_maps_are_read_only(self, mode, variant):
        for cmap in run_evolving(Graph(TOY_EDGES), GROWING_DELTAS, mode, variant):
            with pytest.raises(TypeError):
                cmap.values[1] = 0
            with pytest.raises(TypeError):
                cmap.values[999] = 0
            assert 999 not in cmap.values

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_step_rejects_a_kept_map(self, mode, variant):
        """Stepping a kept map raises before the graph or the map changes."""
        g = Graph([(1, 2), (2, 3)])
        kept = run_evolving(g, [], mode, variant)[0]
        before = _state(g, kept)
        with pytest.raises(TypeError, match="read-only"):
            lap_cent_add_remove(g, EdgeDelta(adds=[(3, 4, 1.0), (1, 3, 2.0)]), kept)
        assert _state(g, kept) == before

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_step_rejects_a_normalized_map(self, variant):
        """A normalized map's values are a tuple: stepping it raises before
        the graph or the map changes."""
        g = Graph([(1, 2), (2, 3)])
        normalized = normalize(lap_cent(g, variant), g)
        before = _state(g, normalized)
        with pytest.raises(TypeError, match="normalized map is read-only"):
            lap_cent_add_remove(g, EdgeDelta(adds=[(3, 4, 1.0)]), normalized)
        assert _state(g, normalized) == before

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_step_rejects_a_map_of_another_graph(self, variant):
        """A live map of a copy reads positions through the copy's node table,
        which the step would not grow: it raises before anything changes."""
        g = Graph([(1, 2), (2, 3)])
        other = lap_cent(g.copy(), variant)
        before = _state(g, other)
        with pytest.raises(TypeError, match="not a live map of g"):
            lap_cent_add_remove(g, EdgeDelta(adds=[(3, 4, 1.0)]), other)
        assert _state(g, other) == before

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_step_rejects_a_map_that_missed_a_delta(self, variant):
        """A live map shares the node table of every state of its graph, but
        it holds one state: stepped past a delta it missed, it would give
        {1: 14, 2: 12, 3: 8, 4: 8} where batch gives 14 for every node. It
        raises before anything changes, and a map of the current state steps."""
        g = Graph([(1, 2), (2, 3)])
        stale = lap_cent(g, variant)
        apply_delta(g, EdgeDelta(adds=[(3, 4)]))
        delta = EdgeDelta(adds=[(1, 4)])
        before = _state(g, stale)
        with pytest.raises(TypeError, match="not a live map of g as it is now"):
            lap_cent_add_remove(g, delta, stale)
        assert _state(g, stale) == before
        live = lap_cent_add_remove(g, delta, lap_cent(g, variant))
        assert live.values == lap_cent(g, variant).values == {1: 14, 2: 14, 3: 14, 4: 14}

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_kept_map_normalizes_against_its_own_step(self, mode, variant):
        """Read during an evolve run, each step's kept map normalizes against
        the graph as that step left it, as a batch map of a copy does; the
        kept map of the step before is refused, before any value is read."""
        g = Graph([(1, 2), (2, 3)])
        deltas = [EdgeDelta(adds=[(3, 4, 2.0)]), EdgeDelta(adds=[(1, 3)], removes=[(1, 2)])]
        previous = None
        for cmap, _ in evolve(g, deltas, mode, variant):
            kept = CentralityMap(cmap.values.copy(), cmap.computed_count)
            h = g.copy()
            assert normalize(kept, g).values == normalize(lap_cent(h, variant), h).values
            if previous is not None:
                state = graph_state(g)
                with pytest.raises(TypeError, match="not a map of g as it is now"):
                    normalize(previous, g)
                assert graph_state(g) == state
            previous = kept

    @pytest.mark.parametrize("mode", ["dynamic", "batch"])
    def test_kept_map_of_step_0_is_refused_at_step_1(self, mode):
        """normalize(run_evolving(...)[0], g) once gave step 0's values over
        the final energy, {1: 0.2308, 2: 0.3846, 3: 0.2308}, where step 0's
        own graph gives {1: 0.6, 2: 1.0, 3: 0.6}."""
        g = Graph([(1, 2), (2, 3)])
        own = normalize(lap_cent(g, "unweighted"), g).values
        assert own == {1: 0.6, 2: 1.0, 3: 0.6}
        maps = run_evolving(g, [EdgeDelta(adds=[(3, 4), (1, 3)])], mode)
        kept = maps[0]
        state, values = graph_state(g), list(kept.values.items())
        with pytest.raises(TypeError, match="not a map of g as it is now"):
            normalize(kept, g)
        assert graph_state(g) == state and list(kept.values.items()) == values
        assert normalize(maps[-1], g).values == normalize(lap_cent(g, "unweighted"), g).values

    def test_dynamic_history_memory(self):
        """The kept history costs under 16 bytes per node per step; a whole
        dict copy per step costs about 32."""
        stream = churn_stream(5000, 4, 30, 5, 5, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            maps = run_evolving(stream.initial, stream.deltas, "dynamic")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / sum(len(m.values) for m in maps) < 16


def _random_run(seed, variant, steps=12, far=False):
    """Random evolving run returning per-step (dynamic, batch, delta, pre-graph);
    with ``far`` its node ids are moved out of the small-int cache."""
    rng = random.Random(seed)
    integer = seed % 2 == 0
    g = random_graph(rng, rng.randint(6, 60), rng.randint(4, 120), integer)
    deltas = []
    sim = g.copy()
    for _ in range(steps):
        d = random_delta(rng, sim, integer_weights=integer)
        deltas.append(d)
        apply_delta(sim, d)
    if far:
        g, deltas = far_graph(g), [far_delta(d) for d in deltas]
    dynamic = run_evolving(g.copy(), deltas, mode="dynamic", variant=variant)
    batch = run_evolving(g.copy(), deltas, mode="batch", variant=variant)
    return g, deltas, dynamic, batch, integer


# deltas walked in order over the toy graph, one edge case each
EDGE_CASE_DELTAS = [
    EdgeDelta(adds=[Edge(1, 2, 3.0)]),  # upsert of an existing edge: no degree change
    EdgeDelta(adds=[Edge(1, 6)], removes=[(1, 6)]),  # added and removed in one delta
    EdgeDelta(adds=[Edge(5, 3, 2.0)], removes=[(3, 5)]),  # existing edge upserted, then removed
    EdgeDelta(adds=[Edge(5, 99, 2.0)]),  # edge to a brand-new node
    EdgeDelta(removes=[(1, 2)]),  # isolates node 1
    EdgeDelta(adds=[Edge(1, 99)], removes=[(4, 7), (5, 7)]),  # reconnects 1, isolates 7
]


def _dict_history(seed, weighted, steps=10):
    """A random history whose ids arrive in no sorted order, some at later
    steps, and the maps a dict-keyed reference gives at each step.

    Returns ``(initial edges, deltas, reference maps)``. The reference keeps
    its own node-keyed rows, in insertion order, so its maps are plain
    ``dict``s in order of first mention, with the closed form's value types:
    ints for both variants, as the graph stores integral weights as ints.
    """
    rng = random.Random(seed)
    ids = rng.sample(range(FAR, FAR + 500), 80)
    pool = ids[:12]
    fresh = iter(ids[12:])
    adj: dict[int, dict[int, float]] = {}

    def weight():
        return float(rng.randint(1, 4)) if weighted else 1.0

    def add(u, v, w):
        adj.setdefault(u, {})[v] = int(w)
        adj.setdefault(v, {})[u] = int(w)

    def reference():
        if not weighted:
            return {u: len(r) ** 2 + len(r) + 2 * sum(len(adj[j]) for j in r) for u, r in adj.items()}
        s = {u: sum(r.values()) for u, r in adj.items()}
        return {u: s[u] * s[u] + sum(w * (w + 2 * s[j]) for j, w in r.items()) for u, r in adj.items()}

    initial = [(*rng.sample(pool, 2), weight()) for _ in range(20)]
    for u, v, w in initial:
        add(u, v, w)
    maps = [reference()]
    deltas = []
    for _ in range(steps):
        pool += [next(fresh) for _ in range(rng.randint(0, 4))]
        adds = [(*rng.sample(pool, 2), weight()) for _ in range(rng.randint(1, 6))]
        for u, v, w in adds:
            add(u, v, w)
        pairs = {(u, v) for u, row in adj.items() for v in row if u < v}
        removes = rng.sample(sorted(pairs), min(len(pairs), rng.randint(0, 4)))
        for u, v in removes:
            del adj[u][v], adj[v][u]
        deltas.append(EdgeDelta(adds=adds, removes=removes))
        maps.append(reference())
    return initial, deltas, maps


class TestValuesActAsDict:
    """Every map's values, live or kept, behave as the node-keyed ``dict`` of
    the same step: key order, ``len``, ``in``, ``get``, value types, ``==``
    both ways and the written dump."""

    @staticmethod
    def _check(values, want, later):
        assert list(values) == list(want)
        assert len(values) == len(want)
        assert all(v in values for v in want)
        assert [type(values[v]) for v in want] == [type(x) for x in want.values()]
        assert [values.get(v) for v in want] == list(want.values())
        missing = object()
        for v in [*later, -1, "1", 2.5]:
            assert v not in values
            assert values.get(v, missing) is missing
        assert values == want and want == values
        assert not (values != want or want != values)
        got, ref = io.StringIO(), io.StringIO()
        write_centralities(CentralityMap(values, len(values)), got)
        for v in sorted(want):
            ref.write(f"{v},{want[v]:.12g}\n")
        assert got.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_live_and_kept_maps(self, seed, variant):
        initial, deltas, want = _dict_history(seed, variant == "weighted")
        every = set(want[-1])
        g = Graph(initial)
        live = lap_cent(g, variant)
        self._check(live.values, want[0], every - set(want[0]))
        for k, delta in enumerate(deltas, start=1):
            lap_cent_add_remove(g, delta, live)
            self._check(live.values, want[k], every - set(want[k]))
        for mode in ("dynamic", "batch"):
            kept = run_evolving(Graph(initial), deltas, mode, variant)
            for k, cmap in enumerate(kept):
                self._check(cmap.values, want[k], every - set(want[k]))


class TestOracleEquivalence:
    """Dynamic maps must equal full batch recomputation at every step."""

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", range(10))
    def test_dynamic_equals_batch(self, seed, variant, far):
        _, _, dynamic, batch, _ = _random_run(seed, variant, far=far)
        for dyn, full in zip(dynamic, batch):
            assert bits(dyn.values) == bits(full.values)

    @pytest.mark.parametrize("seed", range(6))
    def test_work_bound(self, seed):
        g, deltas, dynamic, _, _ = _random_run(seed, "unweighted")
        sim = g.copy()
        for step, delta in enumerate(deltas, start=1):
            union = sim.copy()
            apply_delta(union, EdgeDelta(adds=delta.adds))
            m_prime = delta.num_changes
            max_degree = max(map(len, node_rows(union).values()))
            bound = min(union.num_nodes, 2 * m_prime + 2 * m_prime * max_degree)
            assert dynamic[step].computed_count <= bound
            apply_delta(sim, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_untouched_nodes_unchanged(self, seed):
        """Nodes outside the recompute set keep their exact previous value."""
        g, deltas, dynamic, _, _ = _random_run(seed, "unweighted")
        sim = g.copy()
        for step, delta in enumerate(deltas, start=1):
            sets = affected_nodes(sim.copy(), delta)
            for v in dynamic[step - 1].values.keys() - sets.recompute:
                assert dynamic[step].values[v] == dynamic[step - 1].values[v]
            apply_delta(sim, delta)

    @pytest.mark.parametrize("keep_history", [False, True])
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_edge_cases_equal_batch(self, toy_graph, variant, keep_history):
        """Each step equals batch; a copy taken before a step keeps that step."""
        cmap = lap_cent(toy_graph, variant)
        history = []
        for delta in EDGE_CASE_DELTAS:
            if keep_history:
                history.append(CentralityMap(dict(cmap.values), cmap.computed_count))
            sets = affected_nodes(toy_graph.copy(), delta)
            assert lap_cent_add_remove(toy_graph, delta, cmap) is cmap
            assert cmap.values == lap_cent(toy_graph, variant).values
            assert cmap.computed_count == len(sets.recompute)
        if keep_history:
            replay = run_evolving(Graph(TOY_EDGES), EDGE_CASE_DELTAS[:-1], "batch", variant)
            assert [m.values for m in history] == [m.values for m in replay]
