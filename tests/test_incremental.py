import random
import warnings

import pytest

from conftest import TOY_EDGES, TOY_STEP1, TOY_STEP2
from genutil import bits, random_delta, random_graph

from lapstream import kernels
from lapstream.centrality import CentralityMap, lap_cent
from lapstream.errors import (
    DeltaError,
    DuplicateEdgeError,
    MissingEdgeError,
    NegativeWeightWarning,
    NonFiniteWeightError,
    SelfLoopError,
)
from lapstream.graph import Edge, Graph
from lapstream.incremental import (
    AffectedSets,
    EdgeDelta,
    affected_nodes,
    apply_delta,
    lap_cent_add_remove,
    run_evolving,
)


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
        assert toy_graph == before
        # both endpoints and their union-graph neighbors still recomputed
        assert {1, 6} <= sets.recompute

    def test_touched_subset_of_recompute_random(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 40), rng.randint(3, 80))
            work = g.copy()
            sets = affected_nodes(work, random_delta(rng, g))
            assert sets.touched <= sets.recompute
            assert sets.recompute <= set(work.nodes())


# each delta is rejected only by a change listed after one that would apply
REJECTED_DELTAS = [
    (EdgeDelta(adds=[Edge(1, 9)], removes=[(1, 6)]), MissingEdgeError),
    (EdgeDelta(removes=[(1, 2), (2, 1)]), MissingEdgeError),
    (EdgeDelta(removes=[(4, 7), (4, 7)]), MissingEdgeError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(3, 3)]), SelfLoopError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 8, float("nan"))]), NonFiniteWeightError),
    (EdgeDelta(adds=[Edge(1, 9), Edge(2, 8, float("inf"))], removes=[(1, 2)]),
     NonFiniteWeightError),
]


class TestRejectedDelta:
    """A rejected delta leaves the graph, and the map the step updates, as they were."""

    @pytest.mark.parametrize("delta, error", REJECTED_DELTAS)
    @pytest.mark.parametrize("apply", [apply_delta, affected_nodes])
    def test_graph_unchanged(self, toy_graph, delta, error, apply):
        before = toy_graph.copy()
        with pytest.raises(error):
            apply(toy_graph, delta)
        assert toy_graph == before
        assert toy_graph.strengths() == before.strengths()
        assert toy_graph.num_edges == before.num_edges

    @pytest.mark.parametrize("delta, error", REJECTED_DELTAS)
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_in_place_step_unchanged(self, toy_graph, delta, error, variant):
        before = toy_graph.copy()
        prev = lap_cent(toy_graph, variant)
        values = dict(prev.values)
        with pytest.raises(error):
            lap_cent_add_remove(toy_graph, delta, prev, variant)
        assert toy_graph == before
        assert prev.values == values
        assert prev.computed_count == toy_graph.num_nodes

    @pytest.mark.parametrize("delta", [EdgeDelta(adds=[Edge(3, 4)]), EdgeDelta()])
    @pytest.mark.parametrize("variant", ["Weighted", "bogus"])
    def test_unknown_variant_step_unchanged(self, toy_graph, delta, variant):
        before = toy_graph.copy()
        prev = lap_cent(toy_graph, "weighted")
        values = dict(prev.values)
        with pytest.raises(ValueError, match="unknown variant"):
            lap_cent_add_remove(toy_graph, delta, prev, variant)
        assert toy_graph == before
        assert toy_graph.strengths() == before.strengths()
        assert prev.values == values
        assert prev.computed_count == toy_graph.num_nodes

    def test_strict_duplicate_add(self, toy_graph):
        toy_graph.strict = True
        before = toy_graph.copy()
        for delta in (
            EdgeDelta(adds=[Edge(1, 9), Edge(2, 1)]),
            EdgeDelta(adds=[Edge(1, 9), Edge(9, 1)]),
        ):
            with pytest.raises(DuplicateEdgeError):
                apply_delta(toy_graph, delta)
            assert toy_graph == before


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
def test_negative_weight_warning_names_caller(variant):
    delta = EdgeDelta(adds=[Edge(1, 3, -1.0)])
    calls = [
        lambda g: lap_cent_add_remove(g, delta, lap_cent(g, variant), variant),
        lambda g: run_evolving(g, [delta], "dynamic", variant),
        lambda g: run_evolving(g, [delta], "batch", variant),
        lambda g: apply_delta(g, delta),
        lambda g: affected_nodes(g, delta),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(Graph([(1, 2)]))
        assert [w.category for w in caught] == [NegativeWeightWarning]
        assert caught[0].filename == __file__


class TestAddRemove:
    def test_toy_step(self, toy_graph):
        cmap = lap_cent(toy_graph, "unweighted")
        assert cmap.values == TOY_STEP1
        lap_cent_add_remove(toy_graph, EdgeDelta(adds=[Edge(4, 6)]), cmap, "unweighted")
        assert cmap.values == TOY_STEP2
        assert cmap.computed_count == 4
        assert toy_graph.has_edge(4, 6)

    def test_empty_delta_returns_prev_values(self, toy_graph):
        prev = lap_cent(toy_graph, "unweighted")
        values = dict(prev.values)
        cmap = lap_cent_add_remove(toy_graph, EdgeDelta(), prev, "unweighted")
        assert cmap.computed_count == 0
        assert cmap.values == values

    def test_in_place_updates_prev(self, toy_graph):
        prev = lap_cent(toy_graph, "unweighted")
        values = prev.values
        cmap = lap_cent_add_remove(toy_graph, EdgeDelta(adds=[Edge(4, 6)]), prev, "unweighted")
        assert cmap is prev
        assert prev.values is values
        assert prev.values == TOY_STEP2

    def test_random_delta_matches_batch(self):
        rng = random.Random(17)
        g = random_graph(rng, 50, 120)
        cmap = lap_cent(g, "unweighted")
        delta = random_delta(rng, g)
        lap_cent_add_remove(g, delta, cmap, "unweighted")
        assert cmap.values == lap_cent(g, "unweighted").values
        assert cmap.computed_count <= g.num_nodes

    def test_new_nodes_get_entries(self):
        g = Graph([(1, 2)])
        cmap = lap_cent(g, "unweighted")
        lap_cent_add_remove(g, EdgeDelta(adds=[Edge(8, 9)]), cmap, "unweighted")
        assert cmap.values[8] == 4
        assert cmap.values[9] == 4

    def test_isolated_nodes_keep_zero_entries(self):
        g = Graph([(1, 2), (2, 3)])
        cmap = lap_cent(g, "unweighted")
        lap_cent_add_remove(g, EdgeDelta(removes=[(1, 2), (2, 3)]), cmap, "unweighted")
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
        lap_cent_add_remove(g, delta, cmap, "unweighted")
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
            lap_cent_add_remove(g, delta, cmap, "unweighted")
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
            lap_cent_add_remove(g, delta, cmap, "weighted")
            assert weighted_kernel_calls == []
            assert not g._inexact
            full = lap_cent(g, "weighted").values
            assert cmap.values.keys() == full.keys()
            assert bits(cmap.values) == bits(full)
            assert all(type(v) is float for v in cmap.values.values())
            assert cmap.computed_count == len(sets.recompute)

    def test_fractional_weight_runs_kernel_on_recompute(self, weighted_kernel_calls):
        g = Graph(WEIGHTED_HUB_EDGES)
        cmap = lap_cent(g, "weighted")
        delta = EdgeDelta(adds=[Edge(6, 9, 0.5)], removes=[(0, 1)])
        sets = affected_nodes(g.copy(), delta)
        weighted_kernel_calls.clear()
        lap_cent_add_remove(g, delta, cmap, "weighted")
        assert weighted_kernel_calls == [sets.recompute]
        assert g._inexact
        assert bits(cmap.values) == bits(lap_cent(g, "weighted").values)
        assert cmap.computed_count == len(sets.recompute)


class TestWeightedAddRemove:
    def test_unit_weights_match_unweighted(self, toy_graph):
        unit = Graph()
        for e in toy_graph.edges():
            unit.add_edge(e.u, e.v, 1.0)
        cmap = lap_cent(unit, "weighted")
        lap_cent_add_remove(unit, EdgeDelta(adds=[Edge(4, 6, 1.0)]), cmap, "weighted")
        assert cmap.values == {v: float(x) for v, x in TOY_STEP2.items()}
        assert cmap.computed_count == 4

    def test_star_to_triangle(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        delta = EdgeDelta(adds=[Edge(1, 2, 1.0)])
        lap_cent_add_remove(weighted_star, delta, cmap, "weighted")
        assert cmap.values == lap_cent(weighted_star, "weighted").values

    def test_weight_upsert_recomputes_neighborhood(self):
        g = Graph()
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 1.0)
        cmap = lap_cent(g, "weighted")
        lap_cent_add_remove(g, EdgeDelta(adds=[Edge(0, 1, 5.0)]), cmap, "weighted")
        assert cmap.values == lap_cent(g, "weighted").values
        assert cmap.computed_count == 3  # 0, 1 and 1's neighbor 2

    def test_weighted_removal(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        lap_cent_add_remove(weighted_star, EdgeDelta(removes=[(0, 1)]), cmap, "weighted")
        # remaining graph: 0-2 with weight 3, node 1 isolated
        assert cmap.values == {0: 36.0, 1: 0.0, 2: 36.0}
        assert cmap.computed_count == 3
        assert cmap.values == lap_cent(weighted_star, "weighted").values

    def test_empty_delta(self, weighted_star):
        cmap = lap_cent(weighted_star, "weighted")
        values = dict(cmap.values)
        lap_cent_add_remove(weighted_star, EdgeDelta(), cmap, "weighted")
        assert cmap.computed_count == 0
        assert cmap.values == values


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


def _random_run(seed, variant, steps=12):
    """Random evolving run returning per-step (dynamic, batch, delta, pre-graph)."""
    rng = random.Random(seed)
    integer = seed % 2 == 0
    g = random_graph(rng, rng.randint(6, 60), rng.randint(4, 120), integer)
    deltas = []
    sim = g.copy()
    for _ in range(steps):
        d = random_delta(rng, sim, integer_weights=integer)
        deltas.append(d)
        apply_delta(sim, d)
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


class TestOracleEquivalence:
    """Dynamic maps must equal full batch recomputation at every step."""

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", range(10))
    def test_dynamic_equals_batch(self, seed, variant):
        _, _, dynamic, batch, integer = _random_run(seed, variant)
        for dyn, full in zip(dynamic, batch):
            if variant == "unweighted" or integer:
                assert dyn.values == full.values
            else:
                assert dyn.values.keys() == full.values.keys()
                for v in full.values:
                    assert dyn.values[v] == pytest.approx(full.values[v], rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_work_bound(self, seed):
        g, deltas, dynamic, _, _ = _random_run(seed, "unweighted")
        sim = g.copy()
        for step, delta in enumerate(deltas, start=1):
            union = sim.copy()
            for e in delta.adds:
                union.add_edge(e.u, e.v, e.weight)
            m_prime = delta.num_changes
            bound = min(union.num_nodes, 2 * m_prime + 2 * m_prime * union.stats().max_degree)
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
            assert lap_cent_add_remove(toy_graph, delta, cmap, variant) is cmap
            assert cmap.values == lap_cent(toy_graph, variant).values
            assert cmap.computed_count == len(sets.recompute)
        if keep_history:
            replay = run_evolving(Graph(TOY_EDGES), EDGE_CASE_DELTAS[:-1], "batch", variant)
            assert [m.values for m in history] == [m.values for m in replay]
