import io
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from conftest import TOY_EDGES, TOY_STEP1, TOY_STEP2
from genutil import delta_energy_oracle, graph_state, node_rows, random_graph, with_isolated

from lapstream.bench import bench_stream
from lapstream.centrality import CentralityMap, lap_cent, normalize, write_centralities
from lapstream.errors import FloatRangeError, ZeroEnergyError
from lapstream.graph import Graph
from lapstream.incremental import EdgeDelta, apply_delta, lap_cent_add_remove
from lapstream.ingest import SnapshotStream


def dense_trace_energy(g: Graph, variant: str) -> float:
    """Independent energy oracle: trace of the squared dense Laplacian."""
    nodes = sorted(g._nodes)
    index = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    lap = np.zeros((n, n))
    for u, v, weight in g.edges():
        w = 1.0 if variant == "unweighted" else weight
        i, j = index[u], index[v]
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return float(np.trace(lap @ lap))


def exact_weighted_values(g: Graph) -> dict[int, Fraction]:
    """Test-only oracle: exact C(x) = s^2 + sum(w * (w + 2 * s_j)) from the edge list."""
    strength: dict[int, Fraction] = defaultdict(Fraction)
    rows: dict[int, list] = defaultdict(list)
    for u, v, weight in g.edges():
        w = Fraction(weight)
        strength[u] += w
        strength[v] += w
        rows[u].append((v, w))
        rows[v].append((u, w))
    return {
        x: s * s + sum(w * (w + 2 * strength[j]) for j, w in rows[x])
        for x, s in strength.items()
    }


class TestBatchUnweighted:
    def test_toy_network(self):
        c = lap_cent(Graph(TOY_EDGES), "unweighted")
        assert c.values == TOY_STEP1
        assert c.computed_count == 7

    def test_toy_network_after_addition(self):
        g = Graph(TOY_EDGES)
        apply_delta(g, EdgeDelta(adds=[(4, 6)]))
        assert lap_cent(g, "unweighted").values == TOY_STEP2

    def test_two_node_graph(self):
        c = lap_cent(Graph([(1, 2)]), "unweighted")
        assert c.values == {1: 4, 2: 4}

    def test_isolated_node_is_zero(self):
        g = with_isolated(Graph([(1, 2)]), [9])
        assert lap_cent(g, "unweighted").values[9] == 0

    def test_empty_graph(self):
        c = lap_cent(Graph(), "unweighted")
        assert c.values == {}
        assert c.computed_count == 0

    def test_values_are_positive_integers(self):
        g = random_graph(random.Random(3), 40, 100)
        rows = node_rows(g)
        for v, value in lap_cent(g, "unweighted").values.items():
            if rows[v]:
                assert value > 0
            assert isinstance(value, int)


class TestBatchWeighted:
    def test_unit_triangle_matches_unweighted(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        weighted = lap_cent(g, "weighted").values
        assert weighted == {0: 14.0, 1: 14.0, 2: 14.0}
        assert weighted == lap_cent(g, "unweighted").values

    def test_weighted_star(self, weighted_star):
        # center 64, leaves 28 and 48, all confirmed by the deletion oracle
        values = lap_cent(weighted_star, "weighted").values
        assert values == {0: 64.0, 1: 28.0, 2: 48.0}
        for v in (0, 1, 2):
            assert values[v] == delta_energy_oracle(weighted_star, v, "weighted")

    def test_isolated_node(self):
        g = with_isolated(Graph(), [5, 6])
        assert lap_cent(g, "weighted").values == {5: 0.0, 6: 0.0}

    def test_unit_weight_consistency_random(self):
        rng = random.Random(11)
        for _ in range(10):
            base = random_graph(rng, rng.randint(5, 40), rng.randint(4, 80))
            g = with_isolated(Graph((u, v, 1.0) for u, v, _ in base.edges()), base._nodes)
            assert lap_cent(g, "weighted").values == lap_cent(g, "unweighted").values

    @pytest.mark.parametrize("seed", range(50))
    def test_within_rounding_of_exact(self, seed):
        """Every value on a freshly built graph is the exact C(x): the int
        itself at E = 0, else its correctly rounded float."""
        rng = random.Random(seed)
        n = rng.randint(5, 60)
        weights = (
            lambda: rng.random() * 10,
            lambda: rng.randint(1, 99) / 10,
            lambda: float(rng.randint(1, 5)),
        )
        pairs: dict[tuple[int, int], float] = {}
        for _ in range(rng.randint(1, 400)):
            u, v = rng.sample(range(n), 2)
            pairs.setdefault((min(u, v), max(u, v)), rng.choice(weights)())
        g = Graph((u, v, w) for (u, v), w in pairs.items())
        values = lap_cent(g, "weighted").values
        integral = all(w == int(w) for w in pairs.values())
        assert (g._shift == 0) == integral
        for x, exact in exact_weighted_values(g).items():
            want = int(exact) if integral else float(exact)
            assert (type(values[x]), values[x]) == (type(want), want), x


def exact_weighted_energy(g: Graph) -> Fraction:
    """Test-only oracle: sum(s^2) + 2 * sum(w^2 over edges), exactly, from the edge list."""
    strength: dict[int, Fraction] = defaultdict(Fraction)
    squares = Fraction(0)
    for u, v, weight in g.edges():
        w = Fraction(weight)
        strength[u] += w
        strength[v] += w
        squares += 2 * w * w
    return sum(s * s for s in strength.values()) + squares


class TestExactRounding:
    """On fractional weights every normalized value is one correctly rounded
    division of exact rationals: the value by the exact energy."""

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_and_normalized_values(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 30)
        weights = [0.1, 0.375, 2.5, 1 / 3, 5e-324, 3.0]
        pairs = {tuple(sorted(rng.sample(range(n), 2))): rng.choice(weights) for _ in range(60)}
        g = Graph((u, v, w) for (u, v), w in pairs.items())
        assert g._shift > 0
        exact_energy = exact_weighted_energy(g)
        assert exact_energy.denominator > 1
        normalized = normalize(lap_cent(g, "weighted"), g).values
        for x, exact in exact_weighted_values(g).items():
            assert normalized[x] == float(exact / exact_energy), x


class TestPastTheFloatRange:
    def test_a_value_is_a_named_error_naming_its_node(self):
        g = Graph([(1, 2, 1e300), (2, 3, 0.5)])
        values = lap_cent(g, "weighted").values
        assert 1 in values and 3 in values and 4 not in values
        assert values[3] == 1e300  # 1e300 + 0.75, correctly rounded
        with pytest.raises(FloatRangeError, match="node 1 is past the float range"):
            values[1]
        # the energy is past the float range too, and each ratio is not
        exact_energy = exact_weighted_energy(g)
        with pytest.raises(OverflowError):
            float(exact_energy)
        want = {x: float(c / exact_energy) for x, c in exact_weighted_values(g).items()}
        assert normalize(lap_cent(g, "weighted"), g).values == want
        with pytest.raises(FloatRangeError, match="node 1 "):
            write_centralities(lap_cent(Graph([(1, 2, 1e300)]), "weighted"), io.StringIO())

    def test_an_energy_below_the_float_range_rounds_to_zero(self):
        """Subnormal weights: values and the energy round to 0.0, and the
        exact energy still normalizes every value; only a graph with no
        edges has no energy to divide by."""
        g = Graph([(1, 2, 5e-324), (2, 3, 2.0**-600)])
        cmap = lap_cent(g, "weighted")
        assert cmap.values == {1: 0.0, 2: 0.0, 3: 0.0}
        exact_energy = exact_weighted_energy(g)
        assert float(exact_energy) == 0.0
        want = {x: float(c / exact_energy) for x, c in exact_weighted_values(g).items()}
        assert normalize(cmap, g).values == want
        empty = with_isolated(Graph(), [1, 2])
        with pytest.raises(ZeroEnergyError):
            normalize(lap_cent(empty, "weighted"), empty)

    def test_normalize_past_the_float_range(self):
        """An energy near 4e400 with a fractional edge: the ratios are near 1."""
        g = Graph([(1, 2, 1e200), (2, 3, 0.5)])
        cmap = lap_cent(g, "weighted")
        exact_energy = exact_weighted_energy(g)
        with pytest.raises(OverflowError):
            float(exact_energy)
        want = {x: float(c / exact_energy) for x, c in exact_weighted_values(g).items()}
        assert normalize(cmap, g).values == want
        assert want[1] == want[2] == 1.0 and 0 < want[3] < 1e-200


def assert_normalized_by(g: Graph, variant: str, energy) -> None:
    """``normalize`` divides each of ``g``'s values by ``energy``, an int."""
    cmap = lap_cent(g, variant)
    assert normalize(cmap, g).values == {v: x / energy for v, x in cmap.values.items()}


class TestLaplacianEnergy:
    """The energy ``normalize`` divides by, against the oracles."""

    def test_toy_unweighted(self):
        g = Graph(TOY_EDGES)
        assert dense_trace_energy(g, "unweighted") == 48
        assert_normalized_by(g, "unweighted", 48)

    def test_single_edge(self):
        g = Graph([(1, 2)])
        assert_normalized_by(g, "unweighted", 4)
        assert_normalized_by(g, "weighted", 4)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_empty(self, variant):
        g = Graph()
        with pytest.raises(ZeroEnergyError):
            normalize(lap_cent(g, variant), g)

    def test_weighted_star(self, weighted_star):
        assert dense_trace_energy(weighted_star, "weighted") == 64
        assert_normalized_by(weighted_star, "weighted", 64)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_trace(self, seed, variant):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 30), rng.randint(1, 60), integer_weights=False)
        cmap = lap_cent(g, variant)
        energy = dense_trace_energy(g, variant)
        normalized = normalize(cmap, g).values
        for v, x in cmap.values.items():
            assert normalized[v] == pytest.approx(x / energy, rel=1e-9)


def test_unknown_variant():
    g = Graph(TOY_EDGES)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        lap_cent(g, "bogus")


class TestNormalize:
    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_reads_the_variant_from_the_map(self, variant):
        """A map divides by the energy of the variant it was made with; a
        third argument is a TypeError."""
        g = Graph([(1, 2, 3.0), (2, 3, 5.0)])
        cmap = lap_cent(g, variant)
        energy = dense_trace_energy(g, variant)
        normalized = normalize(cmap, g).values
        assert normalized == {v: x / energy for v, x in cmap.values.items()}
        assert all(0.0 < x <= 1.0 for x in normalized.values())
        with pytest.raises(TypeError):
            normalize(cmap, g, variant)

    def test_toy_node_5(self):
        g = Graph(TOY_EDGES)
        normalized = normalize(lap_cent(g, "unweighted"), g)
        assert normalized.values[5] == pytest.approx(34 / 48)

    def test_round_trip(self):
        g = Graph(TOY_EDGES)
        c = lap_cent(g, "unweighted")
        e = dense_trace_energy(g, "unweighted")
        back = {v: x * e for v, x in normalize(c, g).values.items()}
        for v in c.values:
            assert back[v] == pytest.approx(c.values[v], abs=1e-12)

    def test_zero_energy(self):
        g = with_isolated(Graph(), [1, 2])
        with pytest.raises(ZeroEnergyError):
            normalize(lap_cent(g, "unweighted"), g)

    def test_zero_energy_of_zero_weights(self):
        """Edges that all weigh 0 have zero energy as weighted, not unweighted."""
        g = Graph([(1, 2, 0.0), (2, 3, 0.0)])
        with pytest.raises(ZeroEnergyError, match="^graph has zero Laplacian energy$"):
            normalize(lap_cent(g, "weighted"), g)
        assert_normalized_by(g, "unweighted", 10)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_refuses_a_map_of_another_graph(self, variant):
        """A map is normalized against its own graph only; a copy of it or
        another graph is a TypeError, raised before any value is computed."""
        g = Graph([(1, 2), (2, 3), (3, 4), (4, 5)])
        cmap = lap_cent(g, variant)
        for other in (Graph([(1, 2)]), g.copy(), with_isolated(Graph(), [1, 2, 3, 4, 5])):
            with pytest.raises(TypeError, match="not a map of g"):
                normalize(cmap, other)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_refuses_a_compare_kept_map(self, variant):
        """Compare mode keeps each step's map behind a ``ChainMap`` front,
        which is no map of a graph: a TypeError, not an AttributeError."""
        stream = SnapshotStream(Graph([(1, 2), (2, 3)]), [EdgeDelta(adds=[(3, 4)])])
        kept = bench_stream(stream, "compare", variant).maps[-1]
        g = stream.initial.copy()
        apply_delta(g, stream.deltas[0])
        with pytest.raises(TypeError, match="not a map of g"):
            normalize(kept, g)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    def test_refuses_a_normalized_map(self, variant):
        """A normalized map is no state of its graph: normalizing it again is
        a TypeError, as stepping it is, and so is normalizing its copy."""
        g = Graph([(1, 2, 3.0), (2, 3, 0.5)])
        normalized = normalize(lap_cent(g, variant), g)
        for cmap in (normalized, CentralityMap(normalized.values.copy(), 3)):
            with pytest.raises(TypeError, match="not a map of g"):
                normalize(cmap, g)
            with pytest.raises(TypeError, match="not a live map of g"):
                lap_cent_add_remove(g, EdgeDelta(adds=[(3, 4)]), cmap)
        assert graph_state(g) == graph_state(Graph([(1, 2, 3.0), (2, 3, 0.5)]))

    def test_range_on_connected_graphs(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 25)
            path = [(i, i + 1) for i in range(n - 1)]  # keeps it connected
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    path.append((u, v))
            g = Graph(path)
            c = normalize(lap_cent(g, "unweighted"), g)
            assert all(0.0 < x <= 1.0 for x in c.values.values())


class TestDeletionOracle:
    def test_toy_node_5(self):
        assert delta_energy_oracle(Graph(TOY_EDGES), 5, "unweighted") == 34

    def test_isolated_node(self):
        g = with_isolated(Graph([(1, 2)]), [7])
        assert delta_energy_oracle(g, 7, "unweighted") == 0

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            delta_energy_oracle(Graph([(1, 2)]), 3, "unweighted")

    def test_does_not_mutate(self, toy_graph):
        before = toy_graph.copy()
        delta_energy_oracle(toy_graph, 5, "unweighted")
        assert graph_state(toy_graph) == graph_state(before)

    @pytest.mark.parametrize("variant", ["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", range(10))
    def test_formula_matches_oracle(self, seed, variant):
        """The per-node closed forms equal the definitional energy drop."""
        rng = random.Random(seed)
        integer = seed % 2 == 0
        g = random_graph(rng, rng.randint(3, 60), rng.randint(2, 150), integer)
        values = lap_cent(g, variant).values
        for v in g._nodes:
            oracle = delta_energy_oracle(g, v, variant)
            if variant == "unweighted" or integer:
                assert values[v] == oracle
            else:
                assert values[v] == pytest.approx(oracle, rel=1e-9)


class TestLocality:
    def test_remote_edge_change_leaves_value_alone(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_graph(rng, 30, 60)
            v = rng.choice(list(g._nodes))
            forbidden = {v} | set(node_rows(g)[v])
            candidates = [
                (a, b)
                for a in g._nodes
                for b in g._nodes
                if a < b and a not in forbidden and b not in forbidden
            ]
            if not candidates:
                continue
            a, b = rng.choice(candidates)
            before = lap_cent(g, "unweighted").values[v]
            if g.has_edge(a, b):
                apply_delta(g, EdgeDelta(removes=[(a, b)]))
            else:
                apply_delta(g, EdgeDelta(adds=[(a, b)]))
            assert lap_cent(g, "unweighted").values[v] == before


class TestExecution:
    def test_deterministic(self, toy_graph):
        a = lap_cent(toy_graph, "unweighted")
        b = lap_cent(toy_graph, "unweighted")
        assert a.values == b.values

    def test_dump_format(self, toy_graph, tmp_path):
        path = tmp_path / "cent.csv"
        with open(path, "w", newline="\n") as fh:
            write_centralities(lap_cent(toy_graph, "unweighted"), fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "1,6"
        assert lines[4] == "5,34"
        assert len(lines) == 7

    def test_dump_significant_digits(self, toy_graph):
        import io

        buf = io.StringIO()
        normalized = normalize(lap_cent(toy_graph, "unweighted"), toy_graph)
        write_centralities(normalized, buf)
        assert "5,0.708333333333\n" in buf.getvalue()  # 34/48 at 12 digits
