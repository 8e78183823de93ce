"""Property tests over random delta sequences (Hypothesis)."""

import pytest

from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, run_evolving
from lapstream.ingest import delta_between

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
# derandomized: the same examples on every run, so the suite stays a stable gate
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _edges(draw, n, integer, max_size):
    node = st.integers(0, n - 1)
    pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    if integer:
        weights = st.integers(1, 5).map(float)
    else:
        weights = st.floats(0.01, 5.0)
    drawn = draw(st.lists(st.tuples(pairs, weights), max_size=max_size))
    return [Edge(u, v, w) for (u, v), w in drawn]


def _graph(edges):
    g = Graph()
    for e in edges:
        g.add_edge(*e)
    return g


@st.composite
def evolving_runs(draw):
    """An initial graph and deltas that apply to it in turn: upserts, nodes
    new to the graph, removes of present edges and of the delta's own adds."""
    n = draw(st.integers(2, 14))
    integer = draw(st.booleans())
    g = _graph(_edges(draw, n, integer, 25))
    sim = g.copy()
    deltas = []
    for _ in range(draw(st.integers(1, 8))):
        adds = _edges(draw, n + 3, integer, 5)
        removable = sorted({e.canonical() for e in sim.edges()} | {e.canonical() for e in adds})
        removes = []
        if removable:
            removes = draw(st.lists(st.sampled_from(removable), unique=True, max_size=5))
        delta = EdgeDelta(adds=adds, removes=removes)
        apply_delta(sim, delta)
        deltas.append(delta)
    return g, deltas


def _bits(values):
    return {v: x.hex() if isinstance(x, float) else x for v, x in values.items()}


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@SETTINGS
@hypothesis.given(run=evolving_runs())
def test_dynamic_equals_batch_every_step(variant, run):
    g, deltas = run
    dynamic = run_evolving(g.copy(), deltas, "dynamic", variant)
    batch = run_evolving(g.copy(), deltas, "batch", variant)
    assert len(dynamic) == len(batch) == len(deltas) + 1
    for dyn, full in zip(dynamic, batch):
        # exact for integer values, bitwise for floats
        assert _bits(dyn.values) == _bits(full.values)


@SETTINGS
@hypothesis.given(data=st.data())
def test_delta_between_turns_g_into_h(data):
    n = data.draw(st.integers(2, 14))
    integer = data.draw(st.booleans())
    g = _graph(_edges(data.draw, n, integer, 25))
    h = _graph(_edges(data.draw, n, integer, 25))
    apply_delta(g, delta_between(g, h))
    assert {e.canonical(): e.weight for e in g.edges()} == {
        e.canonical(): e.weight for e in h.edges()
    }
    assert delta_between(g, h).is_empty()


INTEGRAL = st.sampled_from([1.0, 2.0, 3.0, 5.0, 12.0, -1.0, -4.0, 0.0, -0.0])
FRACTIONAL = st.one_of(
    st.sampled_from([0.1, 0.2, 0.7, 1 / 3, 2.5, -0.3]),
    st.floats(-5.0, 5.0, allow_nan=False).filter(lambda w: w != int(w)),
)


@st.composite
def fractional_then_integral(draw):
    """A weighted history whose fractional edges all leave before integral
    changes follow: strengths are running sums, so they can keep the
    rounding residue of weights no edge holds any more."""
    n = draw(st.integers(3, 10))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])

    def edges(weights, min_size=0):
        drawn = draw(st.lists(st.tuples(pair, weights), min_size=min_size, max_size=6))
        return [Edge(u, v, w) for (u, v), w in drawn]

    g = Graph(edges(INTEGRAL))
    sim = g.copy()
    deltas = []

    def step(delta):
        apply_delta(sim, delta)
        deltas.append(delta)

    for _ in range(draw(st.integers(1, 3))):
        step(EdgeDelta(adds=edges(FRACTIONAL, min_size=1)))
    # every fractional edge leaves: removed, or re-weighted to an integer
    fractional = sorted(e.canonical() for e in sim.edges() if e.weight != int(e.weight))
    reweighted = draw(st.lists(st.sampled_from(fractional), unique=True))
    removes = [p for p in fractional if p not in reweighted]
    step(EdgeDelta(adds=[Edge(u, v, draw(INTEGRAL)) for u, v in reweighted], removes=removes))
    assert all(e.weight == int(e.weight) for e in sim.edges())
    for _ in range(draw(st.integers(1, 4))):
        present = sorted(e.canonical() for e in sim.edges())
        removes = []
        if present:
            removes = draw(st.lists(st.sampled_from(present), unique=True, max_size=3))
        step(EdgeDelta(adds=edges(INTEGRAL), removes=removes))
    return g, deltas


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@hypothesis.settings(SETTINGS, max_examples=150)
@hypothesis.given(run=fractional_then_integral())
def test_weighted_history_with_fractional_residue(run):
    g, deltas = run
    dynamic = run_evolving(g.copy(), deltas, "dynamic", "weighted")
    batch = run_evolving(g.copy(), deltas, "batch", "weighted")
    for dyn, full in zip(dynamic, batch):
        assert _bits(dyn.values) == _bits(full.values)
