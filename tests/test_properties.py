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
