"""Property tests over random delta sequences (Hypothesis)."""

import contextlib
import tempfile
from pathlib import Path

import pytest

from genutil import affected_nodes, bits, exponent, far_delta, far_graph, node_rows

from lapstream import kernels
from lapstream.centrality import lap_cent, normalize
from lapstream.cli import cli_main
from lapstream.errors import FloatRangeError, ZeroEnergyError
from lapstream.graph import Edge, Graph
from lapstream.incremental import EdgeDelta, apply_delta, lap_cent_add_remove, run_evolving
from lapstream.ingest import load_edge_events, snapshots_cumulative, snapshots_window, stream_from_snapshot_dir

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
# derandomized: the same examples on every run, so the suite stays a stable gate
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _weights(integer):
    return st.integers(1, 5).map(float) if integer else st.floats(0.01, 5.0)


def _edges(draw, n, weights, max_size):
    node = st.integers(0, n - 1)
    pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    drawn = draw(st.lists(st.tuples(pairs, weights), max_size=max_size))
    return [Edge(u, v, w) for (u, v), w in drawn]


@st.composite
def evolving_runs(draw, weights=None):
    """An initial graph and deltas that apply to it in turn: upserts, nodes
    new to the graph, removes of present edges and of the delta's own adds.
    Weights come from ``weights``, or else all integral or all fractional."""
    n = draw(st.integers(2, 14))
    if weights is None:
        weights = _weights(draw(st.booleans()))
    g = Graph(_edges(draw, n, weights, 25))
    sim = g.copy()
    deltas = []
    for _ in range(draw(st.integers(1, 8))):
        adds = _edges(draw, n + 3, weights, 5)
        removable = sorted({e[:2] for e in sim.edges()} | {tuple(sorted(e[:2])) for e in adds})
        removes = []
        if removable:
            removes = draw(st.lists(st.sampled_from(removable), unique=True, max_size=5))
        delta = EdgeDelta(adds=adds, removes=removes)
        apply_delta(sim, delta)
        deltas.append(delta)
    return g, deltas


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@SETTINGS
@hypothesis.given(run=evolving_runs())
def test_dynamic_equals_batch_every_step(variant, far, run):
    g, deltas = run
    if far:
        g, deltas = far_graph(g), [far_delta(d) for d in deltas]
    dynamic = run_evolving(g.copy(), deltas, "dynamic", variant)
    batch = run_evolving(g.copy(), deltas, "batch", variant)
    assert len(dynamic) == len(batch) == len(deltas) + 1
    for dyn, full in zip(dynamic, batch):
        # exact for integer values, bitwise for floats
        assert bits(dyn.values) == bits(full.values)
    # the step counts touched | N(touched) itself; affected_nodes is the reference
    sim = g.copy()
    for delta, dyn in zip(deltas, dynamic[1:]):
        assert dyn.computed_count == len(affected_nodes(sim, delta).recompute)


@SETTINGS
@hypothesis.given(data=st.data())
def test_snapshot_dir_turns_g_into_h(data):
    """Snapshot files g, h, h: the first delta turns g into h, the second is empty."""
    n = data.draw(st.integers(2, 14))
    weights = _weights(data.draw(st.booleans()))
    g = Graph(_edges(data.draw, n, weights, 25))
    h = Graph(_edges(data.draw, n, weights, 25))
    with tempfile.TemporaryDirectory() as directory:
        for name, snapshot in (("0.txt", g), ("1.txt", h), ("2.txt", h)):
            lines = "".join(f"{u} {v} {w!r}\n" for u, v, w in snapshot.edges())
            Path(directory, name).write_text(lines)
        stream = stream_from_snapshot_dir(directory)
    built = stream.initial
    assert {(u, v): w for u, v, w in built.edges()} == {(u, v): w for u, v, w in g.edges()}
    apply_delta(built, stream.deltas[0])
    assert {(u, v): w for u, v, w in built.edges()} == {(u, v): w for u, v, w in h.edges()}
    assert stream.deltas[1] == EdgeDelta()


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
    fractional = sorted((u, v) for u, v, w in sim.edges() if w != int(w))
    reweighted = draw(st.lists(st.sampled_from(fractional), unique=True))
    removes = [p for p in fractional if p not in reweighted]
    step(EdgeDelta(adds=[Edge(u, v, draw(INTEGRAL)) for u, v in reweighted], removes=removes))
    assert all(w == int(w) for _, _, w in sim.edges())
    for _ in range(draw(st.integers(1, 4))):
        present = sorted(e[:2] for e in sim.edges())
        removes = []
        if present:
            removes = draw(st.lists(st.sampled_from(present), unique=True, max_size=3))
        step(EdgeDelta(adds=edges(INTEGRAL), removes=removes))
    return g, deltas


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@pytest.mark.parametrize("far", [False, True])
@hypothesis.settings(SETTINGS, max_examples=150)
@hypothesis.given(run=fractional_then_integral())
def test_weighted_history_with_fractional_residue(far, run):
    g, deltas = run
    if far:
        g, deltas = far_graph(g), [far_delta(d) for d in deltas]
    dynamic = run_evolving(g.copy(), deltas, "dynamic", "weighted")
    batch = run_evolving(g.copy(), deltas, "batch", "weighted")
    for dyn, full in zip(dynamic, batch):
        assert bits(dyn.values) == bits(full.values)


# -- the weighted step runs no kernel, at any scale -------------------------------

MIXED = st.one_of(INTEGRAL, FRACTIONAL)


@contextlib.contextmanager
def _kernel_calls():
    """Record the position sets either kernel is called on."""
    calls = []
    real = kernels.unweighted_values, kernels.weighted_values

    def recording(kernel):
        def call(*args):
            calls.append(set(args[-1]))
            return kernel(*args)

        return call

    kernels.unweighted_values, kernels.weighted_values = map(recording, real)
    try:
        yield calls
    finally:
        kernels.unweighted_values, kernels.weighted_values = real


def _walk(g, deltas, variant="weighted"):
    """Run the dynamic step over ``deltas`` on a copy of ``g``; check that no
    step calls a kernel, and every step against batch bitwise and its count
    against :func:`affected_nodes`. Returns the graph after each step."""
    g = g.copy()
    cmap = lap_cent(g, variant)
    graphs = []
    for delta in deltas:
        sets = affected_nodes(g.copy(), delta)
        with _kernel_calls() as calls:
            lap_cent_add_remove(g, delta, cmap)
        assert calls == []
        assert cmap.computed_count == len(sets.recompute)
        assert bits(cmap.values) == bits(lap_cent(g, variant).values)
        graphs.append(g.copy())
    return graphs


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@SETTINGS
@hypothesis.given(run=evolving_runs(INTEGRAL))
def test_integral_history_stays_at_scale_zero(run):
    """0.0, -0.0 and negative integral weights: E stays 0, values stay ints."""
    g, deltas = run
    graphs = _walk(g, deltas)
    assert all(h._shift == 0 for h in graphs)
    with _kernel_calls() as calls:
        maps = run_evolving(g.copy(), deltas, "dynamic", "weighted")
    assert calls == [set(range(g.num_nodes))]
    assert all(type(x) is int for m in maps for x in m.values.values())


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@SETTINGS
@hypothesis.given(run=evolving_runs(MIXED))
def test_scale_follows_the_finest_weight_written(run):
    """E is the largest binary exponent of any weight written so far, kept
    after that weight's edge has gone; the step follows it with no kernel."""
    g, deltas = run
    graphs = _walk(g, deltas)
    ever = g._shift
    assert ever >= exponent(w for _, _, w in g.edges())
    for delta, h in zip(deltas, graphs):
        ever = max(ever, exponent(e.weight for e in delta.adds))
        assert h._shift == ever


def test_large_integral_weights_stay_at_scale_zero():
    """The sum of |w| passes 2**24 and comes back: integral weights keep E = 0."""
    big = 2.0**23
    g = Graph([(0, 1, 2.0), (1, 2, 3.0)])
    deltas = [
        EdgeDelta(adds=[Edge(2, 3, 4.0)]),
        EdgeDelta(adds=[Edge(3, 4, big), Edge(4, 5, big), Edge(5, 6, big)]),
        EdgeDelta(removes=[(3, 4), (5, 4), (5, 6)]),
        EdgeDelta(adds=[Edge(0, 2, 5.0)], removes=[(1, 2)]),
    ]
    final = _walk(g, deltas)[-1]
    assert final._shift == 0
    assert sum(map(abs, final._strength)) == 2 * 11


# integers within +-2**53, as ints and as floats, with the extremes often, so
# that strengths pass 2**24 and 2**53
WIDE_INTEGRAL = st.one_of(
    st.sampled_from([2**53, -(2**53), 2.0**53, 2**53 - 1, -(2.0**52), 2**24 + 1, 0, -0.0]),
    st.integers(-(2**53), 2**53),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def repeating_runs(draw, weights):
    """An evolving run, then three deltas: one that writes pairs more than
    once (a pair new to the graph added twice with its own weights and
    removed again, and a present pair upserted twice and removed), the empty
    delta, and one that upserts an edge of a node and removes its every edge,
    leaving the node isolated."""
    g, deltas = draw(evolving_runs(weights))
    sim = g.copy()
    for delta in deltas:
        apply_delta(sim, delta)

    def step(delta):
        apply_delta(sim, delta)
        deltas.append(delta)

    nodes = list(sim._pos)
    x = draw(st.sampled_from(nodes)) if nodes else 0
    new = max(nodes, default=x) + 1
    adds = [Edge(x, new, draw(weights)), Edge(new, x, draw(weights))]
    removes = [(x, new)]
    present = sorted(e[:2] for e in sim.edges())
    if present:
        u, v = draw(st.sampled_from(present))
        adds += [Edge(u, v, draw(weights)), Edge(v, u, draw(weights))]
        removes.append((v, u))
    step(EdgeDelta(adds=adds, removes=removes))
    step(EdgeDelta())
    present = sorted(e[:2] for e in sim.edges())
    if present:
        u, v = draw(st.sampled_from(present))
        row = node_rows(sim)[u]
        step(EdgeDelta(adds=[Edge(v, u, draw(weights))], removes=[(j, u) for j in row]))
    return g, deltas


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@SETTINGS
@hypothesis.given(run=repeating_runs(WIDE_INTEGRAL))
def test_wide_integral_history_stays_exact(variant, run):
    """Integral weights up to 2**53 in magnitude, pairs written more than
    once in a delta: exact ints at E = 0, no kernel call after step 0, and
    batch's values and types and the reference count at every step."""
    g, deltas = run
    final = _walk(g, deltas, variant)[-1] if deltas else g
    assert final._shift == 0
    assert all(type(s) is int for s in final._strength)
    for cmap in run_evolving(g.copy(), deltas, "dynamic", variant):
        assert all(type(c) is int for c in cmap.values.values())


@pytest.mark.parametrize("weight, shift", [(2.0**53 + 2, 0), (2**60, 0), (0.5, 1), (5e-324, 1074)])
def test_weight_beyond_the_fast_path_runs_no_kernel(weight, shift):
    """A weight past 2**53 or a fractional one: exact ints scaled by 2**E, and
    the step stays on the closed form after its edge has gone."""
    g = Graph([(0, 1, 3.0), (1, 2, 2**53), (2, 3, 2.0)])
    deltas = [
        EdgeDelta(adds=[Edge(2, 4, 1.0)]),
        EdgeDelta(adds=[Edge(3, 4, weight)]),
        EdgeDelta(removes=[(4, 3)]),
        EdgeDelta(adds=[Edge(0, 3, 1.0)]),
    ]
    final = _walk(g, deltas)[-1]
    assert final._shift == shift
    assert type(final._strength[final._pos[3]]) is int


def test_transient_huge_weight_within_one_delta():
    g = Graph([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)])
    huge = 2.0**60
    for deltas in (
        [EdgeDelta(adds=[Edge(0, 1, huge)], removes=[(1, 0)])],
        [EdgeDelta(adds=[Edge(1, 2, huge), Edge(2, 1, 4.0)])],
        [EdgeDelta(adds=[Edge(3, 9, huge)], removes=[(9, 3)])],
    ):
        final = _walk(g, deltas + [EdgeDelta(adds=[Edge(0, 3, 1.0)])])[-1]
        assert final._shift == 0


# -- exact weighted values for every finite weight ---------------------------------

# the whole finite range: subnormals, +-0.0, weights near 2**53 and 1e308
FINITE = st.one_of(
    st.sampled_from(
        [5e-324, -5e-324, 2.0**-1022, 0.0, -0.0, 0.1, 1 / 3, 2.0**53 - 1, 2.0**53 + 2, 2.0**53 - 0.5]
        + [1e308, -1e308, 1.5, 7.0]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def fractional_edge_lists(draw):
    """Unique pairs, so that any order of the list builds the same graph,
    with fractional weights, and a permutation of the list."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda p: p[0] != p[1]),
            unique_by=lambda p: frozenset(p),
            min_size=1,
            max_size=30,
        )
    )
    weights = st.one_of(FRACTIONAL, FINITE)
    edges = [(u, v, draw(weights)) for u, v in pairs]
    return edges, draw(st.permutations(edges))


def _bits_or_error(read, g):
    """``bits(read(g))``, or the type of the error it raises."""
    try:
        return bits(read(g))
    except (FloatRangeError, ZeroEnergyError) as exc:
        return type(exc)


def _raw(cmap):
    """A map's stored values keyed by node, and their scale."""
    view = cmap.values
    return dict(zip(view, view._values)), view._shift


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@SETTINGS
@hypothesis.given(lists=fractional_edge_lists())
def test_batch_is_the_same_on_every_edge_order(lists):
    """The same edge set in another order: the same E, the same exact ints
    and the same bits, or the same error, for both variants, as they are
    and normalized."""
    edges, shuffled = lists
    g, h = Graph(edges), Graph(shuffled)
    assert g._shift == h._shift
    for variant in ("unweighted", "weighted"):
        assert _raw(lap_cent(g, variant)) == _raw(lap_cent(h, variant))
        for read in (lambda k: lap_cent(k, variant).values, lambda k: normalize(lap_cent(k, variant), k).values):
            assert _bits_or_error(read, g) == _bits_or_error(read, h)


@pytest.mark.filterwarnings("ignore::lapstream.errors.NegativeWeightWarning")
@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@SETTINGS
@hypothesis.given(run=evolving_runs(st.one_of(FRACTIONAL, FINITE)))
def test_finite_history_equals_batch_with_no_kernel(variant, run):
    """Random histories over the whole finite range: dynamic equals batch in
    its exact ints and its scale at every step, and every value reads as the
    same float or as FloatRangeError on both sides; the kernels raise if
    called after step 0."""
    g, deltas = run
    real = kernels.unweighted_values, kernels.weighted_values
    calls = []

    def once(kernel):
        def call(*args):
            calls.append(None)
            if len(calls) > 1:
                raise AssertionError("a kernel ran after step 0")
            return kernel(*args)

        return call

    kernels.unweighted_values, kernels.weighted_values = map(once, real)
    try:
        dynamic = run_evolving(g.copy(), deltas, "dynamic", variant)
    finally:
        kernels.unweighted_values, kernels.weighted_values = real
    batch = run_evolving(g.copy(), deltas, "batch", variant)
    for dyn, full in zip(dynamic, batch):
        assert _raw(dyn) == _raw(full)
        for v in full.values:
            try:
                want = full.values[v]
            except FloatRangeError:
                with pytest.raises(FloatRangeError):
                    dyn.values[v]
                continue
            assert bits({v: dyn.values[v]}) == bits({v: want})


# -- a step's edge order is no output's business ----------------------------------


@st.composite
def reordered_days(draw):
    """Daily events, and the same events with those of different pairs
    swapped within their day: each pair's own events keep their order, so
    every edge folds the same weights in the same order."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    weight = st.sampled_from([1.0, 2.0, 3.0, 0.5, 0.1, 1 / 3, 2.5, 1e16])
    days = draw(st.lists(st.lists(st.tuples(pair, weight), min_size=1, max_size=10), min_size=1, max_size=5))
    events, reordered = [], []
    for day, observed in enumerate(days):
        own = {}
        for e in observed:
            own.setdefault(frozenset(e[0]), []).append(e)
        queues = {key: iter(pair_events) for key, pair_events in own.items()}
        # each pair's events, in their order, fill the places a shuffle gives the pair
        shuffled = draw(st.permutations(observed))
        moved = [next(queues[frozenset(e[0])]) for e in shuffled]
        events += [(u, v, w, day * 86400) for (u, v), w in observed]
        reordered += [(u, v, w, day * 86400) for (u, v), w in moved]
    return events, reordered


@pytest.mark.parametrize("variant", ["unweighted", "weighted"])
@SETTINGS
@hypothesis.given(
    files=reordered_days(),
    window=st.sampled_from([None, 1, 2]),
    policy=st.sampled_from(["overwrite", "accumulate"]),
)
def test_event_order_within_a_day_changes_no_output(variant, files, window, policy):
    """Both orders give, at every step, bitwise the same map, the same CSV
    columns 1-6 (all but the timings) and byte-identical dumps."""
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        for name, events in zip(("a", "b"), files):
            path = Path(directory, f"{name}.txt")
            path.write_text("".join(f"{u} {v} {w!r} {t}\n" for u, v, w, t in events))
            loaded = load_edge_events(path)
            if window is None:
                stream = snapshots_cumulative(loaded, "daily", policy)
                flags = []
            else:
                stream = snapshots_window(loaded, "daily", window, policy)
                flags = ["--window", str(window)]
            maps = run_evolving(stream.initial, stream.deltas, "dynamic", variant)
            out = Path(directory, name)
            argv = ["compare", "--input", str(path), "--variant", variant, "--weight-policy", policy]
            assert cli_main([*argv, *flags, "--out", str(out), "--dump-centralities"]) == 0
            csvs = [
                [row.split(",")[:6] for row in (out / csv).read_text().splitlines()]
                for csv in ("batch.csv", "dynamic.csv")
            ]
            dumps = {f.name: f.read_bytes() for f in (out / "centralities").iterdir()}
            runs.append(([bits(m.values) for m in maps], csvs, dumps))
    assert runs[0] == runs[1]
