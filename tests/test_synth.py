import pytest
from genutil import bits

from lapstream.incremental import run_evolving
from lapstream.synth import churn_stream, preferential_attachment_graph


def test_preferential_attachment_needs_more_nodes_than_attach():
    with pytest.raises(ValueError, match="need num_nodes > attach"):
        preferential_attachment_graph(3, 3)


def test_churn_stream_rejects_adds_that_cannot_fit():
    # the base graph on 4 nodes with attach 3 is K4: no pair is left to add
    with pytest.raises(ValueError, match="step 1"):
        churn_stream(4, 3, 1, 1, 0)


def test_churn_stream_fills_the_last_free_pair():
    # 5 nodes, attach 3: K4 plus a node of degree 3, one pair short of K5
    stream = churn_stream(5, 3, 1, 1, 0)
    assert stream.initial.num_edges == 9
    assert len(stream.deltas[0].adds) == 1
    with pytest.raises(ValueError, match="step 2"):
        churn_stream(5, 3, 2, 1, 0)
    # a removal each step frees a pair for the next step's add
    assert len(churn_stream(5, 3, 10, 1, 1).deltas) == 10


def test_churn_stream_retries_a_picked_pair_and_a_self_pair():
    """On 5 nodes with every edge removed, the random picks hit pairs
    already picked and self-pairs; each is drawn again, so removes never
    repeat a pair and adds are never self-loops."""
    stream = churn_stream(5, 3, 3, 1, 9, seed=1)
    assert [len(d.removes) for d in stream.deltas] == [9, 1, 1]
    for delta in stream.deltas:
        assert len(set(delta.removes)) == len(delta.removes)
        assert all(u != v for u, v, _ in delta.adds)
    maps = run_evolving(stream.initial, stream.deltas)
    assert len(maps) == 4


@pytest.mark.parametrize("removes", [0, 3])
def test_weighted_churn_stream(removes):
    """Weights are integers in 1-5, and a weighted dynamic run equals batch
    at every step."""
    stream = churn_stream(60, 3, 6, 4, removes, seed=2, weighted=True)
    weights = [w for _, _, w in stream.initial.edges()] + [w for d in stream.deltas for _, _, w in d.adds]
    assert set(weights) == {1, 2, 3, 4, 5}
    dynamic = run_evolving(stream.initial.copy(), stream.deltas, "dynamic", "weighted")
    batch = run_evolving(stream.initial, stream.deltas, "batch", "weighted")
    assert len(dynamic) == len(batch) == 7
    assert [bits(m.values) for m in dynamic] == [bits(m.values) for m in batch]
