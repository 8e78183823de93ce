import pytest

from lapstream.synth import churn_stream


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
