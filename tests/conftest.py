from pathlib import Path

import pytest

from lapstream.graph import Graph

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

# the 7-edge toy network used throughout the docs and tests
TOY_EDGES = [(1, 2), (2, 3), (3, 5), (5, 6), (5, 4), (4, 7), (5, 7)]
TOY_STEP1 = {1: 6, 2: 12, 3: 18, 4: 18, 5: 34, 6: 10, 7: 18}
TOY_STEP2 = {1: 6, 2: 12, 3: 18, 4: 28, 5: 38, 6: 20, 7: 20}


@pytest.fixture
def toy_graph() -> Graph:
    return Graph(TOY_EDGES)


@pytest.fixture
def weighted_star() -> Graph:
    return Graph([(0, 1, 2.0), (0, 2, 3.0)])


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
