import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mfmckit.clutters import Clutter, ExponentMatrix, clutter_from_edges, enumerate_clutters

from oracles import random_clutters

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reference_matrix():
    # x1x5, x2x4, x3x4x5, x1x2x3 on five vertices
    return ExponentMatrix((
        (1, 0, 0, 0, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 1, 1),
        (1, 1, 1, 0, 0),
    ))


@pytest.fixture(scope="session")
def reference_clutter(reference_matrix):
    return Clutter(reference_matrix)


@pytest.fixture(scope="session")
def triangle():
    return clutter_from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def q6():
    # 123, 145, 246, 356: integral covering polyhedron, not MFMC
    return clutter_from_edges(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])


@pytest.fixture(scope="session")
def single_edge():
    return clutter_from_edges(1, [(0,)])


@pytest.fixture(scope="session")
def two_star():
    # x1x2, x1x3: row one is strictly positive
    return clutter_from_edges(3, [(0, 1), (0, 2)])


@pytest.fixture(scope="session")
def squares_matrix():
    # x1^2, x2^2: not integrally closed, x1x2 joins the closure
    return ExponentMatrix(((2, 0), (0, 2)))


@pytest.fixture(scope="session")
def mixed_pair_matrix():
    # x1^2x2, x1x2^2: integrally closed despite the shared support
    return ExponentMatrix(((2, 1), (1, 2)))


@pytest.fixture(scope="session")
def random100():
    return random_clutters(count=100, seed=20260815, max_n=6, max_q=8)


@pytest.fixture(scope="session")
def search_family(random100):
    # random100, the 119 clutters of 4x4 and the cycles C3-C11
    cycles = [clutter_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
              for n in range(3, 12)]
    return [*random100, *enumerate_clutters(4, 4), *cycles]
