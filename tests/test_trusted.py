"""Records the package builds without re-checking equal checked ones.

The antichain walk, rees_cone and minor build their records through
Record._trusted, which skips __post_init__.  Each must equal, in value,
hash and repr, what the checking constructors build from the same data."""

import itertools

import pytest

from mfmckit.clutters import (
    ExponentMatrix,
    NonMinor,
    MinorSpec,
    clutter_from_edges,
    enumerate_clutters,
    minor,
    validate,
)
from mfmckit.cones import RationalCone, ReesCone, rees_cone

from oracles import brute_minor, random_exponent_matrices


def assert_same(built, checked):
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3)])
def test_walk_clutters_equal_checked_ones(bounds):
    family = list(enumerate_clutters(*bounds))
    for c in family:
        assert_same(c, clutter_from_edges(c.n, c.edges))
        assert_same(c, validate([[int(v in e) for v in range(c.n)] for e in c.edges]))
        assert_same(c.matrix, ExponentMatrix(c.matrix.columns))
        assert type(c.labels) is tuple and type(c.matrix.columns) is tuple
    assert len(family) == {(4, 4): 119, (5, 3): 975}[bounds]


def test_rees_cones_equal_checked_cones(random100):
    # the generators of a general exponent matrix are primitive too: the
    # last coordinate of (v, 1) is 1, whatever the entries of v
    matrices = [*(c.matrix for c in random100),
                *(c.matrix for c in enumerate_clutters(4, 4)),
                *(c.matrix for c in enumerate_clutters(5, 3)),
                ExponentMatrix(((2, 4, 0), (4, 2, 0), (0, 0, 6))),
                *random_exponent_matrices()]
    for m in matrices:
        gens = [tuple(int(i == j) for j in range(m.n + 1)) for i in range(m.n)]
        gens += [tuple(c) + (1,) for c in m.columns]
        checked = RationalCone(m.n + 1, tuple(reversed(gens)))
        rc = rees_cone(m)
        assert_same(rc.cone, checked)
        assert_same(rc, ReesCone(m, checked, rc.coordinate_facet_indices))


def test_minors_equal_the_checked_oracle(random100):
    for c in [*random100, *enumerate_clutters(4, 4)]:
        for assign in itertools.product("kzo", repeat=c.n):
            zeros = [v for v, a in enumerate(assign) if a == "z"]
            ones = [v for v, a in enumerate(assign) if a == "o"]
            m, oracle = minor(c, MinorSpec(zeros, ones)), brute_minor(c, zeros, ones)
            if oracle is None:
                assert isinstance(m, NonMinor)
            else:
                assert_same(m, oracle)
