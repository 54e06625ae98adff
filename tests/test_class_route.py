"""Class-function multiplicities against the Sylow orbit.

m(x), the number of Sylow p-subgroups containing x, is constant on classes,
and double counting the pairs (y, Q) with y in x^G and Q a Sylow subgroup
containing y gives m(x) * |x^G| = nu * |x^G ∩ P| for any one Sylow P.  Every
p-class meets P (Sylow), so each class's multiplicity can be read off P alone.
These tests check that second route against the orbit's multiplicity map.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from sylowcover import (
    alternating_group,
    build_family,
    enumerate_group,
    enumerate_sylows,
    load_fixture,
    symmetric_group,
)
from sylowcover.perm import Permutation

from conftest import FIXTURE_DIR, permutation_groups

PRIME_POWERS_TO_13 = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def _check_class_route(group):
    for p, _ in group.order_factorization():
        system = enumerate_sylows(group, p)
        nu = system.nu
        sylow = system.sylows[0].member_set()
        p_elements = set(group.p_elements(p))
        classed: set[int] = set()
        for x in group.p_elements(p):
            if x in classed:
                continue
            cls = set(group.conjugacy_class(x))
            assert cls <= p_elements and not cls & classed, (group, p, x)
            classed |= cls
            meet = len(cls & sylow)
            assert meet, (group, p, x)
            assert nu * meet % len(cls) == 0, (group, p, x)
            m = nu * meet // len(cls)
            assert all(system.multiplicity[y] == m for y in cls), (group, p, x)
        assert classed == p_elements, (group, p)


@pytest.mark.parametrize("name", ["frobenius21", "g108", "sl23_matrix", "sl28"])
def test_class_route_on_fixtures(name):
    _check_class_route(load_fixture(FIXTURE_DIR / f"{name}.json"))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_class_route_on_symmetric_groups(n):
    _check_class_route(symmetric_group(n))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_class_route_on_alternating_groups(n):
    _check_class_route(alternating_group(n))


def test_class_route_on_s8_and_a8(s8, a8):
    _check_class_route(s8)
    _check_class_route(a8)


@pytest.mark.parametrize("family", ["SL2", "PSL2"])
def test_class_route_on_sl2_and_psl2(family):
    for q in PRIME_POWERS_TO_13:
        _check_class_route(build_family(family, {"q": q}))


def test_class_route_on_psl2_25_and_gl2_4(gl24):
    _check_class_route(build_family("PSL2", {"q": 25}))
    _check_class_route(gl24)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gens=permutation_groups())
def test_class_route_on_random_permutation_groups(gens):
    _check_class_route(enumerate_group([Permutation(g) for g in gens]))
