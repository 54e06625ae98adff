"""The Sylow system's class view against its orbit view.

m(x), the number of Sylow p-subgroups containing x, is constant on classes,
and double counting the pairs (y, Q) with y in x^G and Q a Sylow subgroup
containing y gives m(x) * |x^G| = nu * |x^G ∩ P| for any one Sylow P.  Every
p-class meets P (Sylow), so each class's multiplicity can be read off P alone.
These tests check that route, in the test and in ``SylowSystem.classes``,
against the orbit's multiplicity map, and the brute-force decision, which
reads the class view, against the orbit on a second build of the group.
Each view is built on first read; the last tests pin which paths build which.
"""

from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings

from sylowcover import (
    alternating_group,
    build_family,
    counting_bound_test,
    decide_redundant_bruteforce,
    enumerate_group,
    enumerate_sylows,
    load_fixture,
    p_element_count_bound,
    small_nu_test,
    symmetric_group,
)
from sylowcover import cli, sylow
from sylowcover.groups import FiniteGroup
from sylowcover.numtheory import is_prime
from sylowcover.perm import Permutation
from sylowcover.report import DecisionReport

from conftest import FIXTURE_DIR, permutation_groups

PRIME_POWERS_TO_13 = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def _check_class_route(group):
    for p, _ in group.order_factorization():
        system = enumerate_sylows(group, p)
        nu = system.nu
        sylow = system.sylows[0].member_set()
        p_elements = set(group.p_elements(p))
        classed: set[int] = set()
        classes = []
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
            classes.append((x, len(cls), m))
        assert classed == p_elements, (group, p)
        assert system.classes == classes, (group, p)


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


def _check_fresh_brute(build):
    """The brute decision on a fresh group, against the orbit on a second build.

    Every p dividing |G| is checked, and the least prime that does not.
    """
    fresh, reference = build(), build()
    primes = [p for p, _ in reference.order_factorization()]
    primes.append(next(q for q in count(2) if is_prime(q) and reference.order % q))
    for p in primes:
        report = decide_redundant_bruteforce(fresh, p)
        fresh_system = enumerate_sylows(fresh, p)
        assert "_orbit" not in vars(fresh_system), (fresh, p)
        system = enumerate_sylows(reference, p)
        witnesses = system.unique_witnesses()
        assert report.nu_p == system.nu, (fresh, p)
        assert report.verdict == ("not-redundant" if witnesses else "redundant"), (fresh, p)
        assert report.witness == (reference.render(witnesses[0]) if witnesses else None), (fresh, p)
        classes = fresh_system.classes
        assert sum(size for _, size, _ in classes) == len(system.p_elements), (fresh, p)
        assert all(system.multiplicity[x] == m for x, _, m in classes), (fresh, p)


FRESH_GROUPS = {
    **{name: (lambda name=name: load_fixture(FIXTURE_DIR / f"{name}.json"))
       for name in ("frobenius21", "g108", "sl23_matrix", "sl28")},
    **{f"S{n}": (lambda n=n: symmetric_group(n)) for n in (1, 4, 5, 6, 7, 8)},
    **{f"A{n}": (lambda n=n: alternating_group(n)) for n in (5, 6, 7, 8)},
    **{f"{family}_{q}": (lambda family=family, q=q: build_family(family, {"q": q}))
       for family in ("SL2", "PSL2") for q in PRIME_POWERS_TO_13},
    "PSL2_25": lambda: build_family("PSL2", {"q": 25}),
    "PSL2_27": lambda: build_family("PSL2", {"q": 27}),
    "GL2_4": lambda: build_family("GL", {"n": 2, "q": 4}),
}


@pytest.mark.parametrize("name", sorted(FRESH_GROUPS))
def test_fresh_brute_decide_matches_the_orbit(name):
    _check_fresh_brute(FRESH_GROUPS[name])


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gens=permutation_groups())
def test_fresh_brute_decide_matches_the_orbit_on_random_groups(gens):
    _check_fresh_brute(lambda: enumerate_group([Permutation(g) for g in gens]))


def _decide_json(capsys, *argv):
    assert cli.main(["decide", *argv, "--format", "json"]) == cli.EXIT_OK
    return DecisionReport.from_json(capsys.readouterr().out)


def _views(system) -> set[str]:
    """The views a system has built so far."""
    return {"classes", "_orbit"} & set(vars(system))


@pytest.fixture
def watched(monkeypatch):
    """Every Sylow system built from here on, and the count of normalizer calls."""
    built: list = []
    normalizers = [0]
    normalizer = FiniteGroup.normalizer

    class WatchedSystem(sylow.SylowSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def counted(group, subgroup):
        normalizers[0] += 1
        return normalizer(group, subgroup)

    monkeypatch.setattr(sylow, "SylowSystem", WatchedSystem)
    monkeypatch.setattr(FiniteGroup, "normalizer", counted)
    return built, normalizers


def test_brute_builds_no_orbit_and_auto_builds_one_system(watched, capsys):
    built, normalizers = watched
    assert decide_redundant_bruteforce(alternating_group(8), 2).nu_p == 315
    assert _decide_json(capsys, "--method", "brute", "--family", "An", "--n", "8", "--p", "2").nu_p == 315
    assert [_views(system) for system in built] == [{"classes"}] * 2 and normalizers == [2]

    # g108 at p = 2: cyclic-quotient and ti-sylow are inconclusive, so the
    # auto chain falls through to brute force, on ti-sylow's system
    built.clear()
    normalizers[0] = 0
    report = _decide_json(capsys, "--fixture", str(FIXTURE_DIR / "g108.json"), "--p", "2")
    assert report.method == "brute-force"
    assert [c.name for c in report.criteria] == ["cyclic-quotient", "ti-sylow"]
    assert len(built) == 1 and normalizers == [1] and report.nu_p == built[0].nu == 27
    assert _views(built[0]) == {"classes", "_orbit"}


@pytest.mark.parametrize("criterion", [counting_bound_test, p_element_count_bound, small_nu_test])
def test_nu_only_criteria_build_no_view(watched, criterion):
    # S_4 at p = 3: nu = 4 <= 9 and nine 3-elements, so all three criteria run to the end
    built, normalizers = watched
    criterion(symmetric_group(4), 3)
    assert len(built) == 1 and normalizers == [1] and built[0].nu == 4 and _views(built[0]) == set()
