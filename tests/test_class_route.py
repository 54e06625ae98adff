"""Class-function multiplicities against the Sylow orbit.

m(x), the number of Sylow p-subgroups containing x, is constant on classes,
and double counting the pairs (y, Q) with y in x^G and Q a Sylow subgroup
containing y gives m(x) * |x^G| = nu * |x^G ∩ P| for any one Sylow P.  Every
p-class meets P (Sylow), so each class's multiplicity can be read off P alone.
These tests check that second route against the orbit's multiplicity map,
and the brute-force decision, which takes the class route
(``class_multiplicities``), against the orbit on a second build of the group.
"""

from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings

from sylowcover import (
    alternating_group,
    build_family,
    class_multiplicities,
    decide_redundant_bruteforce,
    enumerate_group,
    enumerate_sylows,
    load_fixture,
    symmetric_group,
)
from sylowcover import cli, criteria, sylow
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


def _check_fresh_brute(build):
    """The brute decision on a group with no Sylow system, against the orbit on a second build.

    Every p dividing |G| is checked, and the least prime that does not.
    """
    fresh, reference = build(), build()
    primes = [p for p, _ in reference.order_factorization()]
    primes.append(next(q for q in count(2) if is_prime(q) and reference.order % q))
    for p in primes:
        report = decide_redundant_bruteforce(fresh, p)
        assert p not in fresh._sylow_cache, (fresh, p)
        system = enumerate_sylows(reference, p)
        witnesses = system.unique_witnesses()
        assert report.nu_p == system.nu, (fresh, p)
        assert report.verdict == ("not-redundant" if witnesses else "redundant"), (fresh, p)
        assert report.witness == (reference.render(witnesses[0]) if witnesses else None), (fresh, p)
        nu, classes = class_multiplicities(fresh, p)
        assert nu == system.nu and sum(size for _, size, _ in classes) == len(system.p_elements)
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


def test_brute_builds_no_system_and_auto_reads_ti_sylows(monkeypatch, capsys):
    calls = {"enumerate_sylows": 0, "class_multiplicities": 0}
    built = []

    def counted(name):
        real = getattr(sylow, name)

        def wrapper(group, p):
            calls[name] += 1
            return real(group, p)
        return wrapper

    class CountedSystem(sylow.SylowSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    enumerate_sylows = counted("enumerate_sylows")
    for module in (sylow, criteria, cli):
        monkeypatch.setattr(module, "enumerate_sylows", enumerate_sylows)
    monkeypatch.setattr(sylow, "class_multiplicities", counted("class_multiplicities"))
    monkeypatch.setattr(sylow, "SylowSystem", CountedSystem)

    assert decide_redundant_bruteforce(alternating_group(8), 2).nu_p == 315
    assert _decide_json(capsys, "--method", "brute", "--family", "An", "--n", "8", "--p", "2").nu_p == 315
    assert calls == {"enumerate_sylows": 0, "class_multiplicities": 2} and not built

    # g108 at p = 2: cyclic-quotient and ti-sylow are inconclusive, so the
    # auto chain falls through to brute force, which reads ti-sylow's system
    report = _decide_json(capsys, "--fixture", str(FIXTURE_DIR / "g108.json"), "--p", "2")
    assert report.method == "brute-force"
    assert [c.name for c in report.criteria] == ["cyclic-quotient", "ti-sylow"]
    assert len(built) == 1 and report.nu_p == built[0].nu == 27
    assert calls["class_multiplicities"] == 2
