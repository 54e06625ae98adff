"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest

from sylowcover import (
    HypothesisFailed,
    Permutation,
    alternating_group,
    build_family,
    class_size_test,
    counting_bound_test,
    cyclic_quotient_test,
    decide_redundant_bruteforce,
    enumerate_sylows,
    gl_wreath_checks,
    minimal_cover,
    navarro_test,
    p_element_count_bound,
    pnilpotent_test,
    small_nu_test,
    symmetric_group,
    theorem_B_decide,
    theorem_C_decide,
    theorem_D_decide,
    ti_test,
)
from sylowcover.numtheory import factorization

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    state = {"summary": ""}
    try:
        yield state
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL after {time.perf_counter() - start:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    note = f" — {state['summary']}" if state["summary"] else ""
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s{note}")


def test_acceptance_1_theorem_c_oracle_equivalence():
    with criterion(1, "unique-Sylow 2-elements of S_n match the cycle-type test", budget_s=60) as state:
        for n in range(2, 9):
            group = symmetric_group(n)
            system = enumerate_sylows(group, 2)
            from_multiplicity = set(system.unique_witnesses())
            from_cycle_types = {
                x for x in system.p_elements
                if theorem_C_decide(group.element(x).cycle_type())
            }
            assert from_multiplicity == from_cycle_types, f"mismatch at n = {n}"
        state["summary"] = "element-for-element equality for n = 2..8"


def test_acceptance_2_theorem_b_desk_scale():
    with criterion(2, "alternating groups at p = 2: redundant exactly at n = 9", budget_s=600) as state:
        verdicts = {}
        for n in range(5, 10):
            group = alternating_group(n)
            verdicts[n] = decide_redundant_bruteforce(group, 2).verdict
        assert verdicts[9] == "redundant"
        assert all(verdicts[n] == "not-redundant" for n in range(5, 9))
        for n in range(6, 10):
            formula = "redundant" if theorem_B_decide(n, 2, "An") else "not-redundant"
            assert formula == verdicts[n], f"closed form disagrees at n = {n}"
        state["summary"] = f"brute verdicts {verdicts}; closed form agrees on n = 6..9"


def test_acceptance_3_a8_counterexample_numbers(a8):
    with criterion(3, "A_8 class of (1,2,3,4)(5,6,7,8)") as state:
        x = a8.index_of(Permutation.from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)]))
        system = enumerate_sylows(a8, 2)
        class_size = len(a8.conjugacy_class(x))
        sylow = system.sylow_containing(x)
        class_in_sylow = len({a8.conjugate(x, g) for g in sylow.indices})
        assert class_size == 1260
        assert system.nu == 315
        assert class_in_sylow == 4
        assert 1260 == 4 * 315
        assert system.multiplicity[x] > 1
        state["summary"] = f"|x^G| = 1260 = 4 * 315, multiplicity {system.multiplicity[x]}"


THEOREM_D_SWEEP_Q = (3, 4, 5, 7, 8, 9, 11, 13)


def test_acceptance_4_theorem_d_sweep():
    with criterion(4, "SL/PSL(2,q) sweep against the closed form", budget_s=300) as state:
        redundant_pairs = []
        cases = 0
        for q in THEOREM_D_SWEEP_Q:
            for family in ("SL2", "PSL2"):
                group = build_family(family, {"q": q})
                for p, _ in factorization(group.order):
                    brute = decide_redundant_bruteforce(group, p).verdict
                    fast = theorem_D_decide(family, q, p).redundant
                    assert (brute == "redundant") == fast, f"{family} q={q} p={p}"
                    cases += 1
                    if fast:
                        redundant_pairs.append((family, q, p))
        assert all(p == 2 and q in (11, 13) for _, q, p in redundant_pairs)
        assert {(q, p) for _, q, p in redundant_pairs} == {(11, 2), (13, 2)}
        state["summary"] = f"{cases} (group, p) pairs agree; redundant only at p=2, q in {{11,13}}"


def test_acceptance_5_normalizer_indices_q17_q19():
    with criterion(5, "Sylow 2-normalizer indices in SL/PSL(2,17) and (2,19)") as state:
        indices = {}
        for q, expected in ((17, 1), (19, 3)):
            sl = build_family("SL2", {"q": q})
            psl = build_family("PSL2", {"q": q})
            sl_sys = enumerate_sylows(sl, 2)
            psl_sys = enumerate_sylows(psl, 2)
            assert sl_sys.normalizer_order == expected * sl_sys.sylow_order
            assert psl_sys.normalizer_order == expected * psl_sys.sylow_order
            assert sl_sys.nu == psl_sys.nu
            indices[q] = (expected, sl_sys.nu)
        state["summary"] = f"|N(P):P| and shared nu_2: {indices}"


def test_acceptance_6_theorem_e_witness(gl34, gl24):
    with criterion(6, "GL(3,4) at p = 3 versus GL(2,4)", budget_s=900) as state:
        report34 = decide_redundant_bruteforce(gl34, 3)
        assert report34.verdict == "redundant"
        checks = gl_wreath_checks(3, 4, group=gl34)
        assert checks["sylow_order"] == 81
        assert checks["exponent"] == 9
        assert checks["abelian_maximal_count"] == 1
        report24 = decide_redundant_bruteforce(gl24, 3)
        assert report24.verdict == "not-redundant"
        from sylowcover import theorem_51_decide

        assert theorem_51_decide(3, 4, 3).redundant == (report34.verdict == "redundant")
        assert theorem_51_decide(2, 4, 3).redundant == (report24.verdict == "redundant")
        state["summary"] = (
            f"GL(3,4) redundant (nu_3 = {report34.nu_p}), Sylow = order 81 exponent 9 "
            f"with one abelian maximal subgroup; GL(2,4) not redundant"
        )


def test_acceptance_7_order_108_fixture(g108):
    with criterion(7, "order-108 fixture: counts and covers") as state:
        system = enumerate_sylows(g108, 2)
        assert system.nu == 27
        assert len(system.p_elements) == 28
        assert decide_redundant_bruteforce(g108, 2).verdict == "redundant"
        greedy = minimal_cover(system, "greedy")
        assert greedy.size <= 12
        exact = minimal_cover(system, "exact")
        assert exact.exact, "branch-and-bound must complete at nu = 27"
        assert exact.size == 9
        # independent minimality certificate: every Sylow subgroup holds at most
        # 3 of the 27 involutions, so no 8 of them can cover
        involutions = [x for x in system.p_elements if x != g108.identity]
        per_sylow = max(
            sum(1 for x in sub.indices if x in set(involutions)) for sub in system.sylows
        )
        assert per_sylow == 3
        assert math.ceil(len(involutions) / per_sylow) == exact.size
        state["summary"] = (
            f"nu_2 = 27, |G_2| = 28, redundant; greedy cover {greedy.size} <= 12, "
            f"exact cover = {exact.size} (matches the counting lower bound)"
        )


def _soundness_fixtures():
    """(descriptor, group, primes) triples for the criteria sweep."""
    fixtures = []
    for n in range(3, 9):
        fixtures.append((f"S_{n}", symmetric_group(n), (2, 3)))
    for n in range(4, 10):
        fixtures.append((f"A_{n}", alternating_group(n), (2,)))
    for q in THEOREM_D_SWEEP_Q + (17, 19):
        group = build_family("SL2", {"q": q})
        primes = tuple(p for p, _ in factorization(group.order))
        fixtures.append((f"SL(2,{q})", group, primes if q <= 13 else (2,)))
        pgroup = build_family("PSL2", {"q": q})
        pprimes = tuple(p for p, _ in factorization(pgroup.order))
        fixtures.append((f"PSL(2,{q})", pgroup, pprimes if q <= 13 else (2,)))
    return fixtures


def test_acceptance_8_criteria_soundness_sweep(g108, frobenius21, gl34, gl24, a4):
    with criterion(8, "no criterion contradicts brute force; counting bounds hold") as state:
        cases = _soundness_fixtures()
        cases.append(("g108", g108, (2, 3)))
        cases.append(("C7:C3", frobenius21, (3, 7)))
        cases.append(("GL(3,4)", gl34, (3,)))
        cases.append(("GL(2,4)", gl24, (2, 3)))
        cases.append(("A_4", a4, (2, 3)))
        implications = 0
        pel_equalities = []
        for name, group, primes in cases:
            for p in primes:
                system = enumerate_sylows(group, p)
                brute = decide_redundant_bruteforce(group, p).verdict
                outcomes = [
                    counting_bound_test(group, p),
                    cyclic_quotient_test(group, p),
                    ti_test(group, p),
                    navarro_test(group, p),
                ]
                sample = system.p_elements[1] if len(system.p_elements) > 1 else system.p_elements[0]
                outcomes.append(class_size_test(group, p, sample))
                for test in (pnilpotent_test, small_nu_test, p_element_count_bound):
                    try:
                        outcomes.append(test(group, p))
                    except HypothesisFailed:
                        pass
                for outcome in outcomes:
                    if outcome.verdict == "implies-redundant":
                        implications += 1
                        assert brute == "redundant", f"{outcome.name} wrong on {name} p={p}"
                    elif outcome.verdict == "implies-not-redundant":
                        implications += 1
                        assert brute == "not-redundant", f"{outcome.name} wrong on {name} p={p}"
                # p-element count bound and its cover consequences
                if system.nu > 1:
                    p_count = len(system.p_elements)
                    assert p_count >= system.sylow_order * p, f"count bound fails on {name} p={p}"
                    if p_count == system.sylow_order * p:
                        pel_equalities.append((name, p))
                    # no p Sylow subgroups can cover: their union is too small
                    max_union = p * (system.sylow_order - 1) + 1
                    assert max_union < p_count, f"cover-by-p not excluded on {name} p={p}"
                    if system.nu <= 64:
                        exact = minimal_cover(system, "exact", budget=200_000)
                        assert exact.size > p
                        if exact.exact:
                            assert exact.size <= system.nu
                    if system.nu <= p * p:
                        assert brute == "not-redundant", f"small-count rule fails on {name} p={p}"
        assert ("S_4", 2) in pel_equalities  # 16 = 2^4 exactly
        state["summary"] = (
            f"{len(cases)} fixtures, {implications} decisive criterion implications, "
            f"count-bound equality at {pel_equalities}"
        )
