import pytest

from sylowcover import (
    HypothesisFailed,
    Permutation,
    alternating_group,
    class_size_test,
    counting_bound_test,
    cyclic_quotient_test,
    decide_redundant_bruteforce,
    enumerate_sylows,
    find_sylow,
    load_fixture,
    navarro_test,
    normal_p_complement,
    p_element_count_bound,
    pnilpotent_test,
    small_nu_test,
    symmetric_group,
    ti_test,
)
from sylowcover.criteria import run_structural_criteria

from conftest import FIXTURE_DIR, index_closure


def a8_double_four_cycle(a8):
    return a8.index_of(Permutation.from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)]))


def test_class_size_a8_counterexample(a8):
    # equality |x^G| = |x^P| * nu_2 holds, yet x is in several Sylow subgroups:
    # only the stronger |x^G n P| version detects uniqueness
    x = a8_double_four_cycle(a8)
    system = enumerate_sylows(a8, 2)
    outcome = class_size_test(a8, 2, x)
    ev = outcome.evidence
    assert ev["class_size"] == 1260
    assert ev["nu_p"] == 315
    assert ev["multiplicity"] > 1
    assert outcome.verdict == "inconclusive"
    # the weaker product bound is attained even though x is not unique-Sylow
    p_class = [y for y in a8.conjugacy_class(x) if y in system.sylow_containing(x)]
    assert ev["class_size"] <= len(p_class) * ev["nu_p"]


def test_class_size_identity(s4):
    outcome = class_size_test(s4, 2, s4.identity)
    assert outcome.verdict == "inconclusive"
    assert outcome.evidence["class_size"] == 1


def test_class_size_equality_detects_witness(s8):
    x = s8.index_of(Permutation.from_cycles(8, [tuple(range(1, 9))]))
    outcome = class_size_test(s8, 2, x)
    assert outcome.verdict == "implies-not-redundant"
    assert outcome.evidence["multiplicity"] == 1


def test_counting_bound_g108(g108):
    outcome = counting_bound_test(g108, 2)
    assert outcome.evidence == {"p_element_count": 28, "nu_p": 27}
    assert outcome.verdict == "inconclusive"
    # ...even though the group is in fact redundant: the converse fails
    assert decide_redundant_bruteforce(g108, 2).verdict == "redundant"


def test_counting_bound_normal_sylow(a4):
    assert counting_bound_test(a4, 2).verdict == "inconclusive"


def test_counting_bound_s4(s4):
    outcome = counting_bound_test(s4, 2)
    assert outcome.evidence["p_element_count"] == 16
    assert outcome.verdict == "inconclusive"


def test_navarro_identity_fails_containment(s4):
    outcome = navarro_test(s4, 2, s4.identity)
    assert not outcome.evidence["containment_holds"]  # C(1) = G but N(P) < G
    assert outcome.evidence["multiplicity"] == 3


def test_navarro_containment_for_multiplicity_one(s4):
    system = enumerate_sylows(s4, 2)
    witness = system.unique_witnesses()[0]
    outcome = navarro_test(s4, 2, witness)
    assert outcome.evidence["containment_holds"]


def test_navarro_converse_fails_on_a8(a8):
    x = a8_double_four_cycle(a8)
    outcome = navarro_test(a8, 2, x)
    assert outcome.evidence["containment_holds"]
    assert outcome.evidence["multiplicity"] > 1


def test_navarro_group_form(g108, s4):
    assert navarro_test(g108, 2).verdict == "implies-redundant"
    assert navarro_test(s4, 2).verdict == "inconclusive"


def test_cyclic_quotient_s4_p3(s4):
    outcome = cyclic_quotient_test(s4, 3)
    assert outcome.verdict == "implies-not-redundant"
    assert "witness" in outcome.evidence


def test_cyclic_quotient_normal_sylow(a4):
    assert cyclic_quotient_test(a4, 2).verdict == "implies-not-redundant"


def test_cyclic_quotient_quaternion_over_center():
    from sylowcover import build_family

    group = build_family("SL2", {"q": 11})
    outcome = cyclic_quotient_test(group, 2)
    assert outcome.verdict == "inconclusive"
    assert outcome.evidence["core_order"] == 2
    assert outcome.evidence["sylow_order"] == 8


def test_ti_sl28(sl28):
    outcome = ti_test(sl28, 2)
    assert outcome.verdict == "implies-not-redundant"
    assert outcome.evidence["largest_pairwise_intersection"] == 1


def test_ti_vacuous_with_normal_sylow(a4):
    assert ti_test(a4, 2).verdict == "implies-not-redundant"


def test_ti_s4_inconclusive(s4):
    outcome = ti_test(s4, 2)
    assert outcome.verdict == "inconclusive"
    assert outcome.evidence["largest_pairwise_intersection"] == 4


def test_normal_p_complement(g108, frobenius21, s4):
    assert normal_p_complement(g108, 2).order == 27
    assert normal_p_complement(frobenius21, 3).order == 7
    assert normal_p_complement(s4, 2) is None  # S_4 has no normal 2-complement


def test_pnilpotent_g108_redundant(g108):
    outcome = pnilpotent_test(g108, 2)
    assert outcome.verdict == "implies-redundant"
    assert decide_redundant_bruteforce(g108, 2).verdict == "redundant"


def test_pnilpotent_frobenius_not_redundant(frobenius21):
    outcome = pnilpotent_test(frobenius21, 3)
    assert outcome.verdict == "implies-not-redundant"
    assert decide_redundant_bruteforce(frobenius21, 3).verdict == "not-redundant"


def test_pnilpotent_direct_product_rejected(c6):
    # C2 x C3: the complement is centralized by the whole Sylow subgroup
    with pytest.raises(HypothesisFailed):
        pnilpotent_test(c6, 2)


def test_pnilpotent_rejected_without_complement(s4):
    with pytest.raises(HypothesisFailed):
        pnilpotent_test(s4, 2)


def test_p_element_count_bound_s4_equality(s4):
    outcome = p_element_count_bound(s4, 2)
    assert outcome.evidence == {"p_element_count": 16, "lower_bound": 16}


def test_p_element_count_bound_a8(a8):
    outcome = p_element_count_bound(a8, 2)
    assert outcome.evidence["p_element_count"] >= 2**7


def test_p_element_count_bound_normal_sylow(s3):
    with pytest.raises(HypothesisFailed):
        p_element_count_bound(s3, 3)


def test_small_nu_s4(s4):
    for p in (2, 3):
        outcome = small_nu_test(s4, p)
        assert outcome.verdict == "implies-not-redundant"
        assert outcome.evidence["quotient_p_part"] == p


def test_small_nu_rejects_large_counts(a8):
    with pytest.raises(HypothesisFailed):
        small_nu_test(a8, 2)  # nu = 315 > 4


def test_small_nu_rejects_normal_sylow(a4):
    with pytest.raises(HypothesisFailed):
        small_nu_test(a4, 2)


def test_pnilpotent_class_size_refinement(g108, frobenius21):
    # in a group with a normal p-complement, |x^G| <= nu_p |x^P| for x in P,
    # with equality exactly at multiplicity-1 elements
    for group, p in ((g108, 2), (frobenius21, 3)):
        system = enumerate_sylows(group, p)
        sylow = system.sylows[0]
        for x in sylow.indices:
            class_size = len(group.conjugacy_class(x))
            p_class = len({group.conjugate(x, g) for g in sylow.indices})
            assert class_size <= system.nu * p_class
            assert (class_size == system.nu * p_class) == (system.multiplicity[x] == 1)


def test_run_structural_criteria_order_and_shortcut(s4, sl28):
    verdict, outcomes = run_structural_criteria(s4, 3)
    assert verdict == "not-redundant"
    assert outcomes[-1].name == "cyclic-quotient"
    verdict, outcomes = run_structural_criteria(sl28, 2)
    assert verdict == "not-redundant"


def test_run_structural_criteria_all_inconclusive(g108):
    verdict, outcomes = run_structural_criteria(g108, 2)
    assert verdict is None
    assert [o.name for o in outcomes] == ["cyclic-quotient", "ti-sylow"]


@pytest.mark.parametrize("name", ["S4", "A4", "A5", "S5", "frobenius21", "g108", "sl23_matrix", "sl28"])
def test_cyclic_quotient_witness_is_the_first_generator_over_the_core(name, s4, a4):
    # the definition: the first x of P with |<O_p(G), x>| = |P|, each closure
    # taken breadth-first through the index table
    groups = {"S4": lambda: s4, "A4": lambda: a4, "A5": lambda: alternating_group(5),
              "S5": lambda: symmetric_group(5)}
    group = groups.get(name, lambda: load_fixture(FIXTURE_DIR / f"{name}.json"))()
    for p, _ in group.order_factorization():
        sylow = find_sylow(group, p)
        core = group.largest_normal_p_subgroup(p).indices
        expected = next(
            (x for x in sylow.indices if len(index_closure(group, [*core, x])) == sylow.order), None
        )
        outcome = cyclic_quotient_test(group, p)
        assert outcome.evidence["cyclic_quotient"] == (expected is not None), (name, p)
        assert outcome.evidence.get("witness") == (
            None if expected is None else group.render(expected)
        ), (name, p)
