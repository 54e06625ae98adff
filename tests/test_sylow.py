import pytest

from sylowcover import (
    DomainError,
    Permutation,
    alternating_group,
    decide_redundant_bruteforce,
    enumerate_group,
    enumerate_sylows,
    find_sylow,
    minimal_cover,
)
from sylowcover.groups import FiniteGroup
from sylowcover.perm import PermutationOps
from sylowcover.sylow import EXACT_COVER_NU_BOUND

# FiniteGroup.mul calls made by brute decides of A_7 at p = 2, 3, 5, 7: 357
# with the hot loops on element keys (39845 when every product went through
# the index table)
A7_BRUTE_INDEX_MULS = 357


def test_find_sylow_s4(s4):
    assert find_sylow(s4, 2).order == 8
    assert find_sylow(s4, 3).order == 3


def test_find_sylow_coprime_prime(s4):
    assert find_sylow(s4, 5).order == 1


def test_sylow_system_s4(s4):
    system = enumerate_sylows(s4, 2)
    assert system.nu == 3
    assert system.sylow_order == 8
    assert system.multiplicity[s4.identity] == 3
    # conservation: total membership incidences equal the multiplicity sum
    assert sum(sub.order for sub in system.sylows) == sum(system.multiplicity.values())


def test_sylow_congruence_and_normalizer_cross_check(s4, a4, s8, g108):
    for group, p in ((s4, 2), (s4, 3), (a4, 2), (a4, 3), (s8, 2), (s8, 3), (g108, 2), (g108, 3)):
        system = enumerate_sylows(group, p)
        assert system.nu % p == 1
        assert system.nu == group.order // system.normalizer_order


def test_normal_sylow_multiplicities(a4):
    system = enumerate_sylows(a4, 2)  # the Klein subgroup is normal
    assert system.nu == 1
    assert all(count == 1 for count in system.multiplicity.values())


def test_every_sylow_member_is_p_element(s4):
    system = enumerate_sylows(s4, 2)
    assert set(system.multiplicity) == set(system.p_elements)


def test_unique_witnesses_with_normal_sylow(a4):
    system = enumerate_sylows(a4, 2)
    assert system.unique_witnesses() == system.p_elements


def test_equi_biconditional(s4, s3, a4, g108, frobenius21, c6):
    # redundant verdict holds exactly when no multiplicity-1 element exists
    for group in (s4, s3, a4, g108, frobenius21, c6):
        for p in (2, 3):
            report = decide_redundant_bruteforce(group, p)
            system = enumerate_sylows(group, p)
            assert (report.verdict == "redundant") == (not system.unique_witnesses())


def test_bruteforce_witness_is_lowest_index(s4):
    report = decide_redundant_bruteforce(s4, 2)
    system = enumerate_sylows(s4, 2)
    assert report.verdict == "not-redundant"
    assert report.witness == s4.render(system.unique_witnesses()[0])
    assert report.nu_p == 3


def test_trivial_group_not_redundant():
    g = enumerate_group([Permutation.identity(4)])
    report = decide_redundant_bruteforce(g, 2)
    assert report.verdict == "not-redundant"
    assert report.nu_p == 1


def test_minimal_cover_s4_needs_all_sylows(s4):
    system = enumerate_sylows(s4, 2)
    cover = minimal_cover(system, "exact")
    assert cover.size == system.nu == 3
    assert cover.exact


def test_minimal_cover_normal_sylow(a4):
    cover = minimal_cover(enumerate_sylows(a4, 2), "greedy")
    assert cover.size == 1
    assert cover.exact


def test_minimal_cover_greedy_vs_exact_g108(g108):
    system = enumerate_sylows(g108, 2)
    greedy = minimal_cover(system, "greedy")
    exact = minimal_cover(system, "exact")
    assert exact.exact
    assert exact.size <= greedy.size <= 12
    assert exact.size == 9


def test_minimal_cover_budget_exhaustion(g108):
    system = enumerate_sylows(g108, 2)
    result = minimal_cover(system, "exact", budget=2)
    assert not result.exact
    assert result.size >= 9  # best-so-far is still a true cover


def test_minimal_cover_rejects_bad_mode(s4):
    with pytest.raises(DomainError):
        minimal_cover(enumerate_sylows(s4, 2), "fastest")


def test_exact_cover_nu_bound(s8):
    system = enumerate_sylows(s8, 2)
    assert system.nu > EXACT_COVER_NU_BOUND
    with pytest.raises(DomainError):
        minimal_cover(system, "exact")


def test_cover_is_verified_cover(g108):
    system = enumerate_sylows(g108, 2)
    for mode in ("greedy", "exact"):
        result = minimal_cover(system, mode)
        covered = set()
        for i in result.chosen:
            covered.update(system.sylows[i].indices)
        assert covered == set(system.p_elements)


def test_sylow_caching_returns_same_system(s4):
    assert enumerate_sylows(s4, 2) is enumerate_sylows(s4, 2)


def test_s5_and_a5_have_no_redundant_sylow_subgroup():
    from sylowcover import alternating_group, symmetric_group

    s5 = symmetric_group(5)
    a5 = alternating_group(5)
    for p in (2, 3, 5):
        assert decide_redundant_bruteforce(s5, p).verdict == "not-redundant"
        assert decide_redundant_bruteforce(a5, p).verdict == "not-redundant"


def test_brute_decide_scans_once_and_stays_on_keys(monkeypatch):
    calls = {"scan": 0, "mul": 0}
    scan, mul = PermutationOps.key_is_p_element, FiniteGroup.mul

    def counted_scan(self, key, p):
        calls["scan"] += 1
        return scan(self, key, p)

    def counted_mul(self, i, j):
        calls["mul"] += 1
        return mul(self, i, j)

    monkeypatch.setattr(PermutationOps, "key_is_p_element", counted_scan)
    monkeypatch.setattr(FiniteGroup, "mul", counted_mul)
    group = alternating_group(7)
    for p in (2, 3, 5, 7):
        calls["scan"] = 0
        decide_redundant_bruteforce(group, p)
        # one p-element scan per (group, p), shared by find_sylow and the
        # union cross-check
        assert calls["scan"] == group.order, p
    assert calls["mul"] <= 2 * A7_BRUTE_INDEX_MULS
