import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from sylowcover import (
    CoverResult,
    DomainError,
    Permutation,
    alternating_group,
    build_family,
    class_size_test,
    decide_redundant_bruteforce,
    enumerate_group,
    enumerate_sylows,
    find_sylow,
    load_fixture,
    minimal_cover,
    symmetric_group,
)
from sylowcover import sylow
from sylowcover.cli import main
from sylowcover.criteria import run_structural_criteria
from sylowcover.groups import FiniteGroup, Subgroup
from sylowcover.numtheory import factorization, p_part
from sylowcover.perm import PermutationOps
from sylowcover.sylow import EXACT_COVER_NU_BOUND

from conftest import FIXTURE_DIR, index_closure



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


def test_both_views_catch_a_wrong_normalizer_that_passes_the_congruence(monkeypatch):
    # S_4 at p = 3 has nu = 4; N_G(P) taken as all of G gives nu = 1, which
    # is still 1 (mod 3), so only the views can see it
    monkeypatch.setattr(FiniteGroup, "normalizer", lambda group, sub: Subgroup(group, range(group.order)))
    system = enumerate_sylows(symmetric_group(4), 3)
    assert system.nu == 1
    with pytest.raises(RuntimeError, match="orbit of 4 Sylow subgroups"):
        system.sylows
    with pytest.raises(RuntimeError, match=r"= 2 over \|C\| = 8"):
        system.classes


def test_both_views_catch_a_p_element_scan_that_misses_an_element():
    s4 = symmetric_group(4)
    find_sylow(s4, 2)
    s4._p_elements[2] = s4._p_elements[2][:-1]
    system = enumerate_sylows(s4, 2)
    with pytest.raises(RuntimeError, match="union of Sylow subgroups"):
        system.sylows
    with pytest.raises(RuntimeError, match="not a multiple of"):
        system.classes


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
        # class walk
        assert calls["scan"] == group.order, p
    # closures, generating sets and Subgroup.verify run on element keys too
    # (357 index products while they did not, 39845 when every product did)
    assert calls["mul"] == 0


def test_auto_decide_and_cover_grow_each_sylow_once_on_keys(monkeypatch, capsys):
    # one auto decide and one cover per p, each loading its own g108: no
    # product goes through the index table, no caller re-closes a subgroup,
    # and find_sylow grows P once per (group, p) although criteria, O_p and
    # the Sylow orbit all ask for it
    grown = []
    mul_calls = closures = 0
    mul, closure = FiniteGroup.mul, FiniteGroup.subgroup_closure

    class CountedClosure(sylow.KeyClosure):
        def __init__(self, group):
            grown.append(group)
            super().__init__(group)

    def counted_mul(self, i, j):
        nonlocal mul_calls
        mul_calls += 1
        return mul(self, i, j)

    def counted_closure(self, seed):
        nonlocal closures
        closures += 1
        return closure(self, seed)

    monkeypatch.setattr(sylow, "KeyClosure", CountedClosure)
    monkeypatch.setattr(FiniteGroup, "mul", counted_mul)
    monkeypatch.setattr(FiniteGroup, "subgroup_closure", counted_closure)
    fixture = str(FIXTURE_DIR / "g108.json")
    for p in ("2", "3"):
        for argv in (["decide"], ["cover", "--mode", "exact"]):
            assert main([*argv, "--fixture", fixture, "--p", p, "--format", "json"]) == 0
    capsys.readouterr()
    assert mul_calls == closures == 0
    assert len(grown) == 4 and len({id(group) for group in grown}) == 4


def _reference_find_sylow(group, p):
    """find_sylow's growth, testing x^-1 h x on indices through the inverse table."""
    members = {group.identity}
    gens = []
    while len(members) < p_part(group.order, p):
        gens.append(next(
            x for x in group.p_elements(p)
            if x not in members and all(group.conjugate(h, x) in members for h in gens)
        ))
        members = index_closure(group, gens)
    return frozenset(members)


@pytest.mark.parametrize("name", ["S4", "A5", "A7", "PSL2_25", "frobenius21", "g108", "sl23_matrix", "sl28"])
def test_find_sylow_matches_the_inverse_table_reference(name):
    if name in ("S4", "A5", "A7"):
        group = (symmetric_group if name == "S4" else alternating_group)(int(name[1]))
    elif name == "PSL2_25":
        group = build_family("PSL2", {"q": 25})
    else:
        group = load_fixture(FIXTURE_DIR / f"{name}.json")
    for p, _ in group.order_factorization():
        assert find_sylow(group, p).member_set() == _reference_find_sylow(group, p), (name, p)


def test_permutation_paths_build_no_inverse_table():
    group = alternating_group(7)
    for p in (2, 3, 5, 7):
        decide_redundant_bruteforce(group, p)
        minimal_cover(enumerate_sylows(group, p), "greedy")
        run_structural_criteria(group, p)
        class_size_test(group, p, group.p_elements(p)[1])
    assert group._inv is None


def _reference_greedy_cover(masks, full):
    """Reference greedy loop: the union with every mask, every round; first best gain wins."""
    chosen = []
    covered = 0
    while covered != full:
        best_idx = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m | covered).bit_count() - covered.bit_count()
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx < 0:
            raise RuntimeError("greedy cover stalled")
        chosen.append(best_idx)
        covered |= masks[best_idx]
    return chosen


@pytest.mark.parametrize("name, p", [
    ("s4", 2), ("s4", 3), ("a5", 2), ("a5", 3), ("a5", 5),
    ("g108", 2), ("g108", 3), ("s8", 2), ("s8", 7),
])
def test_greedy_cover_matches_the_reference_loop(request, name, p):
    group = alternating_group(5) if name == "a5" else request.getfixturevalue(name)
    masks, full = sylow._cover_masks(enumerate_sylows(group, p))
    assert sylow._greedy_cover(masks, full) == _reference_greedy_cover(masks, full)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=10), st.data())
def test_greedy_cover_matches_the_reference_on_tied_masks(base, data):
    # repeated masks over an 8-point universe make equal gains common, and an
    # extra point outside every mask makes the cover stall
    masks = data.draw(st.permutations(base + data.draw(st.lists(st.sampled_from(base), max_size=6))))
    full = functools.reduce(operator.or_, masks) | data.draw(st.sampled_from([0, 1 << 8]))
    try:
        expected = _reference_greedy_cover(masks, full)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            sylow._greedy_cover(masks, full)
    else:
        assert sylow._greedy_cover(masks, full) == expected


def _reference_forced(system, masks):
    """Reference essential set: for each p-element of multiplicity one, the
    first subgroup holding it."""
    return sorted({
        next(i for i, m in enumerate(masks) if (m >> pos) & 1)
        for pos, x in enumerate(system.p_elements)
        if system.multiplicity[x] == 1
    })


@pytest.mark.parametrize("name", ["s4", "a5", "g108", "frobenius21", "sl28"])
def test_exact_cover_matches_the_reference_forced_set(request, monkeypatch, name):
    group = alternating_group(5) if name == "a5" else request.getfixturevalue(name)
    greedy_calls = []
    greedy = sylow._greedy_cover
    monkeypatch.setattr(sylow, "_greedy_cover", lambda *args: greedy_calls.append(1) or greedy(*args))
    for p, _ in factorization(group.order):
        system = enumerate_sylows(group, p)
        forced = _reference_forced(system, sylow._cover_masks(system)[0])
        everything = list(range(system.nu))
        # conjugate Sylow subgroups: every one is forced, or none is
        assert forced in ([], everything), (name, p)
        greedy_calls.clear()
        cover = minimal_cover(system, "exact")
        if forced:
            assert cover == CoverResult(tuple(everything), exact=True, nodes=0)
            assert greedy_calls == []
        else:
            assert cover.exact and cover.nodes > 0 and greedy_calls == [1]
            assert cover.size <= minimal_cover(system, "greedy").size
