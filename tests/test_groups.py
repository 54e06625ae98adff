import random

import pytest

from sylowcover import (
    ClosureBudgetExceeded,
    DomainError,
    Permutation,
    alternating_group,
    enumerate_group,
    find_sylow,
    load_fixture,
)

from conftest import FIXTURE_DIR
from oracles import closure as oracle_closure, is_p_power_order, conjugacy_class as oracle_class

S4_GENS = [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3, 4)])]


def test_enumerate_s4_order_matches_oracle(s4):
    expected = oracle_closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order == len(expected) == 24
    assert {s4.element(i).images for i in range(24)} == expected


def test_enumerate_trivial_group():
    g = enumerate_group([Permutation.identity(3)])
    assert g.order == 1
    assert g.identity == 0


def test_enumerate_a4_order(a4):
    expected = oracle_closure([(1, 2, 0, 3), (0, 2, 3, 1)])
    assert a4.order == len(expected) == 12


def test_enumeration_is_deterministic():
    g1 = enumerate_group(S4_GENS)
    g2 = enumerate_group(S4_GENS)
    assert [g1.element(i).images for i in range(g1.order)] == [
        g2.element(i).images for i in range(g2.order)
    ]


def test_identity_at_index_zero(s4):
    assert s4.element(0) == Permutation.identity(4)


def test_closure_budget():
    with pytest.raises(ClosureBudgetExceeded):
        enumerate_group(S4_GENS, cap=10)


def test_mixed_degrees_rejected():
    with pytest.raises(DomainError):
        enumerate_group([Permutation.identity(3), Permutation.identity(4)])


def test_element_order(s4):
    assert s4.element_order(s4.identity) == 1
    four_cycle = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    assert s4.element_order(four_cycle) == 4


def test_p_elements_counts_match_oracle(s4):
    elements = oracle_closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert len(s4.p_elements(2)) == sum(1 for e in elements if is_p_power_order(e, 2)) == 16
    assert len(s4.p_elements(3)) == sum(1 for e in elements if is_p_power_order(e, 3)) == 9


def test_p_elements_of_p_prime_group(s3):
    # p does not divide |S_3| = 6
    assert s3.p_elements(5) == [s3.identity]


def test_p_prime_elements(s4):
    assert len(s4.p_prime_elements(2)) == 9  # identity and the eight 3-cycles
    assert len(s4.p_prime_elements(3)) == 16


def test_conjugacy_class_identity(s4):
    assert s4.conjugacy_class(s4.identity) == (s4.identity,)


def test_conjugacy_class_four_cycle_matches_oracle(s4):
    elements = oracle_closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    expected = oracle_class((1, 2, 3, 0), elements)
    cls = s4.conjugacy_class(x)
    assert len(cls) == len(expected) == 6
    assert {s4.element(i).images for i in cls} == expected


def test_orbit_stabilizer_on_random_elements(s8):
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randrange(s8.order)
        cls = s8.conjugacy_class(x)
        assert len(cls) * s8.centralizer(x).order == s8.order


def test_centralizer_of_identity_is_group(s4):
    assert s4.centralizer(s4.identity).order == s4.order


def test_centralizer_contains_cyclic_subgroup(s4):
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    cent = s4.centralizer(x)
    assert x in cent
    assert s4.power(x, 2) in cent


def test_normalizer_of_whole_group(s4):
    assert s4.normalizer(s4.full_subgroup()).order == s4.order


@pytest.mark.parametrize("name", ["S4", "A5", "frobenius21", "g108", "sl23_matrix", "sl28"])
def test_normalizer_matches_definition(name, s4):
    # the definition {g : g^-1 H g = H}, through the index table's mul
    if name == "S4":
        group = s4
    elif name == "A5":
        group = alternating_group(5)
    else:
        group = load_fixture(FIXTURE_DIR / f"{name}.json")
    for p, _ in group.order_factorization():
        sylow = find_sylow(group, p)
        cyclic = group.subgroup_closure([group.p_elements(p)[1]])
        for sub in (sylow, cyclic):
            members = sub.member_set()
            expected = [
                g for g in range(group.order)
                if {group.mul(group.mul(group.inv(g), x), g) for x in sub.indices} == members
            ]
            assert group.normalizer(sub).indices == tuple(expected), (name, p, sub.order)


def test_subgroup_closure_trivial(s4):
    assert s4.subgroup_closure([s4.identity]).order == 1


def test_subgroup_closure_cyclic(s4):
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    sub = s4.subgroup_closure([x])
    assert sub.order == 4
    sub.verify()


def test_subgroup_closure_two_transpositions(s3):
    a = s3.index_of(Permutation.from_cycles(3, [(1, 2)]))
    b = s3.index_of(Permutation.from_cycles(3, [(2, 3)]))
    assert s3.subgroup_closure([a, b]).order == 6


def test_subgroup_lagrange_violation_rejected(s4):
    from sylowcover.groups import Subgroup

    with pytest.raises(DomainError):
        Subgroup(s4, range(5))  # 5 does not divide 24


def test_subgroup_verify_rejects_non_closed_set(s4):
    from sylowcover.groups import Subgroup

    transposition = s4.index_of(Permutation.from_cycles(4, [(1, 2)]))
    three_cycle = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3)]))
    bad = Subgroup(s4, [s4.identity, transposition, three_cycle])
    with pytest.raises(DomainError):
        bad.verify()


def test_largest_normal_p_subgroup_a4(a4):
    assert a4.largest_normal_p_subgroup(2).order == 4


def test_largest_normal_p_subgroup_s4(s4):
    assert s4.largest_normal_p_subgroup(3).order == 1
    assert s4.largest_normal_p_subgroup(2).order == 4  # the Klein subgroup


def test_largest_normal_p_subgroup_for_coprime_p(s3):
    assert s3.largest_normal_p_subgroup(5).order == 1


def test_group_self_check(s4, a4):
    s4.self_check()
    a4.self_check()


def test_power_negative_exponent(s4):
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    assert s4.power(x, -1) == s4.inv(x)
    assert s4.power(x, 0) == s4.identity
