import pytest

from sylowcover import (
    DomainError,
    Permutation,
    enumerate_sylows,
    expansion,
    partition_parity,
    partition_x,
    partition_y,
    symmetric_group,
    theorem_B_decide,
    theorem_C_decide,
    type_set,
    unique_sylow_witness,
)

from paper_checks import (
    BlockStructure, all_block_structures, base_block_structure, canonical_element_of_type,
    conjugate, preserved_structure_count, structure_stabilizer,
)


def test_expansion_examples():
    e9 = expansion(9, 2)
    assert e9.digits == (1, 0, 0, 1)
    e12 = expansion(12, 2)
    assert e12.digits == (0, 0, 1, 1)
    assert e12.r == 2
    e10 = expansion(10, 3)
    assert e10.digits == (1, 0, 1)


def test_expansion_reconstructs_n():
    for n in range(1, 200):
        for p in (2, 3, 5):
            e = expansion(n, p)
            assert sum(d * p**i for i, d in enumerate(e.digits)) == n


def test_partition_x_examples():
    assert partition_x(9, 2) == (8, 1)
    assert partition_x(6, 2) == (4, 2)
    assert partition_x(8, 2) == (8,)
    assert partition_x(27, 3) == (27,)
    assert partition_x(10, 3) == (9, 1)


def test_partition_y_examples():
    assert partition_y(6) == (4, 1, 1)
    assert partition_y(16) == (8, 4, 2, 1, 1)
    assert partition_y(4) == (2, 1, 1)


def test_partition_y_domain():
    with pytest.raises(DomainError):
        partition_y(7)
    with pytest.raises(DomainError):
        partition_y(2)


def test_type_set():
    assert type_set(9) == {(8, 1)}
    assert type_set(6) == {(4, 2), (4, 1, 1)}
    assert type_set(2) == {(2,)}


def test_partition_parity_examples():
    assert partition_parity(partition_x(9, 2)) == "odd"
    assert partition_parity(partition_x(6, 2)) == "even"
    assert partition_parity(partition_y(6)) == "odd"
    assert partition_parity((1, 1, 1, 1)) == "even"


def test_parity_agrees_with_digit_formulas_up_to_2_16():
    # cross-check sum(part-1) parity against the digit-sum/lowest-bit rules
    for n in range(2, 2**16 + 1):
        e = expansion(n, 2)
        x_odd = partition_parity(partition_x(n, 2)) == "odd"
        if n % 2 == 1:
            assert x_odd == (e.digit_sum(1) % 2 == 1)
        elif n >= 4:
            y_odd = partition_parity(partition_y(n)) == "odd"
            assert (x_odd and y_odd) == (e.r >= 2 and e.r % 2 == 0 and e.digit_sum(e.r) % 2 == 1)


def test_theorem_C_examples():
    assert theorem_C_decide((4, 2, 1, 1))
    assert not theorem_C_decide((4, 4))
    assert not theorem_C_decide((1, 1, 1))
    assert theorem_C_decide((2,))
    assert theorem_C_decide((1, 1))
    with pytest.raises(DomainError):
        theorem_C_decide((3, 1))


def test_theorem_B_formula_values():
    assert theorem_B_decide(9, 2, "An")
    assert not theorem_B_decide(12, 2, "An")
    for n in (6, 7, 8, 10, 11, 13):
        assert not theorem_B_decide(n, 2, "An")
    for n in range(6, 14):
        assert not theorem_B_decide(n, 2, "Sn")
        assert not theorem_B_decide(n, 3, "An")
    # 22 = 2 + 4 + 16 has lowest bit r = 1: not redundant; 20 = 4 + 16 has
    # r = 2 and digit sum 2: not redundant; 36 = 4 + 32 has r = 2, sum 2: no.
    assert not theorem_B_decide(22, 2, "An")
    assert not theorem_B_decide(20, 2, "An")
    # 84 = 4 + 16 + 64: r = 2 even, digit sum 3 odd: redundant
    assert theorem_B_decide(84, 2, "An")


def test_theorem_B_domain():
    with pytest.raises(DomainError):
        theorem_B_decide(5, 2, "An")
    with pytest.raises(DomainError):
        theorem_B_decide(6, 7, "An")
    with pytest.raises(DomainError):
        theorem_B_decide(9, 2, "Dn")


def test_zero_lengths_and_empty_blocks_are_refused():
    # each of these used to loop forever stripping factors of p from 0 or by p = 1
    with pytest.raises(DomainError):
        theorem_C_decide((0,))
    with pytest.raises(DomainError):
        BlockStructure(4, 2, [[]])
    with pytest.raises(DomainError):
        BlockStructure(4, 1, [[1]])


def test_base_block_structures():
    assert base_block_structure(4, 2).blocks == ((1, 2, 3, 4), (1, 2), (3, 4))
    assert base_block_structure(6, 2).blocks == ((1, 2, 3, 4), (1, 2), (3, 4), (5, 6))
    assert base_block_structure(3, 3).blocks == ((1, 2, 3),)


def test_block_structure_validation():
    with pytest.raises(DomainError):
        BlockStructure(4, 2, [(1, 2, 3)])  # size not a power of 2
    with pytest.raises(DomainError):
        BlockStructure(4, 2, [(1, 2), (2, 3)])  # neither nested nor disjoint
    with pytest.raises(DomainError):
        BlockStructure(4, 2, [(1, 2, 3, 4), (1, 2)])  # missing sibling child


def test_structure_stabilizer_orders(s4):
    stab = structure_stabilizer(base_block_structure(4, 2), s4)
    assert stab.order == 8
    stab.verify()
    s6 = symmetric_group(6)
    assert structure_stabilizer(base_block_structure(6, 2), s6).order == 16
    s3 = symmetric_group(3)
    assert structure_stabilizer(base_block_structure(3, 3), s3).order == 3


def test_structure_counts_match_sylow_counts():
    for n, p in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3)):
        group = symmetric_group(n)
        assert len(all_block_structures(n, p)) == enumerate_sylows(group, p).nu


def test_structure_stabilizers_biject_with_sylows():
    for n, p in ((4, 2), (5, 2), (6, 2), (6, 3)):
        group = symmetric_group(n)
        system = enumerate_sylows(group, p)
        stabilizers = {
            structure_stabilizer(structure, group).member_set()
            for structure in all_block_structures(n, p)
        }
        assert stabilizers == {sub.member_set() for sub in system.sylows}


def test_preserved_structure_counts():
    assert preserved_structure_count(Permutation.from_cycles(8, [tuple(range(1, 9))]), 2) == 1
    assert preserved_structure_count(Permutation.from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)]), 2) > 1
    assert preserved_structure_count(Permutation.identity(4), 2) == 3


def test_preserved_structure_count_matches_multiplicity(s4):
    system = enumerate_sylows(s4, 2)
    for x in system.p_elements:
        assert preserved_structure_count(s4.element(x), 2) == system.multiplicity[x]


def test_preserved_structure_count_rejects_non_p_element():
    with pytest.raises(DomainError):
        preserved_structure_count(Permutation.from_cycles(6, [(1, 2, 3)]), 2)


def test_canonical_element_of_type():
    x = canonical_element_of_type(9, (8, 1))
    assert x.cycle_type() == (8, 1)
    assert x.cycle_string() == "(1,2,3,4,5,6,7,8)"
    with pytest.raises(DomainError):
        canonical_element_of_type(9, (8, 2))


def test_unique_sylow_witness():
    # the witness is a cycle type, fixed points included
    assert unique_sylow_witness(8, 2, "Sn") == (8,)
    assert unique_sylow_witness(9, 2, "An") is None  # A_9 is redundant
    w12 = unique_sylow_witness(12, 2, "An")
    assert w12 is not None and partition_parity(w12) == "even"
    w9_3 = unique_sylow_witness(9, 3, "An")
    assert w9_3 == (9,) and partition_parity(w9_3) == "even"


def test_block_structure_api_refuses_p_at_least_5():
    # S_p has (p - 2)! Sylow p-subgroups, so for p >= 5 a structure does not
    # name one: S_7 has 21 structures at p = 5 but 126 Sylow 5-subgroups, and
    # (1 2 3 4 5) in S_10 preserves 1 structure but lies in 6 of them
    with pytest.raises(DomainError):
        all_block_structures(7, 5)
    with pytest.raises(DomainError):
        preserved_structure_count(Permutation.from_cycles(10, [(1, 2, 3, 4, 5)]), 5)
    with pytest.raises(DomainError):
        preserved_structure_count(Permutation.from_cycles(7, [tuple(range(1, 8))]), 7)


def test_witness_types_are_unique_sylow_elements(s8):
    # elements of the distinguished types have multiplicity 1 (here n = 8, p = 2)
    system = enumerate_sylows(s8, 2)
    for parts in type_set(8):
        x = s8.index_of(canonical_element_of_type(8, parts))
        assert system.multiplicity[x] == 1


def test_cycle_type_conjugation_invariant_in_s8(s8):
    import random

    rng = random.Random(11)
    for _ in range(1000):
        x = rng.randrange(s8.order)
        g = rng.randrange(s8.order)
        image = conjugate(s8, x, g)
        assert s8.element(image).cycle_type() == s8.element(x).cycle_type()


def test_sylow_two_normalizers_and_bijection_n6_to_n9(s8, a8, s9, a9):
    from sylowcover import alternating_group as build_an, symmetric_group as build_sn

    groups = {
        6: (build_sn(6), build_an(6)),
        7: (build_sn(7), build_an(7)),
        8: (s8, a8),
        9: (s9, a9),
    }
    for n, (sn, an) in groups.items():
        sn_system = enumerate_sylows(sn, 2)
        an_system = enumerate_sylows(an, 2)
        # self-normalizing Sylow 2-subgroups on both sides
        assert sn_system.normalizer_order == sn_system.sylow.order, f"S_{n}"
        assert an_system.normalizer_order == an_system.sylow.order, f"A_{n}"
        assert sn_system.nu == an_system.nu, f"n = {n}"
        # P -> P n A_n is a bijection onto the Sylow subgroups of A_n
        even = {
            frozenset(x for x in sub.indices if sn.element(x).is_even())
            for sub in sn_system.sylows
        }
        assert len(even) == sn_system.nu
        an_sets = {
            frozenset(sn.index_of(an.element(x)) for x in sub.indices)
            for sub in an_system.sylows
        }
        assert even == an_sets, f"n = {n}"


def test_x_type_elements_have_multiplicity_one_up_to_n9(s9):
    from sylowcover import symmetric_group as build_sn

    for n in range(2, 10):
        group = s9 if n == 9 else build_sn(n)
        for p in (2, 3, 5):
            system = enumerate_sylows(group, p)
            x = group.index_of(canonical_element_of_type(n, partition_x(n, p)))
            assert system.multiplicity[x] == 1, f"n = {n}, p = {p}"


def test_structure_stabilizer_bijection_n7_n8():
    # transport the base stabilizer along the orbit: the stabilizer of an
    # image sigma(B) is the conjugate of the base stabilizer by sigma
    from sylowcover import symmetric_group as build_sn

    for n, p in ((7, 2), (7, 3), (8, 2), (8, 3)):
        group = build_sn(n)
        system = enumerate_sylows(group, p)
        base = base_block_structure(n, p)
        base_stab = structure_stabilizer(base, group).member_set()
        gens = [
            Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        ]
        witnesses = {base: group.identity}
        queue = [base]
        for structure in queue:
            sigma = witnesses[structure]
            for g in gens:
                image = structure.apply(g)
                if image not in witnesses:
                    witnesses[image] = group.mul(group.index_of(g), sigma)
                    queue.append(image)
        assert len(witnesses) == system.nu, f"n = {n}, p = {p}"
        transported = {
            frozenset(conjugate(group, x, group.inv(sigma)) for x in base_stab)
            for sigma in witnesses.values()
        }
        assert transported == {sub.member_set() for sub in system.sylows}
        for structure in queue[:3]:
            direct = structure_stabilizer(structure, group).member_set()
            sigma = witnesses[structure]
            assert direct == frozenset(conjugate(group, x, group.inv(sigma)) for x in base_stab)


def test_theorem_b_matches_brute_for_odd_primes(a8, a9):
    from sylowcover import alternating_group as build_an, decide_redundant_bruteforce

    groups = {6: build_an(6), 7: build_an(7), 8: a8, 9: a9}
    for n, group in groups.items():
        for p in (3, 5, 7):
            if n >= max(6, p):
                assert not theorem_B_decide(n, p, "An")
            assert decide_redundant_bruteforce(group, p).verdict == "not-redundant"
