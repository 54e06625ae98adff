import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sylowcover import (
    ClosureBudgetExceeded,
    DomainError,
    Permutation,
    alternating_group,
    build_family,
    enumerate_group,
    enumerate_sylows,
    find_sylow,
    load_fixture,
    make_field,
    symmetric_group,
)

from sylowcover.groups import KeyClosure, Subgroup
from sylowcover.linear import MatrixOps, VectorOps
from sylowcover.numtheory import factorization
from sylowcover.perm import PermutationOps

from conftest import FIXTURE_DIR, index_closure, permutation_groups
from oracles import closure as oracle_closure, is_p_power_order, conjugacy_class as oracle_class
from paper_checks import centralizer, conjugacy_class, full_subgroup, self_check

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
    assert conjugacy_class(s4, s4.identity) == (s4.identity,)


def test_conjugacy_class_four_cycle_matches_oracle(s4):
    elements = oracle_closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    expected = oracle_class((1, 2, 3, 0), elements)
    cls = conjugacy_class(s4, x)
    assert len(cls) == len(expected) == 6
    assert {s4.element(i).images for i in cls} == expected


def test_orbit_stabilizer_on_random_elements(s8):
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randrange(s8.order)
        cls = conjugacy_class(s8, x)
        assert len(cls) * centralizer(s8, x).order == s8.order


def test_centralizer_of_identity_is_group(s4):
    assert centralizer(s4, s4.identity).order == s4.order


def test_centralizer_contains_cyclic_subgroup(s4):
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    cent = centralizer(s4, x)
    assert x in cent
    assert s4.power(x, 2) in cent


def test_normalizer_of_whole_group(s4):
    assert s4.normalizer(full_subgroup(s4)).order == s4.order


@pytest.mark.parametrize(
    "name", ["S4", "A5", "A7", "PSL2_25", "frobenius21", "g108", "sl23_matrix", "sl28", "sl217_sub68"]
)
def test_normalizer_matches_definition(name, s4, request):
    # the definition {g : g^-1 H g = H}, through the index table's mul; the
    # permutation groups and the matrix groups on at most 255 nonzero vectors
    # (sl23_matrix, sl28) take PermutationOps' inverse-free kernel, the
    # matrix group on 288 vectors (sl217_sub68) MatrixOps' paired inverses
    if name == "S4":
        group = s4
    elif name == "A5":
        group = alternating_group(5)
    elif name == "A7":
        group = alternating_group(7)
    elif name == "PSL2_25":
        group = build_family("PSL2", {"q": 25})
    elif name == "sl217_sub68":
        group = request.getfixturevalue(name)
    else:
        group = load_fixture(FIXTURE_DIR / f"{name}.json")
    for p, _ in factorization(group.order):
        sylow = find_sylow(group, p)
        cyclic = group.subgroup_closure([group.p_elements(p)[1]])
        for sub in (sylow, cyclic, group.trivial_subgroup()):
            members = sub.member_set()
            expected = [
                g for g in range(group.order)
                if {group.mul(group.mul(group.inv(g), x), g) for x in sub.indices} == members
            ]
            assert group.normalizer(sub).indices == tuple(expected), (name, p, sub.order)


ENGINE_PROTOCOL = (
    "identity_key", "mul", "inv", "conjugator", "multiplication_step", "powers",
    "normalizing_keys", "key_order", "wrap", "unwrap", "render", "describe", "exponent",
)


@pytest.mark.parametrize(
    "ops",
    [PermutationOps(4), VectorOps.for_shape(make_field(3), 2), MatrixOps.for_shape(make_field(17), 2)],
    ids=["PermutationOps", "VectorOps", "MatrixOps"],
)
def test_every_ops_answers_the_whole_engine_protocol(ops):
    # FiniteGroup calls these on its ops and probes none of them
    assert [name for name in ENGINE_PROTOCOL if not hasattr(ops, name)] == []


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
    from sylowcover.groups import KeyClosure, Subgroup

    with pytest.raises(DomainError):
        Subgroup(s4, range(5))  # 5 does not divide 24


@pytest.mark.parametrize("indices", [[0, -1], [0, 24], [0, 1, 2, 25]])
def test_subgroup_refuses_an_index_outside_the_table(s4, indices):
    # list indexing would read -1 as the last element, and normalizer would answer for it
    with pytest.raises(DomainError, match="range"):
        Subgroup(s4, indices)


def test_an_index_outside_the_table_is_no_member(s4):
    sub = find_sylow(s4, 2)
    assert [x in sub for x in (-1, 24, -24, 10**6)] == [False] * 4
    assert 0 in sub and s4.order - 1 not in Subgroup(s4, [0])


@pytest.mark.parametrize("name", ["s4", "g108"])
def test_a_subgroup_from_indices_and_one_from_keys_agree(request, name):
    group = request.getfixturevalue(name)
    subs = [find_sylow(group, p) for p, _ in factorization(group.order)]
    subs += [group.normalizer(sub) for sub in subs] + [group.trivial_subgroup()]
    for sub in subs:
        by_index = Subgroup(group, sub.indices)
        by_key = Subgroup.of_keys(group, [group.keys[x] for x in sub.indices])
        assert by_index == by_key and hash(by_index) == hash(by_key)
        assert by_index.order == by_key.order == len(sub.indices)
        assert by_index.indices == by_key.indices == sub.indices
        assert by_index.member_set() == by_key.member_set() == frozenset(sub.indices)
        for x in range(-1, group.order + 1):
            assert (x in by_index) == (x in by_key) == (x in sub.member_set()), x


def test_a_key_set_is_checked_like_an_index_set(s4):
    keys = s4.keys
    with pytest.raises(DomainError, match="identity"):
        Subgroup.of_keys(s4, keys[1:4])
    with pytest.raises(DomainError, match="does not divide"):
        Subgroup.of_keys(s4, keys[:5])


def test_subgroup_verify_rejects_non_closed_set(s4):
    from sylowcover.groups import KeyClosure, Subgroup

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


@pytest.mark.parametrize("name", ["S4", "A4", "A5", "S5", "frobenius21", "g108", "sl23_matrix", "sl28"])
def test_largest_normal_p_subgroup_is_intersection_of_all_sylows(name, s4, a4):
    # the elements lying in every Sylow subgroup, read from the full system
    groups = {"S4": lambda: s4, "A4": lambda: a4, "A5": lambda: alternating_group(5),
              "S5": lambda: symmetric_group(5)}
    group = groups.get(name, lambda: load_fixture(FIXTURE_DIR / f"{name}.json"))()
    coprime = next(q for q in (2, 3, 5, 7) if group.order % q)
    for p in [p for p, _ in factorization(group.order)] + [coprime]:
        system = enumerate_sylows(group, p)
        expected = tuple(sorted(x for x, count in system.multiplicity.items() if count == system.nu))
        assert group.largest_normal_p_subgroup(p).indices == expected, (name, p)


def test_group_self_check(s4, a4):
    self_check(s4)
    self_check(a4)


def test_power_negative_exponent(s4):
    x = s4.index_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    assert s4.power(x, -1) == s4.inv(x)
    assert s4.power(x, 0) == s4.identity


def test_power_negative_exponent_on_matrix_keys(sl217_sub68):
    assert type(sl217_sub68.ops) is MatrixOps
    for x in range(sl217_sub68.order):
        assert sl217_sub68.power(x, -1) == sl217_sub68.inv(x)
        assert sl217_sub68.mul(x, sl217_sub68.inv(x)) == sl217_sub68.identity


def _count_calls(monkeypatch, owner, name) -> list[int]:
    """Count the calls to ``owner.name`` in the returned one-item list."""
    calls = [0]
    method = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_inv_inverts_one_key(a9, monkeypatch):
    calls = _count_calls(monkeypatch, PermutationOps, "inv")
    x = a9.order - 1
    assert a9.mul(x, a9.inv(x)) == a9.identity
    assert calls == [1]


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_normalizer_inverts_once_per_inverse_pair(p, monkeypatch):
    # SL(2,17) has 4896 elements, two of them (1 and -1) their own inverses:
    # a whole-group scan that pairs inverses makes (4896 + 2) / 2 inversions
    group = build_family("SL2", {"q": 17})
    sylow = find_sylow(group, p)
    calls = _count_calls(monkeypatch, MatrixOps, "inv")
    assert group.normalizer(sylow).order == {2: 32, 3: 36}[p]
    assert calls[0] <= 2449


def _pairwise_subgroup(group, members) -> bool:
    """The definition: closed under inverses and under products, pair by pair."""
    return all(group.inv(x) in members for x in members) and all(
        group.mul(x, y) in members for x in members for y in members
    )


def _greedy_from_scratch(group, indices) -> tuple[int, ...]:
    """Greedy generators by ascending index, re-closing after each one taken."""
    gens: list[int] = []
    covered = {group.identity}
    for idx in sorted(set(indices)):
        if idx not in covered:
            gens.append(idx)
            covered = index_closure(group, gens)
    return tuple(gens)


def _named_group(name, s4):
    if name == "S4":
        return s4
    if name == "A5":
        return alternating_group(5)
    return load_fixture(FIXTURE_DIR / f"{name}.json")


def _subgroups_of(group):
    """Every Sylow subgroup and every element centralizer, as member sets."""
    subs = {centralizer(group, x).member_set() for x in range(group.order)}
    for p, _ in factorization(group.order):
        subs.update(sub.member_set() for sub in enumerate_sylows(group, p).sylows)
    return sorted(subs, key=sorted)


def _perturbed_sets(group, subs, rng):
    """Subgroups minus one element, plus one element, with one swapped, and
    random identity-containing sets whose size divides |G|."""
    out = []
    for members in subs:
        outside = [x for x in range(group.order) if x not in members]
        inside = sorted(members - {group.identity})
        if inside:
            out.append(members - {inside[-1]})
        if outside:
            out.append(members | {outside[0]})
        if inside and outside:
            out.append((members - {rng.choice(inside)}) | {rng.choice(outside)})
    sizes = [d for d in range(2, group.order) if group.order % d == 0]
    others = range(1, group.order)
    for _ in range(40):
        out.append(frozenset([group.identity, *rng.sample(others, rng.choice(sizes) - 1)]))
    return [s for s in out if group.order % len(s) == 0]


@pytest.mark.parametrize("name", ["S4", "A5", "g108"])
def test_verify_raises_exactly_when_the_pairwise_definition_fails(name, s4):
    group = _named_group(name, s4)
    subs = _subgroups_of(group)
    candidates = subs + _perturbed_sets(group, subs, random.Random(11))
    rejected = 0
    for members in candidates:
        sub = Subgroup(group, members)  # fresh, so its generators are chosen anew
        closed = _pairwise_subgroup(group, members)
        if closed:
            sub.verify()
        else:
            rejected += 1
            with pytest.raises(DomainError):
                sub.verify()
    assert rejected >= 40  # the random sets and perturbations are mostly not subgroups


def test_verify_makes_one_product_per_member_and_generator(monkeypatch):
    group = symmetric_group(5)
    for sub in (full_subgroup(group), find_sylow(group, 2), centralizer(group, 7)):
        gens = sub.generating_indices()
        calls = 0
        mul = PermutationOps.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(PermutationOps, "mul", counted)
        sub.verify()
        monkeypatch.undo()
        assert calls == sub.order * len(gens)


@pytest.mark.parametrize("name", ["S4", "A5", "g108", "sl23_matrix"])
def test_minimal_generating_indices_match_the_greedy_from_scratch(name, s4):
    group = _named_group(name, s4)
    rng = random.Random(5)
    sets = _subgroups_of(group) + [frozenset(range(group.order))]
    sets += [rng.sample(range(group.order), rng.randrange(1, 6)) for _ in range(30)]
    for indices in sets:
        assert group.minimal_generating_indices(indices) == _greedy_from_scratch(group, indices)


@pytest.mark.parametrize("name", ["S4", "A5", "g108", "sl23_matrix"])
def test_subgroup_closure_matches_the_index_table_closure(name, s4, monkeypatch):
    group = _named_group(name, s4)
    rng = random.Random(3)
    seeds = [rng.sample(range(group.order), rng.randrange(1, 4)) for _ in range(40)]
    expected = [index_closure(group, seed) for seed in seeds]
    # the closure itself multiplies keys, never through the index table
    monkeypatch.setattr(type(group), "mul", None)
    assert [group.subgroup_closure(seed).member_set() for seed in seeds] == expected


def _check_key_closure(group, picks):
    """After each ``add``, ``members`` and ``elements`` are the index-table closure of ``gens``."""
    keys, index = group.keys, group.key_index
    closure = KeyClosure(group)
    taken: list[int] = []
    for x in picks:
        before = index_closure(group, taken)
        assert closure.add(keys[x]) == (x not in before)
        if x not in before:
            taken.append(x)
        expected = index_closure(group, taken)
        assert closure.gens == [keys[t] for t in taken]
        assert {index[k] for k in closure.members} == expected
        assert len(closure.elements) == len(expected) and set(closure.elements) == set(closure.members)
    assert closure.subgroup().member_set() == index_closure(group, taken)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gens=permutation_groups(), picks=st.lists(st.integers(min_value=0), min_size=1, max_size=5))
def test_key_closure_matches_the_index_table_closure_on_random_groups(gens, picks):
    group = enumerate_group([Permutation(g) for g in gens])
    _check_key_closure(group, [x % group.order for x in picks])


def test_key_closure_matches_the_index_table_closure_on_sl23_matrix():
    group = load_fixture(FIXTURE_DIR / "sl23_matrix.json")
    rng = random.Random(7)
    for _ in range(20):
        _check_key_closure(group, rng.sample(range(group.order), 4))


def test_enumerate_group_checks_a_known_order():
    assert enumerate_group(S4_GENS, order=24).order == 24
    with pytest.raises(RuntimeError):
        enumerate_group(S4_GENS, order=12)

    def never_drawn():
        raise AssertionError("a generator was drawn")
        yield

    # an order past the cap is refused before any generator is formed
    with pytest.raises(ClosureBudgetExceeded):
        enumerate_group(never_drawn(), cap=23, order=24)
