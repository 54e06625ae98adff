"""The one breadth-first walk (`groups.orbit`) and `ops.conjugator`, pinned
against the loops each caller wrote out before it: the element table, the
Sylow orbit, conjugacy classes, the O_p fixpoint and the block-structure
orbit must come out equal and in the same order."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sylowcover import (
    ClosureBudgetExceeded,
    alternating_group,
    build_family,
    enumerate_sylows,
    find_sylow,
    load_fixture,
    symmetric_group,
)
from sylowcover.groups import orbit
from sylowcover.numtheory import factorization
from sylowcover.perm import Permutation, PermutationOps

from conftest import FIXTURE_DIR
from oracles import compose, inverse
from paper_checks import all_block_structures, base_block_structure, conjugacy_class

GROUPS = ["S4", "A5", "PSL2_25", "GL2_4", "frobenius21", "g108", "sl23_matrix", "sl28"]


def _group(name):
    if name == "S4":
        return symmetric_group(4)
    if name == "A5":
        return alternating_group(5)
    if name == "PSL2_25":
        return build_family("PSL2", {"q": 25})
    if name == "GL2_4":
        return build_family("GL", {"n": 2, "q": 4})
    return load_fixture(FIXTURE_DIR / f"{name}.json")


@pytest.fixture(scope="module", params=GROUPS)
def group(request):
    return _group(request.param)


def _generator_pairs(group):
    keys = group.keys
    return [(group.ops.inv(keys[g]), keys[g]) for g in group.generators]


def _reference_table(group):
    """The element table's breadth-first closure as FiniteGroup.__init__ wrote it."""
    mul = group.ops.mul
    gen_keys = [group.keys[g] for g in group.generators]
    identity = group.ops.identity_key()
    keys = [identity]
    index = {identity: 0}
    for key in keys:
        for g in gen_keys:
            nk = mul(key, g)
            if nk not in index:
                index[nk] = len(keys)
                keys.append(nk)
    return keys


def _reference_sylows(group, p):
    """The Sylow orbit as enumerate_sylows wrote it, on (g^-1, g) pairs."""
    keys = group.keys
    index = group.key_index
    mul = group.ops.mul
    base = find_sylow(group, p).member_set()
    seen = {base}
    sylows = [base]
    for sub in sylows:
        member_keys = [keys[x] for x in sorted(sub)]
        for ginv, g in _generator_pairs(group):
            image = frozenset([index[mul(mul(ginv, k), g)] for k in member_keys])
            if image not in seen:
                seen.add(image)
                sylows.append(image)
    return sylows


def _reference_class(group, x):
    keys = group.keys
    mul = group.ops.mul
    seen = {keys[x]}
    queue = [keys[x]]
    for y in queue:
        for ginv, g in _generator_pairs(group):
            z = mul(mul(ginv, y), g)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return tuple(sorted(group.key_index[k] for k in seen))


def _reference_core(group, p):
    keys = group.keys
    mul = group.ops.mul
    conj = _generator_pairs(group)
    core = {keys[x] for x in find_sylow(group, p).indices}
    while True:
        kept = {k for k in core if all(mul(mul(ginv, k), g) in core for ginv, g in conj)}
        if len(kept) == len(core):
            break
        core = kept
    return tuple(sorted(group.key_index[k] for k in core))


def test_element_table_matches_the_reference_closure(group):
    assert group.keys == _reference_table(group)
    assert group.key_index == {k: i for i, k in enumerate(group.keys)}


def test_sylow_orbit_matches_the_reference_loop(group):
    for p, _ in factorization(group.order):
        sylows = enumerate_sylows(group, p).sylows
        assert [sub.member_set() for sub in sylows] == _reference_sylows(group, p), p


def test_classes_and_o_p_match_the_reference_loops(group):
    rng = random.Random(11)
    sample = range(group.order) if group.order <= 200 else rng.sample(range(group.order), 25)
    for x in sample:
        assert conjugacy_class(group, x) == _reference_class(group, x), x
    coprime = next(q for q in (2, 3, 5, 7, 11) if group.order % q)
    for p in [p for p, _ in factorization(group.order)] + [coprime]:
        assert group.largest_normal_p_subgroup(p).indices == _reference_core(group, p), p


@pytest.mark.parametrize("p", [2, 3])
def test_block_structures_match_the_reference_orbit(p):
    for n in range(2, 10):
        base = base_block_structure(n, p)
        gens = [Permutation.from_cycles(n, [(1, 2)]), Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
        seen = {base}
        expected = [base]
        for structure in expected:
            for g in gens:
                image = structure.apply(g)
                if image not in seen:
                    seen.add(image)
                    expected.append(image)
        assert all_block_structures(n, p) == expected, n


def test_orbit_limit_counts_points():
    def step(x, g):
        return (x + g) % 6

    points, position = orbit(0, [2, 3], step, limit=6)
    assert points == [0, 2, 3, 4, 5, 1]
    assert position == {x: i for i, x in enumerate(points)}
    with pytest.raises(ClosureBudgetExceeded):
        orbit(0, [2, 3], step, limit=5)


@st.composite
def permutation_pairs(draw):
    degree = draw(st.integers(min_value=1, max_value=255))
    return bytes(draw(st.permutations(range(degree)))), bytes(draw(st.permutations(range(degree))))


@settings(max_examples=60, deadline=None)
@given(pair=permutation_pairs())
def test_permutation_conjugator_is_g_inverse_k_g(pair):
    g, k = pair
    ops = PermutationOps.for_degree(len(g))
    expected = ops.mul(ops.mul(ops.inv(g), k), g)
    assert ops.conjugator(g)(k) == expected
    assert tuple(expected) == compose(compose(inverse(tuple(g)), tuple(k)), tuple(g))


def test_matrix_conjugator_is_g_inverse_k_g(sl217_sub68):
    # past 255 nonzero vectors, so the group keeps matrix arithmetic
    group = sl217_sub68
    ops = group.ops
    assert type(ops).__name__ == "MatrixOps"
    for g in group.keys:
        conjugate = ops.conjugator(g)
        ginv = ops.inv(g)
        for k in group.keys:
            assert conjugate(k) == ops.mul(ops.mul(ginv, k), g)
