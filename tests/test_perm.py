import math

import pytest
from hypothesis import given, strategies as st

from sylowcover import DomainError, Permutation, build_family, symmetric_group
from sylowcover.numtheory import is_prime
from sylowcover.perm import PermutationOps, invert_key

from oracles import (
    compose as oracle_compose,
    inverse as oracle_inverse,
    is_p_power_order,
    order as oracle_order,
)

permutations8 = st.permutations(range(8))


def test_identity_and_call():
    e = Permutation.identity(5)
    assert e.images == (0, 1, 2, 3, 4)
    assert e(3) == 3
    assert e.order() == 1
    assert e.cycle_string() == "()"


def test_from_cycles_one_based():
    p = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert p.images == (1, 2, 3, 0)
    assert p.cycle_string() == "(1,2,3,4)"
    assert p.order() == 4


def test_from_cycles_rejects_overlap():
    with pytest.raises(DomainError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_rejects_non_bijection():
    with pytest.raises(DomainError):
        Permutation([0, 0, 1])
    with pytest.raises(DomainError):
        Permutation([1, 2, 3])


def test_cycle_type_includes_fixed_points():
    p = Permutation.from_cycles(8, [(1, 2, 3, 4), (5, 6)])
    assert p.cycle_type() == (4, 2, 1, 1)
    assert p.is_even()  # 3 + 1 transpositions
    assert not Permutation.from_cycles(8, [(1, 2, 3, 4)]).is_even()


@given(permutations8, permutations8)
def test_composition_matches_oracle(a, b):
    pa, pb = Permutation(a), Permutation(b)
    assert (pa * pb).images == oracle_compose(tuple(a), tuple(b))


@given(permutations8)
def test_inverse_matches_oracle(a):
    pa = Permutation(a)
    assert pa.inverse().images == oracle_inverse(tuple(a))
    assert (pa * pa.inverse()).images == tuple(range(8))


@given(permutations8)
def test_order_matches_oracle(a):
    assert Permutation(a).order() == oracle_order(tuple(a))


@given(permutations8, permutations8, permutations8)
def test_composition_associative(a, b, c):
    pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
    assert ((pa * pb) * pc).images == (pa * (pb * pc)).images


@given(permutations8, permutations8)
def test_cycle_type_is_conjugation_invariant(x, g):
    px, pg = Permutation(x), Permutation(g)
    conjugate = pg.inverse() * px * pg
    assert conjugate.cycle_type() == px.cycle_type()


@pytest.mark.parametrize("build", [lambda: symmetric_group(7), lambda: build_family("PSL2", {"q": 25})],
                         ids=["S7", "PSL(2,25)"])
def test_batched_scan_matches_cycle_definition(build):
    # every p up to degree + 2 covers p > degree, p^k = degree (S_7 at p = 7)
    # and p^k just below the degree (PSL(2,25) on 26 points at p = 5); the
    # p'-scan powers by the p'-part of |G|, reduced to divide lcm(1..degree)
    group = build()
    # one ops object per degree
    assert PermutationOps.for_degree(group.ops.degree) is group.ops is group.element(1).group_ops()
    assert PermutationOps.for_degree(group.ops.degree + 1) is not group.ops
    for p in filter(is_prime, range(2, group.ops.degree + 3)):
        p_elements = [i for i, key in enumerate(group.keys) if is_p_power_order(tuple(key), p)]
        coprime = [i for i, key in enumerate(group.keys) if math.gcd(oracle_order(tuple(key)), p) == 1]
        assert group.p_elements(p) == p_elements, p
        assert group.p_prime_elements(p) == coprime, p


@given(st.integers(1, 255).flatmap(lambda n: st.permutations(range(n))))
def test_invert_key_matches_loop_definition(a):
    assert invert_key(bytes(a)) == bytes(oracle_inverse(tuple(a)))
