import time

import pytest
from hypothesis import given, settings, strategies as st

from sylowcover import Field, NotPrimePower, make_field
from sylowcover.numtheory import factorization

from oracles import reference_field

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27)
PRIME_POWERS = [q for q in range(2, 257) if len(factorization(q)) == 1]


def test_prime_field():
    f7 = make_field(7)
    assert f7.p == 7 and f7.k == 1
    assert f7.mul(3, 5) == 1
    assert f7.add(3, 5) == 1


def test_gf4_modulus():
    # the only monic irreducible quadratic over Z_2
    assert make_field(4).modulus == (1, 1, 1)


def test_gf9_modulus():
    # lexicographically least (constant term first): x^2 + 1
    assert make_field(9).modulus == (1, 0, 1)


def test_not_prime_power_rejected():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(1)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_multiplicative_group_cyclic(q):
    f = make_field(q)
    assert f.element_order(f.generator) == q - 1
    # one context per q
    assert make_field(q) is f and Field(q) is not f


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_units_have_inverses(q):
    f = make_field(q)
    for a in f.units():
        assert f.mul(a, f.inv(a)) == 1


@given(st.sampled_from(FIELD_SIZES), st.data())
def test_field_axioms_on_random_triples(q, data):
    f = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(st.sampled_from(FIELD_SIZES), st.data())
def test_frobenius_is_additive(q, data):
    f = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


@given(st.sampled_from(FIELD_SIZES), st.data())
def test_unit_group_exponent(q, data):
    f = make_field(q)
    a = data.draw(st.integers(1, q - 1))
    assert f.pow(a, q - 1) == 1


def test_pow_negative_exponent():
    f = make_field(9)
    a = f.generator
    assert f.mul(f.pow(a, -1), a) == 1


def _pow_or_error(f, a: int, e: int):
    try:
        return f.pow(a, e)
    except ZeroDivisionError:
        return ZeroDivisionError


def test_every_prime_power_up_to_the_bound_is_listed():
    assert len(PRIME_POWERS) == 70 and PRIME_POWERS[-1] == 256


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_matches_the_pairwise_reference(q):
    f, ref = Field(q), reference_field(q)
    assert f.modulus == ref.modulus
    assert f.add_table == ref.add_table
    assert f.mul_table == ref.mul_table
    assert f.neg_table == ref.neg_table
    assert f.inv_table == ref.inv_table
    assert f.generator == ref.generator
    for e in (-3, -1, 0, 1, 2, 5, q - 1, q):
        assert [_pow_or_error(f, a, e) for a in range(q)] == [_pow_or_error(ref, a, e) for a in range(q)], e
    assert [f.element_order(a) for a in range(1, q)] == [ref.element_order(a) for a in range(1, q)]


# a reference field is built on first draw of its q, which can outlast the deadline
@settings(deadline=None)
@given(st.sampled_from(PRIME_POWERS), st.integers(-(10**6), 10**6))
def test_pow_matches_the_reference_for_any_exponent(q, e):
    f, ref = make_field(q), reference_field(q)
    assert [_pow_or_error(f, a, e) for a in range(q)] == [_pow_or_error(ref, a, e) for a in range(q)]


@pytest.mark.parametrize("q", [256, 243])
def test_largest_fields_build_fast(q):
    # the tables come from one walk of the generator's powers, not q^2 polynomial products
    best = min(_build_seconds(q) for _ in range(3))
    assert best < 0.15, best


def _build_seconds(q: int) -> float:
    start = time.perf_counter()
    Field(q)
    return time.perf_counter() - start
