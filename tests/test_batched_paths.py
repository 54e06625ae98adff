"""The batched hot loops pinned against the per-point loops they replace.

The element table and conjugacy classes are walked in one chain of C-level
maps fed by its own output (`groups.walk_orbit`), and the p- and p'-element
scans are one `ops.powers` chain over the whole table.  Each must give what
the plain FIFO loop and the per-key cycle-length definition give, in the
same order, and the walk must stop at the cap exactly where the loop did.
`ops.powers` must also stay exact for every exponent, not only for the
exponents the scans use."""

from itertools import count

import pytest
from hypothesis import given, settings

from sylowcover import ClosureBudgetExceeded, enumerate_group, load_fixture, symmetric_group
from sylowcover.groups import FiniteGroup, walk_orbit
from sylowcover.numtheory import is_prime
from sylowcover.perm import Permutation

from conftest import FIXTURE_DIR, permutation_groups

FIXTURES = ["g108", "frobenius21", "sl28", "gl24", "c6", "s4", "a8", "sl217_sub68"]


def _fifo_table(group):
    """The element table as the per-point FIFO loop built it."""
    mul = group.ops.mul
    gens = [group.keys[g] for g in group.generators]
    identity = group.ops.identity_key()
    keys = [identity]
    index = {identity: 0}
    for key in keys:
        for g in gens:
            image = mul(key, g)
            if image not in index:
                index[image] = len(keys)
                keys.append(image)
    return keys


def _fifo_class(group, key):
    """The class of a key in the per-point FIFO loop's first-seen order."""
    conjugators = group.conjugators()
    points = [key]
    seen = {key}
    for point in points:
        for conjugate in conjugators:
            image = conjugate(point)
            if image not in seen:
                seen.add(image)
                points.append(image)
    return points


def _cycle_lengths(key):
    seen = set()
    lengths = []
    for start in range(len(key)):
        length = 0
        point = start
        while point not in seen:
            seen.add(point)
            point = key[point]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _strip(n, p):
    while n % p == 0:
        n //= p
    return n


def _check_scans(group, primes):
    lengths = [_cycle_lengths(key) for key in group.keys]
    for p in primes:
        expected = [i for i, ls in enumerate(lengths) if all(_strip(n, p) == 1 for n in ls)]
        coprime = [i for i, ls in enumerate(lengths) if all(n % p for n in ls)]
        assert group.p_elements(p) == expected, p
        assert group.p_prime_elements(p) == coprime, p


def _check_walks(group):
    assert group.keys == _fifo_table(group)
    assert group.key_index == {k: i for i, k in enumerate(group.keys)}
    labelled = set()
    for key in group.keys:
        if key not in labelled:
            cls = group.class_keys(key)
            assert cls == _fifo_class(group, key)
            labelled.update(cls)


@settings(max_examples=40, deadline=None)
@given(gens=permutation_groups())
def test_random_permutation_groups_match_the_per_point_loops(gens):
    group = enumerate_group([Permutation(g) for g in gens])
    _check_walks(group)
    # every prime up to degree + 2: p not dividing |G|, p^k = degree, p > degree
    _check_scans(group, filter(is_prime, range(2, len(gens[0]) + 3)))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_groups_match_the_per_point_loops(name, request):
    group = request.getfixturevalue(name)
    _check_walks(group)
    if hasattr(group.ops, "degree"):
        _check_scans(group, filter(is_prime, range(2, group.ops.degree + 3)))
    else:
        # matrix keys have no cycles: test against the element order
        orders = [group.element_order(i) for i in range(group.order)]
        for p in (2, 3, 5, 7):
            assert group.p_elements(p) == [i for i, n in enumerate(orders) if _strip(n, p) == 1], p
            assert group.p_prime_elements(p) == [i for i, n in enumerate(orders) if n % p], p


@pytest.mark.parametrize("name", ["g108", "frobenius21", "sl23_matrix"])
def test_the_cap_stops_the_walk_where_the_loop_did(name):
    group = load_fixture(FIXTURE_DIR / f"{name}.json")
    gens = [group.keys[g] for g in group.generators]
    assert FiniteGroup(group.ops, gens, cap=group.order).keys == group.keys
    with pytest.raises(ClosureBudgetExceeded):
        FiniteGroup(group.ops, gens, cap=group.order - 1)


def test_the_walk_takes_no_point_past_the_cap():
    # an endless stream of new images: the walk holds the start and 10 drawn
    # points, one past the cap, and draws no more
    drawn = count()
    with pytest.raises(ClosureBudgetExceeded):
        walk_orbit(-1, lambda points: (next(drawn) for _ in iter(int, 1)), limit=10)
    assert next(drawn) == 10


def test_power_is_exact_past_the_gcd_the_scan_uses():
    # the scans may power by gcd(e, lcm(1..n)), but a power may not: that
    # would turn x^4 into x^2 in S_3 (lcm 6) and x^7 into x in S_5 (lcm 60);
    # e = 64 passes the lcm 60
    for degree, e in ((3, 4), (5, 7), (5, 64)):
        group = symmetric_group(degree)
        for x in range(group.order):
            expected = group.identity
            for _ in range(e % group.element_order(x)):
                expected = group.mul(expected, x)
            assert group.power(x, e) == expected, (degree, e, x)


@pytest.mark.parametrize("name", ["s4", "frobenius21", "g108", "sl23_matrix"])
def test_power_matches_repeated_products_up_to_the_order(name, request):
    if name == "sl23_matrix":
        group = load_fixture(FIXTURE_DIR / "sl23_matrix.json")
    else:
        group = request.getfixturevalue(name)
    for x in range(group.order):
        product = group.identity
        for e in range(group.order + 1):
            assert group.power(x, e) == product, (x, e)
            product = group.mul(product, x)
