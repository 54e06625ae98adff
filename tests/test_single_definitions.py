"""Oracles for the rules that have one definition in the package.

- the cycle walk (``cycles_of_key``) and the cycle-notation writer
  (``cycle_notation``) against sympy's cycle decomposition, which shares no
  code with sylowcover;
- ``cycle_lengths_of_key`` against a loop that marks visited points;
- the key-level ``x^e = 1`` scan behind ``p_elements`` and
  ``p_prime_elements``, and ``element_order`` (each ops' ``key_order``),
  against reference loops that multiply indices through ``FiniteGroup.mul``,
  on permutations, on matrices run as permutations of their vectors, and on
  matrices multiplied entry by entry (``MatrixOps``).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from sylowcover import SquareMatrix, build_family, enumerate_group, load_fixture, make_field, symmetric_group
from sylowcover.numtheory import factorization, p_part
from sylowcover.perm import cycle_lengths_of_key, cycle_notation, cycles_of_key

from conftest import FIXTURE_DIR

sympy_perm = pytest.importorskip("sympy.combinatorics")

permutations255 = st.integers(1, 255).flatmap(lambda n: st.permutations(range(n)))


@given(permutations255)
@example(list(range(1)))
@example(list(range(255)))
def test_cycles_and_notation_match_sympy(images):
    key = bytes(images)
    ref = sympy_perm.Permutation(list(images))
    assert cycles_of_key(key) == [tuple(c) for c in ref.full_cyclic_form]
    expected = "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in ref.cyclic_form) or "()"
    assert cycle_notation(cycles_of_key(key)) == expected


def _loop_cycle_lengths(a: bytes) -> list[int]:
    """The cycle lengths by marking visited points, in descending order."""
    seen = bytearray(len(a))
    lengths = []
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return lengths


@given(permutations255)
def test_cycle_lengths_match_the_marking_loop(images):
    assert cycle_lengths_of_key(bytes(images)) == _loop_cycle_lengths(bytes(images))


def _reference_order(group, x: int) -> int:
    """Least k >= 1 with x^k = 1, by multiplying indices one at a time."""
    k, y = 1, x
    while y != group.identity:
        y = group.mul(y, x)
        k += 1
    return k


GROUPS = {
    "SL(2,3) fixture": lambda: load_fixture(FIXTURE_DIR / "sl23_matrix.json"),
    "SL(2,8)": lambda: build_family("SL2", {"q": 8}),
    "GL(2,4)": lambda: build_family("GL", {"n": 2, "q": 4}),
    "S_5": lambda: symmetric_group(5),
    # 288 nonzero vectors, past the permutation degree bound: MatrixOps
    "C17 : C4 in SL(2,17)": lambda: enumerate_group(
        [SquareMatrix(make_field(17), [[1, 1], [0, 1]]), SquareMatrix(make_field(17), [[4, 0], [0, 13]])]
    ),
}


@pytest.mark.parametrize("name", GROUPS)
def test_power_scans_and_element_order_match_index_loops(name):
    group = GROUPS[name]()
    orders = [_reference_order(group, x) for x in range(group.order)]
    assert [group.element_order(x) for x in range(group.order)] == orders
    # a prime not dividing |G| too: every element is then a p'-element
    primes = [p for p, _ in factorization(group.order)] + [11]
    for p in primes:
        coprime = group.order // p_part(group.order, p)
        assert group.p_prime_elements(p) == [x for x, k in enumerate(orders) if coprime % k == 0], (name, p)
        assert group.p_elements(p) == [x for x, k in enumerate(orders) if p_part(k, p) == k], (name, p)
