"""Tiny independent implementations used as oracles.

Everything here works on plain tuples and lists and deliberately shares no
code with the package, so expected values in the tests are computed along a
second route.  The finite fields are built the slow, direct way: every
product of two residues is a polynomial product reduced by the modulus, and
negatives, inverses and the generator are found by search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(i) = a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(b)))


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image] = i
    return tuple(out)


def closure(generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    queue = [identity]
    for element in queue:
        for g in generators:
            product = compose(element, g)
            if product not in seen:
                seen.add(product)
                queue.append(product)
    return seen


def cycle_lengths(a: tuple[int, ...]) -> list[int]:
    seen = [False] * len(a)
    lengths = []
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        lengths.append(length)
    return sorted(lengths, reverse=True)


def order(a: tuple[int, ...]) -> int:
    return reduce(math.lcm, cycle_lengths(a), 1)


def is_p_power_order(a: tuple[int, ...], p: int) -> bool:
    k = order(a)
    while k % p == 0:
        k //= p
    return k == 1


def conjugacy_class(x: tuple[int, ...], elements: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    return {compose(inverse(g), compose(x, g)) for g in elements}


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return tuple(prod)


def _monic(p: int, d: int) -> list[tuple[int, ...]]:
    """The monic polynomials of degree d over Z_p (constant first), in lexicographic order."""
    return [c + (1,) for c in product(range(p), repeat=d)]


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible of degree k, by a sieve:
    the first monic polynomial that is no product of two monic factors."""
    reducible = {_poly_mul(a, b, p) for d in range(1, k // 2 + 1) for a in _monic(p, d) for b in _monic(p, k - d)}
    return next(f for f in _monic(p, k) if f not in reducible)


def poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of coefficient tuples (constant first) reduced mod a monic modulus."""
    k = len(modulus) - 1
    prod = list(_poly_mul(a, b, p))
    for deg in range(len(prod) - 1, k - 1, -1):
        coeff = prod[deg]
        if coeff:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - coeff * modulus[j]) % p
    return tuple(prod[:k]) + (0,) * (k - len(prod))


@dataclass
class ReferenceField:
    """GF(q) tables built pair by pair from polynomial products, then inverses and the generator by search."""

    q: int
    modulus: tuple[int, ...]
    add_table: list[list[int]]
    mul_table: list[list[int]]
    neg_table: list[int]
    inv_table: list
    generator: int

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 1:
            x = self.mul_table[x][a]
            k += 1
        return k

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("0 has no inverse")
            a, e = self.inv_table[a], -e
        result = 1
        while e:
            if e & 1:
                result = self.mul_table[result][a]
            a = self.mul_table[a][a]
            e >>= 1
        return result


@cache
def reference_field(q: int) -> ReferenceField:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = round(math.log(q, p))
    assert p**k == q, f"{q} is not a prime power"
    modulus = least_irreducible(p, k)
    digits = [tuple(v // p**i % p for i in range(k)) for v in range(q)]
    value = {c: v for v, c in enumerate(digits)}
    add = [[value[tuple((x + y) % p for x, y in zip(a, b))] for b in digits] for a in digits]
    mul = [[value[poly_mul_mod(a, b, modulus, p)] for b in digits] for a in digits]
    neg = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]
    inv = [None] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
    field = ReferenceField(q, modulus, add, mul, neg, inv, 0)
    field.generator = next(g for g in range(1, q) if field.element_order(g) == q - 1)
    return field
