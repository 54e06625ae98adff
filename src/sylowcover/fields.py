"""Arithmetic for GF(p^k) with integer-encoded elements.

An element is the integer c_0 + c_1*p + ... + c_{k-1}*p^(k-1) whose base-p
digits are the coefficients (constant term first) of a polynomial residue
modulo a fixed monic irreducible polynomial of degree k (for k = 1 the
modulus is x, and the residues are the integers mod p).  The modulus is the
lexicographically least irreducible choice, so encodings are stable across
runs and implementations.

Full tables are built up front, and group enumeration then runs on table
lookups only.  Addition is digit-wise, so ``add_table`` grows one base-p
digit at a time.  The generator is the least element whose powers reach
every unit: one walk of those powers is the antilog table g^i, its inverse
is the discrete logarithm, and products, inverses, powers and orders are
read off the two (a*b = g^(log a + log b)).  The walk multiplies by a fixed
g, a GF(p)-linear map, so its row grows digit by digit like addition.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import DomainError
from .numtheory import prime_power_decomposition

MAX_FIELD_SIZE = 256  # matrix entries are packed one byte each


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for value in range(p**d):
            divisor = _value_to_coeffs(value, p, d) + (1,)
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _poly_divides(divisor: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    rem = list(poly)
    dd = len(divisor) - 1
    inv_lead = pow(divisor[-1], -1, p)
    for deg in range(len(rem) - 1, dd - 1, -1):
        coeff = rem[deg]
        if coeff:
            factor = (coeff * inv_lead) % p
            shift = deg - dd
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - factor * divisor[j]) % p
    return not any(rem[:dd])


def _value_to_coeffs(value: int, p: int, k: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(k):
        coeffs.append(value % p)
        value //= p
    return tuple(coeffs)


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k (constant first)."""
    from itertools import product

    for lower in product(range(p), repeat=k):
        poly = lower + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {k} over Z_{p}")


class Field:
    """GF(q) with precomputed operation tables over integer-encoded elements."""

    def __init__(self, q: int):
        # bound first: entries are packed one byte each, and the tables hold q^2 entries
        if q > MAX_FIELD_SIZE:
            raise DomainError(f"field size {q} exceeds the supported bound {MAX_FIELD_SIZE}")
        p, k = prime_power_decomposition(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _least_irreducible(p, k)
        # digit j shifted by s: row a + s*p^j is row a with its p blocks of p^j rotated by s
        add = [[0]]
        for j in range(k):
            size = p**j
            doubled = [[x + c * size for c in range(p) for x in row] * 2 for row in add]
            add = [row[s * size:(s + p) * size] for s in range(p) for row in doubled]
        self.add_table = add
        # the least element whose powers reach every unit; its walk is the antilog table
        for g in range(1, q):
            times_g = self._times(g)
            exp = [1]
            while (x := times_g[exp[-1]]) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        else:
            raise RuntimeError("multiplicative group is not cyclic; tables are corrupt")
        self.generator = g
        self._exp = exp
        self._log = log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        logs = log[1:]
        # a*b = g^(log a + log b); the doubled walk saves the reduction mod q - 1
        twice = exp * 2
        self.mul_table = [[0] * q] + [[0, *map(twice[i:].__getitem__, logs)] for i in logs]
        # -a = (-1)*a, and -1 is the constant p - 1
        self.neg_table = list(self.mul_table[p - 1])
        # 1/a = g^(-log a); exp[-i] is exp[q - 1 - i]
        self.inv_table = [None] + [exp[-i] for i in logs]

    def _times(self, c: int) -> list[int]:
        """The row a -> c*a, built like add_table: digit j of a adds a multiple of c*x^j."""
        p, add, modulus = self.p, self.add_table, self.modulus
        row = [0]
        coeffs = _value_to_coeffs(c, p, self.k)
        for _ in range(self.k):
            multiples = [sum(d * x % p * p**i for i, x in enumerate(coeffs)) for d in range(p)]
            row = [add[r][m] for m in multiples for r in row]
            # times x: the digits move up, and the top one comes back as -top * (modulus - x^k)
            top = coeffs[-1]
            coeffs = tuple((low - top * m) % p for low, m in zip((0,) + coeffs[:-1], modulus))
        return row

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if e < 0:
            raise ZeroDivisionError("0 has no inverse")
        return 0 if e else 1

    def element_order(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 has no multiplicative order")
        return (self.q - 1) // math.gcd(self._log[a], self.q - 1)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.q})"
        return f"GF({self.q}) mod {self.modulus}"


@cache
def make_field(q: int) -> Field:
    """Field context for GF(q); one per q, and contexts are immutable."""
    return Field(q)
