"""Arithmetic for GF(p^k) with integer-encoded elements.

An element is the integer c_0 + c_1*p + ... + c_{k-1}*p^(k-1) whose base-p
digits are the coefficients (constant term first) of a polynomial residue
modulo a fixed monic irreducible polynomial of degree k.  The modulus is the
lexicographically least irreducible choice, so encodings are stable across
runs and implementations.  Full multiplication and addition tables are built
up front; group enumeration then runs on table lookups only.
"""

from __future__ import annotations

from .errors import DomainError
from .numtheory import prime_power_decomposition

MAX_FIELD_SIZE = 256  # matrix entries are packed one byte each

_FIELD_CACHE: dict[int, "Field"] = {}


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of coefficient tuples (constant first) reduced mod a monic modulus."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # monic modulus: subtract x^(deg-k) * modulus scaled by the leading digit
    for deg in range(len(prod) - 1, k - 1, -1):
        coeff = prod[deg]
        if coeff:
            prod[deg] = 0
            shift = deg - k
            for j in range(k):
                prod[shift + j] = (prod[shift + j] - coeff * modulus[j]) % p
    out = prod[:k]
    while len(out) < k:
        out.append(0)
    return tuple(out)


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


def _coeffs_to_value(coeffs: tuple[int, ...], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


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
        if k == 1:
            self.modulus = (0, 1)  # placeholder; arithmetic is plain mod p
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            self.modulus = _least_irreducible(p, k)
            coeffs = [_value_to_coeffs(v, p, k) for v in range(q)]
            self.add_table = [
                [_coeffs_to_value(tuple((x + y) % p for x, y in zip(a, b)), p) for b in coeffs]
                for a in coeffs
            ]
            self.mul_table = [
                [_coeffs_to_value(_poly_mul_mod(a, b, self.modulus, p), p) for b in coeffs]
                for a in coeffs
            ]
        self.neg_table = [self._find_neg(a) for a in range(q)]
        self.inv_table = [None] + [self._find_inv(a) for a in range(1, q)]
        self.generator = self._find_generator()

    def _find_neg(self, a: int) -> int:
        row = self.add_table[a]
        for b in range(self.q):
            if row[b] == 0:
                return b
        raise RuntimeError("no additive inverse; tables are corrupt")

    def _find_inv(self, a: int) -> int:
        row = self.mul_table[a]
        for b in range(1, self.q):
            if row[b] == 1:
                return b
        raise RuntimeError(f"element {a} has no multiplicative inverse; modulus not irreducible")

    def _find_generator(self) -> int:
        """A generator of the multiplicative group; its existence is a field check."""
        for g in range(1, self.q):
            if self.element_order(g) == self.q - 1:
                return g
        raise RuntimeError("multiplicative group is not cyclic; tables are corrupt")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul_table[result][a]
            a = self.mul_table[a][a]
            e >>= 1
        return result

    def element_order(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 has no multiplicative order")
        order = 1
        x = a
        while x != 1:
            x = self.mul_table[x][a]
            order += 1
        return order

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.q})"
        return f"GF({self.q}) mod {self.modulus}"


def make_field(q: int) -> Field:
    """Field context for GF(q); contexts are cached and immutable."""
    field = _FIELD_CACHE.get(q)
    if field is None:
        field = Field(q)
        _FIELD_CACHE[q] = field
    return field
