"""Small number-theory helpers: primality, factorization, p-parts."""

from __future__ import annotations

import math

from .errors import DomainError, NotPrimePower


def is_prime(n: int) -> bool:
    """Deterministic trial division, sufficient for the orders handled here."""
    if n <= 1:
        return False
    if n <= 3:
        return True
    if n % 2 == 0:
        return False
    i = 3
    r = math.isqrt(n)
    while i <= r:
        if n % i == 0:
            return False
        i += 2
    return True


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs in ascending order."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise DomainError(f"p-part needs n >= 1 and p >= 2, got n = {n}, p = {p}")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    fac = factorization(q)
    if len(fac) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return fac[0]


def is_prime_power(q: int) -> bool:
    try:
        prime_power_decomposition(q)
    except NotPrimePower:
        return False
    return True
