"""Small number-theory helpers: primality, factorization, p-parts."""

from __future__ import annotations

from .errors import DomainError, NotPrimePower


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n below ``MILLER_RABIN_BOUND``.

    Trial division by the 13 bases settles every n < 41^2; a larger n takes
    the strong-probable-prime test to each base, which no composite below
    the bound passes (Sorenson and Webster, 2015).  An n at or above the
    bound with no factor among the bases raises DomainError.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:
        return True
    if n >= MILLER_RABIN_BOUND:
        raise DomainError(f"{n} is too large to test for primality (bound {MILLER_RABIN_BOUND})")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs in ascending order, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
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


def _integer_root(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePower.

    The largest k with an exact k-th root of q is the exponent, and q is a
    prime power exactly when that root is prime.
    """
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for k in range(q.bit_length() - 1, 0, -1):
        root = _integer_root(q, k)
        if root ** k == q:
            if is_prime(root):
                return root, k
            break
    raise NotPrimePower(f"{q} is not a prime power")
