"""Symmetric and alternating groups: the closed-form deciders.

A 2-element of S_n lies in a unique Sylow 2-subgroup exactly when it has at
most two fixed points and pairwise-distinct nontrivial cycle lengths, and
sorting those distinguished cycle types by parity settles A_n.  The deciders
work on cycle types and build no group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional

from .errors import DomainError
from .numtheory import is_prime, p_part


@dataclass(frozen=True)
class PAdicExpansion:
    """Base-p digits of n, least significant first."""

    n: int
    p: int
    digits: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.digits) - 1

    @property
    def r(self) -> int:
        """Least index with a nonzero digit."""
        return next(i for i, d in enumerate(self.digits) if d)

    def digit_sum(self, start: int = 0) -> int:
        return sum(self.digits[start:])


def expansion(n: int, p: int) -> PAdicExpansion:
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    return PAdicExpansion(n=n, p=p, digits=tuple(digits))


def partition_x(n: int, p: int) -> tuple[int, ...]:
    """One part p^i per occurrence of p^i in the base-p expansion of n."""
    exp = expansion(n, p)
    parts = []
    for i in range(exp.k, -1, -1):
        parts.extend([p**i] * exp.digits[i])
    return tuple(parts)


def partition_y(n: int) -> tuple[int, ...]:
    """Binary parts of n-2 followed by two fixed points; defined for even n >= 4."""
    if n % 2 != 0:
        raise DomainError(f"n must be even, got {n}")
    if n < 4:
        raise DomainError(f"n must be at least 4, got {n}")
    return partition_x(n - 2, 2) + (1, 1)


def type_set(n: int) -> set[tuple[int, ...]]:
    """The distinguished unique-Sylow cycle types for p = 2.

    {x(n), y(n)} for even n >= 4 and {x(n)} for odd n; at n = 2 only x(2)
    exists since y needs two spare points.
    """
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if n % 2 == 0 and n >= 4:
        return {partition_x(n, 2), partition_y(n)}
    return {partition_x(n, 2)}


def partition_parity(parts: Iterable[int]) -> str:
    """Parity of any permutation with the given cycle type."""
    parts = tuple(parts)
    if any(part < 1 for part in parts):
        raise DomainError("cycle lengths must be positive")
    transpositions = sum(part - 1 for part in parts)
    return "odd" if transpositions % 2 else "even"


def theorem_C_decide(cycle_type: Iterable[int]) -> bool:
    """Does a 2-element with this cycle type lie in a unique Sylow 2-subgroup of S_n?

    True exactly when there are at most two fixed points and the cycle
    lengths above one are pairwise distinct.
    """
    parts = tuple(cycle_type)
    for part in parts:
        if p_part(part, 2) != part:
            raise DomainError(f"cycle length {part} is not a power of 2")
    fixed = sum(1 for part in parts if part == 1)
    big = [part for part in parts if part > 1]
    return fixed <= 2 and len(big) == len(set(big))


def theorem_B_decide(n: int, p: int, family: str) -> bool:
    """Does S_n or A_n (n >= max(6, p)) have a redundant Sylow p-subgroup?

    S_n never does, nor A_n for odd p.  For A_n with p = 2 the answer is read
    off the binary digits of n: writing n = sum of a_i 2^i with lowest set
    bit r, the group is redundant iff either n is odd and a_1 + ... + a_k is
    odd, or n is even, r >= 2 is even, and a_r + ... + a_k is odd.
    """
    if family not in ("Sn", "An"):
        raise DomainError(f"family must be Sn or An, got {family!r}")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if n < max(6, p):
        raise DomainError(f"the closed form needs n >= max(6, p) = {max(6, p)}; use brute force")
    if family == "Sn" or p != 2:
        return False
    exp = expansion(n, 2)
    if n % 2 == 1:
        return exp.digit_sum(1) % 2 == 1
    r = exp.r
    return r >= 2 and r % 2 == 0 and exp.digit_sum(r) % 2 == 1


def type_cycles(parts: Iterable[int]) -> list[range]:
    """The cycles of the element of this type on consecutive 0-based points, fixed points included."""
    parts = tuple(parts)
    return [range(start, start + part) for start, part in zip(accumulate(parts, initial=0), parts)]


def unique_sylow_witness(n: int, p: int, family: str = "Sn") -> Optional[tuple[int, ...]]:
    """The cycle type of an element lying in a unique Sylow p-subgroup, if the
    closed forms provide one.

    For S_n the type x(n) always works.  For A_n the witness is the even
    member of the distinguished types (x(n) for odd p); None is returned
    when every distinguished type is odd, i.e. when A_n is redundant.
    ``type_cycles`` lays the type out on consecutive points.
    """
    if family not in ("Sn", "An"):
        raise DomainError(f"family must be Sn or An, got {family!r}")
    if family == "Sn" or p != 2:
        return partition_x(n, p)
    for parts in sorted(type_set(n), reverse=True):
        if partition_parity(parts) == "even":
            return parts
    return None
