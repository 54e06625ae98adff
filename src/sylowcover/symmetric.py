"""Symmetric and alternating groups: block structures and fast deciders.

A Sylow p-subgroup of S_n is the stabilizer of a nested family of p-power
blocks built over the base-p digits of n.  For p <= 3 the block structures
and the Sylow p-subgroups correspond one to one, and the block-structure API
below is limited to those primes: for p >= 5 the group S_p has more than one
Sylow p-subgroup, so one structure is fixed by several of them (S_7 has 21
structures for 126 Sylow 5-subgroups).  The closed forms need no structures:
a 2-element of S_n lies in a unique Sylow 2-subgroup exactly when it has at
most two fixed points and pairwise-distinct nontrivial cycle lengths, and
sorting those distinguished cycle types by parity settles A_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional

from .errors import DomainError
from .groups import FiniteGroup, Subgroup, orbit
from .numtheory import is_prime, p_part
from .perm import Permutation


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


def canonical_element_of_type(n: int, parts: Iterable[int]) -> Permutation:
    """The permutation with the given cycle type on consecutive points."""
    cycles = type_cycles(parts)
    total = cycles[-1].stop if cycles else 0
    if total != n:
        raise DomainError(f"cycle type sums to {total}, not {n}")
    return Permutation.from_cycles(n, cycles, one_based=False)


def unique_sylow_witness(n: int, p: int, family: str = "Sn") -> Optional[tuple[int, ...]]:
    """The cycle type of an element lying in a unique Sylow p-subgroup, if the
    closed forms provide one.

    For S_n the type x(n) always works.  For A_n the witness is the even
    member of the distinguished types (x(n) for odd p); None is returned
    when every distinguished type is odd, i.e. when A_n is redundant.
    ``type_cycles`` lays the type out on consecutive points, and
    ``canonical_element_of_type`` turns it into an element.
    """
    if family not in ("Sn", "An"):
        raise DomainError(f"family must be Sn or An, got {family!r}")
    if family == "Sn" or p != 2:
        return partition_x(n, p)
    for parts in sorted(type_set(n), reverse=True):
        if partition_parity(parts) == "even":
            return parts
    return None


class BlockStructure:
    """A nested family of p-power blocks of {1..n}, canonically ordered.

    Blocks of size >= p only; each block of size p^j with j >= 2 splits into
    exactly p child blocks.  Two structures are equal exactly when their
    block families coincide as sets of sets.
    """

    __slots__ = ("n", "p", "blocks", "_blockset")

    def __init__(self, n: int, p: int, blocks: Iterable[Iterable[int]]):
        self.n = n
        self.p = p
        family = {frozenset(b) for b in blocks}
        for block in family:
            if not block <= set(range(1, n + 1)):
                raise DomainError("blocks must be subsets of {1..n}")
        self._blockset = frozenset(family)
        self.blocks = tuple(sorted((tuple(sorted(b)) for b in family), key=lambda b: (-len(b), b)))
        self._validate()

    def _validate(self) -> None:
        p = self.p
        sizes = {}
        for block in self.blocks:
            size = len(block)
            if size < p or p_part(size, p) != size:
                raise DomainError(f"block size {size} is not a power of p >= p")
            sizes.setdefault(size, []).append(set(block))
        for block in self.blocks:
            size = len(block)
            if size >= p * p:
                children = [c for c in sizes.get(size // p, []) if c < set(block)]
                if len(children) != p or set().union(*children) != set(block):
                    raise DomainError("a block is not partitioned into p children")
        for block in self.blocks:
            for other in self.blocks:
                b, o = set(block), set(other)
                if not (b <= o or o <= b or not (b & o)):
                    raise DomainError("blocks must be nested or disjoint")

    def apply(self, sigma: Permutation) -> "BlockStructure":
        """Image structure under a permutation of {1..n} (0-based internally)."""
        return BlockStructure(
            self.n, self.p,
            [[sigma(point - 1) + 1 for point in block] for block in self.blocks],
        )

    def is_preserved_by(self, sigma: Permutation) -> bool:
        blockset = self._blockset
        for block in self.blocks:
            if frozenset(sigma(point - 1) + 1 for point in block) not in blockset:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockStructure)
            and other.n == self.n
            and other.p == self.p
            and other._blockset == self._blockset
        )

    def __hash__(self) -> int:
        return hash((self.n, self.p, self._blockset))

    def __repr__(self) -> str:
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"BlockStructure(n={self.n}, p={self.p}, {inner})"


def _subdivide(start: int, size: int, p: int, blocks: list[tuple[int, ...]]) -> None:
    blocks.append(tuple(range(start, start + size)))
    if size > p:
        child = size // p
        for i in range(p):
            _subdivide(start + i * child, child, p, blocks)


def base_block_structure(n: int, p: int) -> BlockStructure:
    """The canonical structure on consecutive intervals, largest blocks first."""
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    exp = expansion(n, p)
    blocks: list[tuple[int, ...]] = []
    start = 1
    for i in range(exp.k, 0, -1):
        size = p**i
        for _ in range(exp.digits[i]):
            _subdivide(start, size, p, blocks)
            start += size
    return BlockStructure(n, p, blocks)


@lru_cache(maxsize=None)
def _structure_orbit(n: int, p: int) -> tuple[BlockStructure, ...]:
    gens = [Permutation.from_cycles(n, [(1, 2)]), Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return tuple(orbit(base_block_structure(n, p), gens, BlockStructure.apply)[0])


def all_block_structures(n: int, p: int) -> list[BlockStructure]:
    """Every block structure for n: the S_n-orbit of the canonical one.

    One per Sylow p-subgroup of S_n; p >= 5 raises DomainError.
    """
    if p >= 5:
        raise DomainError(f"block structures match Sylow p-subgroups only for p <= 3, got p = {p}")
    return list(_structure_orbit(n, p))


def structure_stabilizer(structure: BlockStructure, group: FiniteGroup) -> Subgroup:
    """The p-elements of S_n preserving every block, as a subgroup.

    The group argument must be the enumerated S_n on matching degree; the
    result is checked to have order equal to the p-part of n!.
    """
    degree = getattr(group.ops, "degree", None)
    if degree != structure.n:
        raise DomainError("group degree does not match the block structure")
    members = [
        i for i in group.p_elements(structure.p)
        if structure.is_preserved_by(group.element(i))
    ]
    stab = Subgroup(group, members)
    if stab.order != p_part(group.order, structure.p):
        raise RuntimeError(
            f"stabilizer order {stab.order} is not the p-part of |G| = {group.order}"
        )
    return stab


def preserved_structure_count(x: Permutation, p: int) -> int:
    """How many block structures the p-element x preserves.

    Agrees with the number of Sylow p-subgroups of S_n containing x; p >= 5
    raises DomainError.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    for length in x.cycle_type():
        if p_part(length, p) != length:
            raise DomainError("x is not a p-element")
    return sum(1 for structure in all_block_structures(x.degree, p) if structure.is_preserved_by(x))
