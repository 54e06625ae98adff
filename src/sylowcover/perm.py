"""Permutations of {0..n-1} backed by byte strings.

A permutation is stored as ``bytes`` where byte ``i`` is the image of point
``i``.  Composition is delegated to ``bytes.translate``, which keeps the hot
loops of group enumeration in C.  Degrees are capped at 255 accordingly; the
groups this package enumerates act on far fewer points.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

from .errors import DomainError

MAX_DEGREE = 255

# translate() wants a full 256-byte table; pad tables per degree, lazily.
_PAD: dict[int, bytes] = {}
_RANGE256 = bytes(range(256))


def _pad(degree: int) -> bytes:
    suffix = _PAD.get(degree)
    if suffix is None:
        suffix = _RANGE256[degree:]
        _PAD[degree] = suffix
    return suffix


def compose_keys(a: bytes, b: bytes, degree: int) -> bytes:
    """Key of the composite mapping i -> a[b[i]] (apply b first, then a)."""
    return b.translate(a + _pad(degree))


def invert_key(a: bytes) -> bytes:
    """Key of the inverse: the table sending a[i] to i, applied to 0..n-1."""
    points = _RANGE256[: len(a)]
    return points.translate(bytes.maketrans(a, points))


def cycle_lengths_of_key(a: bytes) -> list[int]:
    """Cycle lengths including fixed points, in descending order."""
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


class Permutation:
    """A bijection of {0..n-1}; the element type of symmetric-group fixtures."""

    __slots__ = ("key",)

    def __init__(self, images: Iterable[int]):
        key = bytes(images)
        n = len(key)
        if n == 0 or n > MAX_DEGREE:
            raise DomainError(f"degree must be in 1..{MAX_DEGREE}, got {n}")
        if len(set(key)) != n or max(key) != n - 1:
            raise DomainError("images do not form a bijection of {0..n-1}")
        self.key = key

    @classmethod
    def _from_key(cls, key: bytes) -> "Permutation":
        p = object.__new__(cls)
        p.key = key
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]], one_based: bool = True) -> "Permutation":
        """Build a permutation from disjoint cycles (1-based by default)."""
        images = list(range(degree))
        offset = 1 if one_based else 0
        for cycle in cycles:
            pts = [c - offset for c in cycle]
            if any(p < 0 or p >= degree for p in pts):
                raise DomainError(f"cycle {cycle!r} leaves degree {degree}")
            for i, p in enumerate(pts):
                if images[p] != p:
                    raise DomainError("cycles are not disjoint")
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.key)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self.key)

    def __call__(self, point: int) -> int:
        return self.key[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise DomainError("cannot compose permutations of different degrees")
        return Permutation._from_key(compose_keys(self.key, other.key, self.degree))

    def inverse(self) -> "Permutation":
        return Permutation._from_key(invert_key(self.key))

    def order(self) -> int:
        return reduce(math.lcm, cycle_lengths_of_key(self.key), 1)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, fixed points included, weakly decreasing."""
        return tuple(cycle_lengths_of_key(self.key))

    def is_even(self) -> bool:
        return (self.degree - len(cycle_lengths_of_key(self.key))) % 2 == 0

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 0-based point tuples, lowest moved point first."""
        seen = bytearray(self.degree)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = 1
            j = self.key[start]
            while j != start:
                seen[j] = 1
                cycle.append(j)
                j = self.key[j]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """1-based disjoint-cycle rendering, e.g. ``(1,2,3,4)(5,6,7,8)``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"

    def group_ops(self) -> "PermutationOps":
        return PermutationOps.for_degree(self.degree)


class PermutationOps:
    """Key-level operations used by the group engine for permutation elements."""

    _instances: dict[int, "PermutationOps"] = {}

    def __init__(self, degree: int):
        self.degree = degree
        self._pad = _pad(degree)
        self._identity = _RANGE256[:degree]
        # p -> largest power of p that is <= degree (1 when p > degree)
        self._cycle_bound: dict[int, int] = {}

    @classmethod
    def for_degree(cls, degree: int) -> "PermutationOps":
        inst = cls._instances.get(degree)
        if inst is None:
            inst = cls(degree)
            cls._instances[degree] = inst
        return inst

    def identity_key(self) -> bytes:
        return _RANGE256[: self.degree]

    def mul(self, a: bytes, b: bytes) -> bytes:
        return b.translate(a + self._pad)

    def inv(self, a: bytes) -> bytes:
        return invert_key(a)

    def wrap(self, key: bytes) -> Permutation:
        return Permutation._from_key(key)

    def unwrap(self, element: object) -> bytes:
        if not isinstance(element, Permutation) or element.degree != self.degree:
            raise DomainError(f"expected a degree-{self.degree} permutation, got {element!r}")
        return element.key

    def key_order(self, a: bytes) -> int:
        return reduce(math.lcm, cycle_lengths_of_key(a), 1)

    def key_is_p_element(self, a: bytes, p: int) -> bool:
        """Whether a^(p^k) = 1 for the largest power p^k <= degree.

        No cycle is longer than the degree, so every cycle length is a power
        of p exactly when it divides p^k.  Squaring and multiplying by
        ``bytes.translate`` keeps the test in C.
        """
        e = self._cycle_bound.get(p)
        if e is None:
            e = 1
            while e * p <= self.degree:
                e *= p
            self._cycle_bound[p] = e
        pad = self._pad
        power = None
        while True:
            if e & 1:
                # powers of one element commute, so the order of factors is free
                power = a if power is None else a.translate(power + pad)
            e >>= 1
            if not e:
                return power == self._identity
            a = a.translate(a + pad)

    def render(self, key: bytes) -> str:
        return Permutation._from_key(key).cycle_string()

    def describe(self) -> str:
        return f"permutation group of degree {self.degree}"

    def same_shape(self, other: object) -> bool:
        return isinstance(other, PermutationOps) and other.degree == self.degree
