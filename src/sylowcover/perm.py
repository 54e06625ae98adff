"""Permutations of {0..n-1} backed by byte strings.

A permutation is stored as ``bytes`` where byte ``i`` is the image of point
``i``.  Composition is delegated to ``bytes.translate``, and the group
engine's hot loops run as chains of C-level maps over whole lists of keys:
the step of the element-table walk, the x^e = 1 scan
(:meth:`PermutationOps.powers`) and the normalizer test
(:meth:`PermutationOps.normalizing_keys`).  The normalizer test is one
stage that drops each key not carrying every orbit of H on points onto an
orbit of the same size, then one stage per generator h of H that tests
g^-1*h*g in H on the previous stage's survivors, taking g^-1's translate
table from ``bytes.maketrans``.  The chains stay lazy, so no list of
256-byte translate tables is built.  Degrees are capped at 255 accordingly;
the groups this package enumerates act on far fewer points.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import chain, compress, repeat, tee
from operator import add
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import DomainError

MAX_DEGREE = 255

_RANGE256 = bytes(range(256))


def invert_key(a: bytes) -> bytes:
    """Key of the inverse: the table sending a[i] to i, applied to 0..n-1."""
    points = _RANGE256[: len(a)]
    return points.translate(bytes.maketrans(a, points))


def cycles_of_key(a: bytes) -> list[tuple[int, ...]]:
    """Every cycle of a key, fixed points included: 0-based, from its lowest point, ordered by it."""
    seen = bytearray(len(a))
    cycles = []
    for j in range(len(a)):
        cycle = []
        while not seen[j]:
            seen[j] = 1
            cycle.append(j)
            j = a[j]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles


def cycle_lengths_of_key(a: bytes) -> list[int]:
    """Cycle lengths including fixed points, in descending order."""
    return sorted(map(len, cycles_of_key(a)), reverse=True)


def cycle_notation(cycles: Iterable[Sequence[int]]) -> str:
    """1-based cycle notation such as ``(1,2,3)(5,6)``: fixed points left out, ``()`` if none moves."""
    return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles if len(c) > 1) or "()"


class Permutation:
    """A bijection of {0..n-1}; the element type of symmetric-group fixtures."""

    __slots__ = ("key",)

    def __init__(self, images: Iterable[int]):
        try:
            key = bytes(images)
        except (TypeError, ValueError):
            raise DomainError(
                f"images must be integers in 0..{MAX_DEGREE - 1} (degree at most {MAX_DEGREE})"
            ) from None
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
        return Permutation._from_key(self.group_ops().mul(self.key, other.key))

    def inverse(self) -> "Permutation":
        return Permutation._from_key(invert_key(self.key))

    def order(self) -> int:
        return self.group_ops().key_order(self.key)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, fixed points included, weakly decreasing."""
        return tuple(cycle_lengths_of_key(self.key))

    def is_even(self) -> bool:
        return (self.degree - len(cycle_lengths_of_key(self.key))) % 2 == 0

    def cycle_string(self) -> str:
        """1-based disjoint-cycle rendering, e.g. ``(1,2,3,4)(5,6,7,8)``."""
        return cycle_notation(cycles_of_key(self.key))

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

    def __init__(self, degree: int):
        self.degree = degree
        # translate() wants a full 256-byte table: a key plus this suffix
        self._pad = _RANGE256[degree:]
        self._identity = _RANGE256[:degree]
        # a multiple of every element order: no cycle is longer than the degree
        self.exponent = math.lcm(*range(1, degree + 1))

    @staticmethod
    @cache
    def for_degree(degree: int) -> "PermutationOps":
        """The one ops object of a degree."""
        return PermutationOps(degree)

    def identity_key(self) -> bytes:
        return _RANGE256[: self.degree]

    def mul(self, a: bytes, b: bytes) -> bytes:
        return b.translate(a + self._pad)

    def inv(self, a: bytes) -> bytes:
        return invert_key(a)

    def conjugator(self, g: bytes) -> Callable[[bytes], bytes]:
        """k -> g^-1 * k * g, with g^-1's 256-byte translate table built once.

        ``bytes.maketrans(g, identity)`` sends g[i] to i and fixes the points
        above the degree: it is g^-1 as a table.
        """
        ginv = bytes.maketrans(g, self._identity)
        pad = self._pad
        return lambda k: g.translate(k.translate(ginv) + pad)

    def multiplication_step(self, gens: Sequence[bytes]) -> Callable[[list[bytes]], Iterator[bytes]]:
        """The walk step of right multiplication: k*g for each key, then each generator.

        Each key is padded to a 256-byte translate table once, and ``tee``
        hands the padded table to one ``g.translate`` map per generator, so
        the step runs in C and no list of padded tables is built.
        """
        pad = self._pad
        translates = [g.translate for g in gens]
        return lambda points: chain.from_iterable(
            zip(*map(map, translates, tee(map(add, points, repeat(pad)), len(translates))))
        )

    def powers(self, keys: Iterable[bytes], e: int) -> Iterator[bytes]:
        """k^e for each key and e >= 0, lazily, as one square-and-multiply chain of C-level maps.

        x^e = x^(e mod exponent), so e is reduced first.  ``tee`` feeds each
        key to both factors of a product, so the chain holds only a few keys
        at a time.
        """
        e %= self.exponent
        if not e:
            return (self._identity for _ in keys)
        pad = self._pad
        base = iter(keys)
        result = None
        while True:
            if e & 1:
                if e == 1:
                    factor = base
                else:
                    base, factor = tee(base)
                # powers of one element commute, so the order of factors is free
                result = factor if result is None else map(bytes.translate, factor, map(add, result, repeat(pad)))
            e >>= 1
            if not e:
                return result
            base, padded = tee(base)
            base = map(bytes.translate, base, map(add, padded, repeat(pad)))

    def normalizing_keys(self, members: Collection[bytes], gens: Sequence[bytes], keys: Iterable[bytes]) -> Iterator[bytes]:
        """The keys g with g^-1*h*g in H for every generator h, lazily and in order.

        H is given by its member keys and the keys of a generating set.  A g
        with g^-1*H*g = H sends each H-orbit on points onto an H-orbit of the
        same size, so the first stage checks each key against the orbit
        sizes, read once per call from the member keys:
        ``g.translate(sizes + pad)``, the size of the orbit of each g[i],
        must equal ``sizes``.  Keys that fail are dropped untested; when every
        orbit has one size, no key can fail and the stage is left out.  Each
        generator h then adds one stage that tests h on the previous stage's
        survivors: ``bytes.maketrans(g, identity)`` is g^-1's translate
        table, so ``g.translate(h + pad).translate(g^-1's table)`` is
        g^-1*h*g as a key, and it is looked up among H's member keys.  Since
        H is finite, g^-1*h*g in H for every generator h means g^-1*H*g = H.
        Every stage is C-level maps fed by ``tee``, so the chain holds a few
        keys and one 256-byte table per stage at a time.
        """
        pad = self._pad
        identity = self._identity
        keys = iter(keys)
        # byte i is the size of i's H-orbit, the set of the i-th bytes of H's members
        sizes = bytes(map(len, map(set, zip(*members))))
        if len(set(sizes)) > 1:
            keys, probe = tee(keys)
            keys = compress(keys, map(sizes.__eq__, map(bytes.translate, probe, repeat(sizes + pad))))
        for h in gens:
            keys, probe, inverses = tee(keys, 3)
            images = map(bytes.translate, probe, repeat(h + pad))
            conjugates = map(bytes.translate, images, map(bytes.maketrans, inverses, repeat(identity)))
            keys = compress(keys, map(members.__contains__, conjugates))
        return keys

    def wrap(self, key: bytes) -> Permutation:
        return Permutation._from_key(key)

    def unwrap(self, element: object) -> bytes:
        if not isinstance(element, Permutation) or element.degree != self.degree:
            raise DomainError(f"expected a degree-{self.degree} permutation, got {element!r}")
        return element.key

    def key_order(self, a: bytes) -> int:
        return reduce(math.lcm, cycle_lengths_of_key(a), 1)

    def render(self, key: bytes) -> str:
        return Permutation._from_key(key).cycle_string()

    def describe(self) -> str:
        return f"permutation group of degree {self.degree}"
