"""Finite groups given by generators, fully enumerated.

Every breadth-first orbit is walked by one routine, :func:`walk_orbit`: a
step maps the growing list of points to the stream of their images,
point-major and generator-minor, and the new points are filtered out of it
and appended to the same list in one chain of C-level maps.  That is the
FIFO first-seen order, so it fixes element indices for a fixed generator
order, and with them the order of the Sylow subgroups, witnesses and cover
choices.  The ops object supplies the step of the element table (the orbit
of 1 under right multiplication by the generators); on permutations it is a
chain of ``bytes.translate`` maps.  A subgroup closure (:class:`KeyClosure`)
is that same walk under the subgroup's generators.  Conjugacy classes map
the generators' cached conjugators over the list.  The Sylow orbit and
matrix groups past ``perm.MAX_DEGREE`` nonzero vectors use :func:`orbit`,
the same walk with one ``act(point, g)`` call per image; smaller matrix
groups run as permutations of their vectors (``linear.VectorOps``).

The hot loops (the p-element scan, powers, subgroup closures, normalizer
membership and the Sylow orbit, which conjugates P's key set) run on element
keys through a small key-level ops object; a key -> index -> key round trip
per product would cost more than the product.  A :class:`Subgroup` is the
set of its member keys, which every such loop takes and returns as it is;
its ascending indices are worked out inside it when first read.  Witnesses,
p-element lists and Sylow and cover choices are handed out by index.  The p-element and p'-element scans are one test
x^e = 1 over the whole table, by ``ops.powers`` with e reduced to its gcd
with ``ops.exponent``, a multiple of every element order.

Generators act on keys by k -> g^-1*k*g through ``ops.conjugator``, built
once per group (:meth:`FiniteGroup.conjugators`); only the generators are
inverted.  Every element type's ops answer one protocol (identity, product,
inverse, conjugator, walk step, powers, normalizer test, element order, and
conversion at the edges), so the group asks its ops and never probes them.
Both normalizer tests check g^-1*h*g in H for each generator h of H, and
hand back the normalizing keys of the candidates in order: ``normalizer``
scans the whole table, ``find_sylow`` the p-elements outside P.  The
permutation one is a chain with one stage per generator, after a stage that
drops the candidates breaking the sizes of H's orbits on points, which no
element of N_G(H) does.
"""

from __future__ import annotations

import math
import os
from itertools import chain, compress, count, filterfalse, islice, repeat, tee
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ClosureBudgetExceeded, DomainError
from .numtheory import is_prime, p_part

DEFAULT_ENUMERATION_CAP = 2_500_000
BUDGET_ENV_VAR = "SYLOWCOVER_BUDGET"


def resolve_cap(explicit: Optional[int] = None) -> int:
    """Element cap for closures: explicit argument, else env override, else default."""
    if explicit is not None:
        if explicit < 1:
            raise DomainError(f"enumeration cap must be positive, got {explicit}")
        return explicit
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from exc
        if value < 1:
            raise DomainError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_ENUMERATION_CAP


def walk_orbit(start, step: Callable[[list], Iterable], limit: Optional[int] = None) -> tuple[list, dict]:
    """The orbit of ``start``, breadth first, as one chain of C-level maps fed by its own output.

    ``step`` maps the list of points found so far to the stream of their
    images, point-major and generator-minor, reading the list lazily: a
    point is read only once the images of the points before it have been
    drawn.  Each image not seen yet is filed in the position dict and
    appended to the list before the next image is drawn, so the list is the
    FIFO queue of a breadth-first walk and comes out in its first-seen
    order, the one every orbit in this package relies on: element indices,
    the order of the Sylow subgroups and of block structures.  That order
    comes from list and dict insertion order alone, never from hashing.
    The set-up is a few C calls per walk, not per point or per level.

    Returns the points in that order and a dict from each point to its
    position.  A point past ``limit`` raises ClosureBudgetExceeded; at most
    ``limit + 1`` points are ever held.
    """
    points = [start]
    position = {start: 0}
    # the walk relies on CPython's list.extend appending each item before it
    # draws the next, so that step(points) reads the points appended so far;
    # the language does not promise this, and tests/test_batched_paths.py
    # pins it by comparing every walk with the plain FIFO loop
    fresh, probe = tee(filterfalse(position.__contains__, step(points)))
    # setdefault files each new point under its position, which is never 0,
    # so compress keeps every point that passed the filter
    points.extend(islice(compress(fresh, map(position.setdefault, probe, count(1))), limit))
    if limit is not None and len(points) > limit:
        raise ClosureBudgetExceeded(limit)
    return points, position


def pointwise_step(gens: Sequence, act: Callable) -> Callable[[list], Iterator]:
    """The step of ``act(point, g)`` for g in ``gens``, one call per image, for :func:`walk_orbit`."""
    return lambda points: (act(x, g) for x in points for g in gens)


def orbit(start, gens: Sequence, act: Callable, limit: Optional[int] = None) -> tuple[list, dict]:
    """The orbit of ``start`` under ``act(point, g)`` for g in ``gens``; see :func:`walk_orbit`."""
    return walk_orbit(start, pointwise_step(gens, act), limit)


def _check_cap(order: int, cap: Optional[int] = None) -> None:
    """Refuse a group of known order past the cap before enumerating it."""
    limit = resolve_cap(cap)
    if order > limit:
        raise ClosureBudgetExceeded(limit)


class Subgroup:
    """A subgroup of an enumerated group, stored as the frozenset ``keys`` of its member keys.

    ``indices`` (ascending) and ``member_set()`` are worked out from the keys
    on first read.  Engine results come in through :meth:`of_keys`.
    """

    __slots__ = ("group", "keys", "_set", "_indices", "_generators")

    def __init__(self, group: "FiniteGroup", indices: Iterable[int]):
        index_set = frozenset(indices)
        if index_set and not (0 <= min(index_set) and max(index_set) < group.order):
            raise DomainError(f"element indices must lie in range({group.order})")
        self._adopt(group, frozenset(map(group.keys.__getitem__, index_set)), index_set)

    @classmethod
    def of_keys(cls, group: "FiniteGroup", keys: Iterable[bytes]) -> "Subgroup":
        """The subgroup whose members are ``keys``, element keys of ``group``."""
        sub = cls.__new__(cls)
        sub._adopt(group, frozenset(keys), None)
        return sub

    def _adopt(self, group: "FiniteGroup", keys: frozenset[bytes], index_set: Optional[frozenset[int]]) -> None:
        if group.keys[group.identity] not in keys:
            raise DomainError("subgroup must contain the identity")
        if group.order % len(keys):
            raise DomainError(f"subgroup order {len(keys)} does not divide the group order {group.order}")
        self.group, self.keys, self._set = group, keys, index_set
        self._indices = self._generators = None

    @property
    def order(self) -> int:
        return len(self.keys)

    @property
    def indices(self) -> tuple[int, ...]:
        """The member indices, ascending."""
        if self._indices is None:
            self._indices = tuple(sorted(self.member_set()))
        return self._indices

    def __contains__(self, index: int) -> bool:
        return index in self.member_set()

    def member_set(self) -> frozenset[int]:
        if self._set is None:
            self._set = frozenset(map(self.group.key_index.__getitem__, self.keys))
        return self._set

    def verify(self) -> None:
        """Check that the member set is a subgroup; raise DomainError if not.

        S = ``generating_indices()`` lies in H and generates a group
        containing H.  If H*s lies in H for every s in S, H holds every
        positive word in S, which in a finite group is all of <S>, so H is
        that subgroup: |H|*|S| products instead of the |H|^2 of the pairwise
        definition, with the same answer.  Inverses follow from closure.
        """
        mul, members = self.group.ops.mul, self.keys
        if not all(members.issuperset(map(mul, members, repeat(s))) for s in self.generating_keys()):
            raise DomainError("index set is not closed under products")

    def generating_indices(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily by ascending index."""
        if self._generators is None:
            self._generators = self.group.minimal_generating_indices(self.indices)
        return self._generators

    def generating_keys(self) -> list[bytes]:
        """The keys of ``generating_indices()``, in the same order."""
        return list(map(self.group.keys.__getitem__, self.generating_indices()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subgroup) and other.group is self.group and other.keys == self.keys

    def __hash__(self) -> int:
        return hash(self.keys)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of |G|={self.group.order})"


class KeyClosure:
    """A subgroup grown on element keys, one generator at a time.

    ``members`` is always the subgroup generated by ``gens``, as the
    position dict of its walk; ``elements`` lists the same keys in walk
    order.  ``add`` adjoins a key outside it and re-walks the orbit of 1
    under right multiplication by the grown generator list, the same
    :func:`walk_orbit` and ``ops.multiplication_step`` that build the
    element table.  ``members`` is replaced, not updated, by each ``add``.
    """

    __slots__ = ("_group", "members", "elements", "gens")

    def __init__(self, group: "FiniteGroup"):
        identity = group.keys[group.identity]
        self._group = group
        self.members = {identity: 0}
        self.elements = [identity]
        self.gens: list[bytes] = []

    def add(self, key: bytes) -> bool:
        """Adjoin ``key``; False (and no work) when it is already a member."""
        if key in self.members:
            return False
        self.gens.append(key)
        self.elements, self.members = walk_orbit(self.elements[0], self._group.ops.multiplication_step(self.gens))
        return True

    def subgroup(self) -> Subgroup:
        return Subgroup.of_keys(self._group, self.elements)


class FiniteGroup:
    """A finite group with a fully enumerated, deterministically ordered element table."""

    def __init__(self, ops, generator_keys: Sequence[bytes], name: Optional[str] = None, cap: Optional[int] = None):
        self.ops = ops
        self.name = name
        gen_keys = list(dict.fromkeys(generator_keys))
        # the orbit of 1 under right multiplication and its position dict; read-only
        self.keys, self.key_index = walk_orbit(ops.identity_key(), ops.multiplication_step(gen_keys), resolve_cap(cap))
        self.order = len(self.keys)
        self.identity = 0
        self.generators = tuple(map(self.key_index.__getitem__, gen_keys))
        self._conjugators: Optional[list[Callable[[bytes], bytes]]] = None
        self._p_elements: dict[int, list[int]] = {}
        # Sylow systems by p; find_sylow's subgroup by p, also when no
        # system was built
        self._sylow_cache: dict[int, object] = {}
        self._sylow_subgroups: dict[int, Subgroup] = {}

    # -- element access -------------------------------------------------

    def element(self, index: int):
        return self.ops.wrap(self.keys[index])

    def index_of(self, element: object) -> int:
        key = self.ops.unwrap(element)
        idx = self.key_index.get(key)
        if idx is None:
            raise DomainError(f"{element!r} is not a member of this group")
        return idx

    def render(self, index: int) -> str:
        return self.ops.render(self.keys[index])

    def describe(self) -> str:
        return self.name or self.ops.describe()

    # -- arithmetic on indices -------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.key_index[self.ops.mul(self.keys[i], self.keys[j])]

    def inv(self, i: int) -> int:
        return self.key_index[self.ops.inv(self.keys[i])]

    def power(self, i: int, e: int) -> int:
        key = self.keys[i]
        if e < 0:
            key = self.ops.inv(key)
            e = -e
        return self.key_index[next(self.ops.powers((key,), e))]

    def conjugators(self) -> list[Callable[[bytes], bytes]]:
        """k -> g^-1 * k * g on keys, one per generator in generator order (built once)."""
        if self._conjugators is None:
            self._conjugators = [self.ops.conjugator(self.keys[g]) for g in self.generators]
        return self._conjugators

    def element_order(self, i: int) -> int:
        """Least k >= 1 with x^k = identity."""
        return self.ops.key_order(self.keys[i])

    def _power_is_one(self, e: int) -> list[int]:
        """Indices of the x with x^e = identity, ascending: one scan of the table by ``ops.powers``.

        x^e = 1 exactly when the order of x divides e, and every order
        divides ``ops.exponent``, so the scan powers by their gcd: for
        permutations of degree n, by a divisor of lcm(1..n).
        """
        one = self.keys[self.identity]
        return list(compress(count(), map(one.__eq__, self.ops.powers(self.keys, math.gcd(e, self.ops.exponent)))))

    def p_elements(self, p: int) -> list[int]:
        """Indices of all elements of p-power order, identity included, ascending.

        The x with x^(p-part of |G|) = 1, scanned once per p and cached;
        callers must not mutate the list.
        """
        cached = self._p_elements.get(p)
        if cached is None:
            if not is_prime(p):
                raise DomainError(f"p must be prime, got {p}")
            cached = self._power_is_one(p_part(self.order, p))
            self._p_elements[p] = cached
        return cached

    def p_prime_elements(self, p: int) -> list[int]:
        """Indices of all elements of order coprime to p, ascending."""
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
        return self._power_is_one(self.order // p_part(self.order, p))

    # -- classes and normalizers -------------------------------------------

    def class_keys(self, key: bytes) -> list[bytes]:
        """The keys g^-1 k g of the class of ``key``, in the orbit's first-seen order."""
        conjugators = self.conjugators()
        return walk_orbit(key, lambda points: chain.from_iterable(zip(*[map(c, points) for c in conjugators])))[0]

    def normalizer(self, subgroup: Subgroup) -> Subgroup:
        """All g with g^-1 H g = H.  The input subgroup is verified first."""
        if subgroup.group is not self:
            raise DomainError("subgroup belongs to a different group")
        subgroup.verify()
        return Subgroup.of_keys(self, self.ops.normalizing_keys(subgroup.keys, subgroup.generating_keys(), self.keys))

    def subgroup_closure(self, seed: Iterable[int]) -> Subgroup:
        """Smallest subgroup containing the seed indices."""
        seed = list(seed)
        if not seed:
            raise DomainError("seed must be nonempty")
        closure = KeyClosure(self)
        for s in seed:
            closure.add(self.keys[s])
        return closure.subgroup()

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (self.identity,))

    def minimal_generating_indices(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Greedy generating subset of an index set, by ascending index.

        One closure grows as generators are taken, so each index costs a
        membership test unless it becomes a generator.
        """
        closure = KeyClosure(self)
        return tuple(idx for idx in sorted(set(indices)) if closure.add(self.keys[idx]))

    def largest_normal_p_subgroup(self, p: int) -> Subgroup:
        """O_p(G): the intersection of all Sylow p-subgroups.

        That intersection is the union of the conjugacy classes lying inside
        one Sylow subgroup P, which is the largest subset of P that
        conjugation by every generator maps into itself.  Starting from P's
        member keys, members whose conjugate by some generator has left the
        set are dropped until none is; no other Sylow subgroup is built.
        """
        from .sylow import find_sylow  # local import; sylow builds on this module

        conj = self.conjugators()
        core = find_sylow(self, p).keys
        while True:
            kept = {k for k in core if all(c(k) in core for c in conj)}
            if len(kept) == len(core):
                break
            core = kept
        return Subgroup.of_keys(self, core)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.describe()}, order={self.order})"


def enumerate_group(
    generators: Iterable[object], name: Optional[str] = None, cap: Optional[int] = None, order: Optional[int] = None
) -> FiniteGroup:
    """Enumerate the group generated by permutations or matrices.

    All generators must share one shape (same degree, or same field and
    dimension); each element type's ``group_ops`` names the ops that run
    it, so matrices with at most ``perm.MAX_DEGREE`` nonzero vectors run as
    permutations of them.  Element indices follow a fixed breadth-first
    order, so two calls with the same generator list produce identical
    tables.  A known
    |G| passed as ``order`` is refused past the cap before any generator is
    drawn (they may come lazily), and the table must reach exactly it.
    """
    if order is not None:
        _check_cap(order, cap)
    generators = list(generators)
    if not generators:
        raise DomainError("generator list must be nonempty")
    ops = generators[0].group_ops()
    # ops objects are per-shape singletons, so one shape means one object
    if any(g.group_ops() is not ops for g in generators[1:]):
        raise DomainError("generators do not share a common degree/shape")
    keys = [ops.unwrap(g) for g in generators]
    group = FiniteGroup(ops, keys, name=name, cap=cap)
    if order is not None and group.order != order:
        raise RuntimeError(f"{group.describe()} enumerated to order {group.order}, expected {order}")
    return group
