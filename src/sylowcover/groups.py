"""Finite groups given by generators, fully enumerated.

Every breadth-first orbit is walked by one routine, :func:`orbit`: the
element table (the orbit of 1 under right multiplication by the generators),
conjugacy classes, the Sylow orbit and the block-structure orbit of S_n.  Its
FIFO order fixes element indices for a fixed generator order, and with them
the order of the Sylow subgroups, witnesses and cover choices.  Subgroups,
Sylow systems and every result handed out name elements by index.  The hot
loops (the p-element scan, powers, subgroup closures, normalizer membership
and conjugation of whole subgroups) run on element keys through a small
key-level ops object and convert to indices only where a result leaves the
loop; a key -> index -> key round trip per product would cost more than the
product.

Generators act on keys by k -> g^-1*k*g through ``ops.conjugator``, built
once per group (:meth:`FiniteGroup.conjugators`); only the generators are
inverted.  The normalizer test is g*h*g^-1 in H for each generator h of H,
that is g H g^-1 = H; conjugating both sides by g shows this is
H = g^-1 H g, so it finds the same set as the g^-1*h*g test.  Permutation
ops test it without inverses (``normalizing_keys``), so no permutation path
builds the whole-group inverse table; matrix groups have no inverse-free
conjugate and keep the loop over that table.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ClosureBudgetExceeded, DomainError
from .numtheory import factorization, is_prime, p_part

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


def orbit(start, gens: Sequence, act: Callable, limit: Optional[int] = None) -> tuple[list, dict]:
    """The orbit of ``start`` under ``act(point, g)`` for g in ``gens``, breadth first.

    Returns the points in first-seen order and a dict from each point to its
    position.  The FIFO order is the one every orbit in this package relies
    on: element indices, the order of the Sylow subgroups and of block
    structures.  A point past ``limit`` raises ClosureBudgetExceeded.
    """
    points = [start]
    position = {start: 0}
    for point in points:
        for g in gens:
            image = act(point, g)
            if image not in position:
                if len(points) == limit:
                    raise ClosureBudgetExceeded(limit)
                position[image] = len(points)
                points.append(image)
    return points, position


def _check_cap(order: int, cap: Optional[int] = None) -> None:
    """Refuse a group of known order past the cap before enumerating it."""
    limit = resolve_cap(cap)
    if order > limit:
        raise ClosureBudgetExceeded(limit)


class Subgroup:
    """A subgroup of an enumerated group, stored as a sorted index set."""

    __slots__ = ("group", "indices", "_set", "_generators")

    def __init__(self, group: "FiniteGroup", indices: Iterable[int]):
        self.group = group
        # frozenset() of a frozenset is the same object, so a caller that
        # already holds the member set hands it over without a copy
        self._set = frozenset(indices)
        self.indices = tuple(sorted(self._set))
        self._generators: Optional[tuple[int, ...]] = None
        if group.identity not in self._set:
            raise DomainError("subgroup must contain the identity")
        if group.order % len(self.indices) != 0:
            raise DomainError(
                f"index-set size {len(self.indices)} does not divide the group order {group.order}"
            )

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self._set

    def member_set(self) -> frozenset[int]:
        return self._set

    def verify(self) -> None:
        """Check that the index set is a subgroup; raise DomainError if not.

        S = ``generating_indices()`` lies in H and generates a group
        containing H.  If H*s lies in H for every s in S, H holds every
        positive word in S, which in a finite group is all of <S>, so H is
        that subgroup: |H|*|S| products instead of the |H|^2 of the pairwise
        definition, with the same answer.  Inverses follow from closure.
        """
        g = self.group
        keys = g.keys
        mul = g.ops.mul
        members = {keys[x] for x in self.indices}
        for s in self.generating_indices():
            sk = keys[s]
            for h in members:
                if mul(h, sk) not in members:
                    raise DomainError("index set is not closed under products")

    def generating_indices(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily by ascending index."""
        if self._generators is None:
            self._generators = self.group.minimal_generating_indices(self.indices)
        return self._generators

    def is_abelian(self) -> bool:
        """True when the generators commute pairwise, which makes H abelian."""
        keys = self.group.keys
        mul = self.group.ops.mul
        gens = [keys[x] for x in self.generating_indices()]
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                if mul(x, y) != mul(y, x):
                    return False
        return True

    def exponent(self) -> int:
        """Maximal element order; for p-groups this is the group exponent."""
        return max(self.group.element_order(x) for x in self.indices)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other._set == self._set
        )

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of |G|={self.group.order})"


class KeyClosure:
    """A subgroup grown on element keys, one generator at a time.

    ``members`` is always the subgroup generated by ``gens``; ``elements``
    lists the same keys.  ``add`` adjoins a key outside it: the old subgroup
    H splits the new one into right cosets H*w, so only one product w*s per
    coset representative w and generator s is tested, and each new coset
    H*w is filled by |H| products that cannot meet the old members.  A
    subgroup grown this way costs about one product per member, where a
    breadth-first closure costs one per member and generator.
    """

    __slots__ = ("_group", "_mul", "members", "elements", "gens")

    def __init__(self, group: "FiniteGroup"):
        identity = group.keys[group.identity]
        self._group = group
        self._mul = group.ops.mul
        self.members = {identity}
        self.elements = [identity]
        self.gens: list[bytes] = []

    def add(self, key: bytes) -> bool:
        """Adjoin ``key``; False (and no work) when it is already a member."""
        members = self.members
        if key in members:
            return False
        mul = self._mul
        base = self.elements[:]
        gens = self.gens
        gens.append(key)
        reps = [base[0]]
        for w in reps:
            for s in gens:
                ws = mul(w, s)
                if ws not in members:
                    # (H*w)*s = H*(w*s); cosets of H are equal or disjoint
                    coset = [mul(h, ws) for h in base]
                    members.update(coset)
                    self.elements.extend(coset)
                    reps.append(ws)
        return True

    def subgroup(self) -> Subgroup:
        index = self._group.key_index
        return Subgroup(self._group, [index[k] for k in self.elements])


class FiniteGroup:
    """A finite group with a fully enumerated, deterministically ordered element table."""

    def __init__(self, ops, generator_keys: Sequence[bytes], name: Optional[str] = None, cap: Optional[int] = None):
        self.ops = ops
        self.name = name
        gen_keys = list(dict.fromkeys(generator_keys))
        # the orbit of 1 under right multiplication; its position dict is the index
        self._keys, self._index = orbit(ops.identity_key(), gen_keys, ops.mul, resolve_cap(cap))
        self.order = len(self._keys)
        self.identity = 0
        self.generators = tuple(map(self._index.__getitem__, gen_keys))
        self._inv: Optional[list[int]] = None
        self._conjugators: Optional[list[Callable[[bytes], bytes]]] = None
        self._p_elements: dict[int, list[int]] = {}
        self._centralizers: dict[int, Subgroup] = {}
        # Sylow systems by p; find_sylow's subgroup by p, also when no
        # system was built
        self._sylow_cache: dict[int, object] = {}
        self._sylow_subgroups: dict[int, Subgroup] = {}
        self._order_factorization: Optional[list[tuple[int, int]]] = None

    # -- element access -------------------------------------------------

    def element(self, index: int):
        return self.ops.wrap(self._keys[index])

    def index_of(self, element: object) -> int:
        key = self.ops.unwrap(element)
        idx = self._index.get(key)
        if idx is None:
            raise DomainError(f"{element!r} is not a member of this group")
        return idx

    @property
    def keys(self) -> list[bytes]:
        """Element keys by index; callers must not mutate the list."""
        return self._keys

    @property
    def key_index(self) -> dict[bytes, int]:
        """Element index by key; callers must not mutate the dict."""
        return self._index

    def render(self, index: int) -> str:
        return self.ops.render(self._keys[index])

    def describe(self) -> str:
        return self.name or self.ops.describe()

    # -- arithmetic on indices -------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self._index[self.ops.mul(self._keys[i], self._keys[j])]

    def inv(self, i: int) -> int:
        return self._inverse_table()[i]

    def _inverse_table(self) -> list[int]:
        """Index of each element's inverse, by index (built once per group)."""
        table = self._inv
        if table is None:
            index = self._index
            inv = self.ops.inv
            table = [-1] * self.order
            # inverses come in pairs, so each pair costs one inversion; the
            # indices are the dict's own int objects, so the table adds none
            for k, i in index.items():
                if table[i] < 0:
                    j = index[inv(k)]
                    table[i] = j
                    table[j] = i
            self._inv = table
        return table

    def power(self, i: int, e: int) -> int:
        if e < 0:
            i = self.inv(i)
            e = -e
        return self._index[self.key_power(self._keys[i], e)]

    def key_power(self, key: bytes, e: int) -> bytes:
        """key^e for e >= 0, by squaring and multiplying on keys."""
        mul = self.ops.mul
        result = None
        while e:
            if e & 1:
                # powers of one element commute, so the order of factors is free
                result = key if result is None else mul(result, key)
            e >>= 1
            if e:
                key = mul(key, key)
        return self._keys[self.identity] if result is None else result

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def conjugators(self) -> list[Callable[[bytes], bytes]]:
        """k -> g^-1 * k * g on keys, one per generator in generator order (built once)."""
        if self._conjugators is None:
            self._conjugators = [self.ops.conjugator(self._keys[g]) for g in self.generators]
        return self._conjugators

    def order_factorization(self) -> list[tuple[int, int]]:
        if self._order_factorization is None:
            self._order_factorization = factorization(self.order) if self.order > 1 else []
        return self._order_factorization

    def element_order(self, i: int) -> int:
        """Least k >= 1 with x^k = identity."""
        key, one = self._keys[i], self._keys[self.identity]
        fast = getattr(self.ops, "key_order", None)
        if fast is not None:
            return fast(key)
        # Start from |G| and strip prime factors that keep the power trivial.
        order = self.order
        for p, _ in self.order_factorization():
            while order % p == 0 and self.key_power(key, order // p) == one:
                order //= p
        return order

    def _power_is_one(self, e: int) -> list[int]:
        """Indices of the x with x^e = identity, ascending, powering keys."""
        one = self._keys[self.identity]
        return [i for i, key in enumerate(self._keys) if self.key_power(key, e) == one]

    def p_elements(self, p: int) -> list[int]:
        """Indices of all elements of p-power order, identity included, ascending.

        Scanned once per p and cached; callers must not mutate the list.
        Ops without a ``key_is_p_element`` kernel test x^(p-part of |G|) = 1.
        """
        cached = self._p_elements.get(p)
        if cached is None:
            if not is_prime(p):
                raise DomainError(f"p must be prime, got {p}")
            test = getattr(self.ops, "key_is_p_element", None)
            cached = (self._power_is_one(p_part(self.order, p)) if test is None
                      else [i for i, key in enumerate(self._keys) if test(key, p)])
            self._p_elements[p] = cached
        return cached

    def p_prime_elements(self, p: int) -> list[int]:
        """Indices of all elements of order coprime to p, ascending."""
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
        return self._power_is_one(self.order // p_part(self.order, p))

    # -- classes, centralizers, normalizers --------------------------------

    def conjugacy_class(self, x: int) -> tuple[int, ...]:
        """The class {g^-1 x g}, as a sorted index tuple.

        The orbit-stabilizer identity |class| * |centralizer| = |G| is checked
        on every call.
        """
        cls = tuple(sorted(map(self._index.__getitem__, self.class_keys(self._keys[x]))))
        if len(cls) * self.centralizer(x).order != self.order:
            raise RuntimeError("orbit-stabilizer identity violated; group table is corrupt")
        return cls

    def class_keys(self, key: bytes) -> list[bytes]:
        """The keys g^-1 k g of the class of ``key``, in the orbit's first-seen order."""
        points, _ = orbit(key, self.conjugators(), lambda k, conjugator: conjugator(k))
        return points

    def centralizer(self, x: int) -> Subgroup:
        """All g with gx = xg, as a subgroup (cached per element)."""
        cached = self._centralizers.get(x)
        if cached is not None:
            return cached
        mul = self.ops.mul
        xk = self._keys[x]
        members = [g for g, gk in enumerate(self._keys) if mul(gk, xk) == mul(xk, gk)]
        sub = Subgroup(self, members)
        self._centralizers[x] = sub
        return sub

    def normalizer(self, subgroup: Subgroup) -> Subgroup:
        """All g with g^-1 H g = H.  The input subgroup is verified first."""
        if subgroup.group is not self:
            raise DomainError("subgroup belongs to a different group")
        subgroup.verify()
        keys = self._keys
        members = {keys[h] for h in subgroup.indices}
        gens = [keys[h] for h in subgroup.generating_indices()]
        return Subgroup(self, self.normalizing_elements(members, gens, range(self.order)))

    def normalizing_elements(
        self, members: set[bytes], gens: Sequence[bytes], candidates: Iterable[int]
    ) -> Iterator[int]:
        """The candidates g with g H g^-1 = H, lazily and in the given order.

        That is the same set as g^-1 H g = H.  H is given by its member keys
        and the keys of a generating set.  Ops with a ``normalizing_keys``
        kernel (permutations) test g*h*g^-1 without inverses; for other ops
        each generator is conjugated on keys through the inverse table.
        """
        kernel = getattr(self.ops, "normalizing_keys", None)
        if kernel is not None:
            return map(self._index.__getitem__, kernel(members, gens, map(self._keys.__getitem__, candidates)))
        return self._normalizing_by_inverses(members, gens, candidates)

    def _normalizing_by_inverses(
        self, members: set[bytes], gens: Sequence[bytes], candidates: Iterable[int]
    ) -> Iterator[int]:
        keys = self._keys
        inverses = self._inverse_table()
        mul = self.ops.mul
        for g in candidates:
            gk = keys[g]
            ginv = keys[inverses[g]]
            for h in gens:
                if mul(mul(gk, h), ginv) not in members:
                    break
            else:
                yield g

    def subgroup_closure(self, seed: Iterable[int]) -> Subgroup:
        """Smallest subgroup containing the seed indices."""
        seed = list(seed)
        if not seed:
            raise DomainError("seed must be nonempty")
        closure = KeyClosure(self)
        keys = self._keys
        for s in seed:
            closure.add(keys[s])
        return closure.subgroup()

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (self.identity,))

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, range(self.order))

    def minimal_generating_indices(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Greedy generating subset of an index set, by ascending index.

        One closure grows as generators are taken, so each index costs a
        membership test unless it becomes a generator.
        """
        closure = KeyClosure(self)
        keys = self._keys
        return tuple(idx for idx in sorted(set(indices)) if closure.add(keys[idx]))

    def largest_normal_p_subgroup(self, p: int) -> Subgroup:
        """O_p(G): the intersection of all Sylow p-subgroups.

        That intersection is the union of the conjugacy classes lying inside
        one Sylow subgroup P, which is the largest subset of P that
        conjugation by every generator maps into itself.  Starting from P's
        member keys, members whose conjugate by some generator has left the
        set are dropped until none is; no other Sylow subgroup is built.
        """
        from .sylow import find_sylow  # local import; sylow builds on this module

        keys = self._keys
        conj = self.conjugators()
        core = {keys[x] for x in find_sylow(self, p).indices}
        while True:
            kept = {k for k in core if all(c(k) in core for c in conj)}
            if len(kept) == len(core):
                break
            core = kept
        index = self._index
        return Subgroup(self, [index[k] for k in core])

    def self_check(self) -> None:
        """Spot-check table consistency on 50 seeded triples: closure, inverses, associativity."""
        import random

        rng = random.Random(0)
        n = self.order
        for _ in range(50):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            ij = self.mul(i, j)
            if not 0 <= ij < n:
                raise RuntimeError("product escaped the element table")
            if self.mul(ij, k) != self.mul(i, self.mul(j, k)):
                raise RuntimeError("associativity violated")
            if self.mul(i, self.inv(i)) != self.identity:
                raise RuntimeError("inverse violated")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.describe()}, order={self.order})"


def enumerate_group(
    generators: Iterable[object], name: Optional[str] = None, cap: Optional[int] = None, order: Optional[int] = None
) -> FiniteGroup:
    """Enumerate the group generated by permutations or matrices.

    All generators must share one shape (same degree, or same field and
    dimension).  Element indices follow a fixed breadth-first order, so two
    calls with the same generator list produce identical tables.  A known
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
