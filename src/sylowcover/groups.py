"""Finite groups given by generators, fully enumerated.

A :class:`FiniteGroup` owns an element table built by breadth-first closure of
its generator list, so element indices are deterministic for a fixed generator
order.  Subgroups, Sylow systems and every result handed out name elements by
index.  The hot loops (the p-element scan, powers, subgroup closures,
normalizer membership and conjugation of whole subgroups) run on element keys
through a small key-level ops object and convert to indices only where a
result leaves the loop; a key -> index -> key round trip per product would
cost more than the product.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional, Sequence

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
        cap = resolve_cap(cap)
        identity = ops.identity_key()
        keys: list[bytes] = [identity]
        index: dict[bytes, int] = {identity: 0}
        gen_keys: list[bytes] = []
        for k in generator_keys:
            if k not in gen_keys:
                gen_keys.append(k)
        mul = ops.mul
        # Breadth-first closure; FIFO order makes element indices reproducible.
        for key in keys:
            for g in gen_keys:
                nk = mul(key, g)
                if nk not in index:
                    if len(keys) >= cap:
                        raise ClosureBudgetExceeded(cap)
                    index[nk] = len(keys)
                    keys.append(nk)
        self._keys = keys
        self._index = index
        self.order = len(keys)
        self.identity = 0
        self.generators = tuple(index[k] for k in gen_keys)
        self._inv: Optional[list[int]] = None
        self._p_elements: dict[int, list[int]] = {}
        self._elements: dict[int, object] = {}
        self._centralizers: dict[int, Subgroup] = {}
        # Sylow systems by p; find_sylow's subgroup by p, also when no
        # system was built
        self._sylow_cache: dict[int, object] = {}
        self._sylow_subgroups: dict[int, Subgroup] = {}
        self._order_factorization: Optional[list[tuple[int, int]]] = None

    # -- element access -------------------------------------------------

    def element(self, index: int):
        obj = self._elements.get(index)
        if obj is None:
            obj = self.ops.wrap(self._keys[index])
            self._elements[index] = obj
        return obj

    def index_of(self, element: object) -> int:
        key = self.ops.unwrap(element)
        idx = self._index.get(key)
        if idx is None:
            raise DomainError(f"{element!r} is not a member of this group")
        return idx

    def key(self, index: int) -> bytes:
        return self._keys[index]

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

    def order_factorization(self) -> list[tuple[int, int]]:
        if self._order_factorization is None:
            self._order_factorization = factorization(self.order) if self.order > 1 else []
        return self._order_factorization

    def element_order(self, i: int) -> int:
        """Least k >= 1 with x^k = identity."""
        fast = getattr(self.ops, "key_order", None)
        if fast is not None:
            return fast(self._keys[i])
        # Start from |G| and strip prime factors that keep the power trivial.
        order = self.order
        for p, _ in self.order_factorization():
            while order % p == 0 and self.power(i, order // p) == self.identity:
                order //= p
        return order

    def _key_is_p_element(self, key: bytes, p: int) -> bool:
        """Generic test for ops without one: key^(p-part of |G|) = 1."""
        return self.key_power(key, p_part(self.order, p)) == self._keys[self.identity]

    def _p_element_test(self):
        return getattr(self.ops, "key_is_p_element", None) or self._key_is_p_element

    def p_elements(self, p: int) -> list[int]:
        """Indices of all elements of p-power order, identity included, ascending.

        Scanned once per p and cached; callers must not mutate the list.
        """
        cached = self._p_elements.get(p)
        if cached is None:
            if not is_prime(p):
                raise DomainError(f"p must be prime, got {p}")
            test = self._p_element_test()
            cached = [i for i, key in enumerate(self._keys) if test(key, p)]
            self._p_elements[p] = cached
        return cached

    def p_prime_elements(self, p: int) -> list[int]:
        """Indices of all elements of order coprime to p, ascending."""
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
        coprime_part = self.order // p_part(self.order, p)
        return [i for i in range(self.order) if self.power(i, coprime_part) == self.identity]

    # -- classes, centralizers, normalizers --------------------------------

    def conjugacy_class(self, x: int) -> tuple[int, ...]:
        """The class {g^-1 x g}, as a sorted index tuple.

        The orbit-stabilizer identity |class| * |centralizer| = |G| is checked
        on every call.
        """
        keys = self._keys
        mul = self.ops.mul
        inverses = self._inverse_table()
        conj = [(keys[inverses[g]], keys[g]) for g in self.generators]
        seen = {keys[x]}
        queue = [keys[x]]
        for y in queue:
            for ginv, g in conj:
                z = mul(mul(ginv, y), g)
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        index = self._index
        cls = tuple(sorted(index[k] for k in seen))
        if len(cls) * self.centralizer(x).order != self.order:
            raise RuntimeError("orbit-stabilizer identity violated; group table is corrupt")
        return cls

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
        """The candidates g with g^-1 H g = H, lazily and in the given order.

        H is given by its member keys and the keys of a generating set; the
        generators are conjugated on keys and looked up in the member set, so
        no product goes through the index table.
        """
        keys = self._keys
        inverses = self._inverse_table()
        mul = self.ops.mul
        for g in candidates:
            gk = keys[g]
            ginv = keys[inverses[g]]
            for h in gens:
                if mul(mul(ginv, h), gk) not in members:
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
        mul = self.ops.mul
        inv = self.ops.inv
        conj = [(inv(keys[g]), keys[g]) for g in self.generators]
        core = {keys[x] for x in find_sylow(self, p).indices}
        while True:
            kept = {k for k in core if all(mul(mul(ginv, k), g) in core for ginv, g in conj)}
            if len(kept) == len(core):
                break
            core = kept
        index = self._index
        return Subgroup(self, [index[k] for k in core])

    def self_check(self, sample: int = 50, seed: int = 0) -> None:
        """Spot-check table consistency: closure, inverses, associativity."""
        import random

        rng = random.Random(seed)
        n = self.order
        for _ in range(sample):
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


def enumerate_group(generators: Sequence[object], name: Optional[str] = None, cap: Optional[int] = None) -> FiniteGroup:
    """Enumerate the group generated by permutations or matrices.

    All generators must share one shape (same degree, or same field and
    dimension).  Element indices follow a fixed breadth-first order, so two
    calls with the same generator list produce identical tables.
    """
    if not generators:
        raise DomainError("generator list must be nonempty")
    ops = generators[0].group_ops()
    for g in generators[1:]:
        if not ops.same_shape(g.group_ops()):
            raise DomainError("generators do not share a common degree/shape")
    keys = [ops.unwrap(g) for g in generators]
    return FiniteGroup(ops, keys, name=name, cap=cap)
