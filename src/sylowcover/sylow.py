"""Sylow subgroup enumeration, membership multiplicities, and cover search.

A group has a redundant Sylow p-subgroup exactly when no p-element lies in
exactly one Sylow p-subgroup, that is, has multiplicity one.  Two routes
count multiplicities.  :func:`class_multiplicities` reads them off one
Sylow subgroup P and the p-classes: m is constant on a class C, and double
counting gives m_C * |C| = nu * |C ∩ P|.  The brute-force decision takes
that route.  :func:`enumerate_sylows` builds the :class:`SylowSystem`, which
lists every Sylow p-subgroup and counts each p-element's multiplicity over
the list; covers and the criteria that need the subgroups themselves use it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import chain
from typing import Optional

from .errors import DomainError
from .groups import FiniteGroup, KeyClosure, Subgroup, orbit
from .numtheory import is_prime, p_part
from .report import DecisionReport

EXACT_COVER_NU_BOUND = 64
DEFAULT_COVER_NODE_BUDGET = 2_500_000


@dataclass
class SylowSystem:
    """All Sylow p-subgroups of a group plus per-element membership counts."""

    group: FiniteGroup
    p: int
    sylows: list[Subgroup]
    multiplicity: dict[int, int]
    normalizer_order: int

    @property
    def p_elements(self) -> list[int]:
        """The p-elements, ascending: the group's scan, cached before the system is built."""
        return self.group._p_elements[self.p]

    @property
    def nu(self) -> int:
        return len(self.sylows)

    @property
    def sylow_order(self) -> int:
        return self.sylows[0].order

    def unique_witnesses(self) -> list[int]:
        """All p-elements lying in exactly one Sylow p-subgroup, ascending."""
        return sorted(x for x, count in self.multiplicity.items() if count == 1)

    def sylow_containing(self, x: int) -> Subgroup:
        """The first listed Sylow subgroup containing x."""
        for sub in self.sylows:
            if x in sub:
                return sub
        raise DomainError(f"element {x} is not a p-element of this system")


@dataclass
class CoverResult:
    """Outcome of a Sylow cover search over the p-elements."""

    chosen: tuple[int, ...]
    exact: bool
    nodes: int = 0

    @property
    def size(self) -> int:
        return len(self.chosen)


def find_sylow(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically and cached per (group, p).

    Starts from the cyclic subgroup on the lowest-index nonidentity p-element
    and, while the order is short of the p-part of |G|, adjoins the
    lowest-index p-element outside the current subgroup that normalizes it.
    A proper p-subgroup always admits such an element, so this terminates.
    One closure grows on element keys, generated by the seed and the
    extensions found so far.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    cached = group._sylow_subgroups.get(p)
    if cached is not None:
        return cached
    target = p_part(group.order, p)
    if target == 1:
        sylow = group.trivial_subgroup()
    else:
        keys = group.keys
        p_els = group.p_elements(p)
        closure = KeyClosure(group)
        closure.add(keys[next(x for x in p_els if x != group.identity)])
        members = closure.members
        while len(members) < target:
            outside = (x for x in p_els if keys[x] not in members)
            extension = next(group.normalizing_elements(members, closure.gens, outside), None)
            if extension is None:
                raise RuntimeError("no normalizing p-element found; group table is corrupt")
            closure.add(keys[extension])
        sylow = closure.subgroup()
    group._sylow_subgroups[p] = sylow
    return sylow


def enumerate_sylows(group: FiniteGroup, p: int) -> SylowSystem:
    """Build the full Sylow system for (group, p), with cross-checks.

    The subgroup list is the conjugation orbit of ``find_sylow``; its length
    is verified against the index of the normalizer and against the
    congruence nu = 1 (mod p), and the multiplicity map is checked to cover
    every p-element.  Systems are cached on the group.
    """
    cached = group._sylow_cache.get(p)
    if cached is not None:
        return cached
    base = find_sylow(group, p)
    keys = group.keys
    index = group.key_index

    def conjugate(members: frozenset[int], conjugator) -> frozenset[int]:
        # on keys, each image looked up once; the member frozenset doubles
        # as the orbit's dedup key and as the Subgroup's member set
        return frozenset([index[conjugator(keys[x])] for x in members])

    member_sets, _ = orbit(base.member_set(), group.conjugators(), conjugate)
    sylows = [base] + [Subgroup(group, members) for members in member_sets[1:]]
    nu = len(sylows)
    if nu % p != 1:
        raise RuntimeError(f"Sylow count {nu} violates nu = 1 (mod {p})")
    normalizer = group.normalizer(base)
    if nu != group.order // normalizer.order:
        raise RuntimeError(
            f"Sylow count {nu} disagrees with normalizer index {group.order // normalizer.order}"
        )
    # a plain dict, so a missing element still raises KeyError
    multiplicity = dict(Counter(chain.from_iterable(member_sets)))
    if set(multiplicity) != set(group.p_elements(p)):
        raise RuntimeError("union of Sylow subgroups does not equal the p-element set")
    system = SylowSystem(
        group=group,
        p=p,
        sylows=sylows,
        multiplicity=multiplicity,
        normalizer_order=normalizer.order,
    )
    group._sylow_cache[p] = system
    return system


def class_multiplicities(group: FiniteGroup, p: int) -> tuple[int, list[tuple[int, int, int]]]:
    """nu_p and, for each p-class C, the triple (lowest index in C, |C|, m_C).

    No Sylow subgroup but ``find_sylow``'s P is built.  nu is the index of
    N_G(P).  The p-elements are scanned in ascending order, and each one not
    yet labelled starts a walk of its class under conjugation by the
    generators, on keys.  Every element of C lies in m_C = nu * |C ∩ P| / |C|
    Sylow subgroups.  Checked on the way, each raising RuntimeError:
    nu = 1 (mod p); the p-elements, the solutions of x^|P| = 1, number a
    multiple of |P| (Frobenius); every class meets P (Sylow II); |C| divides
    nu * |C ∩ P|, with 1 <= m_C <= nu; and the classes partition the
    p-elements.
    """
    sylow = find_sylow(group, p)
    nu = group.order // group.normalizer(sylow).order
    if nu % p != 1:
        raise RuntimeError(f"Sylow count {nu} violates nu = 1 (mod {p})")
    p_els = group.p_elements(p)
    if len(p_els) % sylow.order:
        raise RuntimeError(f"{len(p_els)} p-elements is not a multiple of |P| = {sylow.order}")
    keys = group.keys
    members = {keys[x] for x in sylow.indices}
    labelled: set[bytes] = set()
    classes = []
    for x in p_els:
        key = keys[x]
        if key in labelled:
            continue
        cls = group.class_keys(key)
        labelled.update(cls)
        meet = len(members.intersection(cls))
        if not meet:
            raise RuntimeError(f"the class of element {x} misses the Sylow subgroup")
        m, rest = divmod(nu * meet, len(cls))
        if rest or not 1 <= m <= nu:
            raise RuntimeError(f"class of element {x}: nu * |C ∩ P| = {nu * meet} over |C| = {len(cls)}")
        classes.append((x, len(cls), m))
    if len(labelled) != len(p_els) or sum(size for _, size, _ in classes) != len(p_els):
        raise RuntimeError("the p-classes do not partition the p-elements")
    return nu, classes


def decide_redundant_bruteforce(group: FiniteGroup, p: int) -> DecisionReport:
    """Exhaustive decision: redundant iff no p-element has multiplicity one.

    The multiplicities come from :func:`class_multiplicities`, unless a Sylow
    system for p is already cached on the group (the auto chain's ti-sylow
    builds one), which is then read instead.  The witness, when one exists,
    is the lowest-index p-element lying in a unique Sylow p-subgroup: on the
    class route, the first class representative with multiplicity one.
    """
    start = time.perf_counter()
    system = group._sylow_cache.get(p)
    if system is not None:
        nu, witnesses = system.nu, system.unique_witnesses()
    else:
        nu, classes = class_multiplicities(group, p)
        witnesses = [x for x, _, m in classes if m == 1]
    elapsed = (time.perf_counter() - start) * 1000.0
    return DecisionReport(
        group=group.describe(),
        order=group.order,
        p=p,
        verdict="not-redundant" if witnesses else "redundant",
        method="brute-force",
        witness=group.render(witnesses[0]) if witnesses else None,
        nu_p=nu,
        criteria=[],
        elapsed_ms=elapsed,
    )


def _cover_masks(system: SylowSystem) -> tuple[list[int], int]:
    """Per-Sylow bitmasks over the p-element universe, plus the full mask."""
    bit = {x: 1 << i for i, x in enumerate(system.p_elements)}
    return [sum(map(bit.__getitem__, sub.indices)) for sub in system.sylows], (1 << len(bit)) - 1


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    """Repeatedly take the mask covering the most uncovered bits, lowest index on ties.

    A mask's gain only falls as the cover grows, so a heap of
    (-gain, index) holding stale gains needs only its top entry re-scored
    (Minoux's lazy greedy): once a fresh entry stays on top, no other mask
    gains more, and an equal gain on a higher index sorts below it.
    """
    heap = [(-(m & full).bit_count(), i) for i, m in enumerate(masks)]
    heapify(heap)
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        best = None
        while heap and heap[0] != best:
            i = heap[0][1]
            best = (-(masks[i] & uncovered).bit_count(), i)
            heapreplace(heap, best)
        if best is None or not best[0]:
            raise RuntimeError("greedy cover stalled; universe not covered by the system")
        heappop(heap)
        chosen.append(best[1])
        uncovered &= ~masks[best[1]]
    return chosen


def minimal_cover(system: SylowSystem, mode: str = "greedy", budget: Optional[int] = None) -> CoverResult:
    """Search for a small sub-collection of Sylow subgroups covering all p-elements.

    greedy: repeatedly take the subgroup covering the most uncovered
    p-elements (ties broken by lowest index).  exact: depth-first
    branch-and-bound, complete unless the node budget runs out, in which case
    the best cover found so far is returned with ``exact=False``.  Exact mode
    is only available for nu <= 64.
    """
    if mode not in ("greedy", "exact"):
        raise DomainError(f"mode must be 'greedy' or 'exact', got {mode!r}")
    masks, full = _cover_masks(system)
    if mode == "greedy":
        greedy = _greedy_cover(masks, full)
        _verify_cover(masks, full, greedy)
        return CoverResult(chosen=tuple(greedy), exact=(len(greedy) == 1))
    if system.nu > EXACT_COVER_NU_BOUND:
        raise DomainError(
            f"exact cover search is limited to nu <= {EXACT_COVER_NU_BOUND}; "
            f"this system has nu = {system.nu} (use greedy mode)"
        )
    # An element covered by exactly one subgroup forces that subgroup into
    # every cover.  The Sylow subgroups are conjugate, so if one holds such an
    # element every one does: all are forced (the unique minimum) or none is.
    if system.unique_witnesses():
        everything = tuple(range(system.nu))
        _verify_cover(masks, full, everything)
        return CoverResult(chosen=everything, exact=True)
    node_budget = budget if budget is not None else DEFAULT_COVER_NODE_BUDGET
    best = _greedy_cover(masks, full)
    nodes = 0
    exhausted = False
    max_size = max(m.bit_count() for m in masks)

    def descend(covered: int, chosen: list[int]) -> None:
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        remaining = full & ~covered
        # Lower bound: even perfectly disjoint sets need this many more.
        need = -(-remaining.bit_count() // max_size)
        if len(chosen) + need >= len(best):
            return
        # Branch on the lowest uncovered element: some chosen set must cover it.
        pivot = remaining & -remaining
        candidates = [i for i, m in enumerate(masks) if m & pivot]
        candidates.sort(key=lambda i: -(masks[i] & remaining).bit_count())
        for i in candidates:
            chosen.append(i)
            descend(covered | masks[i], chosen)
            chosen.pop()
            if exhausted:
                return

    descend(0, [])
    _verify_cover(masks, full, best)
    return CoverResult(chosen=tuple(sorted(best)), exact=not exhausted, nodes=nodes)


def _verify_cover(masks: list[int], full: int, chosen: list[int]) -> None:
    union = 0
    for i in chosen:
        union |= masks[i]
    if union != full:
        raise RuntimeError("cover search returned a non-covering collection")
