"""Sylow subgroup enumeration, membership multiplicities, and cover search.

The redundancy question is decided from one structure: the
:class:`SylowSystem`, which lists every Sylow p-subgroup and counts, for each
p-element, how many of them contain it.  A group has a redundant Sylow
p-subgroup exactly when no p-element has multiplicity one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .groups import FiniteGroup, Subgroup
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
    p_elements: list[int]
    normalizer_order: int

    @property
    def nu(self) -> int:
        return len(self.sylows)

    @property
    def sylow_order(self) -> int:
        return self.sylows[0].order

    def unique_witnesses(self) -> list[int]:
        """All p-elements lying in exactly one Sylow p-subgroup, ascending."""
        return sorted(x for x, count in self.multiplicity.items() if count == 1)

    def sylow_index_containing(self, x: int) -> int:
        """Position of the first listed Sylow subgroup containing x."""
        for i, sub in enumerate(self.sylows):
            if x in sub:
                return i
        raise DomainError(f"element {x} is not a p-element of this system")

    def sylow_containing(self, x: int) -> Subgroup:
        return self.sylows[self.sylow_index_containing(x)]


@dataclass
class CoverResult:
    """Outcome of a Sylow cover search over the p-elements."""

    size: int
    chosen: tuple[int, ...]
    exact: bool
    nodes: int = 0

    def __post_init__(self):
        if self.size != len(self.chosen):
            raise DomainError("cover size disagrees with the chosen index list")


def find_sylow(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically.

    Starts from the cyclic subgroup on the lowest-index nonidentity p-element
    and, while the order is short of the p-part of |G|, adjoins the
    lowest-index p-element outside the current subgroup that normalizes it.
    A proper p-subgroup always admits such an element, so this terminates.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    cached = group._sylow_cache.get(p)
    if cached is not None:
        return cached.sylows[0]
    target = p_part(group.order, p)
    if target == 1:
        return group.trivial_subgroup()
    p_els = group.p_elements(p)
    seed = next(x for x in p_els if x != group.identity)
    current = group.subgroup_closure([seed])
    while current.order < target:
        members = current.member_set()
        outside = (x for x in p_els if x not in members)
        extension = next(group.normalizing_elements(current, outside), None)
        if extension is None:
            raise RuntimeError("no normalizing p-element found; group table is corrupt")
        current = group.subgroup_closure(list(current.indices) + [extension])
    return current


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
    # Conjugate on keys and look each image up once; the member frozenset
    # doubles as the orbit's dedup key and as the Subgroup's member set.
    keys = group.keys
    index = group.key_index
    mul = group.ops.mul
    conj = [(keys[group.inv(g)], keys[g]) for g in group.generators]
    seen = {base.member_set()}
    sylows = [base]
    for sub in sylows:
        member_keys = [keys[x] for x in sub.indices]
        for ginv, g in conj:
            image = frozenset(index[mul(mul(ginv, k), g)] for k in member_keys)
            if image not in seen:
                seen.add(image)
                sylows.append(Subgroup(group, image))
    nu = len(sylows)
    if nu % p != 1:
        raise RuntimeError(f"Sylow count {nu} violates nu = 1 (mod {p})")
    normalizer = group.normalizer(base)
    if nu != group.order // normalizer.order:
        raise RuntimeError(
            f"Sylow count {nu} disagrees with normalizer index {group.order // normalizer.order}"
        )
    multiplicity: dict[int, int] = {}
    for sub in sylows:
        for x in sub.indices:
            multiplicity[x] = multiplicity.get(x, 0) + 1
    p_els = group.p_elements(p)
    if set(multiplicity) != set(p_els):
        raise RuntimeError("union of Sylow subgroups does not equal the p-element set")
    system = SylowSystem(
        group=group,
        p=p,
        sylows=sylows,
        multiplicity=multiplicity,
        p_elements=p_els,
        normalizer_order=normalizer.order,
    )
    group._sylow_cache[p] = system
    return system


def decide_redundant_bruteforce(group: FiniteGroup, p: int) -> DecisionReport:
    """Exhaustive decision: redundant iff no p-element has multiplicity one.

    The witness, when one exists, is the lowest-index p-element lying in a
    unique Sylow p-subgroup.
    """
    start = time.perf_counter()
    system = enumerate_sylows(group, p)
    witnesses = system.unique_witnesses()
    elapsed = (time.perf_counter() - start) * 1000.0
    if witnesses:
        return DecisionReport(
            group=group.describe(),
            order=group.order,
            p=p,
            verdict="not-redundant",
            method="brute-force",
            witness=group.render(witnesses[0]),
            nu_p=system.nu,
            criteria=[],
            elapsed_ms=elapsed,
        )
    return DecisionReport(
        group=group.describe(),
        order=group.order,
        p=p,
        verdict="redundant",
        method="brute-force",
        witness=None,
        nu_p=system.nu,
        criteria=[],
        elapsed_ms=elapsed,
    )


def _cover_masks(system: SylowSystem) -> tuple[list[int], int]:
    """Per-Sylow bitmasks over the p-element universe, plus the full mask."""
    position = {x: i for i, x in enumerate(system.p_elements)}
    masks = []
    for sub in system.sylows:
        m = 0
        for x in sub.indices:
            m |= 1 << position[x]
        masks.append(m)
    return masks, (1 << len(position)) - 1


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    chosen: list[int] = []
    covered = 0
    while covered != full:
        best_idx = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m | covered).bit_count() - covered.bit_count()
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx < 0:
            raise RuntimeError("greedy cover stalled; universe not covered by the system")
        chosen.append(best_idx)
        covered |= masks[best_idx]
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
    greedy = _greedy_cover(masks, full)
    if mode == "greedy":
        _verify_cover(masks, full, greedy)
        return CoverResult(size=len(greedy), chosen=tuple(greedy), exact=(len(greedy) == 1))
    if system.nu > EXACT_COVER_NU_BOUND:
        raise DomainError(
            f"exact cover search is limited to nu <= {EXACT_COVER_NU_BOUND}; "
            f"this system has nu = {system.nu} (use greedy mode)"
        )
    node_budget = budget if budget is not None else DEFAULT_COVER_NODE_BUDGET
    # Essential-set reduction: an element covered by exactly one subgroup
    # forces that subgroup into every cover.  In a group without a redundant
    # Sylow subgroup this already forces the whole collection.
    forced = sorted({
        next(i for i, m in enumerate(masks) if (m >> pos) & 1)
        for pos, x in enumerate(system.p_elements)
        if system.multiplicity[x] == 1
    })
    base_cover = 0
    for i in forced:
        base_cover |= masks[i]
    # every cover contains the forced subgroups, so when they already cover
    # everything they are the unique minimum
    best = list(forced) if base_cover == full else list(greedy)
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

    if base_cover != full:
        descend(base_cover, list(forced))
    _verify_cover(masks, full, best)
    return CoverResult(size=len(best), chosen=tuple(sorted(best)), exact=not exhausted, nodes=nodes)


def _verify_cover(masks: list[int], full: int, chosen: list[int]) -> None:
    union = 0
    for i in chosen:
        union |= masks[i]
    if union != full:
        raise RuntimeError("cover search returned a non-covering collection")
