"""Second routes that only tests use: seven more redundancy criteria, the
SL(2,q) and GL(p,q) Sylow structure checks, the block-structure model of the
Sylow p-subgroups of S_n, and the class, centralizer and subgroup helpers
they need.  The engine decides with the closed forms, brute force and the
auto chain's two criteria (``sylowcover.criteria``); no CLI path reaches this.

A criterion whose hypotheses are part of its input contract raises
HypothesisFailed when they fail; the others report an inconclusive outcome.
None consults the brute-force verdict.  For p <= 3 the block structures and
the Sylow p-subgroups of S_n correspond one to one, so the block-structure
API refuses p >= 5: S_p then has several Sylow p-subgroups, and one
structure is fixed by several of them (S_7 has 21 structures for 126 Sylow
5-subgroups).
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from typing import Any, Iterable, Optional

from sylowcover import build_family, enumerate_group
from sylowcover.errors import DomainError, HypothesisFailed
from sylowcover.groups import FiniteGroup, KeyClosure, Subgroup, orbit, resolve_cap
from sylowcover.linear import gl_order, is_two_power_neighbor
from sylowcover.numtheory import is_prime, p_part, prime_power_decomposition
from sylowcover.perm import Permutation
from sylowcover.report import CriterionOutcome
from sylowcover.sylow import SylowSystem, enumerate_sylows, find_sylow
from sylowcover.symmetric import expansion, type_cycles


def conjugacy_class(group: FiniteGroup, x: int) -> tuple[int, ...]:
    """The class {g^-1 x g}, as a sorted index tuple.

    The orbit-stabilizer identity |class| * |centralizer| = |G| is checked
    on every call.
    """
    cls = tuple(sorted(map(group.key_index.__getitem__, group.class_keys(group.keys[x]))))
    if len(cls) * centralizer(group, x).order != group.order:
        raise RuntimeError("orbit-stabilizer identity violated; group table is corrupt")
    return cls


@cache
def centralizer(group: FiniteGroup, x: int) -> Subgroup:
    """All g with gx = xg, as a subgroup (cached per element)."""
    mul = group.ops.mul
    xk = group.keys[x]
    members = [g for g, gk in enumerate(group.keys) if mul(gk, xk) == mul(xk, gk)]
    return Subgroup(group, members)


def conjugate(group: FiniteGroup, x: int, g: int) -> int:
    """g^-1 * x * g."""
    return group.mul(group.mul(group.inv(g), x), g)


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, range(group.order))


def self_check(group: FiniteGroup) -> None:
    """Spot-check table consistency on 50 seeded triples: closure, inverses, associativity."""
    rng = random.Random(0)
    n = group.order
    for _ in range(50):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        ij = group.mul(i, j)
        if not 0 <= ij < n:
            raise RuntimeError("product escaped the element table")
        if group.mul(ij, k) != group.mul(i, group.mul(j, k)):
            raise RuntimeError("associativity violated")
        if group.mul(i, group.inv(i)) != group.identity:
            raise RuntimeError("inverse violated")


def is_abelian(subgroup: Subgroup) -> bool:
    """True when the generators commute pairwise, which makes H abelian."""
    keys = subgroup.group.keys
    mul = subgroup.group.ops.mul
    gens = [keys[x] for x in subgroup.generating_indices()]
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            if mul(x, y) != mul(y, x):
                return False
    return True


def exponent(subgroup: Subgroup) -> int:
    """Maximal element order; for p-groups this is the group exponent."""
    return max(subgroup.group.element_order(x) for x in subgroup.indices)


def sylow_containing(system: SylowSystem, x: int) -> Subgroup:
    """The first listed Sylow subgroup containing x."""
    for sub in system.sylows:
        if x in sub:
            return sub
    raise DomainError(f"element {x} is not a p-element of this system")


def class_size_test(group: FiniteGroup, p: int, x: int) -> CriterionOutcome:
    """Compare |x^G| with |x^G n P| * nu_p for a p-element x.

    The product always bounds the class size from above, with equality exactly
    when x lies in a unique Sylow p-subgroup; both facts are checked here, the
    equality side against the membership multiplicity of x.
    """
    system = enumerate_sylows(group, p)
    if x not in system.multiplicity:
        raise HypothesisFailed(f"element {x} is not a p-element")
    cls = conjugacy_class(group, x)
    sylow = sylow_containing(system, x)
    class_in_sylow = sum(1 for y in cls if y in sylow)
    bound = class_in_sylow * system.nu
    if len(cls) > bound:
        raise RuntimeError("class size exceeds |x^G n P| * nu_p; engine is inconsistent")
    equality = len(cls) == bound
    if equality != (system.multiplicity[x] == 1):
        raise RuntimeError("class-size equality disagrees with membership multiplicity")
    evidence = {
        "class_size": len(cls),
        "class_in_sylow": class_in_sylow,
        "nu_p": system.nu,
        "multiplicity": system.multiplicity[x],
        "element": group.render(x),
    }
    if equality:
        return CriterionOutcome("class-size", True, "implies-not-redundant", evidence)
    return CriterionOutcome("class-size", True, "inconclusive", evidence)


def counting_bound_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """If there are fewer p-elements than Sylow p-subgroups, redundancy follows."""
    system = enumerate_sylows(group, p)
    size = len(system.p_elements)
    evidence = {"p_element_count": size, "nu_p": system.nu}
    if size < system.nu:
        return CriterionOutcome("counting-bound", True, "implies-redundant", evidence)
    return CriterionOutcome("counting-bound", True, "inconclusive", evidence)


def navarro_test(group: FiniteGroup, p: int, x: Optional[int] = None) -> CriterionOutcome:
    """Centralizer containment: a unique-Sylow element has C_G(x) <= N_G(P).

    With an element given, reports whether the containment fails (which rules
    x out as a unique-Sylow witness).  Without one, scans the representative
    of every p-class in the system's class view, checking orbit-stabilizer;
    if containment fails for all of them, the group is redundant.
    """
    system = enumerate_sylows(group, p)
    normalizer_cache: dict[Subgroup, frozenset[int]] = {}

    def contained(y: int) -> bool:
        sylow = sylow_containing(system, y)
        members = normalizer_cache.get(sylow)
        if members is None:
            members = group.normalizer(sylow).member_set()
            normalizer_cache[sylow] = members
        return centralizer(group, y).member_set() <= members

    if x is not None:
        if x not in system.multiplicity:
            raise HypothesisFailed(f"element {x} is not a p-element")
        holds = contained(x)
        evidence = {
            "element": group.render(x),
            "containment_holds": holds,
            "multiplicity": system.multiplicity[x],
        }
        # contrapositive: when containment fails, x lies in more than one Sylow subgroup
        if not holds and system.multiplicity[x] == 1:
            raise RuntimeError("containment failed for a unique-Sylow element")
        return CriterionOutcome("navarro", True, "inconclusive", evidence)

    failing_everywhere = True
    checked = 0
    for y, size, _ in system.classes:
        checked += 1
        # contained(y) builds C_G(y) anyway, so orbit-stabilizer costs nothing more
        if size * centralizer(group, y).order != group.order:
            raise RuntimeError("orbit-stabilizer identity violated; group table is corrupt")
        if contained(y):
            failing_everywhere = False
            break
    evidence = {"classes_checked": checked}
    if failing_everywhere:
        return CriterionOutcome("navarro", True, "implies-redundant", evidence)
    return CriterionOutcome("navarro", True, "inconclusive", evidence)


def normal_p_complement(group: FiniteGroup, p: int) -> Optional[Subgroup]:
    """The normal subgroup of p'-elements, when the p'-elements form one.

    At enumeration scale it is enough to check that the p'-element set has
    the right order and is a subgroup (``Subgroup.verify``); conjugation
    preserves element orders, so it is then normal automatically.
    """
    complement_order = group.order // p_part(group.order, p)
    members = group.p_prime_elements(p)
    if len(members) != complement_order:
        return None
    complement = Subgroup(group, members)
    try:
        complement.verify()
    except DomainError:
        return None
    return complement


def pnilpotent_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """Full decision for groups with a normal p-complement N and C_N(P) = 1:
    redundant exactly when every nontrivial element of P has a nontrivial
    centralizer in N.

    Raises HypothesisFailed unless both hypotheses hold.
    """
    complement = normal_p_complement(group, p)
    if complement is None:
        raise HypothesisFailed("the p'-elements do not form a normal subgroup")
    sylow = find_sylow(group, p)
    if sylow.order == 1:
        raise HypothesisFailed("the Sylow p-subgroup is trivial")
    keys = group.keys
    mul = group.ops.mul
    complement_keys = [keys[n] for n in complement.indices]

    def centralizer_in_complement(x: bytes) -> int:
        return sum(1 for n in complement_keys if mul(n, x) == mul(x, n))

    sylow_gens = [keys[x] for x in sylow.generating_indices()]
    fixed_by_all = 0
    for n in complement_keys:
        if all(mul(n, x) == mul(x, n) for x in sylow_gens):
            fixed_by_all += 1
    if fixed_by_all != 1:
        raise HypothesisFailed(f"C_N(P) has order {fixed_by_all}, expected 1")
    lonely = None
    for x in sylow.indices:
        if x == group.identity:
            continue
        if centralizer_in_complement(keys[x]) == 1:
            lonely = x
            break
    evidence = {"complement_order": complement.order, "sylow_order": sylow.order}
    if lonely is None:
        return CriterionOutcome("p-nilpotent", True, "implies-redundant", evidence)
    evidence["witness"] = group.render(lonely)
    return CriterionOutcome("p-nilpotent", True, "implies-not-redundant", evidence)


def p_element_count_bound(group: FiniteGroup, p: int) -> CriterionOutcome:
    """With non-normal Sylow p-subgroups of order p^n there are at least
    p^(n+1) p-elements; the two numbers are reported and the bound enforced."""
    system = enumerate_sylows(group, p)
    if system.nu == 1:
        raise HypothesisFailed("the Sylow p-subgroup is normal")
    required = system.sylow.order * p
    count = len(system.p_elements)
    if count < required:
        raise RuntimeError(f"only {count} p-elements, below the guaranteed {required}")
    return CriterionOutcome(
        "p-element-count", True, "inconclusive",
        {"p_element_count": count, "lower_bound": required},
    )


def small_nu_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """At most p^2 Sylow p-subgroups (and more than one) forces |G : O_p(G)|
    to have p-part exactly p, and hence a cyclic Sylow quotient: not redundant."""
    system = enumerate_sylows(group, p)
    if system.nu == 1:
        raise HypothesisFailed("the Sylow p-subgroup is normal")
    if system.nu > p * p:
        raise HypothesisFailed(f"nu_p = {system.nu} exceeds p^2 = {p * p}")
    core = group.largest_normal_p_subgroup(p)
    quotient_p_part = p_part(group.order // core.order, p)
    if quotient_p_part != p:
        raise RuntimeError(
            f"|G : O_p(G)| has p-part {quotient_p_part}, expected exactly {p}"
        )
    return CriterionOutcome(
        "small-nu", True, "implies-not-redundant",
        {"nu_p": system.nu, "core_order": core.order, "quotient_p_part": quotient_p_part},
    )


def sl2_structure_checks(q: int) -> dict[str, Any]:
    """Structural facts about the Sylow 2-subgroups of SL(2,q) and PSL(2,q), q odd.

    Computes normalizer indices, Sylow counts, and (when q-1, q, q+1 are all
    off the powers of two) the centralizer-order divisibility of 2-elements,
    a class invariant, so read on one representative per class.
    For q > 13 the normalizer index must be 3 when q = +-3 (mod 8) and 1
    otherwise, in both groups, and the two Sylow counts must agree; those
    facts are enforced, not just reported.
    """
    char, _ = prime_power_decomposition(q)
    if char == 2:
        raise DomainError("structure checks require odd q")
    sl = build_family("SL2", {"q": q})
    psl = build_family("PSL2", {"q": q})
    report: dict[str, Any] = {"q": q}
    sl_sys = enumerate_sylows(sl, 2)
    psl_sys = enumerate_sylows(psl, 2)
    report["sl_order"] = sl.order
    report["psl_order"] = psl.order
    report["sl_sylow_order"] = sl_sys.sylow.order
    report["psl_sylow_order"] = psl_sys.sylow.order
    report["sl_normalizer_index"] = sl_sys.normalizer_order // sl_sys.sylow.order
    report["psl_normalizer_index"] = psl_sys.normalizer_order // psl_sys.sylow.order
    # counted on the orbits, so each is checked against its normalizer index
    report["nu2_sl"] = len(sl_sys.sylows)
    report["nu2_psl"] = len(psl_sys.sylows)
    if q > 13:
        expected_index = 3 if q % 8 in (3, 5) else 1
        if report["sl_normalizer_index"] != expected_index:
            raise RuntimeError(
                f"SL(2,{q}) normalizer index {report['sl_normalizer_index']}, expected {expected_index}"
            )
        if report["psl_normalizer_index"] != expected_index:
            raise RuntimeError(
                f"PSL(2,{q}) normalizer index {report['psl_normalizer_index']}, expected {expected_index}"
            )
        if report["nu2_sl"] != report["nu2_psl"]:
            raise RuntimeError(f"nu_2 differs between SL(2,{q}) and PSL(2,{q})")
    report["centralizer_divisibility_checked"] = False
    if is_two_power_neighbor(q) is None:
        for x, _, _ in sl_sys.classes:
            c_order = centralizer(sl, x).order
            if c_order % (q - 1) != 0 and c_order % (q + 1) != 0:
                raise RuntimeError(
                    f"2-element {sl.render(x)} of SL(2,{q}) has centralizer order {c_order}, "
                    f"divisible by neither {q - 1} nor {q + 1}"
                )
        report["centralizer_divisibility_checked"] = True
    return report


def wreath_cpcp(p: int) -> FiniteGroup:
    """C_p wr C_p as a permutation group on p^2 points."""
    degree = p * p
    base_cycle = Permutation.from_cycles(degree, [tuple(range(1, p + 1))])
    block_shift = Permutation([(i + p) % degree for i in range(degree)])
    return enumerate_group([base_cycle, block_shift], name=f"C{p} wr C{p}", order=p ** (p + 1))


def _frattini_subgroup(group: FiniteGroup, sub: Subgroup, p: int) -> KeyClosure:
    """Frattini subgroup of a p-subgroup P: generated by the p-th powers and P'.

    P' is generated by the [x, s] for x in P and s in a generating set S:
    they generate a normal subgroup, as [x, s]^y = [xy, s][y, s]^-1, so it
    holds every [x, w], as [x, yz] = [x, z][x, y]^z.  One closure grows by
    these |P| * (|S| + 1) keys, where all pairs would be |P|^2.
    """
    keys = group.keys
    mul = group.ops.mul
    inv = group.ops.inv
    members = [keys[x] for x in sub.indices]
    closure = KeyClosure(group)
    for x in members:
        closure.add(next(group.ops.powers((x,), p)))
    for s in map(keys.__getitem__, sub.generating_indices()):
        sinv = inv(s)
        for x in members:
            closure.add(mul(mul(mul(inv(x), sinv), x), s))
    return closure


def maximal_subgroups_of_p_group(group: FiniteGroup, sub: Subgroup, p: int) -> list[Subgroup]:
    """All index-p subgroups of a p-subgroup with Frattini quotient of rank 2.

    Maximal subgroups of a p-group are the preimages of the index-p subgroups
    of its (elementary abelian) Frattini quotient; for rank 2 each of the p+1
    of them is generated by the Frattini subgroup and one coset
    representative.
    """
    phi = _frattini_subgroup(group, sub, p)
    if sub.order != len(phi.members) * p * p:
        raise DomainError("only p-groups with a rank-2 Frattini quotient are supported")
    keys = group.keys
    maximal: list[KeyClosure] = []
    for x in sub.indices:
        xk = keys[x]
        # with a rank-2 Frattini quotient, x outside phi lies in exactly one
        # maximal subgroup, <phi, x>; one closure per maximal subgroup
        if xk in phi.members or any(xk in m.members for m in maximal):
            continue
        candidate = KeyClosure(group)
        for k in phi.gens + [xk]:
            candidate.add(k)
        maximal.append(candidate)
    if len(maximal) != p + 1:
        raise RuntimeError(f"found {len(maximal)} maximal subgroups, expected {p + 1}")
    return sorted((m.subgroup() for m in maximal), key=lambda m: m.indices)


def gl_wreath_checks(p: int, q: int, group: Optional[FiniteGroup] = None) -> dict[str, Any]:
    """Invariants of the Sylow p-subgroup of GL(p,q) when p exactly divides q-1.

    Verifies order p^(p+1), exponent p^2, and a unique abelian maximal
    subgroup.  When GL(p,q) is beyond the enumeration cap the same invariants
    are checked on C_p wr C_p built directly.  A prebuilt GL(p,q) may be
    passed to reuse its cached Sylow data.
    """
    if not is_prime(p) or p == 2:
        raise HypothesisFailed(f"p must be an odd prime, got {p}")
    if (q - 1) % p != 0 or (q - 1) % (p * p) == 0:
        raise HypothesisFailed(f"p = {p} must exactly divide q-1 = {q - 1}")
    limit = resolve_cap()
    report: dict[str, Any] = {"p": p, "q": q}
    if group is not None or gl_order(p, q) <= limit:
        if group is None:
            group = build_family("GL", {"n": p, "q": q})
        sylow = find_sylow(group, p)
    else:
        group = wreath_cpcp(p)
        sylow = full_subgroup(group)
    report["group"] = group.describe()
    report["sylow_order"] = sylow.order
    if sylow.order != p ** (p + 1):
        raise RuntimeError(f"Sylow order {sylow.order}, expected p^(p+1) = {p**(p+1)}")
    report["exponent"] = exponent(sylow)
    if report["exponent"] != p * p:
        raise RuntimeError(f"Sylow exponent {report['exponent']}, expected p^2 = {p * p}")
    maximal = maximal_subgroups_of_p_group(group, sylow, p)
    report["maximal_subgroup_count"] = len(maximal)
    abelian = [m for m in maximal if is_abelian(m)]
    report["abelian_maximal_count"] = len(abelian)
    if len(abelian) != 1:
        raise RuntimeError(f"expected exactly one abelian maximal subgroup, found {len(abelian)}")
    return report


def canonical_element_of_type(n: int, parts: Iterable[int]) -> Permutation:
    """The permutation with the given cycle type on consecutive points."""
    cycles = type_cycles(parts)
    total = cycles[-1].stop if cycles else 0
    if total != n:
        raise DomainError(f"cycle type sums to {total}, not {n}")
    return Permutation.from_cycles(n, cycles, one_based=False)


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
