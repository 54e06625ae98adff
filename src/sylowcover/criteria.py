"""Necessary and sufficient redundancy criteria, each usable standalone.

Every checker verifies its own hypotheses: criteria whose hypotheses are part
of the input contract raise HypothesisFailed when they do not hold, the rest
report an inconclusive outcome.  None of them consults the brute-force
verdict, so each can serve as an independent consistency oracle against it.
"""

from __future__ import annotations

from typing import Optional

from .errors import DomainError, HypothesisFailed
from .groups import FiniteGroup, Subgroup
from .numtheory import p_part
from .report import CriterionOutcome
from .sylow import enumerate_sylows, find_sylow


def class_size_test(group: FiniteGroup, p: int, x: int) -> CriterionOutcome:
    """Compare |x^G| with |x^G n P| * nu_p for a p-element x.

    The product always bounds the class size from above, with equality exactly
    when x lies in a unique Sylow p-subgroup; both facts are checked here, the
    equality side against the membership multiplicity of x.
    """
    system = enumerate_sylows(group, p)
    if x not in system.multiplicity:
        raise HypothesisFailed(f"element {x} is not a p-element")
    cls = group.conjugacy_class(x)
    sylow = system.sylow_containing(x)
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
    x out as a unique-Sylow witness).  Without one, scans a representative of
    every conjugacy class of p-elements; if containment fails for all of
    them, no unique-Sylow element exists and the group is redundant.
    """
    system = enumerate_sylows(group, p)
    normalizer_cache: dict[Subgroup, frozenset[int]] = {}

    def contained(y: int) -> bool:
        sylow = system.sylow_containing(y)
        members = normalizer_cache.get(sylow)
        if members is None:
            members = group.normalizer(sylow).member_set()
            normalizer_cache[sylow] = members
        return group.centralizer(y).member_set() <= members

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

    seen: set[int] = set()
    failing_everywhere = True
    checked = 0
    for y in system.p_elements:
        if y in seen:
            continue
        cls = group.conjugacy_class(y)
        seen.update(cls)
        checked += 1
        if contained(y):
            failing_everywhere = False
            break
    evidence = {"classes_checked": checked}
    if failing_everywhere:
        return CriterionOutcome("navarro", True, "implies-redundant", evidence)
    return CriterionOutcome("navarro", True, "inconclusive", evidence)


def cyclic_quotient_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """If P/O_p(G) is cyclic, some element generates P over the core and is a
    unique-Sylow witness.

    O_p(G) is normal, so <O_p, x> = O_p<x> has order |O_p| * k for the least
    k >= 1 with x^k in O_p: x generates P over the core exactly when
    k = |P : O_p|.  The witness is the first such x of the Sylow subgroup's
    indices, and k is found by multiplying on keys.
    """
    sylow = find_sylow(group, p)
    core = group.largest_normal_p_subgroup(p)
    keys = group.keys
    mul = group.ops.mul
    core_keys = {keys[c] for c in core.indices}
    quotient = sylow.order // core.order
    witness = None
    for x in sylow.indices:
        xk = keys[x]
        power = xk
        k = 1
        while power not in core_keys:
            power = mul(power, xk)
            k += 1
        if k == quotient:
            witness = x
            break
    evidence = {
        "sylow_order": sylow.order,
        "core_order": core.order,
        "cyclic_quotient": witness is not None,
    }
    if witness is not None:
        evidence["witness"] = group.render(witness)
        return CriterionOutcome("cyclic-quotient", True, "implies-not-redundant", evidence)
    return CriterionOutcome("cyclic-quotient", True, "inconclusive", evidence)


def ti_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """Trivially intersecting Sylow subgroups: every nonidentity p-element is
    then a unique-Sylow witness.

    Since the subgroups are mutually conjugate it suffices to intersect the
    first against all others.
    """
    system = enumerate_sylows(group, p)
    base = system.sylows[0].member_set()
    worst = 1
    for other in system.sylows[1:]:
        size = len(base & other.member_set())
        if size > worst:
            worst = size
    evidence = {"nu_p": system.nu, "largest_pairwise_intersection": worst}
    if worst == 1:
        nontrivial = [x for x in system.sylows[0].indices if x != group.identity]
        evidence["witness"] = group.render(nontrivial[0] if nontrivial else group.identity)
        return CriterionOutcome("ti-sylow", True, "implies-not-redundant", evidence)
    return CriterionOutcome("ti-sylow", True, "inconclusive", evidence)


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
    required = system.sylow_order * p
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


# small-nu is left out: nu_p <= p^2 forces |P : O_p| = p, so cyclic-quotient
# has always decided first.  Neither test here raises HypothesisFailed.
STRUCTURAL_CRITERIA = (
    ("cyclic-quotient", cyclic_quotient_test),
    ("ti-sylow", ti_test),
)


def run_structural_criteria(group: FiniteGroup, p: int) -> tuple[Optional[str], list[CriterionOutcome]]:
    """The cheap structural criteria in fixed order; stops at the first decisive one.

    Returns (verdict, outcomes) where verdict is None when everything was
    inconclusive.
    """
    outcomes: list[CriterionOutcome] = []
    for _, test in STRUCTURAL_CRITERIA:
        outcome = test(group, p)
        outcomes.append(outcome)
        if outcome.verdict != "inconclusive":
            return outcome.verdict.removeprefix("implies-"), outcomes
    return None, outcomes
