"""The structural criteria of the auto chain: cyclic Sylow quotient, then
trivially intersecting Sylow subgroups.

Each either decides (a unique-Sylow witness, so not redundant) or reports an
inconclusive outcome, in which case ``decide`` falls through to brute force.
Neither consults the brute-force verdict.
"""

from __future__ import annotations

from typing import Optional

from .groups import FiniteGroup
from .report import CriterionOutcome
from .sylow import enumerate_sylows, find_sylow


def cyclic_quotient_test(group: FiniteGroup, p: int) -> CriterionOutcome:
    """If P/O_p(G) is cyclic, some element generates P over the core and is a
    unique-Sylow witness.

    O_p(G) is normal, so <O_p, x> = O_p<x> has order |O_p| * k for the least
    k >= 1 with x^k in O_p, a power of p dividing m = |P : O_p|: x generates
    P over the core exactly when k = m, that is, when m = 1 or x^(m/p) is
    not in O_p.  The witness is the lowest-index such x; the powers come
    from one ``ops.powers`` call over P's keys.
    """
    sylow = find_sylow(group, p)
    core = group.largest_normal_p_subgroup(p).keys
    quotient = sylow.order // len(core)
    if quotient == 1:
        witness = sylow.indices[0]
    else:
        powers = group.ops.powers(sylow.keys, quotient // p)
        witness = min((group.key_index[x] for x, power in zip(sylow.keys, powers) if power not in core), default=None)
    evidence = {
        "sylow_order": sylow.order,
        "core_order": len(core),
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
    base = system.sylows[0].keys
    # every intersection holds the identity, so 1 is the floor and nu = 1's answer
    worst = max((len(base & other.keys) for other in system.sylows[1:]), default=1)
    evidence = {"nu_p": system.nu, "largest_pairwise_intersection": worst}
    if worst == 1:
        nontrivial = [x for x in system.sylows[0].indices if x != group.identity]
        evidence["witness"] = group.render(nontrivial[0] if nontrivial else group.identity)
        return CriterionOutcome("ti-sylow", True, "implies-not-redundant", evidence)
    return CriterionOutcome("ti-sylow", True, "inconclusive", evidence)


# small-nu (in tests/paper_checks.py) is left out: nu_p <= p^2 forces
# |P : O_p| = p, so cyclic-quotient has always decided first.  Neither test
# here raises HypothesisFailed.
STRUCTURAL_CRITERIA = (cyclic_quotient_test, ti_test)


def run_structural_criteria(group: FiniteGroup, p: int) -> tuple[Optional[str], list[CriterionOutcome]]:
    """The cheap structural criteria in fixed order; stops at the first decisive one.

    Returns (verdict, outcomes) where verdict is None when everything was
    inconclusive.
    """
    outcomes: list[CriterionOutcome] = []
    for test in STRUCTURAL_CRITERIA:
        outcome = test(group, p)
        outcomes.append(outcome)
        if outcome.verdict != "inconclusive":
            return outcome.verdict.removeprefix("implies-"), outcomes
    return None, outcomes
