"""Redundant Sylow p-subgroups of finite groups.

A Sylow p-subgroup of G is redundant when the p-elements of G are already
covered by the remaining Sylow p-subgroups; equivalently, no p-element lies
in exactly one of them.  This package decides the question by exhaustive
enumeration for explicitly given groups and by closed-form deciders for the
symmetric, alternating, SL/PSL(2,q), and GL(n,q) families, with two cheap
structural criteria (cyclic Sylow quotient, trivially intersecting Sylow
subgroups) tried before brute force.
"""

from .errors import ClosureBudgetExceeded, DomainError, HypothesisFailed, NotPrimePower, SylowCoverError
from .fields import Field, make_field
from .fixtures import alternating_group, build_family, load_fixture, symmetric_group
from .groups import FiniteGroup, Subgroup, enumerate_group
from .linear import FamilyVerdict, SquareMatrix, is_two_power_neighbor, theorem_51_decide, theorem_D_decide
from .perm import Permutation
from .report import CriterionOutcome, DecisionReport
from .criteria import cyclic_quotient_test, ti_test
from .symmetric import (
    PAdicExpansion,
    expansion,
    partition_parity,
    partition_x,
    partition_y,
    theorem_B_decide,
    theorem_C_decide,
    type_set,
    unique_sylow_witness,
)
from .sylow import (
    CoverResult,
    SylowSystem,
    decide_redundant_bruteforce,
    enumerate_sylows,
    find_sylow,
    minimal_cover,
)

__version__ = "1.0.0"

__all__ = [
    "ClosureBudgetExceeded",
    "CoverResult",
    "CriterionOutcome",
    "DecisionReport",
    "DomainError",
    "FamilyVerdict",
    "Field",
    "FiniteGroup",
    "HypothesisFailed",
    "NotPrimePower",
    "PAdicExpansion",
    "Permutation",
    "SquareMatrix",
    "Subgroup",
    "SylowCoverError",
    "SylowSystem",
    "alternating_group",
    "build_family",
    "cyclic_quotient_test",
    "decide_redundant_bruteforce",
    "enumerate_group",
    "enumerate_sylows",
    "expansion",
    "find_sylow",
    "is_two_power_neighbor",
    "load_fixture",
    "make_field",
    "minimal_cover",
    "partition_parity",
    "partition_x",
    "partition_y",
    "symmetric_group",
    "theorem_51_decide",
    "theorem_B_decide",
    "theorem_C_decide",
    "theorem_D_decide",
    "ti_test",
    "type_set",
    "unique_sylow_witness",
]
