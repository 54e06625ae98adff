"""Redundant Sylow p-subgroups of finite groups.

A Sylow p-subgroup of G is redundant when the p-elements of G are already
covered by the remaining Sylow p-subgroups; equivalently, no p-element lies
in exactly one of them.  This package decides the question by exhaustive
enumeration for explicitly given groups and by closed-form deciders for the
symmetric, alternating, SL/PSL(2,q), and GL(n,q) families, and ships the
auxiliary counting and structure criteria as independent checkers.
"""

from .errors import (
    ClosureBudgetExceeded,
    DomainError,
    HypothesisFailed,
    NotPrimePower,
    SylowCoverError,
)
from .fields import Field, make_field
from .fixtures import alternating_group, build_family, load_fixture, symmetric_group
from .groups import FiniteGroup, Subgroup, enumerate_group
from .linear import (
    FamilyVerdict,
    SquareMatrix,
    gl_wreath_checks,
    is_two_power_neighbor,
    sl2_structure_checks,
    theorem_51_decide,
    theorem_D_decide,
    wreath_cpcp,
)
from .perm import Permutation
from .report import CriterionOutcome, DecisionReport
from .criteria import (
    class_size_test,
    counting_bound_test,
    cyclic_quotient_test,
    navarro_test,
    normal_p_complement,
    p_element_count_bound,
    pnilpotent_test,
    small_nu_test,
    ti_test,
)
from .symmetric import (
    BlockStructure,
    PAdicExpansion,
    all_block_structures,
    base_block_structure,
    canonical_element_of_type,
    expansion,
    partition_parity,
    partition_x,
    partition_y,
    preserved_structure_count,
    structure_stabilizer,
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
    "BlockStructure",
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
    "all_block_structures",
    "alternating_group",
    "base_block_structure",
    "build_family",
    "canonical_element_of_type",
    "class_size_test",
    "counting_bound_test",
    "cyclic_quotient_test",
    "decide_redundant_bruteforce",
    "enumerate_group",
    "enumerate_sylows",
    "expansion",
    "find_sylow",
    "gl_wreath_checks",
    "is_two_power_neighbor",
    "load_fixture",
    "make_field",
    "minimal_cover",
    "navarro_test",
    "normal_p_complement",
    "p_element_count_bound",
    "partition_parity",
    "partition_x",
    "partition_y",
    "pnilpotent_test",
    "preserved_structure_count",
    "sl2_structure_checks",
    "small_nu_test",
    "structure_stabilizer",
    "symmetric_group",
    "theorem_51_decide",
    "theorem_B_decide",
    "theorem_C_decide",
    "theorem_D_decide",
    "ti_test",
    "type_set",
    "unique_sylow_witness",
    "wreath_cpcp",
]
