"""Simulation lab for constrained mobile-agent graph exploration.

The root exports what the README's Library section uses and the exceptions
callers catch; every other name is imported from the module that defines it.
"""

from .adversary import adversary_behavior
from .errors import (
    BudgetError,
    InvariantViolation,
    ParameterError,
    PolicyError,
    StructuralError,
)
from .explorers import make_policy
from .family import FamilyMeta, FamilyParams, build_family_graph, validate_family_membership
from .merge import merge_gadgets
from .runtime import Instance, ReplayCursor, execute

__all__ = [
    "BudgetError",
    "FamilyMeta",
    "FamilyParams",
    "Instance",
    "InvariantViolation",
    "ParameterError",
    "PolicyError",
    "ReplayCursor",
    "StructuralError",
    "adversary_behavior",
    "build_family_graph",
    "execute",
    "make_policy",
    "merge_gadgets",
    "validate_family_membership",
]
