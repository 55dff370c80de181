"""Simulation lab for constrained mobile-agent graph exploration."""

from .adversary import (
    AdversaryRun,
    adversary_behavior,
    graph_modification,
)
from .errors import (
    BudgetError,
    InvariantViolation,
    ParameterError,
    PolicyError,
    StructuralError,
)
from .explorers import (
    CautiousBfsPolicy,
    DfsPolicy,
    ExploredView,
    FuelCautiousPolicy,
    make_policy,
)
from .family import (
    FamilyMeta,
    FamilyParams,
    LollipopParams,
    build_family_graph,
    build_lollipop,
    check_eccentricity_properties,
    contract_layer_to_bipartite,
    validate_family_membership,
)
from .graph import (
    LabeledGraph,
    ValidationReport,
    eccentricity,
    validate_consistent_labeling,
)
from .merge import merge_gadgets, validate_merge_behavior
from .runtime import (
    Instance,
    MemoryRecord,
    ReplayCursor,
    Trace,
    execute,
    layer_traversal_stats,
    penalty_before_step,
)
from .surgery import SurgeryResult, move_gadget, switch_edges, switch_ports

__all__ = [
    "AdversaryRun",
    "BudgetError",
    "CautiousBfsPolicy",
    "DfsPolicy",
    "ExploredView",
    "FamilyMeta",
    "FamilyParams",
    "FuelCautiousPolicy",
    "Instance",
    "InvariantViolation",
    "LabeledGraph",
    "LollipopParams",
    "MemoryRecord",
    "ParameterError",
    "PolicyError",
    "ReplayCursor",
    "StructuralError",
    "SurgeryResult",
    "Trace",
    "ValidationReport",
    "adversary_behavior",
    "build_family_graph",
    "build_lollipop",
    "check_eccentricity_properties",
    "contract_layer_to_bipartite",
    "eccentricity",
    "execute",
    "graph_modification",
    "layer_traversal_stats",
    "make_policy",
    "merge_gadgets",
    "move_gadget",
    "penalty_before_step",
    "switch_edges",
    "switch_ports",
    "validate_consistent_labeling",
    "validate_family_membership",
    "validate_merge_behavior",
]
