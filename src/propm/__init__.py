"""Exact toolkit for fair allocation of indivisible goods.

Verifies a family of proportionality and envy relaxations with exact
integer/rational arithmetic, constructs maximin-item-proportional (PROPm)
allocations for up to five agents with a replayable certificate, decides
existence questions by exhaustive enumeration, and explores adjusted-value
leximin orderings.
"""

from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    InvariantViolationError,
    ResourceBudgetError,
    UnsupportedSizeError,
    value_of,
)
from .cpsets import CpLadder, cp_bundle, cp_ladder, validate_ladder
from .fairness import (
    FairnessReport,
    Notion,
    check,
    mms_value,
    parse_notion,
)
from .leximin import (
    AdjustedProfile,
    EnvyGraph,
    adjusted_profile,
    cycle_swap,
    envy_graph,
    leximin_max,
)
from .oracle import (
    AuditReport,
    ExistenceResult,
    exists,
    implication_audit,
    make_counterexample,
    random_instance,
)
from .solver import Certificate, reduce_big_items, solve_propm, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AdjustedProfile",
    "AuditReport",
    "Bundle",
    "Certificate",
    "CpLadder",
    "EnvyGraph",
    "ExistenceResult",
    "FairnessReport",
    "InputError",
    "Instance",
    "InvariantViolationError",
    "Notion",
    "ResourceBudgetError",
    "UnsupportedSizeError",
    "adjusted_profile",
    "check",
    "cp_bundle",
    "cp_ladder",
    "cycle_swap",
    "envy_graph",
    "exists",
    "implication_audit",
    "leximin_max",
    "make_counterexample",
    "mms_value",
    "parse_notion",
    "random_instance",
    "reduce_big_items",
    "solve_propm",
    "validate_ladder",
    "value_of",
    "verify_certificate",
]
