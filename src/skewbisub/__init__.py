"""Minimization of skew bisubmodular functions over the domain {-alpha, 0, 1}^n.

The package provides the signed three-element lattice, value-oracle function
models, the chain-decomposition extension with subgradients, exact desk
oracles (brute force, closure LP), an exact cutting-plane minimizer that
stops on an optimality certificate, and a JSON/CLI surface tying them
together.
"""

from .lattice import (
    DEFAULT_ENUM_CAP,
    Alpha,
    ArityMismatchError,
    Label,
    Labeling,
    LEX_ORDER,
    NEG,
    POS,
    ZERO,
    all_labelings,
    format_labeling,
    join,
    leq,
    less,
    meet0,
    numeric,
    parse_labeling,
)
from .functions import (
    CapExceededError,
    GenerationBudgetError,
    InstanceFormatError,
    SumFunction,
    TableFunction,
    Term,
    ValueOracle,
    expand_to_table,
    generate_instance,
    instance_from_json,
    instance_to_json,
)
from .checker import ViolationWitness, check_alpha_bisubmodular
from .lovasz import (
    ChainDecomposition,
    FractionalPoint,
    decompose,
    extension_value,
    midpoint,
    subgradient,
)
from .oracles import (
    ClosureResult,
    DEFAULT_LP_CAP,
    brute_force_min,
    convex_closure,
    midpoint_convexity_probe,
    midpoint_gap,
    random_box_point,
)
from .minimize import (
    DEFAULT_ARITY_CAP,
    ConvexityWitness,
    MinimizeConfig,
    MinimizeReport,
    minimize,
    project_box,
)
from .simplex import LPUnboundedError, linear_min

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "ArityMismatchError",
    "CapExceededError",
    "ChainDecomposition",
    "ClosureResult",
    "ConvexityWitness",
    "DEFAULT_ARITY_CAP",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_LP_CAP",
    "FractionalPoint",
    "GenerationBudgetError",
    "InstanceFormatError",
    "LEX_ORDER",
    "LPUnboundedError",
    "Label",
    "Labeling",
    "MinimizeConfig",
    "MinimizeReport",
    "NEG",
    "POS",
    "SumFunction",
    "TableFunction",
    "Term",
    "ValueOracle",
    "ViolationWitness",
    "ZERO",
    "all_labelings",
    "brute_force_min",
    "check_alpha_bisubmodular",
    "convex_closure",
    "decompose",
    "expand_to_table",
    "extension_value",
    "format_labeling",
    "generate_instance",
    "instance_from_json",
    "instance_to_json",
    "join",
    "leq",
    "less",
    "linear_min",
    "meet0",
    "midpoint",
    "midpoint_convexity_probe",
    "midpoint_gap",
    "minimize",
    "numeric",
    "parse_labeling",
    "project_box",
    "random_box_point",
    "subgradient",
]
