"""OBDD substrate: manager, variable orders, ConOBDD construction, analysis."""

from repro.obdd.analysis import (
    find_separator,
    has_separator,
    is_inversion_free,
    root_variables,
)
from repro.obdd.construct import (
    CompiledObdd,
    build_component_root,
    build_obdd,
    clause_obdd,
    concatenate_dnf,
    synthesize_dnf,
)
from repro.obdd.manager import ONE, TERMINAL_LEVEL, ZERO, ObddManager, dump_dot, iter_paths
from repro.obdd.order import (
    VariableOrder,
    component_order,
    connected_components,
    natural_order,
    order_from_permutations,
)

__all__ = [
    "CompiledObdd",
    "ONE",
    "ObddManager",
    "TERMINAL_LEVEL",
    "VariableOrder",
    "ZERO",
    "build_component_root",
    "build_obdd",
    "clause_obdd",
    "component_order",
    "concatenate_dnf",
    "connected_components",
    "dump_dot",
    "find_separator",
    "has_separator",
    "is_inversion_free",
    "iter_paths",
    "natural_order",
    "order_from_permutations",
    "root_variables",
    "synthesize_dnf",
]
