"""Zero-divisor graphs of finite commutative semigroups: realization
search, structure predicates, boolean graph recognition, and boolean ring
reconstruction."""

from .graph import Graph, from_edge_list
from .realize import (
    RealizationReport,
    brute_force_realize,
    realize_all,
)
from .semigroup import MulTable, check_axioms, zero_divisor_graph

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MulTable",
    "RealizationReport",
    "brute_force_realize",
    "check_axioms",
    "from_edge_list",
    "realize_all",
    "zero_divisor_graph",
    "__version__",
]
