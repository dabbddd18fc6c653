"""Exact rational linear algebra, LP, and polytope representation conversion."""

from ..errors import EmptyError, InputError, UnboundedError
from .linalg import (
    Vector,
    as_fraction,
    dot,
    format_rational,
    parse_rational,
    vec,
)
from .lp import (
    INFEASIBLE,
    LPResult,
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
    verify_dual,
    verify_farkas,
)
from .polytope import (
    HRep,
    VRep,
    adjacency_edges,
    affine_dimension,
    facet_enumeration,
    is_extreme_in,
    vertex_adjacency,
    vertex_enumeration,
)

__all__ = [
    "EmptyError",
    "InputError",
    "UnboundedError",
    "Vector",
    "as_fraction",
    "dot",
    "format_rational",
    "parse_rational",
    "vec",
    "INFEASIBLE",
    "LPResult",
    "MAX",
    "MIN",
    "OPTIMAL",
    "UNBOUNDED",
    "solve_lp",
    "verify_dual",
    "verify_farkas",
    "HRep",
    "VRep",
    "adjacency_edges",
    "affine_dimension",
    "facet_enumeration",
    "is_extreme_in",
    "vertex_adjacency",
    "vertex_enumeration",
]
