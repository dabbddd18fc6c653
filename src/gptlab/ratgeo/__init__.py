"""Exact rational linear algebra, LP, and polytope representation conversion."""

from ..errors import EmptyError, InputError, UnboundedError
from .linalg import Vector, dot, format_rational, parse_rational
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
    vertex_adjacency,
    vertex_enumeration,
)

__all__ = [
    "EmptyError",
    "InputError",
    "UnboundedError",
    "Vector",
    "dot",
    "format_rational",
    "parse_rational",
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
    "vertex_adjacency",
    "vertex_enumeration",
]
