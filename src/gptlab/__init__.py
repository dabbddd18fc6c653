"""gptlab: generalized probabilistic theories over exact rational arithmetic.

Builds convex state spaces (the gbit square, classical simplices, the
two-gbit no-signalling polytope, the qubit Bloch ball), computes their
affine symmetry groups, evaluates CHSH expressions, and runs machine-checked
verdicts for the reconstruction postulates that single out quantum theory.
"""

from .boxworld import (
    ProbabilityTable,
    build_ns_hrep,
    chsh_max,
    chsh_value,
    classify_vertex,
    make_boxworld2,
    pr_box_table,
    product_table,
    quantum_chsh_table,
)
from .postulates import (
    check_disturbance,
    check_joint_readout,
    check_no_simultaneous_encoding,
    check_tomographic_locality,
    run_report,
)
from .ratgeo import (
    HRep,
    VRep,
    affine_dimension,
    facet_enumeration,
    solve_lp,
    vertex_adjacency,
    vertex_enumeration,
)
from .spaces import (
    AffineMap,
    Effect,
    Measurement,
    StateSpace,
    decompose_state,
    make_ball3,
    make_classical,
    make_gbit,
    validate_effect,
)
from .symmetry import (
    affine_automorphisms,
    check_continuous_reversibility,
    check_interaction,
    orbits,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Effect",
    "HRep",
    "Measurement",
    "ProbabilityTable",
    "StateSpace",
    "VRep",
    "affine_automorphisms",
    "affine_dimension",
    "build_ns_hrep",
    "check_continuous_reversibility",
    "check_disturbance",
    "check_interaction",
    "check_joint_readout",
    "check_no_simultaneous_encoding",
    "check_tomographic_locality",
    "chsh_max",
    "chsh_value",
    "classify_vertex",
    "decompose_state",
    "facet_enumeration",
    "make_ball3",
    "make_boxworld2",
    "make_classical",
    "make_gbit",
    "orbits",
    "pr_box_table",
    "product_table",
    "quantum_chsh_table",
    "run_report",
    "solve_lp",
    "validate_effect",
    "vertex_adjacency",
    "vertex_enumeration",
]
