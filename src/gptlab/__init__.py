"""gptlab: generalized probabilistic theories over exact rational arithmetic.

Builds convex state spaces (the gbit square, classical simplices, the
two-gbit no-signalling polytope, the qubit Bloch ball), computes their
affine symmetry groups, evaluates CHSH expressions, and runs machine-checked
verdicts for the reconstruction postulates that single out quantum theory.

Importing the package loads none of its modules.  Each name in ``__all__``
is looked up in its home module, listed in ``_HOMES``, on every access
(PEP 562), so a command pays only for the modules it runs, and a name
patched in its home module reads patched here too.
"""

__version__ = "0.1.0"

# The configurations that ``gptlab postulates --config`` accepts; the CLI
# lists them in its help without loading ``postulates``.
REGISTERED_CONFIGS = ("boxworld2", "classical2", "ball3", "gbit")

# Each exported name, by the module (relative to this package) that defines it.
_HOMES = {
    "boxworld": (
        "ProbabilityTable",
        "build_ns_hrep",
        "chsh_max",
        "chsh_value",
        "classify_vertex",
        "make_boxworld2",
        "pr_box_table",
        "product_table",
        "quantum_chsh_table",
    ),
    "postulates": (
        "check_disturbance",
        "check_joint_readout",
        "check_no_simultaneous_encoding",
        "check_tomographic_locality",
        "run_report",
    ),
    "ratgeo.lp": ("solve_lp",),
    "ratgeo.polytope": (
        "HRep",
        "VRep",
        "affine_dimension",
        "facet_enumeration",
        "vertex_adjacency",
        "vertex_enumeration",
    ),
    "spaces": (
        "AffineMap",
        "Effect",
        "Measurement",
        "StateSpace",
        "decompose_state",
        "make_ball3",
        "make_classical",
        "make_gbit",
        "validate_effect",
    ),
    "symmetry": (
        "affine_automorphisms",
        "check_continuous_reversibility",
        "check_interaction",
        "orbits",
    ),
}

_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    return getattr(import_module("." + _HOME_OF[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
