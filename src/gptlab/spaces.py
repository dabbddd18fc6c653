"""State spaces, effects, measurements and transformations.

A state space is either polytopal (carrying both exact representations) or
the 3-dimensional unit ball (the qubit in Bloch coordinates, handled in
floating point because its boundary is irrational: its rotation paths here,
on plain lists so that no exact command loads numpy, and its density
matrices in :mod:`gptlab.bloch`).  Effects are affine functionals with
values in [0, 1] on the space; a measurement is a finite list of effects
summing exactly to the unit effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedError
from .ratgeo import (
    HRep,
    MAX,
    MIN,
    VRep,
    solve_lp,
    vertex_enumeration,
)
from .ratgeo.linalg import (
    Matrix,
    ONE,
    Vector,
    ZERO,
    dot,
    format_rational,
    vadd,
    zeros,
)

POLYTOPAL = "polytopal"
BALL3 = "ball3"

# Largest classical-N that is built: classical-64 takes seconds, classical-128
# over a minute, and an unbounded N exhausts memory.
MAX_CLASSICAL_OUTCOMES = 64


@dataclass(frozen=True)
class StateSpace:
    """A convex state space: polytopal (exact) or the Bloch ball."""

    kind: str
    label: str
    v: VRep | None = None
    h: HRep | None = None

    @property
    def dim(self) -> int:
        return self.v.ambient_dim if self.kind == POLYTOPAL else 3

    @property
    def vertices(self) -> tuple[Vector, ...]:
        self.require_polytopal()
        return self.v.vertices

    def require_polytopal(self):
        if self.kind != POLYTOPAL:
            raise UnsupportedError(
                "operation requires a polytopal state space, got %r" % self.kind
            )

    def contains(self, x: Vector) -> bool:
        self.require_polytopal()
        return self.h.contains(tuple(x))


def from_hrep(h: HRep, label: str) -> StateSpace:
    """Polytopal space from a bounded nonempty H-representation."""
    return StateSpace(kind=POLYTOPAL, label=label, v=vertex_enumeration(h), h=h)


def make_gbit() -> StateSpace:
    """The generalized bit: states (p(up|0), p(up|1)) filling the unit square."""
    square = HRep(
        2,
        [
            ((-ONE, ZERO), ZERO),
            ((ONE, ZERO), ONE),
            ((ZERO, -ONE), ZERO),
            ((ZERO, ONE), ONE),
        ],
    )
    return from_hrep(square, "gbit")


def make_classical(n: int) -> StateSpace:
    """Classical n-outcome system: the probability simplex on n entries."""
    if n < 1:
        raise InputError("a classical system needs at least one outcome")
    if n > MAX_CLASSICAL_OUTCOMES:
        raise InputError(
            "classical systems are limited to %d outcomes, got %d"
            % (MAX_CLASSICAL_OUTCOMES, n)
        )
    # Nonnegativity rows; for n = 1 the equality x = 1 already implies x >= 0.
    ineqs = [
        (tuple(-ONE if j == i else ZERO for j in range(n)), ZERO)
        for i in range(n if n > 1 else 0)
    ]
    return from_hrep(HRep(n, ineqs, [((ONE,) * n, ONE)]), "classical-%d" % n)


def make_ball3() -> StateSpace:
    """The qubit state space: the unit ball of Bloch vectors."""
    return StateSpace(kind=BALL3, label="ball3")


def ball_rotation(axis, angle: float) -> list[list[float]]:
    """Rodrigues rotation I + sin(angle) K + (1 - cos(angle)) K^2 by
    ``angle`` about the nonzero 3-vector ``axis``, as float rows; K is the
    cross-product matrix of the normalized axis."""
    norm = math.hypot(*axis)
    n0, n1, n2 = (x / norm for x in axis)
    k = [[0.0, -n2, n1], [n2, 0.0, -n0], [-n1, n0, 0.0]]
    s, c = math.sin(angle), 1 - math.cos(angle)
    return [
        [
            float(i == j) + s * k[i][j] + c * sum(k[i][m] * k[m][j] for m in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]


def ball_rotation_path(a, b):
    """Continuous rotation family G(t) with G(0) = 1 and G(1) a = b.

    ``a`` and ``b`` are unit 3-vectors; G(t) is ``ball_rotation`` about the
    axis normal to both, by t times the angle between them.  For
    (anti)parallel endpoints a fixed orthogonal axis is chosen.
    """
    cross = _cross(a, b)
    sin_angle = math.hypot(*cross)
    cos_angle = min(max(sum(x * y for x, y in zip(a, b)), -1.0), 1.0)
    angle = math.atan2(sin_angle, cos_angle)
    if sin_angle > 1e-12:
        axis = [x / sin_angle for x in cross]
    elif cos_angle > 0:
        axis = [0.0, 0.0, 1.0]  # identity path; axis irrelevant
    else:
        # Antipodal endpoints: rotate about any axis orthogonal to a.
        pick = min(range(3), key=lambda i: abs(a[i]))
        axis = _cross(a, [float(i == pick) for i in range(3)])

    def path(t: float) -> list[list[float]]:
        return ball_rotation(axis, t * angle)

    return path


def _cross(a, b) -> list[float]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


# ---------------------------------------------------------------------------
# Effects and measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """Affine functional e(w) = linear.w + constant."""

    linear: Vector
    constant: Fraction

    def value(self, omega: Vector) -> Fraction:
        return dot(self.linear, tuple(omega)) + self.constant


@dataclass(frozen=True)
class Measurement:
    """A finite list of effects summing exactly to the unit effect."""

    effects: tuple[Effect, ...]

    def __post_init__(self):
        if not self.effects:
            raise InputError("a measurement needs at least one outcome")
        dim = len(self.effects[0].linear)
        total_linear = zeros(dim)
        total_constant = ZERO
        for e in self.effects:
            if len(e.linear) != dim:
                raise InputError("effect dimensions disagree within a measurement")
            total_linear = vadd(total_linear, e.linear)
            total_constant += e.constant
        if total_linear != zeros(dim) or total_constant != ONE:
            raise InputError("measurement effects must sum to the unit effect")

    def outcome_probabilities(self, omega: Vector) -> tuple[Fraction, ...]:
        return tuple(e.value(omega) for e in self.effects)


def effect_range(e: Effect, space: StateSpace) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the effect over the space, via two LPs."""
    space.require_polytopal()
    if len(e.linear) != space.dim:
        raise InputError("effect dimension does not match the state space")
    lo = solve_lp(e.linear, MIN, space.h)
    hi = solve_lp(e.linear, MAX, space.h)
    return lo.optimum + e.constant, hi.optimum + e.constant


def validate_effect(e: Effect, space: StateSpace) -> bool:
    """True iff 0 <= e <= 1 everywhere on the space (two exact LPs)."""
    lo, hi = effect_range(e, space)
    return lo >= 0 and hi <= 1


# ---------------------------------------------------------------------------
# Affine transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift on the embedding space."""

    matrix: Matrix
    shift: Vector


# ---------------------------------------------------------------------------
# Convex decompositions into pure states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """s = sum weights[i] * vertices[support[i]], all weights positive."""

    support: tuple[int, ...]
    weights: tuple[Fraction, ...]


def decompose_state(s: Vector, space: StateSpace) -> tuple[Decomposition, ...]:
    """All convex decompositions of s with affinely independent support.

    These are exactly the vertices of the weight polytope
    P_s = {lam : lam >= 0, sum_i lam_i v_i = s, sum_i lam_i = 1}: a point
    of P_s is a vertex iff its support columns (v_i, 1) are linearly
    independent, that is iff its support vertices are affinely independent
    (a basic feasible solution).  Every decomposition of s is a point of
    P_s, and Caratheodory's reduction (shift the weights along an affine
    dependency of the support until one reaches zero) walks it to a vertex
    supported on a subset of its support.  So the list is complete: it is
    nonempty for every state, has one entry exactly when P_s is a point
    (always on a simplex), and several otherwise.  P_s is bounded, and it
    is nonempty once s lies in the space; double description finds its
    vertices.
    """
    space.require_polytopal()
    s = tuple(s)
    if len(s) != space.dim:
        raise InputError(
            "state has %d coordinates, the space has dimension %d"
            % (len(s), space.dim)
        )
    if not space.contains(s):
        raise InputError(
            "state (%s) lies outside the state space"
            % ", ".join(map(format_rational, s))
        )
    verts = space.vertices
    n = len(verts)
    nonnegative = [
        (tuple(-ONE if j == i else ZERO for j in range(n)), ZERO) for i in range(n)
    ]
    reproduce = [(tuple(v[k] for v in verts), s[k]) for k in range(len(s))]
    weight_polytope = HRep(n, nonnegative, reproduce + [((ONE,) * n, ONE)])
    found = []
    for lam in vertex_enumeration(weight_polytope).vertices:
        support = tuple(i for i, w in enumerate(lam) if w != 0)
        found.append(
            Decomposition(support=support, weights=tuple(lam[i] for i in support))
        )
    return tuple(sorted(found, key=lambda dec: dec.support))
