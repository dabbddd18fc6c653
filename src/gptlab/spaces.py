"""State spaces, effects, measurements and transformations.

A state space is either polytopal (carrying both exact representations) or
the 3-dimensional unit ball (the qubit in Bloch coordinates, handled
separately in :mod:`gptlab.bloch` because its boundary is irrational).
Effects are affine functionals with values in [0, 1] on the space; a
measurement is a finite list of effects summing exactly to the unit effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedError
from .ratgeo import (
    HRep,
    MAX,
    MIN,
    VRep,
    facet_enumeration,
    is_extreme_in,
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
    identity as identity_matrix,
    integer_inverse,
    integer_rows,
    mat_vec,
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


def from_vertices(points, label: str) -> StateSpace:
    """Polytopal space from extreme-point candidates (non-extreme are dropped).

    One facet enumeration runs over all the distinct points; the vertices
    are the points that ``is_extreme_in`` accepts against its result.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise InputError("a state space needs at least one state")
    d = len(pts[0])
    cloud = VRep.make(d, pts)
    h = facet_enumeration(cloud)
    v = VRep(
        ambient_dim=d,
        vertices=tuple(p for p in cloud.vertices if is_extreme_in(h, p)),
    )
    return StateSpace(kind=POLYTOPAL, label=label, v=v, h=h)


def from_hrep(h: HRep, label: str) -> StateSpace:
    """Polytopal space from a bounded nonempty H-representation."""
    return StateSpace(kind=POLYTOPAL, label=label, v=vertex_enumeration(h), h=h)


def make_gbit() -> StateSpace:
    """The generalized bit: states (p(up|0), p(up|1)) filling the unit square."""
    square = HRep.make(
        2,
        ineqs=[
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
    if n == 1:
        v = VRep.make(1, [(ONE,)])
        return StateSpace(
            kind=POLYTOPAL, label="classical-1", v=v, h=facet_enumeration(v)
        )
    ineqs = [
        (tuple(-ONE if j == i else ZERO for j in range(n)), ZERO) for i in range(n)
    ]
    eqs = [((ONE,) * n, ONE)]
    return from_hrep(HRep.make(n, ineqs, eqs), "classical-%d" % n)


def make_ball3() -> StateSpace:
    """The qubit state space: the unit ball of Bloch vectors."""
    return StateSpace(kind=BALL3, label="ball3")


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


def validate_measurement(m: Measurement, space: StateSpace) -> bool:
    return all(validate_effect(e, space) for e in m.effects)


# ---------------------------------------------------------------------------
# Affine transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift on the embedding space."""

    matrix: Matrix
    shift: Vector

    def apply(self, x: Vector) -> Vector:
        return vadd(mat_vec(self.matrix, tuple(x)), self.shift)

    def inverse(self) -> "AffineMap | None":
        """The inverse map, or None if the matrix is singular: M = A / s for
        the lcm-scaled int matrix A, so M^-1 = s A^-1 (``integer_inverse``)."""
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("inverse requires a square matrix")
        ints, scale = integer_rows(self.matrix)
        result = integer_inverse(ints)
        if result is None:
            return None
        inv, den = result
        minv = tuple(tuple(Fraction(x * scale, den) for x in row) for row in inv)
        return AffineMap(
            matrix=minv, shift=tuple(-x for x in mat_vec(minv, self.shift))
        )

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(matrix=identity_matrix(dim), shift=zeros(dim))


def is_reversible_transformation(t: AffineMap, space: StateSpace) -> bool:
    """True iff t maps the vertex set bijectively onto itself.

    For affine maps on a polytope this is equivalent to mapping the polytope
    onto itself.  A singular matrix simply fails the bijectivity test.
    """
    space.require_polytopal()
    if len(t.matrix) != space.dim or len(t.shift) != space.dim:
        raise InputError("transformation dimension does not match the space")
    verts = space.vertices
    images = [t.apply(v) for v in verts]
    return sorted(images) == sorted(verts) and len(set(images)) == len(verts)


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
    weight_polytope = HRep.make(n, nonnegative, reproduce + [((ONE,) * n, ONE)])
    found = []
    for lam in vertex_enumeration(weight_polytope).vertices:
        support = tuple(i for i, w in enumerate(lam) if w != 0)
        found.append(
            Decomposition(support=support, weights=tuple(lam[i] for i in support))
        )
    return tuple(sorted(found, key=lambda dec: dec.support))


def mixture(weight: Fraction, a: Vector, b: Vector) -> Vector:
    """weight * a + (1 - weight) * b."""
    if not 0 <= weight <= 1:
        raise InputError("mixture weight must lie in [0, 1]")
    return vadd(
        tuple(weight * x for x in a), tuple((ONE - weight) * x for x in b)
    )
