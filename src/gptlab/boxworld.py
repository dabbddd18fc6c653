"""The two-gbit composite: no-signalling tables, PR boxes, CHSH.

A behavior is the list of 16 probabilities p(a,b|x,y) for binary inputs
x, y and binary outcomes a, b (up encoded 0, down encoded 1), stored in the
fixed index order a + 2b + 4x + 8y.  The composite state space is the set
of all such tables obeying nonnegativity, normalization per setting pair,
and the no-signalling marginal equalities; it is a polytope with 24
vertices: 16 local deterministic ones and 8 PR boxes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, NotAVertexError, SignallingError
from .ratgeo import HRep
from .ratgeo.linalg import ONE, Vector, ZERO, format_rational, independent_rows
from .spaces import POLYTOPAL, StateSpace, from_hrep

HALF = Fraction(1, 2)


def table_index(a: int, b: int, x: int, y: int) -> int:
    """Fixed global index order for the 16 entries of a behavior."""
    return a + 2 * b + 4 * x + 8 * y


@dataclass(frozen=True)
class ProbabilityTable:
    """16 exact probabilities p(a,b|x,y) in the fixed index order.

    Construction checks nonnegativity and per-setting normalization; the
    no-signalling equalities are checked by :func:`marginals` (so that the
    signalling error path stays reachable for hand-built tables).
    """

    p: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.p) != 16:
            raise InputError("a probability table has exactly 16 entries")
        if any(v < 0 for v in self.p):
            raise InputError("probabilities must be nonnegative")
        for x in range(2):
            for y in range(2):
                total = sum(
                    (self.p[table_index(a, b, x, y)] for a in range(2) for b in range(2)),
                    ZERO,
                )
                if total != 1:
                    raise InputError(
                        "outcomes for settings (x=%d, y=%d) sum to %s, not 1"
                        % (x, y, format_rational(total))
                    )

    def value(self, a: int, b: int, x: int, y: int) -> Fraction:
        return self.p[table_index(a, b, x, y)]

    @staticmethod
    def from_function(f) -> "ProbabilityTable":
        entries = [ZERO] * 16
        for a, b, x, y in itertools.product(range(2), repeat=4):
            entries[table_index(a, b, x, y)] = Fraction(f(a, b, x, y))
        return ProbabilityTable(p=tuple(entries))


def pr_box_table(r: int = 1, s: int = 1, t: int = 0) -> ProbabilityTable:
    """The PR box with a xor b = xy xor rx xor sy xor t, entries in {0, 1/2}.

    The default (r, s, t) = (1, 1, 0) is the box whose outcomes are
    correlated exactly when both parties measure 0 and anticorrelated
    otherwise.
    """
    def f(a, b, x, y):
        return HALF if (a ^ b) == (x * y) ^ (r * x) ^ (s * y) ^ t else ZERO

    return ProbabilityTable.from_function(f)


def local_deterministic_table(a0: int, a1: int, b0: int, b1: int) -> ProbabilityTable:
    """Deterministic behavior with a(x) = ax and b(y) = by."""
    assign_a = (a0, a1)
    assign_b = (b0, b1)

    def f(a, b, x, y):
        return ONE if (a, b) == (assign_a[x], assign_b[y]) else ZERO

    return ProbabilityTable.from_function(f)


@lru_cache(maxsize=1)
def build_ns_hrep() -> HRep:
    """H-representation of the no-signalling set in the raw 16-dim embedding.

    16 nonnegativity inequalities plus the normalization and no-signalling
    equalities, the latter reduced to an independent system (rank 8, which
    leaves the expected affine dimension of 8).
    """
    ineqs = []
    for i in range(16):
        normal = [ZERO] * 16
        normal[i] = -ONE
        ineqs.append((tuple(normal), ZERO))

    eqs = []
    for x in range(2):
        for y in range(2):
            normal = [ZERO] * 16
            for a in range(2):
                for b in range(2):
                    normal[table_index(a, b, x, y)] = ONE
            eqs.append((tuple(normal), ONE))
    for a in range(2):
        for x in range(2):
            normal = [ZERO] * 16
            for b in range(2):
                normal[table_index(a, b, x, 0)] += ONE
                normal[table_index(a, b, x, 1)] -= ONE
            eqs.append((tuple(normal), ZERO))
    for b in range(2):
        for y in range(2):
            normal = [ZERO] * 16
            for a in range(2):
                normal[table_index(a, b, 0, y)] += ONE
                normal[table_index(a, b, 1, y)] -= ONE
            eqs.append((tuple(normal), ZERO))

    # Reduce the equality system to an independent subset, kept in input order.
    independent = independent_rows([n + (o,) for n, o in eqs])
    return HRep(16, ineqs, [eqs[i] for i in independent])


@lru_cache(maxsize=1)
def make_boxworld2() -> StateSpace:
    """The two-gbit composite state space (vertices enumerated exactly)."""
    return from_hrep(build_ns_hrep(), "boxworld2")


def is_boxworld2(space: StateSpace) -> bool:
    """Whether ``space`` is the no-signalling polytope, whatever its label."""
    return (
        space.kind == POLYTOPAL
        and space.dim == 16
        and frozenset(space.vertices) == _ns_vertex_classes().keys()
    )


def table_from_vector(v: Vector) -> ProbabilityTable:
    return ProbabilityTable(p=tuple(v))


# ---------------------------------------------------------------------------
# Marginals and products
# ---------------------------------------------------------------------------


def marginals(t: ProbabilityTable):
    """Setting-independent marginals (pA, pB), each indexed [outcome][setting].

    Raises :class:`SignallingError` naming the violated equality if a
    marginal depends on the remote party's setting.
    """
    pa = [[None, None], [None, None]]
    for a in range(2):
        for x in range(2):
            values = [
                sum((t.value(a, b, x, y) for b in range(2)), ZERO) for y in range(2)
            ]
            if values[0] != values[1]:
                raise SignallingError("A", a, x, (0, 1), values)
            pa[a][x] = values[0]
    pb = [[None, None], [None, None]]
    for b in range(2):
        for y in range(2):
            values = [
                sum((t.value(a, b, x, y) for a in range(2)), ZERO) for x in range(2)
            ]
            if values[0] != values[1]:
                raise SignallingError("B", b, y, (0, 1), values)
            pb[b][y] = values[0]
    return (
        tuple(tuple(row) for row in pa),
        tuple(tuple(row) for row in pb),
    )


def product_table(omega_a: Vector, omega_b: Vector) -> ProbabilityTable:
    """Independent local preparation: p(a,b|x,y) = pA(a|x) * pB(b|y).

    The gbit state (p(up|0), p(up|1)) fixes pA(0|x) = omega[x] under the
    encoding up -> 0.
    """
    omega_a = tuple(omega_a)
    omega_b = tuple(omega_b)
    for omega in (omega_a, omega_b):
        if len(omega) != 2 or any(not 0 <= c <= 1 for c in omega):
            raise InputError(
                "gbit states lie in the unit square, got (%s)"
                % ", ".join(map(format_rational, omega))
            )

    def pa(a, x):
        return omega_a[x] if a == 0 else ONE - omega_a[x]

    def pb(b, y):
        return omega_b[y] if b == 0 else ONE - omega_b[y]

    return ProbabilityTable.from_function(
        lambda a, b, x, y: pa(a, x) * pb(b, y)
    )


# ---------------------------------------------------------------------------
# Vertex classification
# ---------------------------------------------------------------------------

LOCAL_DETERMINISTIC = "local_deterministic"
PR_BOX = "pr_box"


@dataclass(frozen=True)
class VertexClass:
    """Classification of a no-signalling polytope vertex.

    For local deterministic vertices ``detail`` is the assignment tuple
    (a(0), a(1), b(0), b(1)); for PR boxes it is the relabelling index
    r + 2s + 4t of the xor relation a xor b = xy xor rx xor sy xor t.
    """

    tag: str
    detail: tuple[int, ...] | int


@lru_cache(maxsize=1)
def _ns_vertex_classes() -> dict:
    """Each of the 24 no-signalling vertices, by its entries, with its class.

    The 16 local deterministic tables and the 8 PR boxes are all the
    vertices of the no-signalling polytope (Barrett, Linden, Massar,
    Pironio, Popescu & Roberts, PRA 71, 022101, 2005).
    """
    classes = {
        local_deterministic_table(*bits).p: VertexClass(LOCAL_DETERMINISTIC, bits)
        for bits in itertools.product(range(2), repeat=4)
    }
    for r, s, t in itertools.product(range(2), repeat=3):
        classes[pr_box_table(r, s, t).p] = VertexClass(PR_BOX, r + 2 * s + 4 * t)
    return classes


def classify_vertex(t: ProbabilityTable) -> VertexClass:
    """Classify a vertex of the no-signalling polytope.

    Classification is a lookup among the 24 vertices.  Any other table
    raises :class:`NotAVertexError`, whose message says whether the table
    lies in the no-signalling set at all.
    """
    cls = _ns_vertex_classes().get(t.p)
    if cls is not None:
        return cls
    if not build_ns_hrep().contains(t.p):
        raise NotAVertexError("table is not in the no-signalling set")
    raise NotAVertexError("table is not an extreme point")


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CHSHVariant:
    """Sign choice for the four correlators, ordered E(0,0), E(0,1), E(1,0), E(1,1).

    The product of the signs must be -1 (an odd number of minus signs);
    exactly eight such variants exist.
    """

    signs: tuple[int, int, int, int]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise InputError("CHSH signs must be +1 or -1")
        if self.signs[0] * self.signs[1] * self.signs[2] * self.signs[3] != -1:
            raise InputError("CHSH sign product must be -1")

    @property
    def label(self) -> str:
        """The signs as a string of '+' and '-', e.g. "+++-"."""
        return "".join("+" if s > 0 else "-" for s in self.signs)


@lru_cache(maxsize=1)
def all_chsh_variants() -> tuple[CHSHVariant, ...]:
    variants = []
    for signs in itertools.product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            variants.append(CHSHVariant(signs=signs))
    return tuple(variants)


def _correlators(p):
    """E(0,0), E(0,1), E(1,0), E(1,1) of the 16 entries p, exact or float.

    E(x,y) = sum over outcomes of (-1)^(a xor b) p(a,b|x,y).  Each sum starts
    from the integer 0 and adds the outcomes (a, b) in the order (0,0),
    (0,1), (1,0), (1,1), so Fraction entries give Fractions and float
    entries the same float bits on every call.
    """
    # With i = table_index(0, 0, x, y), outcome (a, b) sits at i + a + 2b.
    return [
        0 + p[i] - p[i + 2] - p[i + 1] + p[i + 3]
        for i in (table_index(0, 0, x, y) for x in range(2) for y in range(2))
    ]


def _signed_sum(signs, correlators):
    """Sum of sign(x,y) E(x,y), from the integer 0 in the order of the
    correlators, so a float result has the same bits on every call.  A sign
    of -1 subtracts E(x,y), which is exactly adding -E(x,y)."""
    total = 0
    for sign, e in zip(signs, correlators):
        total = total + e if sign > 0 else total - e
    return total


def _chsh_value(p, variant: CHSHVariant):
    """The CHSH value of one variant on the 16 entries p, exact or float."""
    return _signed_sum(variant.signs, _correlators(p))


def chsh_value(t: ProbabilityTable, variant: CHSHVariant) -> Fraction:
    return _chsh_value(t.p, variant)


def chsh_max(p):
    """Largest |CHSH value| over the eight sign variants of the 16 entries p:
    a Fraction for exact entries, a float for float ones.  The correlators
    are computed once and combined for every variant."""
    correlators = _correlators(p)
    return max(abs(_signed_sum(v.signs, correlators)) for v in all_chsh_variants())


def chsh_objective(variant: CHSHVariant) -> Vector:
    """The CHSH expression as a linear objective over the 16 raw coordinates:
    its value on each unit table."""
    return tuple(
        Fraction(_chsh_value([int(i == j) for j in range(16)], variant))
        for i in range(16)
    )


# ---------------------------------------------------------------------------
# Quantum comparison point (floating point; never mixed with exact tables)
# ---------------------------------------------------------------------------


def quantum_chsh_table(theta_a0, theta_a1, theta_b0, theta_b1):
    """Behavior of the two-qubit singlet under equatorial measurements.

    The singlet gives E(x,y) = -cos(theta_Ax - theta_By) with uniform
    marginals; the 16 float entries follow the fixed index order.
    """
    thetas_a = (theta_a0, theta_a1)
    thetas_b = (theta_b0, theta_b1)
    p = [0.0] * 16
    for a, b, x, y in itertools.product(range(2), repeat=4):
        e = -math.cos(thetas_a[x] - thetas_b[y])
        sign = 1.0 if (a ^ b) == 0 else -1.0
        p[table_index(a, b, x, y)] = (1.0 + sign * e) / 4.0
    return tuple(p)

