"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's pivoting rule.  The simplex pivots on
Python integers over one common denominator, fraction-free in the manner of
Bareiss (1968) and of the ``lrs`` tableau (Avis, 2000); ``Fraction`` appears
only at the API boundary, where the input is scaled to integers and the
point, optimum, multipliers and ray are read back.  Bland's rule makes the
solver immune to cycling on degenerate systems (the no-signalling polytope
is highly degenerate) and, in combination with fixed column and row
orderings, makes every answer deterministic: the same input always yields
the same witness.

Certificates:

* ``optimal``   - witness is the optimal point; ``dual`` holds multipliers
                  (one per inequality, then one per equality) that prove
                  optimality exactly (see :func:`verify_dual`).
* ``infeasible`` - witness holds Farkas multipliers proving that no point
                  satisfies the constraints (see :func:`verify_farkas`).
* ``unbounded`` - witness is an improving ray: a direction that satisfies
                  all homogeneous constraints and strictly improves the
                  objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..errors import InputError
from .linalg import Vector, ZERO, dot, integer_row, is_zero, primitive, zeros

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX = "max"
MIN = "min"


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP solve.

    ``optimum`` is present only when ``status == OPTIMAL``.  ``witness`` is
    the optimal point, the Farkas multipliers, or the improving ray,
    depending on status.  ``dual`` carries the optimality certificate for
    the max-form of the program (see :func:`verify_dual`).
    """

    status: str
    optimum: Fraction | None
    witness: Vector
    dual: Vector | None = None


class _Tableau:
    """Dense fraction-free simplex tableau with Bland's rule.

    Columns are laid out as [x+ | x- | slacks | artificials | rhs]; rows keep
    their construction order (inequalities first, then equalities).  Every
    entry is a Python ``int``: the tableau proper is ``rows / det``, where
    ``det`` is the positive common denominator |det B| of the current basis,
    and the objective row is ``obj / (det * cost_scale)``, where
    ``cost_scale`` is the lcm of the cost denominators.  The objective row
    stores reduced costs and, in its last entry, minus the objective value of
    the current basis.

    Each input row is multiplied by the lcm ``row_scale[r]`` of its
    denominators while its artificial keeps coefficient 1, so the artificial
    of row r stands for ``row_scale[r]`` times the original one; phase 1
    prices it at ``1 / row_scale[r]``.  Scaling a row or a column by a
    positive number changes neither a sign nor an exact ratio comparison, so
    Bland's rule takes the same pivots as on the unscaled rational tableau.
    """

    def __init__(self, ineqs, eqs, dim):
        self.dim = dim
        self.n_ineq = len(ineqs)
        m = len(ineqs) + len(eqs)
        self.m = m
        self.n_struct = 2 * dim + self.n_ineq
        self.n = self.n_struct + m
        self.flip = []
        self.row_scale = []
        rows = []
        for r, (normal, offset) in enumerate(list(ineqs) + list(eqs)):
            sigma = 1 if offset >= 0 else -1
            ints, scale = integer_row(list(normal) + [offset])
            self.flip.append(sigma)
            self.row_scale.append(scale)
            row = [0] * (self.n + 1)
            for k in range(dim):
                a = sigma * ints[k]
                row[k] = a
                row[dim + k] = -a
            if r < self.n_ineq:
                row[2 * dim + r] = sigma * scale
            row[self.n_struct + r] = 1
            row[self.n] = sigma * ints[dim]
            rows.append(row)
        self.rows = rows
        self.det = 1
        self.basis = [self.n_struct + r for r in range(m)]

    def set_costs(self, costs, scale: int, allow_artificial: bool):
        """Recompute the reduced-cost row for integer column costs over ``scale``."""
        self.allow_artificial = allow_artificial
        self.costs = list(costs)
        self.cost_scale = scale
        obj = [self.det * c for c in costs] + [0]
        for row, bcol in zip(self.rows, self.basis):
            cb = costs[bcol]
            if cb:
                obj = [z - cb * x for z, x in zip(obj, row)]
        self.obj = obj

    def _pivot(self, r: int, e: int):
        """Pivot on (r, e); Sylvester's identity makes every division exact."""
        pivot_row = self.rows[r]
        p = pivot_row[e]
        if p < 0:
            # Keep the denominator positive: negating the pivot row negates
            # every row that the update below produces.
            pivot_row = self.rows[r] = [-y for y in pivot_row]
            p = -p
        det = self.det

        def eliminate(row):
            f = row[e]
            if f:
                return [(x * p - f * y) // det for x, y in zip(row, pivot_row)]
            if p == det:
                return row
            return [x * p // det for x in row]

        self.rows = [
            row if i == r else eliminate(row) for i, row in enumerate(self.rows)
        ]
        self.obj = eliminate(self.obj)
        self.det = p
        self.basis[r] = e

    def minimize(self) -> str:
        """Run the simplex to optimality or unboundedness (min problem)."""
        limit = self.n if self.allow_artificial else self.n_struct
        while True:
            obj = self.obj
            enter = next((j for j in range(limit) if obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, best_a, best_rhs = i, a, row[self.n]
                        continue
                    lhs = row[self.n] * best_a
                    rhs = best_rhs * a
                    if lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        leave, best_a, best_rhs = i, a, row[self.n]
            if leave is None:
                self.unbounded_col = enter
                return UNBOUNDED
            self._pivot(leave, enter)

    def objective_value(self) -> Fraction:
        return Fraction(-self.obj[self.n], self.det * self.cost_scale)

    def row_multipliers(self) -> list[Fraction]:
        """Simplex multipliers per original row, read off the artificial columns.

        The artificial column for row r starts as the unit vector e_r, so its
        current entries record the coefficients expressing each tableau row as
        a combination of original rows; contracting with the basic costs gives
        pi_r = cost_r - reduced_cost_r for the scaled row, and ``row_scale[r]``
        times that for the original one.  This stays valid after redundant
        rows are dropped, because the columns themselves are never touched.
        """
        denom = self.det * self.cost_scale
        pi = []
        for rid, scale in enumerate(self.row_scale):
            col = self.n_struct + rid
            pi.append(
                Fraction(scale * (self.det * self.costs[col] - self.obj[col]), denom)
            )
        return pi

    def drop_redundant_and_artificials(self):
        """After phase 1, pivot artificials out of the basis; drop rows that
        turn out to be linearly dependent on the others.

        A dropped row is zero on every structural column and stays so, so it
        can never be a pivot row; the kept rows therefore evolve exactly as
        they would with it, and ``det`` stays their common denominator.
        """
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n_struct:
                keep.append(i)
                continue
            row = self.rows[i]
            enter = next((j for j in range(self.n_struct) if row[j]), None)
            if enter is None:
                continue
            self._pivot(i, enter)
            keep.append(i)
        if len(keep) != self.m:
            self.rows = [self.rows[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.m = len(keep)

    def solution(self) -> Vector:
        x = [ZERO] * self.dim
        for row, bcol in zip(self.rows, self.basis):
            if bcol < self.dim:
                x[bcol] += Fraction(row[self.n], self.det)
            elif bcol < 2 * self.dim:
                x[bcol - self.dim] -= Fraction(row[self.n], self.det)
        return tuple(x)

    def ray(self) -> Vector:
        """The improving ray along the entering column, in primitive form
        (which drops the positive factor ``det`` of the integer entries)."""
        e = self.unbounded_col
        xi = [0] * self.n
        xi[e] = self.det
        for row, bcol in zip(self.rows, self.basis):
            xi[bcol] = -row[e]
        return primitive(tuple(xi[k] - xi[self.dim + k] for k in range(self.dim)))


def solve_lp(objective: Vector, sense: str, constraints) -> LPResult:
    """Exact optimum of a linear objective over an H-represented polyhedron.

    ``constraints`` is an :class:`~gptlab.ratgeo.polytope.HRep` (or anything
    with ``inequalities``, ``equalities`` and ``ambient_dim`` attributes).
    """
    if sense not in (MAX, MIN):
        raise InputError("sense must be 'max' or 'min', got %r" % (sense,))
    dim = constraints.ambient_dim
    if len(objective) != dim:
        raise InputError(
            "objective has length %d, constraints are %d-dimensional"
            % (len(objective), dim)
        )
    ineqs = list(constraints.inequalities)
    eqs = list(constraints.equalities)
    for normal, _ in ineqs + eqs:
        if len(normal) != dim:
            raise InputError("constraint normal has wrong dimension")

    c = objective if sense == MAX else tuple(-x for x in objective)

    tab = _Tableau(ineqs, eqs, dim)

    # Phase 1: minimize the sum of the original artificials, each of which
    # is its scaled column over ``row_scale``.
    scale = lcm(*tab.row_scale)
    phase1_costs = [0] * tab.n_struct + [scale // s for s in tab.row_scale]
    tab.set_costs(phase1_costs, scale, allow_artificial=True)
    status = tab.minimize()
    assert status == OPTIMAL, "phase 1 cannot be unbounded"
    if tab.objective_value() > 0:
        pi = tab.row_multipliers()
        mult = tuple(-p * s for p, s in zip(pi, tab.flip))
        return LPResult(status=INFEASIBLE, optimum=None, witness=mult)

    tab.drop_redundant_and_artificials()

    # Phase 2: minimize -c.x (i.e. maximize c.x).
    ints, scale = integer_row(c)
    phase2_costs = [0] * tab.n
    for k in range(dim):
        phase2_costs[k] = -ints[k]
        phase2_costs[dim + k] = ints[k]
    tab.set_costs(phase2_costs, scale, allow_artificial=False)
    status = tab.minimize()
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, optimum=None, witness=tab.ray())

    x = tab.solution()
    value = dot(objective, x)
    pi = tab.row_multipliers()
    dual = tuple(-p * s for p, s in zip(pi, tab.flip))
    return LPResult(status=OPTIMAL, optimum=value, witness=x, dual=dual)


def _combination(constraints, multipliers: Vector):
    """(normal, offset) of the constraints combined by ``multipliers``.

    None when the count is wrong or an inequality multiplier is negative.
    """
    ineqs = constraints.inequalities
    rows = tuple(ineqs) + tuple(constraints.equalities)
    if len(multipliers) != len(rows):
        return None
    if any(v < 0 for v in multipliers[: len(ineqs)]):
        return None
    combined = list(zeros(constraints.ambient_dim))
    offset = ZERO
    for coeff, (normal, rhs) in zip(multipliers, rows):
        for k, a in enumerate(normal):
            combined[k] += coeff * a
        offset += coeff * rhs
    return tuple(combined), offset


def verify_farkas(constraints, multipliers: Vector) -> bool:
    """Check a Farkas infeasibility certificate exactly.

    ``multipliers`` holds one value per inequality followed by one per
    equality.  The certificate is valid iff the inequality multipliers are
    nonnegative, the combined normal vanishes, and the combined offset is
    negative: the combination reads ``0.x <= negative``, so no point can
    satisfy the system.
    """
    combination = _combination(constraints, multipliers)
    if combination is None:
        return False
    normal, offset = combination
    return is_zero(normal) and offset < 0


def verify_dual(constraints, objective: Vector, sense: str, result: LPResult) -> bool:
    """Check an optimality certificate exactly.

    For the max form the multipliers (y for inequalities, z for equalities)
    must satisfy y >= 0, y.A + z.E = c and y.b + z.f = optimum; weak duality
    then pins the optimum from above while the witness point pins it from
    below.  ``min`` problems are certified through their max form.
    """
    if result.status != OPTIMAL or result.dual is None:
        return False
    combination = _combination(constraints, result.dual)
    c = objective if sense == MAX else tuple(-x for x in objective)
    target = result.optimum if sense == MAX else -result.optimum
    if combination != (tuple(c), target):
        return False
    # The primal witness must be feasible and achieve the same value.
    x = result.witness
    for normal, rhs in constraints.inequalities:
        if dot(normal, x) > rhs:
            return False
    for normal, rhs in constraints.equalities:
        if dot(normal, x) != rhs:
            return False
    return dot(objective, x) == result.optimum
