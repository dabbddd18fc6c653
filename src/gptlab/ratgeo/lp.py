"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's pivoting rule.  The simplex pivots on
Python integers over one common denominator, fraction-free in the manner of
Bareiss (1968) and of the ``lrs`` tableau (Avis, 2000).  A pivot equal to
that denominator leaves it unchanged, and then a row changes only where the
pivot row is nonzero (the sparse step of :meth:`_Tableau._pivot`); most
pivots on the degenerate no-signalling polytope are of this kind.  The rows
are the ``HRep``'s coprime integer rows, so ``Fraction`` appears only at the
API boundary, where the objective is scaled to integers and the point,
optimum, multipliers and ray are read back, one ``Fraction`` per value.
The simplex reasons in the layout [x+ | x- | slacks | artificials | rhs],
but a row stores B^-1 [A | I | b] only, its x+ and artificial columns and
its rhs (as in the revised simplex; Chvatal, *Linear Programming*, 1983,
ch. 7): the x- columns are the x+ columns negated and each slack column is
an artificial column up to sign, in every row after every pivot, so they are
read through a fixed column map.  On the no-signalling LPs a row has 41
entries in place of 73.
Bland's rule makes the solver immune to cycling on degenerate systems (the
no-signalling polytope is highly degenerate) and, in combination with fixed
column and row orderings, makes every answer deterministic: the same input
always yields the same witness.

Certificates:

* ``optimal``   - witness is the optimal point; ``dual`` holds multipliers
                  (one per inequality, then one per equality) that prove
                  optimality exactly (see :func:`verify_dual`).
* ``infeasible`` - witness holds Farkas multipliers proving that no point
                  satisfies the constraints (see :func:`verify_farkas`).
* ``unbounded`` - witness is an improving ray: a direction that satisfies
                  all homogeneous constraints and strictly improves the
                  objective.

The checkers are independent of the simplex: they read only the ``HRep``
and the certificate, and combine the ``HRep``'s integer rows with the
multipliers over one common denominator, so they too compute on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ..errors import InputError
from .linalg import Vector, integer_row, primitive_ints

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
    """Fraction-free simplex tableau with Bland's rule and sparse pivots.

    The layout has the columns [x+ | x- | slacks | artificials | rhs]; rows
    keep their construction order (inequalities first, then equalities).
    Bland's scan, the ratio test, ``basis``, ``costs`` and the unbounded
    column all speak of layout columns.  A row stores only its x+ columns,
    its artificial columns and its rhs, ``dim + m + 1`` entries: layout
    column j is stored column ``col[j]`` times ``sign[j]``.  Column x-_k is
    -(x+_k), and the slack column of inequality r is ``flip[r]`` times
    artificial column r.  Both identities hold at the start, and a pivot
    only combines and negates whole rows, which keeps every linear relation
    between columns; dropping a row keeps it too.

    Every entry is a Python ``int``: the tableau proper is ``rows / det``,
    where ``det`` is the positive common denominator |det B| of the current
    basis.  The objective is kept as the price row ``price = -sum c_B . row``
    over the stored columns, so that the reduced cost of layout column j is
    ``(det * costs[j] + sign[j] * price[col[j]]) / (det * cost_scale)``, for
    ``cost_scale`` the lcm of the cost denominators; the price row's last
    entry is minus the objective value of the current basis, over the same
    denominator.

    Row r is the ``HRep``'s integer row r, which is its ``Fraction`` row r,
    times the sign ``flip[r]`` that makes its right-hand side nonnegative.

    The rows are stored densely, but a pivot equal to ``det`` updates each
    row only on the support of the pivot row (see :meth:`_pivot`).
    """

    def __init__(self, h):
        dim = self.dim = h.ambient_dim
        ineqs, eqs = h._integer_constraints
        n_ineq = len(ineqs)
        m = self.m = n_ineq + len(eqs)
        self.n_struct = 2 * dim + n_ineq
        self.n = self.n_struct + m
        self.rhs = dim + m
        self.flip = []
        rows = []
        for r, (normal, offset) in enumerate(ineqs + eqs):
            sigma = 1 if offset >= 0 else -1
            self.flip.append(sigma)
            row = [sigma * a for a in normal] + [0] * (m + 1)
            row[dim + r] = 1
            row[self.rhs] = sigma * offset
            rows.append(row)
        self.rows = rows
        arts = range(dim, dim + m)
        self.col = [*range(dim), *range(dim), *arts[:n_ineq], *arts]
        self.sign = [1] * dim + [-1] * dim + self.flip[:n_ineq] + [1] * m
        self.det = 1
        self.basis = [self.n_struct + r for r in range(m)]

    def set_costs(self, costs, scale: int, allow_artificial: bool):
        """Recompute the price row for integer column costs over ``scale``."""
        self.allow_artificial = allow_artificial
        self.costs = list(costs)
        self.cost_scale = scale
        price = [0] * (self.rhs + 1)
        for row, bcol in zip(self.rows, self.basis):
            cb = costs[bcol]
            if cb:
                price = [z - cb * x for z, x in zip(price, row)]
        self.price = price

    def _pivot(self, r: int, e: int):
        """Pivot on (r, e); Sylvester's identity makes every division exact.

        A row x with entry f in column e becomes (x.p - f.y) / det, for y
        the pivot row and p its entry in column e.  When p == det the
        denominator stays and this is x - f.y / det (still exact, since
        Sylvester's identity makes f.y a multiple of det): the row changes
        only where y is nonzero, in place, and not at all when f == 0.
        Otherwise every row is rescaled by the dense Bareiss step.  The
        reduced-cost row det.costs + price takes the same step, with f the
        reduced cost of column e; the step turns det.costs into p.costs, the
        new det times the same costs, so the price row alone takes it.
        """
        c, s = self.col[e], self.sign[e]
        pivot_row = self.rows[r]
        p = s * pivot_row[c]
        if p < 0:
            # Keep the denominator positive: negating the pivot row negates
            # every row that the update below produces.
            pivot_row = self.rows[r] = [-y for y in pivot_row]
            p = -p
        det = self.det
        reduced = det * self.costs[e] + s * self.price[c]
        if p == det:
            support = [(j, y) for j, y in enumerate(pivot_row) if y]
            for i, row in enumerate(self.rows):
                f = s * row[c]
                if f and i != r:
                    for j, y in support:
                        row[j] -= f * y // det
            if reduced:
                price = self.price
                for j, y in support:
                    price[j] -= reduced * y // det
        else:

            def eliminate(row, f):
                if f:
                    return [(x * p - f * y) // det for x, y in zip(row, pivot_row)]
                return [x * p // det for x in row]

            self.rows = [
                row if i == r else eliminate(row, s * row[c])
                for i, row in enumerate(self.rows)
            ]
            self.price = eliminate(self.price, reduced)
            self.det = p
        self.basis[r] = e

    def minimize(self) -> str:
        """Run the simplex to optimality or unboundedness (min problem)."""
        limit = self.n if self.allow_artificial else self.n_struct
        col, sign, costs, b = self.col, self.sign, self.costs, self.rhs
        while True:
            price, det = self.price, self.det
            enter = next(
                (
                    j
                    for j in range(limit)
                    if det * costs[j] + sign[j] * price[col[j]] < 0
                ),
                None,
            )
            if enter is None:
                return OPTIMAL
            c, s = col[enter], sign[enter]
            leave = None
            for i, row in enumerate(self.rows):
                a = s * row[c]
                if a > 0:
                    if leave is None:
                        leave, best_a, best_rhs = i, a, row[b]
                        continue
                    lhs = row[b] * best_a
                    rhs = best_rhs * a
                    if lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        leave, best_a, best_rhs = i, a, row[b]
            if leave is None:
                self.unbounded_col = enter
                return UNBOUNDED
            self._pivot(leave, enter)

    def multipliers(self) -> tuple[Fraction, ...]:
        """Certificate multipliers per original row, read off the artificial
        columns of the price row.

        The artificial column for row r starts as the unit vector e_r, so its
        current entries record the coefficients expressing each tableau row as
        a combination of original rows; contracting with the basic costs gives
        pi_r = -price_r.  The certificate holds -pi_r times the sign ``flip[r]``
        that the row was multiplied by, one ``Fraction`` each.  This stays
        valid after redundant rows are dropped, because the columns themselves
        are never touched.
        """
        denom = self.det * self.cost_scale
        return tuple(
            Fraction(sigma * z, denom)
            for sigma, z in zip(self.flip, self.price[self.dim : self.rhs])
        )

    def drop_redundant_and_artificials(self):
        """After phase 1, pivot artificials out of the basis; drop rows that
        turn out to be linearly dependent on the others.

        A dropped row is zero on every structural column and stays so, so it
        can never be a pivot row; the kept rows therefore evolve exactly as
        they would with it, and ``det`` stays their common denominator.
        """
        keep = []
        col = self.col
        for i in range(self.m):
            if self.basis[i] < self.n_struct:
                keep.append(i)
                continue
            row = self.rows[i]
            enter = next((j for j in range(self.n_struct) if row[col[j]]), None)
            if enter is None:
                continue
            self._pivot(i, enter)
            keep.append(i)
        if len(keep) != self.m:
            self.rows = [self.rows[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.m = len(keep)

    def solution(self) -> Vector:
        x = [0] * self.dim
        for row, bcol in zip(self.rows, self.basis):
            if bcol < self.dim:
                x[bcol] += row[self.rhs]
            elif bcol < 2 * self.dim:
                x[bcol - self.dim] -= row[self.rhs]
        return tuple(Fraction(v, self.det) for v in x)

    def ray(self) -> Vector:
        """The improving ray along the entering column, in primitive form
        (which drops the positive factor ``det`` of the integer entries)."""
        e = self.unbounded_col
        c, s = self.col[e], self.sign[e]
        xi = [0] * self.n
        xi[e] = self.det
        for row, bcol in zip(self.rows, self.basis):
            xi[bcol] = -s * row[c]
        ray = primitive_ints([xi[k] - xi[self.dim + k] for k in range(self.dim)])
        return tuple(map(Fraction, ray))


def solve_lp(objective: Vector, sense: str, constraints) -> LPResult:
    """Exact optimum of a linear objective over an H-represented polyhedron.

    ``constraints`` is an :class:`~gptlab.ratgeo.polytope.HRep`, which has
    checked its normals' lengths; the tableau and the certificate checkers
    :func:`verify_dual` and :func:`verify_farkas` read its coprime integer
    rows, which are its ``Fraction`` rows.  The optimum is read off the
    tableau's price row and each multiplier off an artificial column, so
    every returned ``Fraction`` is built once from two ints.
    """
    if sense not in (MAX, MIN):
        raise InputError("sense must be 'max' or 'min', got %r" % (sense,))
    dim = constraints.ambient_dim
    if len(objective) != dim:
        raise InputError(
            "objective has length %d, constraints are %d-dimensional"
            % (len(objective), dim)
        )

    tab = _Tableau(constraints)

    # Phase 1: minimize the sum of the artificials.  The price row's last
    # entry is minus the value, so a negative one means a positive minimum.
    phase1_costs = [0] * tab.n_struct + [1] * tab.m
    tab.set_costs(phase1_costs, 1, allow_artificial=True)
    status = tab.minimize()
    assert status == OPTIMAL, "phase 1 cannot be unbounded"
    if tab.price[tab.rhs] < 0:
        return LPResult(status=INFEASIBLE, optimum=None, witness=tab.multipliers())

    tab.drop_redundant_and_artificials()

    # Phase 2: minimize -c.x (i.e. maximize c.x) for c = sign * objective.
    sign = 1 if sense == MAX else -1
    ints, scale = integer_row(objective)
    phase2_costs = [0] * tab.n
    for k in range(dim):
        phase2_costs[k] = -sign * ints[k]
        phase2_costs[dim + k] = sign * ints[k]
    tab.set_costs(phase2_costs, scale, allow_artificial=False)
    status = tab.minimize()
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, optimum=None, witness=tab.ray())

    # The price row ends in minus min(-c.x) = max c.x, over its denominator,
    # and the optimum is sign * max c.x.
    optimum = Fraction(sign * tab.price[tab.rhs], tab.det * tab.cost_scale)
    return LPResult(
        status=OPTIMAL, optimum=optimum, witness=tab.solution(), dual=tab.multipliers()
    )


def _combination(constraints, multipliers: Vector):
    """The constraints combined by ``multipliers``, as ints: (normal, offset,
    den), den > 0, for the combination (normal / den, offset / den).  The
    ``HRep``'s integer rows are its ``Fraction`` rows, so the multipliers
    over their lcm combine them directly.

    None when the count is wrong or an inequality multiplier is negative.
    """
    ineqs, eqs = constraints._integer_constraints
    rows = ineqs + eqs
    if len(multipliers) != len(rows):
        return None
    if any(v < 0 for v in multipliers[: len(ineqs)]):
        return None
    ms, den = integer_row(multipliers)
    combined = [0] * constraints.ambient_dim
    offset = 0
    for m, (normal, rhs) in zip(ms, rows):
        if m:
            for j, a in enumerate(normal):
                if a:
                    combined[j] += m * a
            offset += m * rhs
    return combined, offset, den


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
    normal, offset, _ = combination
    return not any(normal) and offset < 0


def verify_dual(constraints, objective: Vector, sense: str, result: LPResult) -> bool:
    """Check an optimality certificate exactly.

    For the max form the multipliers (y for inequalities, z for equalities)
    must satisfy y >= 0, y.A + z.E = c and y.b + z.f = optimum; weak duality
    then pins the optimum from above while the witness point pins it from
    below.  ``min`` problems are certified through their max form.  A
    certificate of the wrong shape is rejected, never raised on.
    """
    if result.status != OPTIMAL or result.dual is None or result.optimum is None:
        return False
    dim = constraints.ambient_dim
    x = result.witness
    if len(objective) != dim or len(x) != dim:
        return False
    combination = _combination(constraints, result.dual)
    if combination is None:
        return False
    normal, offset, den = combination
    # (c, target) of the max form is target_ints / scale; the combination
    # equals it iff the cross products agree.
    sign = 1 if sense == MAX else -1
    target_ints, scale = integer_row(tuple(objective) + (result.optimum,))
    target_ints = [sign * v for v in target_ints]
    if any(a * scale != t * den for a, t in zip(normal + [offset], target_ints)):
        return False
    # The primal witness must be feasible and achieve the same value.
    ints, xden = integer_row(x)
    ineq_slacks, eq_slacks = constraints._slacks(ints, xden)
    if any(s < 0 for s in ineq_slacks) or any(eq_slacks):
        return False
    return sum(map(mul, target_ints[:dim], ints)) == target_ints[dim] * xden
