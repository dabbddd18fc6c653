"""Exact LP solver tests: optima, certificates, determinism."""

import random
from fractions import Fraction as F

import pytest

from gptlab.boxworld import all_chsh_variants, build_ns_hrep, chsh_objective
from gptlab.errors import InputError
from gptlab.ratgeo import (
    HRep,
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
from gptlab.ratgeo.linalg import ONE, ZERO, dot, vec, zeros
from test_linalg import fraction_primitive


def box_1d():
    # 0 <= x <= 1
    return HRep.make(1, ineqs=[((F(-1),), F(0)), ((F(1),), F(1))])


def test_box_maximum():
    r = solve_lp(vec(1), MAX, box_1d())
    assert r.status == OPTIMAL
    assert r.optimum == 1
    assert r.witness == (F(1),)
    assert verify_dual(box_1d(), vec(1), MAX, r)


def test_box_minimum():
    r = solve_lp(vec(1), MIN, box_1d())
    assert r.status == OPTIMAL
    assert r.optimum == 0
    assert r.witness == (F(0),)
    assert verify_dual(box_1d(), vec(1), MIN, r)


def test_unbounded_with_ray():
    h = HRep.make(1, ineqs=[((F(-1),), F(0))])  # x >= 0
    r = solve_lp(vec(1), MAX, h)
    assert r.status == UNBOUNDED
    ray = r.witness
    # Improving ray: satisfies homogeneous constraints, improves objective.
    assert dot(vec(-1), ray) <= 0
    assert dot(vec(1), ray) > 0


def test_infeasible_farkas():
    # x <= 0 and x >= 1
    h = HRep.make(1, ineqs=[((F(1),), F(0)), ((F(-1),), F(-1))])
    r = solve_lp(vec(1), MAX, h)
    assert r.status == INFEASIBLE
    assert verify_farkas(h, r.witness)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        solve_lp(vec(1, 2), MAX, box_1d())


def test_bad_sense_rejected():
    with pytest.raises(InputError):
        solve_lp(vec(1), "maximize", box_1d())


def test_equality_constraints():
    # x + y = 1, x,y >= 0: maximize x - y -> 1 at (1, 0)
    h = HRep.make(
        2,
        ineqs=[((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))],
        eqs=[((F(1), F(1)), F(1))],
    )
    r = solve_lp(vec(1, -1), MAX, h)
    assert r.optimum == 1
    assert r.witness == (F(1), F(0))
    assert verify_dual(h, vec(1, -1), MAX, r)


def test_degenerate_vertex_no_cycling():
    # Highly degenerate: many redundant constraints through the optimum.
    ineqs = [
        ((F(1), F(1)), F(1)),
        ((F(2), F(2)), F(2)),
        ((F(1), F(0)), F(1)),
        ((F(0), F(1)), F(1)),
        ((F(3), F(3)), F(3)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(-1)), F(0)),
    ]
    h = HRep.make(2, ineqs=ineqs)
    r = solve_lp(vec(1, 1), MAX, h)
    assert r.status == OPTIMAL
    assert r.optimum == 1
    assert verify_dual(h, vec(1, 1), MAX, r)


def test_deterministic_witness():
    h = HRep.make(
        2,
        ineqs=[
            ((F(-1), F(0)), F(0)),
            ((F(1), F(0)), F(1)),
            ((F(0), F(-1)), F(0)),
            ((F(0), F(1)), F(1)),
        ],
    )
    # Flat objective: every point of the top edge is optimal; the witness
    # must nevertheless be identical across calls.
    first = solve_lp(vec(0, 1), MAX, h)
    for _ in range(5):
        again = solve_lp(vec(0, 1), MAX, h)
        assert again == first


def random_feasible_hrep(rng, dim):
    """Random small H-rep guaranteed nonempty (contains the origin) and bounded."""
    ineqs = []
    for _ in range(rng.randrange(1, 7)):
        normal = tuple(F(rng.randrange(-10, 11)) for _ in range(dim))
        offset = F(rng.randrange(0, 11))  # keeps the origin feasible
        if all(x == 0 for x in normal):
            continue
        ineqs.append((normal, offset))
    for k in range(dim):  # bounding box
        e = tuple(F(1) if j == k else F(0) for j in range(dim))
        ineqs.append((e, F(rng.randrange(1, 11))))
        ineqs.append((tuple(-x for x in e), F(rng.randrange(1, 11))))
    return HRep.make(dim, ineqs)


def test_duality_on_random_programs():
    rng = random.Random(20260810)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        h = random_feasible_hrep(rng, dim)
        c = tuple(F(rng.randrange(-5, 6)) for _ in range(dim))
        for sense in (MAX, MIN):
            r = solve_lp(c, sense, h)
            assert r.status == OPTIMAL
            assert verify_dual(h, c, sense, r), (h, c, sense, r)
            assert r == fraction_solve_lp(c, sense, h)


def segment(*extra_ineqs):
    """x + y = 1 with x, y >= 0, rows in a fixed order, plus ``extra_ineqs``."""
    ineqs = (((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))) + extra_ineqs
    return HRep(2, ineqs, (((F(1), F(1)), F(1)),))


CONTRADICTION = ((F(1), F(1)), F(0))  # x + y <= 0, which no point of the segment meets
SLACK = ((F(1), F(1)), F(2))  # x + y <= 2, which every point of the segment meets


def _dual(**changes):
    """verify_dual on a certificate for max x = 1 at (1, 0), with ``changes``.

    The multipliers are 0 and 1 on -x <= 0 and -y <= 0, and 1 on x + y = 1.
    """
    cert = dict(c=vec(1, 0), optimum=F(1), witness=vec(1, 0), dual=vec(0, 1, 1))
    cert.update(changes)
    result = LPResult(OPTIMAL, cert["optimum"], cert["witness"], cert["dual"])
    return verify_dual(segment(), cert["c"], MAX, result)


def _farkas(multipliers, *extra_ineqs):
    return verify_farkas(segment(*extra_ineqs), multipliers)


# Each certificate breaks one condition and meets all the others.
BROKEN_CERTIFICATES = {
    "dual-wrong-length": lambda: _dual(dual=vec(0, 1)),
    # Claims max x = 0 at (0, 1): the combination and the witness both hold.
    "dual-negative-inequality-multiplier": lambda: _dual(
        optimum=F(0), witness=vec(0, 1), dual=vec(-1, 0, 0)
    ),
    "dual-perturbed-equality-multiplier": lambda: _dual(dual=vec(0, 1, 2)),
    "dual-optimum-off-by-one": lambda: _dual(optimum=F(2)),
    # x + y is 1 on the whole segment; (2, -1) meets x + y = 1 but not y >= 0.
    "dual-witness-outside": lambda: _dual(
        c=vec(1, 1), dual=vec(0, 0, 1), witness=vec(2, -1)
    ),
    "farkas-wrong-length": lambda: _farkas(vec(0, 0, 1), CONTRADICTION),
    # Would prove the feasible segment with x + y <= 2 infeasible.
    "farkas-negative-inequality-multiplier": lambda: _farkas(vec(0, 0, -1, 1), SLACK),
    "farkas-perturbed-equality-multiplier": lambda: _farkas(
        vec(0, 0, 1, -2), CONTRADICTION
    ),
}


def test_unbroken_certificates_accepted():
    assert _dual()
    assert _dual(c=vec(1, 1), dual=vec(0, 0, 1))
    assert _farkas(vec(0, 0, 1, -1), CONTRADICTION)


@pytest.mark.parametrize("case", sorted(BROKEN_CERTIFICATES))
def test_broken_certificates_rejected(case):
    assert BROKEN_CERTIFICATES[case]() is False


def test_farkas_on_random_infeasible_programs():
    rng = random.Random(77)
    found = 0
    for _ in range(200):
        dim = rng.randrange(1, 4)
        h = random_feasible_hrep(rng, dim)
        # Force infeasibility with a contradictory pair.
        normal = tuple(F(rng.randrange(-3, 4)) for _ in range(dim))
        if all(x == 0 for x in normal):
            continue
        extra = [(normal, F(-1)), (tuple(-x for x in normal), F(0))]
        hbad = HRep.make(dim, list(h.inequalities) + extra, h.equalities)
        r = solve_lp(zeros(dim), MAX, hbad)
        assert r.status == INFEASIBLE
        assert verify_farkas(hbad, r.witness)
        assert r == fraction_solve_lp(zeros(dim), MAX, hbad)
        found += 1
    assert found > 100


# ---------------------------------------------------------------------------
# Oracle: the same two-phase Bland simplex on a plain Fraction tableau
# ---------------------------------------------------------------------------


class _FractionTableau:
    """Dense Fraction tableau, columns [x+ | x- | slacks | artificials]."""

    def __init__(self, ineqs, eqs, dim):
        self.dim = dim
        self.m = len(ineqs) + len(eqs)
        self.n_struct = 2 * dim + len(ineqs)
        self.n = self.n_struct + self.m
        self.flip = []
        self.rows = []
        self.rhs = []
        for r, (normal, offset) in enumerate(list(ineqs) + list(eqs)):
            sigma = ONE if offset >= 0 else -ONE
            self.flip.append(sigma)
            row = [ZERO] * self.n
            for k in range(dim):
                row[k] = sigma * normal[k]
                row[dim + k] = -sigma * normal[k]
            if r < len(ineqs):
                row[2 * dim + r] = sigma
            row[self.n_struct + r] = ONE
            self.rows.append(row)
            self.rhs.append(sigma * offset)
        self.basis = [self.n_struct + r for r in range(self.m)]

    def set_costs(self, costs, allow_artificial):
        self.allow_artificial = allow_artificial
        self.costs = list(costs)
        self.obj = list(costs) + [ZERO]
        for i, bcol in enumerate(self.basis):
            cb = costs[bcol]
            for j in range(self.n):
                self.obj[j] -= cb * self.rows[i][j]
            self.obj[self.n] -= cb * self.rhs[i]

    def pivot(self, r, e):
        inv = ONE / self.rows[r][e]
        self.rows[r] = [inv * x for x in self.rows[r]]
        self.rhs[r] *= inv
        for i in range(self.m):
            f = self.rows[i][e]
            if i != r and f != 0:
                self.rows[i] = [x - f * y for x, y in zip(self.rows[i], self.rows[r])]
                self.rhs[i] -= f * self.rhs[r]
        f = self.obj[e]
        for j in range(self.n):
            self.obj[j] -= f * self.rows[r][j]
        self.obj[self.n] -= f * self.rhs[r]
        self.basis[r] = e

    def minimize(self):
        limit = self.n if self.allow_artificial else self.n_struct
        while True:
            enter = next((j for j in range(limit) if self.obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if leave is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best, leave = ratio, i
            if leave is None:
                self.unbounded_col = enter
                return UNBOUNDED
            self.pivot(leave, enter)

    def multipliers(self):
        return tuple(
            -(self.costs[self.n_struct + r] - self.obj[self.n_struct + r]) * s
            for r, s in enumerate(self.flip)
        )

    def drop_redundant_and_artificials(self):
        keep = []
        for i in range(self.m):
            if self.basis[i] >= self.n_struct:
                enter = next(
                    (j for j in range(self.n_struct) if self.rows[i][j] != 0), None
                )
                if enter is None:
                    continue
                self.pivot(i, enter)
            keep.append(i)
        self.rows = [self.rows[i] for i in keep]
        self.rhs = [self.rhs[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)


def fraction_solve_lp(objective, sense, constraints):
    """``solve_lp`` computed on Fractions throughout, pivot for pivot."""
    dim = constraints.ambient_dim
    c = objective if sense == MAX else tuple(-x for x in objective)
    tab = _FractionTableau(constraints.inequalities, constraints.equalities, dim)
    tab.set_costs([ZERO] * tab.n_struct + [ONE] * tab.m, allow_artificial=True)
    assert tab.minimize() == OPTIMAL
    if -tab.obj[tab.n] > 0:
        return LPResult(status=INFEASIBLE, optimum=None, witness=tab.multipliers())
    tab.drop_redundant_and_artificials()
    costs = [ZERO] * tab.n
    for k in range(dim):
        costs[k], costs[dim + k] = -c[k], c[k]
    tab.set_costs(costs, allow_artificial=False)
    if tab.minimize() == UNBOUNDED:
        e = tab.unbounded_col
        xi = [ZERO] * tab.n
        xi[e] = ONE
        for i, bcol in enumerate(tab.basis):
            xi[bcol] = -tab.rows[i][e]
        ray = tuple(xi[k] - xi[dim + k] for k in range(dim))
        return LPResult(status=UNBOUNDED, optimum=None, witness=fraction_primitive(ray))
    x = [ZERO] * dim
    for i, bcol in enumerate(tab.basis):
        if bcol < dim:
            x[bcol] += tab.rhs[i]
        elif bcol < 2 * dim:
            x[bcol - dim] -= tab.rhs[i]
    x = tuple(x)
    return LPResult(
        status=OPTIMAL, optimum=dot(objective, x), witness=x, dual=tab.multipliers()
    )


def assert_matches_oracle(objective, sense, h):
    got = solve_lp(objective, sense, h)
    assert got == fraction_solve_lp(objective, sense, h), (objective, sense, h)
    for value in (got.optimum,) + got.witness + (got.dual or ()):
        assert value is None or type(value) is F
    return got.status


def test_matches_oracle_on_chsh_programs():
    ns = build_ns_hrep()
    for variant in all_chsh_variants():
        assert assert_matches_oracle(chsh_objective(variant), MAX, ns) == OPTIMAL


def random_rational(rng):
    return F(rng.randrange(-9, 10), rng.randrange(2, 8))


def test_matches_oracle_on_unnormalized_rational_systems():
    """``HRep`` built directly: rows keep denominators 2-7 and one equality
    is repeated times 2 or -1, so phase 1 must drop a redundant row.  When
    that equality passes through the origin, its artificial can stay basic
    at level 0 and be pivoted out on a negative entry."""
    rng = random.Random(4)
    seen = set()
    for _ in range(200):
        dim = rng.randrange(1, 5)
        ineqs = []
        for _ in range(rng.randrange(0, 4)):
            normal = tuple(random_rational(rng) for _ in range(dim))
            if any(normal):
                ineqs.append((normal, random_rational(rng)))
        normal = tuple(random_rational(rng) for _ in range(dim))
        offset = rng.choice((ZERO, random_rational(rng)))
        k = rng.choice((2, -1))
        eqs = [(tuple(k * a for a in normal), k * offset), (normal, offset)]
        h = HRep(dim, tuple(ineqs), tuple(eqs[: rng.randrange(0, 3)]))
        c = tuple(random_rational(rng) for _ in range(dim))
        for sense in (MAX, MIN):
            seen.add(assert_matches_oracle(c, sense, h))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
