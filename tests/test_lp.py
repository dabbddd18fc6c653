"""Exact LP solver tests: optima, certificates, determinism."""

import dataclasses
import random
import weakref
from collections import Counter
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
from gptlab.ratgeo import lp, polytope
from gptlab.ratgeo.linalg import ONE, ZERO, dot, zeros
from gptlab.ratgeo.lp import _Tableau
from helpers import vec
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


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_verify_dual_rejects_a_valid_certificate_under_another_status(status):
    """A result that is not ``OPTIMAL`` certifies no optimum, even with a
    dual and a witness that would certify it."""
    r = solve_lp(vec(1), MAX, box_1d())
    assert verify_dual(box_1d(), vec(1), MAX, r)
    relabelled = dataclasses.replace(r, status=status)
    assert not verify_dual(box_1d(), vec(1), MAX, relabelled)


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


def test_negative_pivot_keeps_the_denominator_positive():
    # Driving the artificials out after phase 1 pivots on a negative entry,
    # and the third equality, redundant, is dropped.  Without the pivot's
    # sign fix in ``_Tableau._pivot`` the solve returned -9/5 at (-2/5, -3/5)
    # with a failing certificate.
    ineqs = [((-1, -2), 2), ((3, 1), 1), ((-2, 2), 4), ((0, 2), -1), ((-1, 1), 0)]
    eqs = [((1, -2), 1), ((-2, 0), 1), ((5, -2), -1)]
    h = HRep(2, ineqs, eqs)
    r = solve_lp((3, 1), MAX, h)
    assert r.status == OPTIMAL
    assert r.optimum == F(-9, 4)
    assert r.witness == (F(-1, 2), F(-3, 4))
    assert verify_dual(h, (3, 1), MAX, r)


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
            assert_checkers_agree(h, c, sense, r)


def segment(*extra_ineqs):
    """x + y = 1 with x, y >= 0, rows in a fixed order, plus ``extra_ineqs``."""
    ineqs = (((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))) + extra_ineqs
    return HRep(2, ineqs, (((F(1), F(1)), F(1)),))


CONTRADICTION = ((F(1), F(1)), F(0))  # x + y <= 0, which no point of the segment meets
SLACK = ((F(1), F(1)), F(2))  # x + y <= 2, which every point of the segment meets


def _dual(**changes):
    """A certificate for max x = 1 at (1, 0), with ``changes``.

    The multipliers are 0 and 1 on -x <= 0 and -y <= 0, and 1 on x + y = 1.
    """
    cert = dict(c=vec(1, 0), optimum=F(1), witness=vec(1, 0), dual=vec(0, 1, 1))
    cert.update(changes)
    result = LPResult(OPTIMAL, cert["optimum"], cert["witness"], cert["dual"])
    return "dual", (segment(), cert["c"], MAX, result)


def _farkas(multipliers, *extra_ineqs):
    return "farkas", (segment(*extra_ineqs), multipliers)


def check(certificate, oracle=False):
    """The verdict of the integer checker, or of its ``Fraction`` oracle."""
    kind, args = certificate
    if kind == "dual":
        return (fraction_verify_dual if oracle else verify_dual)(*args)
    return (fraction_verify_farkas if oracle else verify_farkas)(*args)


# Each certificate breaks one condition and meets all the others.
BROKEN_CERTIFICATES = {
    "dual-wrong-length": _dual(dual=vec(0, 1)),
    # Claims max x = 0 at (0, 1): the combination and the witness both hold.
    "dual-negative-inequality-multiplier": _dual(
        optimum=F(0), witness=vec(0, 1), dual=vec(-1, 0, 0)
    ),
    "dual-perturbed-equality-multiplier": _dual(dual=vec(0, 1, 2)),
    "dual-optimum-off-by-one": _dual(optimum=F(2)),
    # x + y is 1 on the whole segment; (2, -1) meets x + y = 1 but not y >= 0.
    "dual-witness-outside": _dual(c=vec(1, 1), dual=vec(0, 0, 1), witness=vec(2, -1)),
    "dual-witness-short": _dual(witness=vec(1)),
    "dual-witness-long": _dual(witness=vec(1, 0, 0)),
    "farkas-wrong-length": _farkas(vec(0, 0, 1), CONTRADICTION),
    # Would prove the feasible segment with x + y <= 2 infeasible.
    "farkas-negative-inequality-multiplier": _farkas(vec(0, 0, -1, 1), SLACK),
    "farkas-perturbed-equality-multiplier": _farkas(vec(0, 0, 1, -2), CONTRADICTION),
}


def test_unbroken_certificates_accepted():
    for certificate in (
        _dual(),
        _dual(c=vec(1, 1), dual=vec(0, 0, 1)),
        _farkas(vec(0, 0, 1, -1), CONTRADICTION),
    ):
        assert check(certificate) is True
        assert check(certificate, oracle=True) is True


@pytest.mark.parametrize("case", sorted(BROKEN_CERTIFICATES))
def test_broken_certificates_rejected(case):
    assert check(BROKEN_CERTIFICATES[case]) is False
    assert check(BROKEN_CERTIFICATES[case], oracle=True) is False


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
        assert_checkers_agree(hbad, zeros(dim), MAX, r)
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


# ---------------------------------------------------------------------------
# Oracle: the certificate checkers on Fractions
# ---------------------------------------------------------------------------


def fraction_combination(constraints, multipliers):
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


def fraction_verify_farkas(constraints, multipliers):
    """``verify_farkas`` on Fractions."""
    combination = fraction_combination(constraints, multipliers)
    if combination is None:
        return False
    normal, offset = combination
    return not any(normal) and offset < 0


def fraction_verify_dual(constraints, objective, sense, result):
    """``verify_dual`` on Fractions; a witness of the wrong length is
    rejected here too, where ``dot`` would raise."""
    if result.status != OPTIMAL or result.dual is None:
        return False
    combination = fraction_combination(constraints, result.dual)
    c = objective if sense == MAX else tuple(-x for x in objective)
    target = result.optimum if sense == MAX else -result.optimum
    if combination != (tuple(c), target):
        return False
    x = result.witness
    if len(x) != constraints.ambient_dim:
        return False
    for normal, rhs in constraints.inequalities:
        if dot(normal, x) > rhs:
            return False
    for normal, rhs in constraints.equalities:
        if dot(normal, x) != rhs:
            return False
    return dot(objective, x) == result.optimum


def assert_checkers_agree(h, objective, sense, result):
    """The integer checker accepts the certificate of ``result``, and agrees
    with its ``Fraction`` oracle on it and on every copy with one multiplier
    moved by +1 or -1."""
    if result.status == OPTIMAL:
        multipliers = result.dual

        def verdicts(m):
            r = dataclasses.replace(result, dual=m)
            return verify_dual(h, objective, sense, r), fraction_verify_dual(
                h, objective, sense, r
            )

    elif result.status == INFEASIBLE:
        multipliers = result.witness

        def verdicts(m):
            return verify_farkas(h, m), fraction_verify_farkas(h, m)

    else:
        return
    assert verdicts(multipliers) == (True, True)
    for i in range(len(multipliers)):
        for delta in (1, -1):
            m = multipliers[:i] + (multipliers[i] + delta,) + multipliers[i + 1 :]
            got, want = verdicts(m)
            assert got == want, (h, objective, sense, result, i, delta)


def assert_matches_oracle(objective, sense, h):
    got = solve_lp(objective, sense, h)
    assert got == fraction_solve_lp(objective, sense, h), (objective, sense, h)
    for value in (got.optimum,) + got.witness + (got.dual or ()):
        assert value is None or type(value) is F
    assert_checkers_agree(h, objective, sense, got)
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


# ---------------------------------------------------------------------------
# Kernel invariant: the sparse pivot against the dense Bareiss step
# ---------------------------------------------------------------------------


class WideTwin:
    """The wide integer tableau [x+ | x- | slacks | artificials | rhs] with
    its reduced-cost row, pivoted by the dense Bareiss step alone.

    It is built from a narrow tableau before that tableau's first pivot,
    whose rows are still the ``HRep``'s rows times ``flip``: the x- columns
    are the x+ columns negated, and the slack and artificial columns are
    unit columns, written out here rather than read through the column map.
    """

    def __init__(self, tab):
        dim, m = tab.dim, tab.m
        n_ineq = tab.n_struct - 2 * dim
        self.rows = []
        for r, row in enumerate(tab.rows):
            units = [int(i == r) for i in range(m)]
            assert row[dim : dim + m] == units
            slacks = [tab.flip[r] * (i == r) for i in range(n_ineq)]
            x = row[:dim]
            self.rows.append(x + [-a for a in x] + slacks + units + row[-1:])
        self.det = 1
        self.basis = list(tab.basis)
        self.costs = None

    def sync(self, tab):
        """Drop the rows that the tableau dropped (each row has its own basic
        column) and recompute the reduced costs when the costs changed."""
        kept = set(tab.basis)
        keep = [i for i, bcol in enumerate(self.basis) if bcol in kept]
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        if self.costs is not tab.costs:
            self.costs = tab.costs
            self.obj = [self.det * c for c in self.costs] + [0]
            for row, bcol in zip(self.rows, self.basis):
                cb = self.costs[bcol]
                self.obj = [z - cb * x for z, x in zip(self.obj, row)]

    def pivot(self, r, e):
        """One fraction-free pivot on (r, e), every row updated densely."""
        pivot_row = self.rows[r]
        p = pivot_row[e]
        if p < 0:
            pivot_row = self.rows[r] = [-y for y in pivot_row]
            p = -p
        det = self.det

        def eliminate(row):
            f = row[e]
            return [(x * p - f * y) // det for x, y in zip(row, pivot_row)]

        self.rows = [
            row if i == r else eliminate(row) for i, row in enumerate(self.rows)
        ]
        self.obj = eliminate(self.obj)
        self.det = p
        self.basis[r] = e


def read_wide(tab):
    """The narrow tableau's rows and reduced costs, every layout column read
    through the column map, then its denominator and basis."""
    columns = list(zip(tab.col, tab.sign))
    rows = [[s * row[c] for c, s in columns] + [row[tab.rhs]] for row in tab.rows]
    obj = [
        tab.det * cost + s * tab.price[c] for cost, (c, s) in zip(tab.costs, columns)
    ] + [tab.price[tab.rhs]]
    return rows, obj, tab.det, tab.basis


CHSH_PIVOTS = 371  # the 8 CHSH programs, phase 1 and 2, at Bland's path


def test_sparse_pivot_matches_dense_bareiss(monkeypatch):
    """Every pivot of the narrow tableau, sparse or dense, leaves it equal to
    the wide twin after the dense Bareiss step, the x- and slack columns and
    the reduced costs of all columns included."""
    pivot = _Tableau._pivot
    branches = Counter()
    twins = weakref.WeakKeyDictionary()

    def checked(tab, r, e):
        if tab not in twins:
            twins[tab] = WideTwin(tab)
        twin = twins[tab]
        twin.sync(tab)
        p = abs(tab.rows[r][tab.col[e]])
        branches["p == det" if p == tab.det else "p != det"] += 1
        pivot(tab, r, e)
        twin.pivot(r, e)
        assert read_wide(tab) == (twin.rows, twin.obj, twin.det, twin.basis)

    monkeypatch.setattr(_Tableau, "_pivot", checked)
    test_matches_oracle_on_chsh_programs()
    assert sum(branches.values()) == CHSH_PIVOTS, branches
    test_matches_oracle_on_unnormalized_rational_systems()
    assert branches["p == det"] and branches["p != det"], branches


# ---------------------------------------------------------------------------
# One integer form: the HRep's rows, scaled once by its constructor
# ---------------------------------------------------------------------------


def test_constraint_rows_are_scaled_only_by_the_hrep_cache(monkeypatch, gbit):
    """The ``HRep`` constructor builds the integer rows, so the simplex scales
    only the objective, the checkers only the certificate and the witness,
    and vertex enumeration no constraint row: its one ``integer_rows`` call
    is the ``VRep`` ordering the output points."""
    calls = []

    def record(module, name):
        original = getattr(module, name)

        def counted(values):
            values = list(values)
            calls.append((module.__name__.rsplit(".", 1)[-1], values))
            return original(values)

        monkeypatch.setattr(module, name, counted)

    record(lp, "integer_row")
    record(polytope, "integer_row")
    record(polytope, "integer_rows")

    ns = build_ns_hrep()
    for variant in all_chsh_variants():
        c = chsh_objective(variant)
        calls.clear()
        result = solve_lp(c, MAX, ns)
        assert calls == [("lp", list(c))]
        calls.clear()
        assert verify_dual(ns, c, MAX, result)
        assert calls == [
            ("lp", list(result.dual)),
            ("lp", list(c) + [result.optimum]),
            ("lp", list(result.witness)),
        ]

    infeasible = segment(CONTRADICTION)
    calls.clear()
    result = solve_lp(zeros(2), MAX, infeasible)
    assert result.status == INFEASIBLE and calls == []
    assert verify_farkas(infeasible, result.witness)
    assert calls == [("lp", list(result.witness))]

    fractional = segment(((F(1, 2), F(0)), F(1, 3)))  # x <= 2/3 on the segment
    for h, vertices in (
        (gbit.h, gbit.v.vertices),
        (fractional, (vec(0, 1), vec(F(2, 3), F(1, 3)))),
    ):
        calls.clear()
        assert polytope.vertex_enumeration(h).vertices == vertices
        assert [(module, sorted(points)) for module, points in calls] == [
            ("polytope", list(vertices))
        ]
