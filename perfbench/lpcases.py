"""The `lp` workload: seeded exact LPs, each with its certificate re-verified.

Three families, repeating in a fixed order (only the numbers come from the
seed), so that every run of a given length sees the same mix, with the
median among the feasible membership LPs and the 90th percentile among the
no-signalling ones:

* ``ns``: a small-integer (hence degenerate) objective over the 16-dimensional
  no-signalling polytope, checked against the best of its 24 vertices, which
  are built from the local-deterministic and PR-box tables without any
  vertex enumeration;
* ``member``: is a point in the convex hull of seven points in 3 dimensions?
  Half of the points lie outside, so half the answers carry a Farkas
  certificate;
* ``ray``: a polyhedron built around a known recession direction, mostly
  unbounded along it; the rest are boxed in and so optimal.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gptlab.boxworld import build_ns_hrep, local_deterministic_table, pr_box_table
from gptlab.ratgeo import lp
from gptlab.ratgeo.polytope import HRep

NS = "ns"
MEMBER_IN = "member_in"
MEMBER_OUT = "member_out"
RAY = "ray"
RAY_BOXED = "ray_boxed"

BLOCK = (
    NS, RAY, MEMBER_OUT, MEMBER_IN, NS, MEMBER_OUT, RAY_BOXED,
    MEMBER_IN, NS, RAY, MEMBER_OUT, NS, MEMBER_IN,
)
EXPECTED_STATUS = {
    NS: lp.OPTIMAL,
    MEMBER_IN: lp.OPTIMAL,
    MEMBER_OUT: lp.INFEASIBLE,
    RAY: lp.UNBOUNDED,
    RAY_BOXED: lp.OPTIMAL,
}


class LPCase:
    """One input: kind, objective, sense, constraints, and for ``ns`` the
    optimum the 24 vertices give."""

    __slots__ = ("kind", "objective", "sense", "h", "oracle")

    def __init__(self, kind, objective, sense, h, oracle=None):
        self.kind = kind
        self.objective = objective
        self.sense = sense
        self.h = h
        self.oracle = oracle

    def describe(self) -> str:
        """Canonical text of the input, for determinism checks."""
        return "%s %s %r %r %r" % (self.kind, self.sense, self.objective, self.h, self.oracle)


def ns_vertices() -> list[tuple[Fraction, ...]]:
    """The 16 local-deterministic and 8 PR-box vertices, built directly."""
    local = [local_deterministic_table(*bits).p for bits in itertools.product((0, 1), repeat=4)]
    pr = [pr_box_table(*bits).p for bits in itertools.product((0, 1), repeat=3)]
    return local + pr


def _ints(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if any(v):
            return v


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _ns_case(rng, ns_h, vertices):
    c = tuple(Fraction(x) for x in _ints(rng, 16, -2, 2))
    sense = rng.choice((lp.MAX, lp.MIN))
    values = [_dot(c, v) for v in vertices]
    oracle = max(values) if sense == lp.MAX else min(values)
    return LPCase(NS, c, sense, ns_h, oracle)


def _member_case(rng, inside: bool):
    k, n = 3, 7
    while True:
        points = [_ints(rng, k, -5, 5) for _ in range(n)]
        if all(any(p[j] for p in points) for j in range(k)):
            break
    if inside:
        weights = [rng.randint(1, 9) for _ in range(n)]
        total = sum(weights)
        q = tuple(Fraction(_dot(weights, [p[j] for p in points]), total) for j in range(k))
    else:
        # Step past the point furthest along u: u.q exceeds every u.p.
        u = _ints(rng, k, -3, 3)
        far = max(points, key=lambda p: _dot(u, p))
        q = tuple(Fraction(f + x) for f, x in zip(far, u))
    eqs = [(tuple(p[j] for p in points), q[j]) for j in range(k)]
    eqs.append(((1,) * n, 1))
    ineqs = [(tuple(-1 if j == i else 0 for j in range(n)), 0) for i in range(n)]
    objective = tuple(Fraction(x) for x in _ints(rng, n, -3, 3))
    kind = MEMBER_IN if inside else MEMBER_OUT
    return LPCase(kind, objective, rng.choice((lp.MAX, lp.MIN)), HRep.make(n, ineqs, eqs))


def _ray_case(rng, boxed: bool):
    k = 4
    ray = _ints(rng, k, -2, 2)
    ineqs = []
    for _ in range(rng.randint(k, k + 3)):
        a = _ints(rng, k, -3, 3)
        if _dot(a, ray) > 0:
            a = tuple(-x for x in a)
        ineqs.append((a, rng.randint(0, 5)))
    if boxed:
        bound = rng.randint(2, 6)
        for j in range(k):
            for s in (1, -1):
                ineqs.append((tuple(s if i == j else 0 for i in range(k)), bound))
    c = _ints(rng, k, -3, 3)
    while _dot(c, ray) == 0:
        c = _ints(rng, k, -3, 3)
    sense = lp.MAX if _dot(c, ray) > 0 else lp.MIN
    kind = RAY_BOXED if boxed else RAY
    return LPCase(kind, tuple(Fraction(x) for x in c), sense, HRep.make(k, ineqs))


def make_cases(seed: int, count: int) -> list[LPCase]:
    """The first ``count`` LP cases of the stream for ``seed``."""
    rng = random.Random(seed)
    ns_h = build_ns_hrep()
    vertices = ns_vertices()
    cases = []
    for i in range(count):
        kind = BLOCK[i % len(BLOCK)]
        if kind == NS:
            cases.append(_ns_case(rng, ns_h, vertices))
        elif kind in (MEMBER_IN, MEMBER_OUT):
            cases.append(_member_case(rng, kind == MEMBER_IN))
        else:
            cases.append(_ray_case(rng, kind == RAY_BOXED))
    return cases


def run_case(case: LPCase) -> lp.LPResult:
    """The op's solve; calls go through the ``lp`` module so a traced run sees them."""
    return lp.solve_lp(case.objective, case.sense, case.h)


def _is_improving_ray(case: LPCase, ray) -> bool:
    if len(ray) != case.h.ambient_dim or not any(ray):
        return False
    if any(_dot(n, ray) > 0 for n, _ in case.h.inequalities):
        return False
    if any(_dot(n, ray) != 0 for n, _ in case.h.equalities):
        return False
    gain = _dot(case.objective, ray)
    return gain > 0 if case.sense == lp.MAX else gain < 0


def check_case(case: LPCase, result: lp.LPResult) -> bool:
    """True iff the result has the expected status and a valid certificate.

    Optimal results are re-verified with ``verify_dual`` (and ``ns`` optima
    against the vertex oracle), infeasible ones with ``verify_farkas``, and
    unbounded rays by checking that they satisfy the homogeneous system and
    improve the objective.
    """
    if result.status != EXPECTED_STATUS[case.kind]:
        return False
    if result.status == lp.OPTIMAL:
        if case.oracle is not None and result.optimum != case.oracle:
            return False
        return lp.verify_dual(case.h, case.objective, case.sense, result)
    if result.status == lp.INFEASIBLE:
        return lp.verify_farkas(case.h, result.witness)
    return _is_improving_ray(case, result.witness)
