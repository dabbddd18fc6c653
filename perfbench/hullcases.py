"""The `hull` workload: seeded H-polytopes through a V -> H -> V round trip.

Each case is an H-representation in dimension 2 to 4.  Bounded cases go
through ``vertex_enumeration``, ``facet_enumeration``, ``vertex_enumeration``
again and ``vertex_adjacency``; empty and unbounded cases must raise the
typed error.  Dimension stops at 4: a 5-dimensional polytope with 66 to 114
vertices takes 35 to 192 s to facet-enumerate, which no run can afford.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gptlab.errors import EmptyError, UnboundedError
from gptlab.ratgeo import polytope
from gptlab.ratgeo.polytope import HRep

BOX_CUTS = "box_cuts"
CUBE = "cube"
CROSS = "cross"
EMPTY = "empty"
UNBOUNDED = "unbounded"

# The kinds repeat in this fixed order; only the numbers come from the seed.
# Every run of a given length so sees the same mix: 10% each of empty and
# unbounded inputs, the median among the 3-d box cuts (whose times cluster)
# and the 90th percentile among the 4-d cross-polytopes, between the 4-d
# cubes below and the 4-d box cut above.
BLOCK = (
    (BOX_CUTS, 3), (CUBE, 4), (EMPTY, 2), (BOX_CUTS, 3), (CROSS, 3),
    (BOX_CUTS, 3), (CROSS, 4), (UNBOUNDED, 2), (BOX_CUTS, 3), (BOX_CUTS, 2),
    (CUBE, 4), (BOX_CUTS, 3), (EMPTY, 3), (BOX_CUTS, 3), (BOX_CUTS, 4),
    (CUBE, 3), (UNBOUNDED, 4), (BOX_CUTS, 3), (CROSS, 4), (BOX_CUTS, 3),
)
CUTS = {2: 2, 3: 2, 4: 1}


class HullCase:
    """One input: its kind, dimension and H-representation."""

    __slots__ = ("kind", "dim", "h")

    def __init__(self, kind: str, dim: int, h: HRep):
        self.kind = kind
        self.dim = dim
        self.h = h

    def expected_error(self):
        return {EMPTY: EmptyError, UNBOUNDED: UnboundedError}.get(self.kind)

    def describe(self) -> str:
        """Canonical text of the input, for determinism checks."""
        return "%s %d %r" % (self.kind, self.dim, self.h)


def _nonzero_normal(rng: random.Random, d: int) -> tuple[int, ...]:
    while True:
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(a):
            return a


def _box(d: int, lower: int, upper: int):
    ineqs = []
    for k in range(d):
        e = [0] * d
        e[k] = 1
        ineqs.append((tuple(e), upper))
        e[k] = -1
        ineqs.append((tuple(e), -lower))
    return ineqs


def _corner_cuts(rng: random.Random, d: int, half: int, count: int):
    """Cuts that each slice one distinct corner off the box [-half, half]^d.

    A cut meets each edge at the corner less than half-way along it, so the
    cuts stay disjoint and every case of one (d, count) has 2^d + count(d-1)
    vertices, while its coefficients are random.
    """
    cuts = []
    for signs in rng.sample(list(itertools.product((-1, 1), repeat=d)), count):
        a = tuple(s * rng.randint(1, 3) for s in signs)
        top = half * sum(abs(x) for x in a)
        depth = Fraction(half * min(abs(x) for x in a) * rng.randint(2, 9), 10)
        cuts.append((a, top - depth))
    return cuts


def _make(kind: str, d: int, rng: random.Random) -> HullCase:
    half = rng.randint(2, 5)
    if kind == BOX_CUTS:
        ineqs = _box(d, -half, half) + _corner_cuts(rng, d, half, CUTS[d])
    elif kind == CUBE:
        # A translated cube with redundant constraints through its corners:
        # degenerate vertices with more than d active inequalities.
        lo = rng.randint(-3, 0)
        ineqs = _box(d, lo, lo + half)
        for _ in range(2):
            signs = tuple(rng.choice((-1, 1)) for _ in range(d))
            corner = tuple(lo + half if s > 0 else lo for s in signs)
            ineqs.append((signs, sum(s * c for s, c in zip(signs, corner))))
    elif kind == CROSS:
        # |x|_1 <= r: 2^d facets, 2^(d-1) of them active at every vertex.
        ineqs = [(signs, half) for signs in itertools.product((-1, 1), repeat=d)]
    elif kind == EMPTY:
        ineqs = _box(d, -half, half)
        a = _nonzero_normal(rng, d)
        ineqs.append((a, -half * sum(abs(x) for x in a) - rng.randint(1, 3)))
    elif kind == UNBOUNDED:
        # Drop the upper bound of one coordinate; every cut leans away from
        # it, so the ray +e_k stays feasible.
        k = rng.randrange(d)
        ineqs = [c for c in _box(d, -half, half) if c[0][k] != 1]
        for a, b in _corner_cuts(rng, d, half, 2):
            ineqs.append((tuple(-abs(x) if j == k else x for j, x in enumerate(a)), b))
    else:
        raise ValueError("unknown hull case kind %r" % (kind,))
    return HullCase(kind, d, HRep.make(d, ineqs))


def make_cases(seed: int, count: int) -> list[HullCase]:
    """The first ``count`` hull cases of the stream for ``seed``."""
    rng = random.Random(seed)
    return [_make(*BLOCK[i % len(BLOCK)], rng) for i in range(count)]


def run_case(case: HullCase):
    """The op: the outcome to check, as (error type, None) or (None, result).

    The result is (V, H, V again, adjacency).  Calls go through the
    ``polytope`` module so that a traced run sees them.
    """
    try:
        v1 = polytope.vertex_enumeration(case.h)
    except (EmptyError, UnboundedError) as err:
        return type(err), None
    h1 = polytope.facet_enumeration(v1)
    v2 = polytope.vertex_enumeration(h1)
    adj = polytope.vertex_adjacency(v2, h1)
    return None, (v1, h1, v2, adj)


def _cube_corners(case: HullCase):
    """The corners of the box that the cube case's axis constraints bound."""
    ranges = []
    for k in range(case.dim):
        bounds = [
            o * n[k] for n, o in case.h.inequalities if sum(map(abs, n)) == abs(n[k]) == 1
        ]
        ranges.append((min(bounds), max(bounds)))
    return sorted(itertools.product(*ranges))


def check_case(case: HullCase, outcome) -> bool:
    """True iff the outcome is right for the case.

    Empty and unbounded inputs must raise their typed error.  Otherwise the
    V -> H -> V round trip must be identical, every vertex must lie in the
    input polytope with at least ``dim`` active inequalities, the adjacency
    must be symmetric with every degree at least the affine dimension, and
    cubes and cross-polytopes must have their known vertices.  No check
    calls into gptlab, so a traced run times the op alone.
    """
    error, result = outcome
    expected = case.expected_error()
    if expected is not None or error is not None:
        return error is expected and result is None
    v1, h1, v2, adj = result
    verts = v1.vertices
    if v2.vertices != verts or len(adj) != len(verts) or len(verts) < case.dim + 1:
        return False
    for x in verts:
        if not case.h.contains(x) or not h1.contains(x):
            return False
        if len(case.h.active_inequalities(x)) < case.dim:
            return False
    for i, neighbours in enumerate(adj):
        # Every input case is full-dimensional, so the affine dimension is dim.
        if len(neighbours) < case.dim or i in neighbours:
            return False
        if any(i not in adj[j] for j in neighbours):
            return False
    if case.kind == CUBE:
        return list(verts) == _cube_corners(case)
    if case.kind == CROSS:
        r = case.h.inequalities[0][1]
        expected_verts = set()
        for k in range(case.dim):
            for s in (-r, r):
                expected_verts.add(tuple(s if j == k else 0 for j in range(case.dim)))
        return set(verts) == expected_verts
    return True
