"""Polytope conversion tests, including the brute-force enumeration oracle."""

import itertools
import random
from fractions import Fraction as F

import pytest

from gptlab.errors import EmptyError, InputError, UnboundedError
from gptlab.ratgeo import (
    HRep,
    VRep,
    adjacency_edges,
    affine_dimension,
    facet_enumeration,
    vertex_adjacency,
    vertex_enumeration,
)
from gptlab.ratgeo import lp, polytope
from gptlab.ratgeo.linalg import (
    dot,
    independent_rows,
    inverse,
    null_space,
    rank,
    solve,
    transpose,
    vec,
    vsub,
)
from gptlab.ratgeo.polytope import (
    _canonical_equality,
    _canonical_inequality,
    _reduce_mod_equalities,
)
from gptlab.spaces import from_vertices, make_classical


def unit_square_h():
    return HRep.make(
        2,
        ineqs=[
            ((F(-1), F(0)), F(0)),
            ((F(1), F(0)), F(1)),
            ((F(0), F(-1)), F(0)),
            ((F(0), F(1)), F(1)),
        ],
    )


def simplex_h(n):
    """Probability simplex on n outcomes: x >= 0, sum x = 1."""
    ineqs = [
        (tuple(F(-1) if j == i else F(0) for j in range(n)), F(0))
        for i in range(n)
    ]
    eqs = [((F(1),) * n, F(1))]
    return HRep.make(n, ineqs, eqs)


def brute_force_vertices(h):
    """Oracle: intersect all d-subsets of constraint hyperplanes, keep the
    feasible full-rank intersection points."""
    d = h.ambient_dim
    constraints = list(h.inequalities) + list(h.equalities)
    points = set()
    for subset in itertools.combinations(range(len(constraints)), d):
        rows = [constraints[i][0] for i in subset]
        rhs = tuple(constraints[i][1] for i in subset)
        if rank(rows) < d:
            continue
        x = solve(rows, rhs)
        if x is None:
            continue
        if h.contains(x):
            points.add(x)
    return tuple(sorted(points))


def test_unit_square_vertices():
    v = vertex_enumeration(unit_square_h())
    assert v.vertices == (
        vec(0, 0),
        vec(0, 1),
        vec(1, 0),
        vec(1, 1),
    )


def test_one_simplex_vertices():
    h = HRep.make(
        2,
        ineqs=[((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))],
        eqs=[((F(1), F(1)), F(1))],
    )
    v = vertex_enumeration(h)
    assert v.vertices == (vec(0, 1), vec(1, 0))


UNBOUNDED_CASES = {
    # Rays with t = 0 next to a ray with t > 0: a recession direction.
    "quadrant": HRep.make(2, ineqs=[((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]),
    # The homogenized cone holds a line; the phase-1 LP is feasible.
    "slab": HRep.make(2, ineqs=[((F(-1), F(0)), F(0)), ((F(1), F(0)), F(1))]),
    "line-by-equalities": HRep.make(2, eqs=[((F(1), F(0)), F(0))]),
}

EMPTY_CASES = {
    "interval": HRep.make(1, ineqs=[((F(1),), F(0)), ((F(-1),), F(-1))]),
    # The homogenized cone holds a line; the phase-1 LP is infeasible.
    "slab": HRep.make(2, ineqs=[((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))]),
    # No null space: only (x, t) = 0 satisfies the homogenized equalities.
    "inconsistent-equalities": HRep.make(1, eqs=[((F(1),), F(0)), ((F(1),), F(1))]),
    # x, y >= 0, x + y <= -1: the homogenized cone is {0}.
    "below-the-quadrant": HRep.make(
        2,
        ineqs=[((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)), ((F(1), F(1)), F(-1))],
    ),
    # x, y >= 0, x <= -1: one ray with t = 0 and none with t > 0.
    "recession-ray-only": HRep.make(
        2,
        ineqs=[((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)), ((F(1), F(0)), F(-1))],
    ),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_CASES))
def test_unbounded_rejected(case):
    with pytest.raises(UnboundedError):
        vertex_enumeration(UNBOUNDED_CASES[case])


@pytest.mark.parametrize("case", sorted(EMPTY_CASES))
def test_empty_rejected(case):
    with pytest.raises(EmptyError):
        vertex_enumeration(EMPTY_CASES[case])


def test_trivially_infeasible_inequality_flagged():
    with pytest.raises(InputError):
        HRep.make(2, ineqs=[((F(0), F(0)), F(-1))])


def test_affine_dimension_examples():
    square = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    assert affine_dimension(square) == 2
    assert affine_dimension([vec(1, 2, 3)]) == 0
    with pytest.raises(InputError):
        affine_dimension([])


def test_facets_of_square():
    v = vertex_enumeration(unit_square_h())
    h = facet_enumeration(v)
    assert len(h.inequalities) == 4
    assert len(h.equalities) == 0


def test_facets_of_point():
    v = VRep.make(3, [vec(1, 2, 3)])
    h = facet_enumeration(v)
    assert len(h.inequalities) == 0
    assert len(h.equalities) == 3
    assert h.contains(vec(1, 2, 3))
    assert not h.contains(vec(1, 2, 4))


def test_round_trip_square_and_simplices():
    cases = [vertex_enumeration(unit_square_h())]
    for n in range(2, 7):
        cases.append(vertex_enumeration(simplex_h(n)))
    for v in cases:
        assert vertex_enumeration(facet_enumeration(v)) == v


def test_from_vertices_drops_interior():
    pts = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1), vec(F(1, 2), F(1, 2)), vec(1, 1)]
    v = from_vertices(pts, "square", 2).v
    assert v.vertices == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))


def test_square_adjacency_is_4_cycle():
    v = vertex_enumeration(unit_square_h())
    adj = vertex_adjacency(v, unit_square_h())
    assert all(len(ns) == 2 for ns in adj)
    # (0,0) neighbors (0,1) and (1,0), not the opposite corner (1,1)
    assert adj[0] == (1, 2)
    assert adjacency_edges(adj) == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_adjacency_rejects_foreign_vertex():
    v = VRep.make(2, [vec(0, 0), vec(2, 2)])
    with pytest.raises(InputError):
        vertex_adjacency(v, unit_square_h())


def test_adjacency_invariant_under_affine_bijection():
    # Shear the square by an invertible rational map and compare edge sets.
    v = vertex_enumeration(unit_square_h())
    adj = vertex_adjacency(v, unit_square_h())
    mapped = [(x + 2 * y + 1, y - x) for x, y in v.vertices]
    v2 = VRep.make(2, mapped)
    h2 = facet_enumeration(v2)
    adj2 = vertex_adjacency(v2, h2)
    # Relate indices through the affine map, then compare edges.
    perm = {i: v2.vertices.index((x + 2 * y + 1, y - x)) for i, (x, y) in enumerate(v.vertices)}
    edges_mapped = sorted(
        tuple(sorted((perm[i], perm[j]))) for i, j in adjacency_edges(adj)
    )
    assert tuple(edges_mapped) == adjacency_edges(adj2)


def random_bounded_hrep(rng, dim):
    """Random small H-rep with a bounding box; may be empty."""
    ineqs = []
    n_extra = rng.randrange(0, 7)
    for _ in range(n_extra):
        normal = tuple(F(rng.randrange(-10, 11)) for _ in range(dim))
        if all(x == 0 for x in normal):
            continue
        offset = F(rng.randrange(-10, 11))
        ineqs.append((normal, offset))
    for k in range(dim):
        e = tuple(F(1) if j == k else F(0) for j in range(dim))
        ineqs.append((e, F(rng.randrange(0, 11))))
        ineqs.append((tuple(-x for x in e), F(rng.randrange(0, 11))))
    try:
        return HRep.make(dim, ineqs)
    except InputError:
        return None


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(31415)
    checked = 0
    while checked < 200:
        dim = rng.randrange(1, 5)
        h = random_bounded_hrep(rng, dim)
        if h is None:
            continue
        oracle = brute_force_vertices(h)
        if not oracle:
            with pytest.raises(EmptyError):
                vertex_enumeration(h)
            continue  # empty polytopes exercise the error path, not the census
        v = vertex_enumeration(h)
        assert v.vertices == oracle, h
        checked += 1


def random_point_sets():
    """The 40 seeded point sets behind random_vreps, as (dim, points)."""
    rng = random.Random(2718)
    for _ in range(40):
        dim = rng.randrange(1, 4)
        pts = [
            tuple(F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(dim))
            for _ in range(rng.randrange(1, 7))
        ]
        yield dim, pts


def random_vreps():
    """The 40 seeded V-representations of test_round_trip_on_random_vreps."""
    for dim, pts in random_point_sets():
        yield from_vertices(pts, "random", dim).v


def test_round_trip_on_random_vreps():
    for v in random_vreps():
        h = facet_enumeration(v)
        assert vertex_enumeration(h) == v


def rank_adjacency(v, h):
    """Oracle: i ~ j iff the constraints active at both vertices leave a
    solution space of affine dimension exactly 1 (the segment's line)."""
    d = h.ambient_dim
    eq_normals = [n for n, _ in h.equalities]
    active = [set(h.active_inequalities(x)) for x in v.vertices]
    n = len(v.vertices)
    return tuple(
        tuple(
            j
            for j in range(n)
            if j != i
            and rank(
                [h.inequalities[c][0] for c in sorted(active[i] & active[j])]
                + eq_normals
            )
            == d - 1
        )
        for i in range(n)
    )


def degenerate_cube_h(dim):
    """[0, 1]^dim plus redundant inequalities through two opposite corners."""
    ineqs = []
    for k in range(dim):
        e = tuple(F(1) if j == k else F(0) for j in range(dim))
        ineqs += [(e, F(1)), (tuple(-x for x in e), F(0))]
    ineqs.append(((F(1),) * dim, F(dim)))
    ineqs.append(((F(-1),) * dim, F(0)))
    return HRep.make(dim, ineqs)


def adjacency_cases(spaces):
    for space in spaces:
        yield space.label + "/input-h", space.v, space.h
        yield space.label + "/facet-h", space.v, facet_enumeration(space.v)
    for dim in (2, 3):
        h = degenerate_cube_h(dim)
        v = vertex_enumeration(h)
        yield "cube-%d/input-h" % dim, v, h
        yield "cube-%d/facet-h" % dim, v, facet_enumeration(v)
    for k, v in enumerate(random_vreps()):
        yield "random-%d/facet-h" % k, v, facet_enumeration(v)


def test_adjacency_matches_rank_oracle(gbit, boxworld2):
    spaces = [gbit, boxworld2] + [make_classical(n) for n in (2, 3, 4)]
    mismatches = [
        name
        for name, v, h in adjacency_cases(spaces)
        if vertex_adjacency(v, h) != rank_adjacency(v, h)
    ]
    assert mismatches == []


def lp_hull_vertices(dim, points):
    """Oracle: keep each distinct point that one exact LP cannot write as a
    convex combination of the other distinct points."""
    unique = sorted(set(tuple(p) for p in points))

    def in_hull(point, others):
        if not others:
            return False
        n = len(others)
        eqs = [(tuple(p[k] for p in others), point[k]) for k in range(dim)]
        eqs.append(((F(1),) * n, F(1)))
        ineqs = [
            (tuple(F(-1) if j == i else F(0) for j in range(n)), F(0))
            for i in range(n)
        ]
        h = HRep.make(n, ineqs, eqs)
        return lp.solve_lp((F(0),) * n, lp.MAX, h).status == lp.OPTIMAL

    return tuple(
        p for i, p in enumerate(unique) if not in_hull(p, unique[:i] + unique[i + 1:])
    )


def hull_oracle_cases():
    """Seeded point sets: the random_vreps sets, flat 3-d sets, and sets with
    interior and duplicate points added."""
    yield from random_point_sets()
    rng = random.Random(1618)
    for _ in range(12):
        # Points on a random plane (or, from a zero direction, a line) in 3-d.
        base = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        dirs = [tuple(F(rng.randrange(-2, 3)) for _ in range(3)) for _ in range(2)]
        pts = []
        for _ in range(rng.randrange(1, 8)):
            a, b = F(rng.randrange(-4, 5), 2), F(rng.randrange(-4, 5), 3)
            pts.append(tuple(x + a * u + b * w for x, u, w in zip(base, *dirs)))
        yield 3, pts
    for _ in range(12):
        dim = rng.randrange(2, 4)
        pts = [
            tuple(F(rng.randrange(-4, 5)) for _ in range(dim))
            for _ in range(rng.randrange(2, 8))
        ]
        centroid = tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))
        yield dim, pts + [centroid] + rng.sample(pts, 2)


def test_from_vertices_matches_lp_hull_oracle():
    mismatches = [
        (dim, pts)
        for dim, pts in hull_oracle_cases()
        if from_vertices(pts, "cloud", dim).v.vertices != lp_hull_vertices(dim, pts)
    ]
    assert mismatches == []


def test_from_vertices_h_ignores_non_extreme_points():
    for dim, pts in hull_oracle_cases():
        space = from_vertices(pts, "cloud", dim)
        assert space.h == facet_enumeration(space.v)


def polar_facet_enumeration(v):
    """Oracle: the facets as the vertices of the polar dual, taken around the
    centroid of the points in coordinates of an affinely independent subset,
    mapped back and reduced modulo the affine hull."""
    d = v.ambient_dim
    verts = list(v.vertices)
    base = verts[0]
    diffs = [vsub(p, base) for p in verts[1:]]
    hull_normals = null_space(diffs, d)
    equalities = sorted(_canonical_equality(n, dot(n, base)) for n in hull_normals)
    k = d - len(hull_normals)
    if k == 0:
        return HRep(ambient_dim=d, inequalities=(), equalities=tuple(equalities))

    bmat_cols = [diffs[i] for i in independent_rows(diffs)]
    pivot_rows = independent_rows(transpose(bmat_cols))
    b_sub_inv = inverse(
        tuple(tuple(bmat_cols[c][r] for c in range(k)) for r in pivot_rows)
    )
    reduced = [
        tuple(dot(row, tuple(x[r] - base[r] for r in pivot_rows)) for row in b_sub_inv)
        for x in verts
    ]
    centroid = tuple(sum(col, F(0)) / len(reduced) for col in zip(*reduced))
    dual_h = HRep.make(k, [(vsub(p, centroid), F(1)) for p in reduced])

    inequalities = set()
    binv_t = transpose(b_sub_inv)
    for y in vertex_enumeration(dual_h).vertices:
        # y.(t - centroid) <= 1 with t = B_sub^{-1} (x_R - base_R).
        normal = [F(0)] * d
        for r, row in zip(pivot_rows, binv_t):
            normal[r] = dot(row, y)
        offset = 1 + dot(y, centroid) + dot(tuple(normal), base)
        inequalities.add(
            _canonical_inequality(*_reduce_mod_equalities(tuple(normal), offset, equalities))
        )
    return HRep(
        ambient_dim=d,
        inequalities=tuple(sorted(inequalities)),
        equalities=tuple(equalities),
    )


def flat_point_sets():
    """Seeded point sets in 4-5 dimensions on affine subspaces of codimension
    at least 2.  The directions vanish on a random set of columns, so the
    hull's coordinate columns are not always the leading ones."""
    rng = random.Random(1414)
    for _ in range(24):
        dim = rng.randrange(4, 6)
        flat = rng.randrange(1, dim - 1)
        dead = set(rng.sample(range(dim), rng.randrange(0, dim - flat + 1)))
        base = tuple(F(rng.randrange(-3, 4)) for _ in range(dim))
        dirs = [
            tuple(F(0) if j in dead else F(rng.randrange(-3, 4)) for j in range(dim))
            for _ in range(flat)
        ]
        pts = []
        for _ in range(rng.randrange(flat + 1, flat + 6)):
            coeffs = [F(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in dirs]
            pts.append(
                tuple(x + sum((c * u[j] for c, u in zip(coeffs, dirs)), F(0))
                      for j, x in enumerate(base))
            )
        yield dim, pts


def facet_oracle_corpus(name, gbit, boxworld2):
    if name == "random":
        return [VRep.make(dim, pts) for dim, pts in random_point_sets()]
    if name == "cubes":
        return [vertex_enumeration(degenerate_cube_h(dim)) for dim in (2, 3, 4)]
    if name == "spaces":
        return [gbit.v, boxworld2.v] + [make_classical(n).v for n in range(1, 7)]
    return [VRep.make(dim, pts) for dim, pts in flat_point_sets()]


@pytest.mark.parametrize("name", ["random", "cubes", "spaces", "flat"])
def test_facets_match_polar_dual_oracle(name, gbit, boxworld2):
    corpus = facet_oracle_corpus(name, gbit, boxworld2)
    oracle = [polar_facet_enumeration(v) for v in corpus]
    if name == "flat":
        assert all(len(h.equalities) >= 2 for h in oracle)
    assert [facet_enumeration(v) for v in corpus] == oracle


@pytest.mark.parametrize(
    "extra",
    # x + y <= 2 holds on the square but is tight at (1, 1) alone;
    # x + y <= 1 fails at (1, 1); 0 <= 1 is tight nowhere.
    [(F(1), F(1), F(2)), (F(1), F(1), F(1)), (F(0), F(0), F(1))],
    ids=["valid-non-facet", "violated", "tight-nowhere"],
)
def test_facet_enumeration_rejects_a_non_facet_ray(monkeypatch, extra):
    square = VRep.make(2, [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)])
    dd = polytope._dd_extreme_rays
    monkeypatch.setattr(polytope, "_dd_extreme_rays", lambda rows, k: dd(rows, k) + [extra])
    with pytest.raises(InputError):
        facet_enumeration(square)
