"""Polytope conversion tests, including the brute-force enumeration oracle."""

import hashlib
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
from gptlab import boxworld, ratgeo, spaces, symmetry
from gptlab.boxworld import make_boxworld2
from gptlab.ratgeo import linalg, lp, polytope
from gptlab.ratgeo.linalg import (
    dot,
    independent_rows,
    integer_rows,
    inverse,
    rref,
    transpose,
    vsub,
)
from gptlab.ratgeo.polytope import _adjacent
from gptlab.serialize import dumps, hrep_to_json
from gptlab.spaces import POLYTOPAL, StateSpace, make_classical, make_gbit
from helpers import vec
from test_linalg import (
    fraction_null_space,
    fraction_primitive,
    fraction_primitive_signed,
    fraction_rank,
    fraction_solve,
)
from test_spaces import space_from_points


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


def fraction_contains(h, x):
    """Oracle for ``HRep.contains``: Fraction dot products, row by row."""
    return all(dot(n, x) <= o for n, o in h.inequalities) and all(
        dot(n, x) == o for n, o in h.equalities
    )


def fraction_active_inequalities(h, x):
    """Oracle for ``HRep.active_inequalities``."""
    return tuple(i for i, (n, o) in enumerate(h.inequalities) if dot(n, x) == o)


def brute_force_vertices(h):
    """Oracle: intersect all d-subsets of constraint hyperplanes, keep the
    feasible full-rank intersection points.  It runs on the Fraction
    oracles, not on the integer kernel it checks."""
    d = h.ambient_dim
    constraints = list(h.inequalities) + list(h.equalities)
    points = set()
    for subset in itertools.combinations(range(len(constraints)), d):
        rows = [constraints[i][0] for i in subset]
        rhs = tuple(constraints[i][1] for i in subset)
        if fraction_rank(rows) < d:
            continue
        x = fraction_solve(rows, rhs)
        if x is None:
            continue
        if fraction_contains(h, x):
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


def test_unbounded_direction_is_named_in_input_coordinates():
    # Fractional rows and an equality: the ray is lifted through a null-space
    # basis scaled to integers, and the message must undo that scale.
    h = HRep(
        3,
        inequalities=(
            ((F(-1, 3), F(0), F(0)), F(0)),
            ((F(0), F(0), F(1, 2)), F(1, 2)),
            ((F(0), F(0), F(-1)), F(0)),
        ),
        equalities=(((F(2), F(1), F(0)), F(1)),),
    )
    with pytest.raises(UnboundedError) as err:
        vertex_enumeration(h)
    assert str(err.value) == "polyhedron is unbounded along direction (1/2, -1/1, 0/1)"


def fraction_canonical_inequality(normal, offset):
    """Oracle: the former ``polytope._canonical_inequality``, the row scaled
    to primitive integers; positive scaling keeps the direction."""
    scaled = fraction_primitive(tuple(normal) + (offset,))
    return scaled[:-1], scaled[-1]


def fraction_canonical_equality(normal, offset):
    """Oracle: the former ``polytope._canonical_equality``."""
    scaled = fraction_primitive_signed(tuple(normal) + (offset,))
    return scaled[:-1], scaled[-1]


def canonical_form_cases():
    """(dim, inequalities, equalities) for ``HRep.make``: seeded rational
    rows, seeded int rows with negative leading entries, and zero rows."""
    for dim, ineqs, eqs in rational_halfspace_cases():
        yield dim, ineqs, eqs
    rng = random.Random(5151)

    def int_rows(dim, count):
        rows = [
            (tuple(rng.randint(-9, 9) for _ in range(dim)), rng.randint(-9, 9))
            for _ in range(count)
        ]
        # 0.x <= b with b < 0 is rejected as trivially infeasible.
        return [(n, o) for n, o in rows if any(n) or o >= 0]

    for _ in range(40):
        dim = rng.randrange(1, 5)
        yield dim, int_rows(dim, rng.randrange(0, 5)), int_rows(dim, rng.randrange(0, 3))
    yield 2, [((-4, 6), -2), ((-3, 0), F(3, 2))], [((-6, 4), 2), ((0, F(-1, 2)), 1)]
    yield 3, [((0, 0, 0), 0), ((0, 0, 0), 5), ((0, F(0), 0), F(5, 3))], [
        ((0, 0, 0), 0),
        ((F(0), F(0), F(0)), F(0)),
    ]


def test_make_matches_fraction_canonical_oracle():
    for dim, ineqs, eqs in canonical_form_cases():
        made = HRep.make(dim, ineqs, eqs)
        oracle = HRep(
            dim,
            tuple(fraction_canonical_inequality(n, o) for n, o in ineqs),
            tuple(fraction_canonical_equality(n, o) for n, o in eqs),
        )
        assert made == oracle
        assert repr(made) == repr(oracle)
        direct = HRep(dim, ineqs, eqs)
        assert direct == made
        assert repr(direct) == repr(made)
        assert direct._integer_constraints == made._integer_constraints


def rational_halfspace_cases():
    """Seeded bounded (or empty) polyhedra with rational, non-primitive rows,
    as (dim, inequalities, equalities): a box, random cuts, at most one
    equality, each row times a random positive rational."""
    rng = random.Random(4242)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        ineqs = []
        for k in range(dim):
            e = tuple(F(1) if j == k else F(0) for j in range(dim))
            ineqs.append((e, F(rng.randrange(0, 6))))
            ineqs.append((tuple(-x for x in e), F(rng.randrange(0, 6))))
        for _ in range(rng.randrange(0, 4)):
            normal = tuple(random_rational(rng) for _ in range(dim))
            if any(normal):
                ineqs.append((normal, random_rational(rng)))
        eqs = [
            (tuple(random_rational(rng) for _ in range(dim)), random_rational(rng))
            for _ in range(rng.randrange(0, 2))
        ]
        ineqs = [
            (tuple(c * x for x in n), c * o)
            for n, o in ineqs
            for c in [F(rng.randint(1, 12), rng.randint(1, 12))]
        ]
        yield dim, ineqs, eqs


def unbounded_halfspace_cases():
    """Seeded polyhedra in dims 2-3, most of them unbounded: a box with
    about half of its sides left open, random cuts, each row times a random
    positive rational, as (dim, inequalities, equalities)."""
    rng = random.Random(1)
    for _ in range(60):
        dim = rng.randrange(2, 4)
        ineqs = []
        for k in range(dim):
            e = tuple(F(1) if j == k else F(0) for j in range(dim))
            for side in (e, tuple(-x for x in e)):
                if rng.random() < 0.5:
                    ineqs.append((side, F(rng.randrange(0, 6))))
        for _ in range(rng.randrange(0, 4)):
            normal = tuple(random_rational(rng) for _ in range(dim))
            if any(normal):
                ineqs.append((normal, random_rational(rng)))
        ineqs = [
            (tuple(c * x for x in n), c * o)
            for n, o in ineqs
            for c in [F(rng.randint(1, 12), rng.randint(1, 12))]
        ]
        yield dim, ineqs, []


def test_direct_hrep_with_rational_rows_matches_make():
    bounded = fractional = unbounded = 0
    cases = itertools.chain(rational_halfspace_cases(), unbounded_halfspace_cases())
    for dim, ineqs, eqs in cases:
        direct = HRep(dim, tuple(ineqs), tuple(eqs))
        made = HRep.make(dim, ineqs, eqs)
        assert direct == made
        int_ineqs, int_eqs = direct._integer_constraints
        for rows, int_rows, canonical in (
            (ineqs, int_ineqs, fraction_canonical_inequality),
            (eqs, int_eqs, fraction_canonical_equality),
        ):
            for (normal, offset), (ints, offset_int) in zip(rows, int_rows, strict=True):
                assert all(type(x) is int for x in (*ints, offset_int))
                assert (ints, offset_int) == canonical(normal, offset)
        try:
            expected = vertex_enumeration(made)
        except (EmptyError, UnboundedError) as err:
            with pytest.raises(type(err)) as got:
                vertex_enumeration(direct)
            assert str(got.value) == str(err)
            unbounded += type(err) is UnboundedError
            continue
        assert vertex_enumeration(direct) == expected, direct
        bounded += 1
        fractional += any(x.denominator > 1 for p in expected.vertices for x in p)
    assert bounded > 30 and fractional > 15 and unbounded > 30


@pytest.mark.parametrize("case", sorted(EMPTY_CASES))
def test_empty_rejected(case):
    with pytest.raises(EmptyError):
        vertex_enumeration(EMPTY_CASES[case])


def test_trivially_infeasible_inequality_flagged():
    for build in (HRep, HRep.make):
        with pytest.raises(InputError) as err:
            build(2, (((F(0), F(0)), F(-1, 2)),))
        assert str(err.value) == "inequality 0.x <= -1/1 is trivially infeasible"


@pytest.mark.parametrize("build", [HRep, HRep.make])
def test_wrong_length_normal_rejected(build):
    good = ((F(1), F(0)), F(1))
    for wrong in (((F(1),), F(1)), ((F(1), F(0), F(0)), F(1))):
        with pytest.raises(InputError) as err:
            build(2, (good, wrong))
        assert str(err.value) == "inequality normal has wrong length"
        with pytest.raises(InputError) as err:
            build(2, (good,), (wrong,))
        assert str(err.value) == "equality normal has wrong length"


def test_generator_rows_are_kept():
    """The constructor reads each row iterable once, so a generator builds
    the same ``HRep`` as a tuple, and a wrong-length row in a generator still
    raises."""
    row = ((F(1),), F(1))
    assert HRep(1, (r for r in [row])) == HRep.make(1, [row])
    assert HRep(1, (), (r for r in [row])) == HRep.make(1, (), [row])
    wrong = ((F(1), F(0)), F(1))
    with pytest.raises(InputError) as err:
        HRep(1, (r for r in [row, wrong]))
    assert str(err.value) == "inequality normal has wrong length"
    with pytest.raises(InputError) as err:
        HRep(1, (), (r for r in [row, wrong]))
    assert str(err.value) == "equality normal has wrong length"


def test_generator_vertices_are_kept():
    points = [vec(1, 0), vec(0, 1)]
    assert VRep(2, (p for p in points)) == VRep(2, points)
    with pytest.raises(InputError) as err:
        VRep(2, (p for p in points + [vec(1)]))
    assert str(err.value) == "vertex has wrong length"


def test_vrep_is_canonical_whatever_the_order_and_repetition():
    """The constructor stores the canonical vertex list: exact duplicates
    dropped and the rest sorted, whatever the order and repetition given."""
    rng = random.Random(1729)
    for dim, pts in itertools.chain(random_point_sets(), flat_point_sets()):
        given = pts + rng.choices(pts, k=rng.randrange(1, len(pts) + 1))
        rng.shuffle(given)
        direct = VRep(dim, tuple(given))
        from_list = VRep(dim, given)
        assert direct == from_list and repr(direct) == repr(from_list)
        assert direct.vertices == tuple(sorted(set(pts)))
        assert VRep(dim, [list(p) for p in given]) == direct


def test_vrep_matches_sorted_set_oracle():
    """Ordering on the points times one lcm keeps what ``sorted(set(points))``
    keeps: the same order, and of equal points the first one given, whether
    an ``int`` or a ``Fraction``."""
    rng = random.Random(4099)
    entries = [0, 1, -2, F(1, 2), F(-3, 4), F(2), F(0), F(5, 6)]
    for _ in range(60):
        dim = rng.randrange(1, 4)
        distinct = [
            tuple(rng.choice(entries) for _ in range(dim))
            for _ in range(rng.randrange(1, 8))
        ]
        points = distinct + rng.choices(distinct, k=rng.randrange(0, 8))
        rng.shuffle(points)
        # Equal points that are distinct objects, some of mixed types.
        points = [tuple(x if rng.random() < 0.5 else F(x) for x in p) for p in points]
        v = VRep(dim, points)
        kept = v.vertices
        assert v._integer_points == integer_rows(kept)
        oracle = tuple(sorted(set(points)))
        assert kept == oracle
        assert all(a is b for a, b in zip(kept, oracle))
        assert all(a is next(p for p in points if p == a) for a in kept)


def test_points_are_scaled_and_eliminated_only_by_the_vrep(monkeypatch):
    """The ``VRep`` constructor scales the points to ints, and its affine
    hull eliminates their differences on first read: facet enumeration and
    the symmetry search, both reading one ``VRep``, scale no point and
    eliminate the differences once between them."""
    calls = {"integer_rows": [], "integer_rref": []}

    def record(module, name):
        original = getattr(module, name)

        def counted(rows, *args):
            rows = list(rows)
            calls[name].append([list(r) for r in rows])
            return original(rows, *args)

        monkeypatch.setattr(module, name, counted)

    for module in (linalg, polytope, spaces, symmetry):
        for name in calls:
            if hasattr(module, name):
                record(module, name)
    assert not {"integer_rows", "integer_rref", "integer_null_space"} & set(
        vars(symmetry)
    )

    # A parallelogram with fractional corners on the plane z = x + 1/2.
    points = [vec(F(a, 2), b, F(a + 1, 2)) for a in (0, 1) for b in (0, 3)]
    v = VRep(3, points)
    assert calls["integer_rows"] == [[list(p) for p in points]]
    ints, _ = v._integer_points
    differences = [[x - y for x, y in zip(p, ints[0])] for p in ints[1:]]
    calls["integer_rows"].clear()

    h = facet_enumeration(v)
    group = symmetry.affine_automorphisms(StateSpace(POLYTOPAL, "scaled-once", v, h))
    assert (len(h.inequalities), len(h.equalities), group.order) == (4, 1, 8)
    assert calls["integer_rows"] == []
    assert calls["integer_rref"].count(differences) == 1


def test_every_space_is_built_by_one_vertex_enumeration(monkeypatch):
    """Each built-in polytopal space comes from its H-representation: one
    double description on it, and no facet enumeration of a point list."""
    calls = {"vertex_enumeration": [], "facet_enumeration": []}

    def record(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name].append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (ratgeo, polytope, spaces, boxworld):
        for name in calls:
            if hasattr(module, name):
                record(module, name)

    builders = [("gbit", make_gbit), ("boxworld2", make_boxworld2.__wrapped__)]
    builders += [
        ("classical-%d" % n, lambda n=n: make_classical(n)) for n in range(1, 7)
    ]
    for label, build in builders:
        for recorded in calls.values():
            recorded.clear()
        space = build()
        assert space.label == label
        assert calls == {"vertex_enumeration": [space.h], "facet_enumeration": []}


def test_wrong_length_vertex_rejected():
    good = (F(1), F(0))
    for wrong in ((F(1),), (F(1), F(0), F(0))):
        with pytest.raises(InputError) as err:
            VRep(2, (good, wrong))
        assert str(err.value) == "vertex has wrong length"


def test_affine_dimension_examples():
    square = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    assert affine_dimension(square) == 2
    assert affine_dimension([vec(1, 2, 3)]) == 0
    with pytest.raises(InputError):
        affine_dimension([])
    # A ragged list is rejected, not truncated to its shortest point.
    with pytest.raises(InputError) as err:
        affine_dimension([vec(0, 0), vec(1)])
    assert str(err.value) == "vertex has wrong length"


def test_facets_of_square():
    v = vertex_enumeration(unit_square_h())
    h = facet_enumeration(v)
    assert len(h.inequalities) == 4
    assert len(h.equalities) == 0


def test_facets_of_point():
    v = VRep(3, [vec(1, 2, 3)])
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


def test_round_trip_drops_interior_points():
    pts = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1), vec(F(1, 2), F(1, 2)), vec(1, 1)]
    v = space_from_points(pts, "square").v
    assert v.vertices == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))


def test_square_adjacency_is_4_cycle():
    v = vertex_enumeration(unit_square_h())
    adj = vertex_adjacency(v, unit_square_h())
    assert all(len(ns) == 2 for ns in adj)
    # (0,0) neighbors (0,1) and (1,0), not the opposite corner (1,1)
    assert adj[0] == (1, 2)
    assert adjacency_edges(adj) == ((0, 1), (0, 2), (1, 3), (2, 3))


def watch_adjacency_scans(monkeypatch):
    """(calls, scans): the (p, q) pairs that ``polytope._adjacent`` is called
    on, and those on which it goes on past its count to scan the other
    members, seen as an iteration over the zero sets."""
    calls, scans = [], []

    class Watched:
        def __init__(self, zero_sets, pair):
            self.zero_sets, self.pair = zero_sets, pair

        def __getitem__(self, i):
            return self.zero_sets[i]

        def __iter__(self):
            scans.append(self.pair)
            return iter(self.zero_sets)

    def watched(zero_sets, p, q, need=0):
        calls.append((p, q))
        return _adjacent(Watched(zero_sets, (p, q)), p, q, need)

    monkeypatch.setattr(polytope, "_adjacent", watched)
    return calls, scans


def test_adjacency_tests_each_vertex_pair_once(boxworld2, monkeypatch):
    """Each unordered pair is tested once, and the count lets through every
    edge, so the scan still decides each of them."""
    calls, scans = watch_adjacency_scans(monkeypatch)
    adj = vertex_adjacency(boxworld2.v, boxworld2.h)
    n = len(boxworld2.vertices)
    pairs = {tuple(sorted(pair)) for pair in calls}
    assert n == 24 and len(calls) == len(pairs) == n * (n - 1) // 2 == 276
    assert len(set(scans)) == len(scans)
    assert set(adjacency_edges(adj)) <= set(scans)
    assert all(ns == tuple(sorted(ns)) for ns in adj)


def test_adjacency_scans_only_the_edges_of_the_9_cube(monkeypatch):
    """Two vertices of the d-cube share d - 1 active facets iff they differ in
    one coordinate, so the count leaves exactly the d * 2^(d-1) edges to the
    scan, out of the 2^(d-1) (2^d - 1) pairs."""
    d = 9
    cube = HRep.make(
        d,
        [(tuple(F(s) if j == k else F(0) for j in range(d)), F(max(s, 0)))
         for k in range(d) for s in (1, -1)],
    )
    v = VRep(d, itertools.product((F(0), F(1)), repeat=d))
    calls, scans = watch_adjacency_scans(monkeypatch)
    adj = vertex_adjacency(v, cube)
    edges = adjacency_edges(adj)
    assert len(calls) == 512 * 511 // 2
    assert len(scans) == len(edges) == 2304
    assert sorted(scans) == list(edges)
    assert all(
        sum(x != y for x, y in zip(v.vertices[i], v.vertices[j])) == 1
        for i, j in edges
    )


def test_adjacency_rejects_foreign_vertex():
    v = VRep(2, [vec(0, 0), vec(2, 2)])
    with pytest.raises(InputError):
        vertex_adjacency(v, unit_square_h())


def test_adjacency_invariant_under_affine_bijection():
    # Shear the square by an invertible rational map and compare edge sets.
    v = vertex_enumeration(unit_square_h())
    adj = vertex_adjacency(v, unit_square_h())
    mapped = [(x + 2 * y + 1, y - x) for x, y in v.vertices]
    v2 = VRep(2, mapped)
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


def random_rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))


def constraint_check_cases():
    """Seeded HReps, made and direct, with rational points inside, on and
    outside them, as (h, points).

    The constraints pass through or near a point p0: its equalities hold at
    p0, some inequalities are tight there and the rest have slack.  The
    direct HRep is given each row times a random positive rational, which
    its constructor scales back to the canonical row.
    """
    rng = random.Random(1618)
    for _ in range(150):
        dim = rng.randint(1, 5)
        p0 = tuple(random_rational(rng) for _ in range(dim))
        ineqs = []
        for _ in range(rng.randint(0, 8)):
            normal = tuple(random_rational(rng) for _ in range(dim))
            slack = rng.choice((F(0), F(0), F(rng.randint(1, 5), rng.randint(1, 3))))
            ineqs.append((normal, dot(normal, p0) + slack))
        eqs = []
        for _ in range(rng.randint(0, dim - 1)):
            normal = tuple(random_rational(rng) for _ in range(dim))
            eqs.append((normal, dot(normal, p0)))
        directions = fraction_null_space([n for n, _ in eqs], dim)
        points = [p0, tuple(random_rational(rng) for _ in range(dim))]
        for _ in range(6):
            point = list(p0)
            for direction in directions:
                t = F(rng.randint(-4, 4), rng.randint(1, 9))
                point = [x + t * y for x, y in zip(point, direction)]
            points.append(tuple(point))

        def rescaled(rows):
            return tuple(
                (tuple(c * x for x in n), c * o)
                for n, o in rows
                for c in [F(rng.randint(1, 12), rng.randint(1, 12))]
            )

        yield HRep.make(dim, ineqs, eqs), points
        yield HRep(dim, rescaled(ineqs), rescaled(eqs)), points


def test_integer_constraint_checks_match_fraction_oracle():
    inside = outside = active = 0
    for h, points in constraint_check_cases():
        for x in points:
            got = h.contains(x)
            assert got == fraction_contains(h, x), (h, x)
            tight = h.active_inequalities(x)
            assert tight == fraction_active_inequalities(h, x), (h, x)
            inside += got
            outside += not got
            active += bool(tight)
    assert inside > 300 and outside > 300 and active > 300


def test_constraint_checks_reject_a_wrong_length_point():
    for h in (unit_square_h(), HRep(2, ()), HRep(2, (), (((F(1), F(2)), F(0)),))):
        for x in (vec(1), vec(0, 0, 0), ()):
            with pytest.raises(ValueError):
                h.contains(x)
            with pytest.raises(ValueError):
                h.active_inequalities(x)


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
        yield space_from_points(pts, "random").v


def test_round_trip_on_random_vreps():
    for v in random_vreps():
        h = facet_enumeration(v)
        assert vertex_enumeration(h) == v


def rank_adjacency(v, h):
    """Oracle: i ~ j iff the constraints active at both vertices leave a
    solution space of affine dimension exactly 1 (the segment's line)."""
    d = h.ambient_dim
    eq_normals = [n for n, _ in h.equalities]
    active = [set(fraction_active_inequalities(h, x)) for x in v.vertices]
    n = len(v.vertices)
    return tuple(
        tuple(
            j
            for j in range(n)
            if j != i
            and fraction_rank(
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


def test_round_trip_matches_lp_hull_oracle():
    mismatches = [
        (dim, pts)
        for dim, pts in hull_oracle_cases()
        if space_from_points(pts, "cloud").v.vertices != lp_hull_vertices(dim, pts)
    ]
    assert mismatches == []


def test_facets_ignore_non_extreme_points():
    for dim, pts in hull_oracle_cases():
        space = space_from_points(pts, "cloud")
        assert space.h == facet_enumeration(space.v)


def polar_facet_enumeration(v):
    """Oracle: the facets as the vertices of the polar dual, taken around the
    centroid of the points in coordinates of an affinely independent subset,
    mapped back and reduced modulo the affine hull."""
    d = v.ambient_dim
    verts = list(v.vertices)
    base = verts[0]
    diffs = [vsub(p, base) for p in verts[1:]]
    hull_normals = fraction_null_space(diffs, d)
    equalities = sorted(
        fraction_canonical_equality(n, dot(n, base)) for n in hull_normals
    )
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
            fraction_canonical_inequality(
                *fraction_reduce_mod_equalities(tuple(normal), offset, equalities)
            )
        )
    return HRep(
        ambient_dim=d,
        inequalities=tuple(sorted(inequalities)),
        equalities=tuple(equalities),
    )


def fraction_reduce_mod_equalities(normal, offset, equalities):
    """Oracle for ``polytope._reduce_mod_equalities``, on ``Fraction``
    constraints: subtracts, row by row, the multiple of each equality that
    zeroes the normal at that row's first nonzero column."""
    normal = list(normal)
    for eq_normal, eq_offset in equalities:
        pivot = None
        for j, val in enumerate(eq_normal):
            if val != 0:
                pivot = j
                break
        if pivot is None:
            continue
        factor = normal[pivot] / eq_normal[pivot]
        if factor != 0:
            for j in range(len(normal)):
                normal[j] -= factor * eq_normal[j]
            offset -= factor * eq_offset
    return tuple(normal), offset


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
        return [VRep(dim, pts) for dim, pts in random_point_sets()]
    if name == "cubes":
        return [vertex_enumeration(degenerate_cube_h(dim)) for dim in (2, 3, 4)]
    if name == "spaces":
        return [gbit.v, boxworld2.v] + [make_classical(n).v for n in range(1, 7)]
    return [VRep(dim, pts) for dim, pts in flat_point_sets()]


@pytest.mark.parametrize("name", ["random", "cubes", "spaces", "flat"])
def test_facets_match_polar_dual_oracle(name, gbit, boxworld2):
    corpus = facet_oracle_corpus(name, gbit, boxworld2)
    oracle = [polar_facet_enumeration(v) for v in corpus]
    if name == "flat":
        assert all(len(h.equalities) >= 2 for h in oracle)
    assert [facet_enumeration(v) for v in corpus] == oracle


# sha256 of serialize.dumps of the hrep_to_json of every facet_enumeration
# over the four facet_oracle_corpus sets, recorded before the enumeration
# moved to integers; the flat sets exercise the equalities.
FACETS_SHA256 = "5676411189d5a87a7064b1fd0ead8f6d360c560e223404d604efbf961f6f1271"


def test_facet_enumeration_bytes_are_pinned(gbit, boxworld2):
    hreps = [
        hrep_to_json(facet_enumeration(v))
        for name in ("random", "cubes", "spaces", "flat")
        for v in facet_oracle_corpus(name, gbit, boxworld2)
    ]
    assert len(hreps) == 75
    assert hashlib.sha256(dumps(hreps).encode()).hexdigest() == FACETS_SHA256


@pytest.mark.parametrize(
    "extra",
    # x + y <= 2 holds on the square but is tight at (1, 1) alone;
    # x + y <= 1 fails at (1, 1); 0 <= 1 is tight nowhere.
    [(1, 1, 2), (1, 1, 1), (0, 0, 1)],
    ids=["valid-non-facet", "violated", "tight-nowhere"],
)
def test_facet_enumeration_rejects_a_non_facet_ray(monkeypatch, extra):
    square = VRep(2, [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)])
    dd = polytope._dd_extreme_rays
    monkeypatch.setattr(polytope, "_dd_extreme_rays", lambda rows, k: dd(rows, k) + [extra])
    with pytest.raises(InputError):
        facet_enumeration(square)


@pytest.mark.parametrize(
    "extra",
    # The sum of two vertex rays is a point on the segment between them;
    # (2, 0, 1) is the point (2, 0), which fails x <= 1.
    ["sum-of-two-rays", "violating"],
)
def test_vertex_enumeration_rejects_a_non_extreme_ray(monkeypatch, extra):
    dd = polytope._dd_extreme_rays

    def with_extra(rows, k):
        rays = dd(rows, k)
        if extra == "violating":
            return rays + [(2, 0, 1)]
        return rays + [tuple(x + y for x, y in zip(rays[0], rays[1]))]

    monkeypatch.setattr(polytope, "_dd_extreme_rays", with_extra)
    with pytest.raises(InputError) as err:
        vertex_enumeration(unit_square_h())
    assert str(err.value) == "double description produced a non-extreme point"


def fraction_dd_extreme_rays(rows, k):
    """Oracle for ``polytope._dd_extreme_rays``: the same double description
    on ``Fraction`` rows, each ray scaled by ``primitive``."""
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    basis_idx = [order[j] for j in independent_rows([rows[i] for i in order])]
    if len(basis_idx) < k:
        return None

    binv = inverse(tuple(rows[i] for i in basis_idx))
    assert binv is not None
    rays = [fraction_primitive(tuple(-binv[r][c] for r in range(k))) for c in range(k)]
    processed = list(basis_idx)
    zero_sets = []
    for ray in rays:
        zs = 0
        for pos, i in enumerate(processed):
            if dot(rows[i], ray) == 0:
                zs |= 1 << pos
        zero_sets.append(zs)

    remaining = [i for i in order if i not in set(basis_idx)]
    for i in remaining:
        m = rows[i]
        bit = 1 << len(processed)
        values = [dot(m, ray) for ray in rays]
        keep_rays, keep_zs = [], []
        plus, minus = [], []
        for idx, val in enumerate(values):
            if val > 0:
                plus.append(idx)
                continue
            keep_rays.append(rays[idx])
            keep_zs.append(zero_sets[idx] | bit if val == 0 else zero_sets[idx])
            if val < 0:
                minus.append(idx)
        for p in plus:
            for q in minus:
                if not _adjacent(zero_sets, p, q, 0):
                    continue
                combo = vsub(
                    tuple(values[p] * x for x in rays[q]),
                    tuple(values[q] * x for x in rays[p]),
                )
                keep_rays.append(fraction_primitive(combo))
                keep_zs.append(zero_sets[p] & zero_sets[q] | bit)
        rays, zero_sets = keep_rays, keep_zs
        processed.append(i)
    return rays


def homogenization_cone(h):
    """(rows, k): the Fraction cone ``vertex_enumeration`` runs double
    description on, in the coordinates of the equalities' null space."""
    d = h.ambient_dim
    n_basis = fraction_null_space([tuple(n) + (-o,) for n, o in h.equalities], d + 1)
    hom = [tuple(n) + (-o,) for n, o in h.inequalities]
    hom.append((F(0),) * d + (F(-1),))
    rows = [tuple(dot(b, row) for b in n_basis) for row in hom]
    return [r for r in rows if any(r)], len(n_basis)


def valid_inequality_cone(v):
    """(rows, k): the Fraction cone ``facet_enumeration`` runs double
    description on, read on the hull's coordinate columns."""
    base = v.vertices[0]
    _, coords = rref([vsub(p, base) for p in v.vertices[1:]])
    rows = [tuple(p[j] for j in coords) + (F(-1),) for p in v.vertices]
    return rows, len(coords) + 1


def dd_oracle_cones():
    for dim, pts in random_point_sets():
        yield "random", homogenization_cone(facet_enumeration(VRep(dim, pts)))
    for dim, pts in flat_point_sets():
        yield "flat", valid_inequality_cone(VRep(dim, pts))
    for dim in (2, 3, 4):
        yield "cube", homogenization_cone(degenerate_cube_h(dim))


def test_dd_reads_the_simplex_and_the_rank_from_one_elimination():
    """A pivot in the identity block of [M^T | I_k] means rank M < k: the
    cone holds a line, or no row constrains it at all."""
    assert polytope._dd_extreme_rays([[1, 0], [-2, 0]], 2) is None
    assert polytope._dd_extreme_rays([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 3) is None
    assert polytope._dd_extreme_rays([], 1) is None
    # Sorted, the rows -x - y and -x start the simplex, and -y cuts it.
    assert polytope._dd_extreme_rays([[0, -1], [-1, 0], [-1, -1]], 2) == [
        (0, 1), (1, 0)
    ]


def test_integer_dd_matches_fraction_oracle():
    counts = {}
    for kind, (rows, k) in dd_oracle_cones():
        ints, _ = integer_rows(rows)
        rays = polytope._dd_extreme_rays(ints, k)
        assert all(type(x) is int for ray in rays for x in ray)
        # Equal as ordered lists: the first ray with t = 0 names the
        # unbounded direction.
        assert [tuple(map(F, ray)) for ray in rays] == fraction_dd_extreme_rays(rows, k)
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == {"random": 40, "flat": 24, "cube": 3}


def test_facet_enumeration_seeds_the_integer_constraints(gbit, boxworld2):
    vreps = [VRep(dim, pts) for dim, pts in random_point_sets()]
    vreps += [gbit.v, boxworld2.v] + [make_classical(n).v for n in range(1, 7)]
    for v in vreps:
        h = facet_enumeration(v)
        rows = (h.inequalities, h.equalities)
        assert all(x.denominator == 1 for rs in rows for n, o in rs for x in (*n, o))
        assert h._integer_constraints == tuple(
            tuple((tuple(x.numerator for x in n), o.numerator) for n, o in rs)
            for rs in rows
        )
        assert h == HRep(h.ambient_dim, h.inequalities, h.equalities)
        assert repr(h) == repr(HRep(h.ambient_dim, h.inequalities, h.equalities))
