"""State spaces, effects, measurements, transformations, decompositions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.errors import InputError, UnsupportedError
from gptlab.spaces import (
    MAX_CLASSICAL_OUTCOMES,
    AffineMap,
    Decomposition,
    Effect,
    Measurement,
    decompose_state,
    effect_range,
    from_hrep,
    make_ball3,
    make_classical,
    make_gbit,
    validate_effect,
)
from gptlab.ratgeo import (
    VRep,
    affine_dimension,
    facet_enumeration,
    vertex_adjacency,
)
from gptlab.ratgeo.linalg import (
    ONE,
    solve,
    vadd,
    vsub,
)
from gptlab.symmetry import affine_automorphisms
from helpers import apply, compose, fraction_affine_inverse, identity_map, vec
from test_linalg import fraction_rank


def space_from_points(points, label):
    """The polytopal space spanned by a nonempty point list, built from its
    H-representation: facet enumeration of the points, then double
    description back to the extreme ones, each re-verified."""
    pts = [tuple(p) for p in points]
    return from_hrep(facet_enumeration(VRep(len(pts[0]), pts)), label)


def mixture(weight: F, a, b):
    """weight * a + (1 - weight) * b."""
    if not 0 <= weight <= 1:
        raise InputError("mixture weight must lie in [0, 1]")
    return vadd(
        tuple(weight * x for x in a), tuple((ONE - weight) * x for x in b)
    )


def test_gbit_vertices(gbit):
    assert gbit.vertices == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))
    assert gbit.dim == 2


def test_classical_spaces():
    assert make_classical(2).vertices == (vec(0, 1), vec(1, 0))
    assert len(make_classical(4).vertices) == 4
    assert make_classical(1).vertices == (vec(1),)
    with pytest.raises(InputError):
        make_classical(0)
    with pytest.raises(InputError, match="limited to %d " % MAX_CLASSICAL_OUTCOMES):
        make_classical(MAX_CLASSICAL_OUTCOMES + 1)


def test_gbit_membership(gbit):
    assert gbit.contains(vec(F(1, 2), F(1, 3)))
    assert not gbit.contains(vec(2, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_mixture_closure(p0, p1, q0, q1, lam):
    # Convex combinations of states are states.
    space = make_gbit()
    mixed = mixture(lam, (p0, p1), (q0, q1))
    assert space.contains(mixed)


def test_effect_examples(gbit):
    first_coord = Effect(linear=vec(1, 0), constant=F(0))
    too_big = Effect(linear=vec(1, 1), constant=F(0))
    trivial = Effect(linear=vec(0, 0), constant=F(1, 2))
    assert validate_effect(first_coord, gbit)
    assert not validate_effect(too_big, gbit)  # reaches 2 at (1,1)
    assert validate_effect(trivial, gbit)
    assert effect_range(too_big, gbit) == (F(0), F(2))


def test_effect_dimension_mismatch(gbit):
    with pytest.raises(InputError):
        validate_effect(Effect(linear=vec(1, 0, 0), constant=F(0)), gbit)


def test_effects_unsupported_on_ball():
    with pytest.raises(UnsupportedError):
        validate_effect(Effect(linear=vec(1, 0, 0), constant=F(0)), make_ball3())


def test_measurement_normalization(gbit):
    e = Effect(linear=vec(1, 0), constant=F(0))
    m = Measurement(effects=(e, Effect(linear=vec(-1, 0), constant=F(1))))
    assert all(validate_effect(e, gbit) for e in m.effects)
    for omega in gbit.vertices + (vec(F(1, 3), F(2, 5)),):
        probs = m.outcome_probabilities(omega)
        assert all(p >= 0 for p in probs)
        assert sum(probs) == 1


def test_measurement_must_sum_to_unit():
    e = Effect(linear=vec(1, 0), constant=F(0))
    with pytest.raises(InputError):
        Measurement(effects=(e, e))


def unit_effect(dim):
    return Effect(linear=(F(0),) * dim, constant=F(1))


def test_unit_effect_measurement():
    m = Measurement(effects=(unit_effect(2),))
    assert m.outcome_probabilities(vec(F(1, 2), F(1, 2))) == (F(1),)


def rotation90():
    # 90-degree rotation about the square's center: (x, y) -> (1 - y, x).
    return AffineMap(matrix=(vec(0, -1), vec(1, 0)), shift=vec(1, 0))


def is_gbit_symmetry(t, gbit):
    """``t`` is in the group that ``gptlab symmetries`` prints for the gbit."""
    return t in affine_automorphisms(gbit).elements


def moves_the_vertex_set(t, space):
    return sorted(apply(t, v) for v in space.vertices) != sorted(space.vertices)


def test_quarter_turn_is_a_gbit_symmetry_and_a_shear_is_not(gbit):
    """The group that ``gptlab symmetries`` prints holds the square's quarter
    turn about its centre, (x, y) -> (1 - y, x), and the identity.  A shear
    and a singular collapse move the vertex set, so they are not in it."""
    elements = affine_automorphisms(gbit).elements
    assert rotation90() in elements and identity_map(2) in elements
    shear = AffineMap(matrix=(vec(1, 1), vec(0, 1)), shift=vec(-1, 0))
    collapse = AffineMap(matrix=(vec(1, 0), vec(1, 0)), shift=vec(0, 0))
    for t in (shear, collapse):
        assert t not in elements
        assert moves_the_vertex_set(t, gbit)


def test_rotation_is_reversible(gbit):
    assert is_gbit_symmetry(rotation90(), gbit)
    assert not moves_the_vertex_set(rotation90(), gbit)


def test_shear_is_not_reversible(gbit):
    shear = AffineMap(matrix=(vec(1, 1), vec(0, 1)), shift=vec(-1, 0))
    assert not is_gbit_symmetry(shear, gbit)
    assert moves_the_vertex_set(shear, gbit)


def test_identity_is_reversible(gbit):
    assert is_gbit_symmetry(identity_map(2), gbit)


def test_singular_map_is_not_reversible(gbit):
    collapse = AffineMap(matrix=(vec(1, 0), vec(1, 0)), shift=vec(0, 0))
    assert not is_gbit_symmetry(collapse, gbit)
    assert moves_the_vertex_set(collapse, gbit)
    assert fraction_affine_inverse(collapse) is None


def test_affine_map_compose_inverse(gbit):
    """The quarter turn's inverse is in the gbit group and undoes it."""
    r = rotation90()
    rinv = fraction_affine_inverse(r)
    assert is_gbit_symmetry(rinv, gbit)
    assert compose(r, rinv) == identity_map(2)
    assert compose(rinv, r) == identity_map(2)


def test_center_has_both_diagonal_decompositions(gbit):
    decs = decompose_state(vec(F(1, 2), F(1, 2)), gbit)
    assert decs == (
        Decomposition(support=(0, 3), weights=(F(1, 2), F(1, 2))),
        Decomposition(support=(1, 2), weights=(F(1, 2), F(1, 2))),
    )


def test_vertex_decomposes_to_itself(gbit):
    decs = decompose_state(vec(1, 1), gbit)
    assert decs == (Decomposition(support=(3,), weights=(F(1),)),)


def test_simplex_decomposition_is_unique():
    s4 = make_classical(4)
    interior = vec(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    assert len(decompose_state(interior, s4)) == 1
    face_point = vec(F(1, 2), F(1, 2), 0, 0)
    assert len(decompose_state(face_point, s4)) == 1


def test_decompose_rejects_outside_point(gbit):
    with pytest.raises(InputError):
        decompose_state(vec(2, 0), gbit)


def test_generic_square_point_has_multiple_decompositions(gbit):
    rng = random.Random(5)
    for _ in range(10):
        s = vec(F(rng.randrange(1, 8), 8), F(rng.randrange(1, 8), 8))
        decs = decompose_state(s, gbit)
        assert len(decs) >= 1
        for dec in decs:
            total = sum(dec.weights)
            assert total == 1
            recombined = (
                sum(w * gbit.vertices[i][0] for i, w in zip(dec.support, dec.weights)),
                sum(w * gbit.vertices[i][1] for i, w in zip(dec.support, dec.weights)),
            )
            assert recombined == s
        if all(c not in (0, 1) for c in s):
            # interior points of a non-simplex admit several decompositions
            assert len(decs) >= 2


def subset_decompositions(s, space):
    """Oracle: the former search over affinely independent vertex subsets.

    A subset whose affine hull holds s is a leaf (its supersets are not
    minimal); it yields a decomposition when all its barycentric
    coordinates are positive.
    """
    lifted = [v + (F(1),) for v in space.vertices]
    target = tuple(s) + (F(1),)
    found = []

    def extend(start, chosen):
        if chosen:
            rows = tuple(tuple(lifted[i][r] for i in chosen) for r in range(len(target)))
            coeffs = solve(rows, target)
            if coeffs is not None:
                if all(c > 0 for c in coeffs):
                    found.append(Decomposition(support=tuple(chosen), weights=coeffs))
                return
        for i in range(start, len(lifted)):
            candidate = chosen + [i]
            diffs = [vsub(lifted[j], lifted[candidate[0]]) for j in candidate[1:]]
            if fraction_rank(diffs) == len(candidate) - 1:
                extend(i + 1, candidate)

    extend(0, [])
    return tuple(sorted(found, key=lambda dec: dec.support))


def convex_combination(space, chosen, w):
    """sum_i w_i v_chosen[i] / sum(w), for positive integer weights w."""
    return tuple(
        sum((F(wi, sum(w)) * space.vertices[c][k] for wi, c in zip(w, chosen)), F(0))
        for k in range(space.dim)
    )


def seeded_mixtures(rng, space, count):
    """count rational mixtures of seeded sets of distinct vertices."""
    n = len(space.vertices)
    for _ in range(count):
        chosen = rng.sample(range(n), rng.randrange(1, n + 1))
        yield convex_combination(space, chosen, [rng.randrange(1, 6) for _ in chosen])


def random_polytopes(seed, dim, count):
    rng = random.Random(seed)
    for _ in range(count):
        pts = [
            tuple(F(rng.randrange(-4, 5)) for _ in range(dim))
            for _ in range(rng.randrange(dim + 1, dim + 6))
        ]
        yield space_from_points(pts, "random-%d" % dim)


def oracle_cases():
    rng = random.Random(4242)
    spaces = [make_gbit()] + [make_classical(n) for n in range(1, 9)]
    spaces += list(random_polytopes(77, 2, 10)) + list(random_polytopes(78, 3, 10))
    for space in spaces:
        verts = space.vertices
        centroid = tuple(sum(col, F(0)) / len(verts) for col in zip(*verts))
        yield space, centroid
        for s in seeded_mixtures(rng, space, 4):
            yield space, s


def test_decompositions_match_subset_search_oracle():
    mismatches = [
        (space.label, s)
        for space, s in oracle_cases()
        if decompose_state(s, space) != subset_decompositions(s, space)
    ]
    assert mismatches == []


def assert_valid_decomposition(dec, s, space):
    verts = [space.vertices[i] for i in dec.support]
    assert all(w > 0 for w in dec.weights)
    assert sum(dec.weights) == 1
    assert tuple(
        sum((w * v[k] for w, v in zip(dec.weights, verts)), F(0))
        for k in range(space.dim)
    ) == s
    assert affine_dimension(verts) == len(verts) - 1


@pytest.mark.parametrize("size", [2, 3])
def test_boxworld_mixture_decompositions_are_valid(boxworld2, size):
    rng = random.Random(size)
    for _ in range(3):
        chosen = rng.sample(range(len(boxworld2.vertices)), size)
        w = [rng.randrange(1, 6) for _ in chosen]
        s = convex_combination(boxworld2, chosen, w)
        decs = decompose_state(s, boxworld2)
        for dec in decs:
            assert_valid_decomposition(dec, s, boxworld2)
        # Distinct vertices are affinely independent in threes, so the
        # generating mixture is itself one of the decompositions.
        ordered = sorted(zip(chosen, w))
        generating = Decomposition(
            support=tuple(c for c, _ in ordered),
            weights=tuple(F(wi, sum(w)) for _, wi in ordered),
        )
        assert generating in decs


def edge_cases(boxworld2):
    rng = random.Random(99)
    spaces = [make_gbit(), make_classical(3)] + list(random_polytopes(79, 3, 4))
    for space in spaces:
        adj = vertex_adjacency(space.v, space.h)
        for i, ns in enumerate(adj):
            for j in ns:
                if i < j:
                    yield space, i, j
    adj = vertex_adjacency(boxworld2.v, boxworld2.h)
    edges = [(i, j) for i, ns in enumerate(adj) for j in ns if i < j]
    for i, j in rng.sample(edges, 4):
        yield boxworld2, i, j


def test_edge_midpoint_has_one_decomposition(boxworld2):
    for space, i, j in edge_cases(boxworld2):
        s = mixture(F(1, 2), space.vertices[i], space.vertices[j])
        assert decompose_state(s, space) == (
            Decomposition(support=(i, j), weights=(F(1, 2), F(1, 2))),
        ), (space.label, i, j)
