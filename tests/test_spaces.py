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
    is_reversible_transformation,
    make_ball3,
    make_classical,
    make_gbit,
    mixture,
    unit_effect,
    validate_effect,
    validate_measurement,
)
from gptlab.ratgeo.linalg import vec


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
    assert validate_measurement(m, gbit)
    for omega in gbit.vertices + (vec(F(1, 3), F(2, 5)),):
        probs = m.outcome_probabilities(omega)
        assert all(p >= 0 for p in probs)
        assert sum(probs) == 1


def test_measurement_must_sum_to_unit():
    e = Effect(linear=vec(1, 0), constant=F(0))
    with pytest.raises(InputError):
        Measurement(effects=(e, e))


def test_unit_effect_measurement():
    m = Measurement(effects=(unit_effect(2),))
    assert m.outcome_probabilities(vec(F(1, 2), F(1, 2))) == (F(1),)


def rotation90(gbit_center=F(1, 2)):
    # 90-degree rotation about the square's center: (x, y) -> (1 - y, x).
    return AffineMap(matrix=(vec(0, -1), vec(1, 0)), shift=vec(1, 0))


def test_rotation_is_reversible(gbit):
    assert is_reversible_transformation(rotation90(), gbit)


def test_shear_is_not_reversible(gbit):
    shear = AffineMap(matrix=(vec(1, 1), vec(0, 1)), shift=vec(-1, 0))
    assert not is_reversible_transformation(shear, gbit)


def test_identity_is_reversible(gbit):
    assert is_reversible_transformation(AffineMap.identity(2), gbit)


def test_singular_map_is_not_reversible(gbit):
    collapse = AffineMap(matrix=(vec(1, 0), vec(1, 0)), shift=vec(0, 0))
    assert not is_reversible_transformation(collapse, gbit)
    assert collapse.inverse() is None


def test_affine_map_compose_inverse(gbit):
    r = rotation90()
    rinv = r.inverse()
    assert r.compose(rinv) == AffineMap.identity(2)
    assert rinv.compose(r) == AffineMap.identity(2)


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
