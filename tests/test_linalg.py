"""Exact linear algebra unit tests."""

from fractions import Fraction as F

import pytest

from gptlab.errors import InputError
from gptlab.ratgeo.linalg import (
    dot,
    format_rational,
    inverse,
    mat_mul,
    null_space,
    parse_rational,
    primitive,
    primitive_signed,
    rank,
    rref,
    solve,
    vec,
)
from gptlab.ratgeo.polytope import affine_dimension


def test_parse_and_format_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 10/-5 ") == F(-2)
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(4)) == "4/1"
    assert format_rational(F(-3, 9)) == "-1/3"


def test_parse_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.5")


@pytest.mark.parametrize("text", ["1/0", "-3/0", "x", "3/", ""])
def test_parse_rejects_malformed_with_input_error(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(vec(1, 2), vec(1, 2, 3))


def test_rref_canonical():
    rows = [vec(2, 4, 6), vec(1, 2, 3), vec(0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced == [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]


def test_rank_and_null_space():
    rows = [vec(1, 1, 0), vec(0, 0, 1)]
    assert rank(rows) == 2
    basis = null_space(rows, 3)
    assert len(basis) == 1
    (v,) = basis
    assert dot(rows[0], v) == 0 and dot(rows[1], v) == 0


def test_solve_unique_and_inconsistent():
    a = [vec(1, 1), vec(1, -1)]
    assert solve(a, vec(3, 1)) == (F(2), F(1))
    assert solve([vec(1, 1), vec(2, 2)], vec(1, 3)) is None


def test_inverse_round_trip():
    m = (vec(2, 1), vec(1, 1))
    minv = inverse(m)
    assert mat_mul(m, minv) == (vec(1, 0), vec(0, 1))
    assert inverse((vec(1, 2), vec(2, 4))) is None


def test_affine_rank():
    square = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    assert affine_dimension(square) == 2
    assert affine_dimension([vec(5, 5)]) == 0
    assert affine_dimension([vec(0, 0), vec(1, 1), vec(2, 2)]) == 1


def test_primitive_forms():
    assert primitive(vec(F(1, 2), F(1, 3))) == vec(3, 2)
    assert primitive(vec(-2, -4)) == vec(-1, -2)
    assert primitive_signed(vec(-2, -4)) == vec(1, 2)
    assert primitive(vec(0, 0)) == vec(0, 0)
