"""Exact linear algebra unit tests."""

import ast
import pathlib
import random
from fractions import Fraction as F
from math import gcd

import pytest

from gptlab.errors import InputError
from gptlab.ratgeo import linalg
from gptlab.ratgeo.linalg import (
    dot,
    format_rational,
    identity,
    independent_rows,
    integer_inverse,
    integer_null_space,
    integer_row,
    integer_rref,
    inverse,
    mat_mul,
    mat_vec,
    parse_rational,
    primitive_ints,
    primitive_signed_ints,
    rref,
    solve,
    transpose,
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


def integer_kernel(rows, ncols):
    """(pivots, null-space basis in Fractions) from the integer cores."""
    reduced, pivots = integer_rref([integer_row(r)[0] for r in rows])
    basis, scale = integer_null_space(reduced, pivots, ncols)
    return pivots, [tuple(F(x, scale) for x in v) for v in basis]


def test_rank_and_null_space():
    rows = [vec(1, 1, 0), vec(0, 0, 1)]
    pivots, basis = integer_kernel(rows, 3)
    assert len(pivots) == fraction_rank(rows) == 2
    assert basis == fraction_null_space(rows, 3)
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


def test_sparse_products_match_dense_dot_products():
    rng = random.Random(0)

    def sparse_matrix(nrows, ncols):
        return tuple(
            tuple(F(rng.choice((0, 0, 0, rng.randint(-4, 4))), rng.randint(1, 3))
                  for _ in range(ncols))
            for _ in range(nrows)
        )

    for _ in range(100):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = sparse_matrix(n, k), sparse_matrix(k, m)
        x = sparse_matrix(1, k)[0]
        assert mat_vec(a, x) == tuple(dot(row, x) for row in a)
        assert mat_mul(a, b) == tuple(
            tuple(dot(row, col) for col in transpose(b)) for row in a
        )
    with pytest.raises(ValueError):
        mat_vec((vec(1, 0),), vec(1, 0, 0))
    with pytest.raises(ValueError):
        mat_mul((vec(1, 0),), (vec(1),))


def test_affine_rank():
    square = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    assert affine_dimension(square) == 2
    assert affine_dimension([vec(5, 5)]) == 0
    assert affine_dimension([vec(0, 0), vec(1, 1), vec(2, 2)]) == 1


def fraction_primitive(v):
    """Oracle: the former ``Fraction`` ``linalg.primitive``, scaled to
    coprime integers by a positive rational."""
    ints, _ = integer_row(v)
    g = gcd(*ints)
    if g == 0:
        return tuple(F(0) for _ in v)
    return tuple(F(value // g) for value in ints)


def fraction_primitive_signed(v):
    """Oracle: the former ``linalg.primitive_signed``, ``fraction_primitive``
    with the first nonzero entry positive (for equalities)."""
    p = fraction_primitive(v)
    for x in p:
        if x != 0:
            if x < 0:
                return tuple(-y for y in p)
            break
    return p


def test_primitive_forms():
    for v, expected in (
        (vec(F(1, 2), F(1, 3)), (3, 2)),
        (vec(-2, -4), (-1, -2)),
        (vec(0, 0), (0, 0)),
    ):
        assert primitive_ints(integer_row(v)[0]) == fraction_primitive(v) == expected
    assert fraction_primitive_signed(vec(-2, -4)) == vec(1, 2)
    assert primitive_ints([-2, -4]) == (-1, -2)
    assert primitive_signed_ints([0, -2, 4]) == (0, 1, -2)
    assert primitive_ints([0, 0]) == primitive_signed_ints([0, 0]) == (0, 0)
    assert primitive_ints([]) == primitive_signed_ints([]) == ()


def greedy_independent_rows(rows):
    """Oracle: scan in order, keep a row iff it raises the rank."""
    kept = []
    for i, row in enumerate(rows):
        if fraction_rank([rows[j] for j in kept] + [row]) > len(kept):
            kept.append(i)
    return kept


def planted_dependent_rows(rng):
    """Random rational rows, some replaced by combinations of earlier ones."""
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if rows and kind < 0.4:
            row = [F(0)] * ncols
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                c = F(rng.randint(-3, 3), rng.randint(1, 4))
                row = [x + c * y for x, y in zip(row, earlier)]
            rows.append(tuple(row))
        elif kind < 0.5:
            rows.append((F(0),) * ncols)
        else:
            rows.append(
                tuple(F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(ncols))
            )
    return rows


def test_independent_rows_matches_greedy_scan():
    dependent = 0
    for seed in range(500):
        rng = random.Random(seed)
        rows = planted_dependent_rows(rng)
        kept = greedy_independent_rows(rows)
        assert independent_rows(rows) == kept, seed
        dependent += len(kept) < len(rows)
        # The same rows as ints, and with each column times its own rational:
        # neither scaling changes which rows a greedy scan keeps.
        ints = [integer_row(r)[0] for r in rows]
        assert all(type(x) is int for r in ints for x in r)
        factors = [F(rng.randint(1, 7), rng.randint(1, 7)) for _ in rows[0]]
        mixed = [tuple(x * c for x, c in zip(r, factors)) for r in rows]
        for variant in (ints, mixed):
            assert independent_rows(variant) == greedy_independent_rows(variant)
            assert independent_rows(variant) == kept, seed
    assert dependent > 250  # the planted rows are really dropped


def test_independent_rows_on_zero_rows_and_no_rows():
    zero = vec(0, 0, 0)
    assert independent_rows([zero, zero]) == []
    assert independent_rows([zero, vec(1, 2, 3), zero, vec(2, 4, 6), vec(0, 0, 1)]) == [1, 4]
    assert independent_rows([]) == greedy_independent_rows([]) == []


# ---------------------------------------------------------------------------
# The Fraction oracle for the integer elimination kernel
# ---------------------------------------------------------------------------


def fraction_rref(rows):
    """Oracle: Gauss-Jordan elimination pivoted on Fractions throughout."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = F(1) / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [row for row in work[:r]], pivots


def fraction_rank(rows):
    return len(fraction_rref(rows)[1])


def fraction_solve(a_rows, b):
    """Oracle for ``solve``: one solution, free variables zero, or None."""
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    reduced, pivots = fraction_rref(
        [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    )
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return tuple(x)


def fraction_null_space(rows, ncols):
    """Oracle for ``null_space``: 1 at each free column, minus the reduced
    entry at each pivot column."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def random_matrix(rng):
    """Seeded rational matrices with mixed denominators: planted dependent,
    zero and random rows, square or not."""
    kind = rng.random()
    if kind < 0.5:
        return planted_dependent_rows(rng)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    if kind < 0.75:
        ncols = nrows
    return [
        tuple(
            F(rng.choice((0, rng.randint(-9, 9), rng.randint(-99, 99))),
              rng.choice((1, 2, 3, 7, 12, 35)))
            for _ in range(ncols)
        )
        for _ in range(nrows)
    ]


def with_fraction_rref(monkeypatch, func, *args):
    """``func`` run with the oracle elimination in place of the kernel's."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref", fraction_rref)
        return func(*args)


def test_kernel_matches_fraction_oracle(monkeypatch):
    rng = random.Random(8128)
    deficient = singular = inconsistent = 0
    for _ in range(600):
        rows = random_matrix(rng)
        ncols = len(rows[0])
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == fraction_rref(rows), rows
        assert all(type(x) is F for row in reduced for x in row)
        assert fraction_rank(rows) == len(pivots)
        deficient += len(pivots) < min(len(rows), ncols)
        assert integer_kernel(rows, ncols) == (pivots, fraction_null_space(rows, ncols))
        basis, scale = integer_null_space(
            *integer_rref([integer_row(r)[0] for r in rows]), ncols
        )
        assert type(scale) is int and scale > 0
        assert all(type(x) is int for v in basis for x in v)
        x0 = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols))
        for b in (
            tuple(dot(row, x0) for row in rows),
            tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in rows),
        ):
            x = solve(rows, b)
            assert x == fraction_solve(rows, b), (rows, b)
            inconsistent += x is None
        if len(rows) == ncols:
            m = tuple(rows)
            m_inv = inverse(m)
            assert m_inv == with_fraction_rref(monkeypatch, inverse, m)
            if m_inv is None:
                singular += 1
            else:
                assert mat_mul(m, m_inv) == identity(ncols)
    assert deficient > 120 and singular > 30 and inconsistent > 200


def test_integer_inverse_is_the_inverse_over_its_least_denominator():
    rng = random.Random(4096)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[n // 2])]
        oracle = inverse(tuple(tuple(map(F, row)) for row in m))
        got = integer_inverse(m)
        if oracle is None:
            assert got is None
            singular += 1
            continue
        inv, den = got
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in inv for x in row)
        assert [[F(x, den) for x in row] for row in inv] == [list(r) for r in oracle]
        assert gcd(den, *(x for row in inv for x in row)) == 1
    assert singular > 50
    assert integer_inverse([]) == ([], 1)


def test_kernel_matches_fraction_oracle_on_empty_and_zero_matrices(monkeypatch):
    zero = vec(0, 0, 0)
    for rows in ([], [()], [(), ()], [zero], [zero, zero, vec(0, F(1, 3), 0)]):
        assert rref(rows) == fraction_rref(rows)
        ncols = len(rows[0]) if rows else 3
        assert integer_kernel(rows, ncols)[1] == fraction_null_space(rows, ncols)
    assert solve([], ()) == fraction_solve([], ()) == ()
    assert inverse(()) == with_fraction_rref(monkeypatch, inverse, ()) == ()
    assert inverse((zero, zero, zero)) is None


RATIONAL_ROUTINES = {"rref", "solve", "inverse", "mat_mul", "transpose"}


def rational_routine_uses(node):
    """The rational routines that one AST node imports from gptlab or reads
    off a name ``linalg``."""
    if isinstance(node, ast.ImportFrom) and (
        node.level or (node.module or "").startswith("gptlab")
    ):
        return {alias.name for alias in node.names} & RATIONAL_ROUTINES
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "linalg" and node.attr in RATIONAL_ROUTINES:
            return {node.attr}
    return set()


def test_no_module_but_linalg_uses_the_rational_routines():
    """Product code runs on the integer cores: ``rref``, ``solve``,
    ``inverse``, ``mat_mul`` and ``transpose`` are used only inside
    ``linalg`` (and by the tests and the benchmark tracer)."""
    linalg_path = pathlib.Path(linalg.__file__)
    modules = sorted(linalg_path.parents[1].rglob("*.py"))
    assert {"spaces.py", "symmetry.py", "polytope.py"} <= {p.name for p in modules}
    uses = [
        (path.name, node.lineno, name)
        for path in modules
        if path != linalg_path
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in sorted(rational_routine_uses(node))
    ]
    assert uses == []
    # The scan sees both forms of use, and not numpy's.
    for source, expected in (
        ("from .ratgeo.linalg import inverse, vec", {"inverse"}),
        ("from gptlab.ratgeo import rref", {"rref"}),
        ("linalg.mat_mul(a, b)", {"mat_mul"}),
        ("from numpy.linalg import solve; np.linalg.solve(a, b)", set()),
    ):
        found = set().union(*map(rational_routine_uses, ast.walk(ast.parse(source))))
        assert found == expected, source
