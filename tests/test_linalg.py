"""Exact linear algebra unit tests."""

import ast
import pathlib
import random
import sys
from fractions import Fraction as F
from math import gcd

import pytest

import gptlab
from gptlab import ratgeo
from gptlab.errors import InputError
from gptlab.ratgeo import linalg
from gptlab.ratgeo.linalg import (
    dot,
    format_rational,
    independent_rows,
    integer_inverse,
    integer_null_space,
    integer_pivots,
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
)
from gptlab.boxworld import build_ns_hrep
from gptlab.ratgeo.polytope import affine_dimension, vertex_enumeration
from helpers import identity_matrix, vec


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


# Integers written as text, so that building them needs no int-to-string
# conversion: 10**5000 + 7, and ones at either side of the default limit of
# 4300 digits and of the lowest limit, 640.
LONG_INTEGER_TEXTS = ["1" + "0" * 4999 + "7"] + [
    "9" * n for n in (639, 640, 641, 4300, 4301, 10_000)
]


@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_rationals_of_any_length_under_any_int_limit(limit):
    """Within ``RATIONAL_DIGIT_LIMIT`` digits a rational parses and prints
    whatever the interpreter's int-to-string limit, which stays as it was."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for text in LONG_INTEGER_TEXTS:
            for num, den in ((text, "1"), ("-" + text, "1"), ("1", text)):
                value = parse_rational("%s/%s" % (num, den))
                assert format_rational(value) == "%s/%s" % (num, den)
        assert parse_rational("1_" + "2" * 700) == parse_rational("1" + "2" * 700)
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1/" + "7" * 10_001,
            "rational too long: a numerator or denominator of 10001 digits, "
            "over the limit of 10000",
        ),
        (
            "-" + "7" * 12_000,
            "rational too long: a numerator or denominator of 12000 digits, "
            "over the limit of 10000",
        ),
        (
            "7" * 700 + "x",
            "malformed rational %r: not a decimal integer of 701 characters"
            % ("7" * 700 + "x"),
        ),
    ],
)
def test_long_rationals_are_rejected_with_a_pinned_message(text, message):
    with pytest.raises(InputError) as err:
        parse_rational(text)
    assert str(err.value) == message


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
        ints = [integer_row(r)[0] for r in rows]
        assert integer_pivots(ints) == pivots
        basis, scale = integer_null_space(*integer_rref(ints), ncols)
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
                assert mat_mul(m, m_inv) == identity_matrix(ncols)
    assert deficient > 120 and singular > 30 and inconsistent > 200


def sixteen_column_rows(rng):
    """Seeded int rows of 16 columns, the width of the no-signalling
    polytope's normals: sparse and dense rows, zero rows, duplicates and
    combinations of earlier rows."""
    rows = []
    for _ in range(rng.randint(1, 20)):
        kind = rng.random()
        if rows and kind < 0.25:
            row = [0] * 16
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                c = rng.randint(-3, 3)
                row = [x + c * y for x, y in zip(row, earlier)]
        elif rows and kind < 0.4:
            row = list(rng.choice(rows))
        elif kind < 0.5:
            row = [0] * 16
        else:
            row = [rng.choice((0, 0, rng.randint(-1, 1), rng.randint(-99, 99)))
                   for _ in range(16)]
        rows.append(row)
    return rows


def test_integer_pivots_match_the_reduced_form():
    """The forward elimination finds the pivots of the reduced form on zero,
    duplicate and rank-deficient rows, and on the 16-column rows that the
    vertex re-check reads: the no-signalling polytope's active normals."""
    rng = random.Random(1968)
    deficient = 0
    for _ in range(400):
        rows = sixteen_column_rows(rng)
        pivots = integer_pivots(rows)
        assert pivots == integer_rref(rows)[1], rows
        assert len(pivots) == fraction_rank([tuple(map(F, r)) for r in rows])
        deficient += len(pivots) < min(len(rows), 16)
    assert deficient > 150
    h = build_ns_hrep()
    normals = [n for n, _ in h._integer_constraints[0]]
    equalities = [n for n, _ in h._integer_constraints[1]]
    for x in vertex_enumeration(h).vertices:
        active = [normals[i] for i in h.active_inequalities(x)] + equalities
        assert integer_pivots(active) == integer_rref(active)[1]
        assert len(integer_pivots(active)) == 16
    zero = [0, 0, 0]
    for rows in ([], [[]], [zero, zero], [[0, 2, 4], [0, 1, 2], zero, [0, 0, 5]]):
        assert integer_pivots(rows) == integer_rref(rows)[1]
    assert integer_pivots([[0, 2, 4], [0, 1, 2], zero, [0, 0, 5]]) == [1, 2]


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
        ints = [integer_row(r)[0] for r in rows]
        assert integer_pivots(ints) == integer_rref(ints)[1] == rref(rows)[1]
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
        ("from .ratgeo.linalg import inverse, dot", {"inverse"}),
        ("from gptlab.ratgeo import rref", {"rref"}),
        ("linalg.mat_mul(a, b)", {"mat_mul"}),
        ("from numpy.linalg import solve; np.linalg.solve(a, b)", set()),
    ):
        found = set().union(*map(rational_routine_uses, ast.walk(ast.parse(source))))
        assert found == expected, source


def public_functions(tree):
    """The public functions a module defines, as (class, name) pairs: its
    top-level ones with class None, and the methods of its top-level
    classes."""
    return {
        (top.name if isinstance(top, ast.ClassDef) else None, node.name)
        for top in tree.body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def subclasses(tree):
    """The top-level classes of a module that have a base class."""
    return {
        top.name for top in tree.body if isinstance(top, ast.ClassDef) and top.bases
    }


def names_read(tree):
    """Every name a module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def attributes_read(tree):
    """Every name a module reads as an attribute (``x.name``)."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def assigned_literal(tree, target):
    """The literal value a module assigns to the top-level name ``target``,
    or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def uncalled_public_functions(package_sources, user_sources, layers=()):
    """The public functions defined in ``package_sources`` that nothing
    calls, as "name" or "Class.name".

    A function counts as called if some source reads it by name, or if
    ``layers`` (the tracer's ``LAYERS``) wraps it.  A method counts as
    called if some source reads it as an attribute, or if its class has a
    base class (which may call it).  Being named in an ``__all__`` or
    re-exported by import is no read.
    """
    package = [ast.parse(source) for source in package_sources]
    callers = package + [ast.parse(source) for source in user_sources]
    known = {name for _, name, _ in layers}
    attributes = set()
    for tree in callers:
        known |= names_read(tree)
        attributes |= attributes_read(tree)
    exempt = set().union(*map(subclasses, package))
    uncalled = []
    for cls, name in set().union(*map(public_functions, package)):
        if cls is None and name not in known:
            uncalled.append(name)
        elif cls is not None and cls not in exempt and name not in attributes:
            uncalled.append(cls + "." + name)
    return sorted(uncalled)


def imported_names(tree):
    """The names a module binds by import at its top level.  ``from
    __future__`` imports bind no name that the module reads, so they are
    left out."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }


def unread_imports(source):
    """The names a module imports at its top level and neither reads nor
    lists in its ``__all__``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(assigned_literal(tree, "__all__") or ())
    return sorted(imported_names(tree) - read)


def test_every_module_level_import_in_src_is_read():
    """A name imported at a module's top level in ``src/`` is read there or
    exported through its ``__all__``, so a deletion leaves no stale import
    behind."""
    package_dir = pathlib.Path(linalg.__file__).parents[1]
    unread = {
        path.relative_to(package_dir).as_posix(): names
        for path in sorted(package_dir.rglob("*.py"))
        if (names := unread_imports(path.read_text()))
    }
    assert unread == {}
    # The scan sees both import forms, dotted and aliased names, reads in
    # annotations and attribute chains, and the ``__all__`` exemption.
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, json as j\n"
        "from .m import a, b as c, d, e\n"
        "__all__ = ['d']\n"
        "def f(x: a) -> None:\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == ["c", "e", "j"]


@pytest.mark.parametrize("package", [gptlab, ratgeo], ids=["gptlab", "ratgeo"])
def test_package_all_is_exactly_what_the_package_imports(package):
    """A package's ``__all__`` lists each name its ``__init__`` binds by
    import, once, and nothing else, so a deletion leaves no stale
    re-export behind; every entry resolves."""
    tree = ast.parse(pathlib.Path(package.__file__).read_text())
    exported = assigned_literal(tree, "__all__")
    assert len(exported) == len(set(exported))
    assert set(exported) == imported_names(tree)
    namespace = {}
    exec("from %s import *" % package.__name__, namespace)
    assert set(exported) <= namespace.keys()


def test_every_public_function_in_src_has_a_caller():
    """Code that only the tests call lives in the tests: every public
    function in ``src/`` is read by name in ``src/`` or ``perfbench/``, or
    wrapped by the tracer's ``LAYERS``, and every public method is read as
    an attribute there unless its class has a base class.  A package
    ``__all__`` is no caller: the README documents the CLI, not a Python
    API.  One exemption stands: ``spaces.validate_effect``, the only reader
    of ``effect_range``, which is why ``spaces`` binds ``solve_lp``; the
    benchmark's own tests assert that the tracer wraps that binding, so
    these go with the next change to the benchmark."""
    package_dir = pathlib.Path(linalg.__file__).parents[1]
    perfbench_dir = package_dir.parents[1] / "perfbench"
    package = [p.read_text() for p in sorted(package_dir.rglob("*.py"))]
    users = [p.read_text() for p in sorted(perfbench_dir.glob("*.py"))]
    assert len(package) >= 10 and len(users) >= 4
    layers = assigned_literal(
        ast.parse((perfbench_dir / "tracing.py").read_text()), "LAYERS"
    )
    assert layers and all(len(layer) == 3 for layer in layers)
    assert uncalled_public_functions(package, users, layers) == ["validate_effect"]
    # The scan sees functions and methods, and each kind of caller.  A
    # method read only as a bare name is not called, and neither is a name
    # that only an ``__all__`` lists.
    source = (
        "__all__ = ['exported', 'Exported']\n"
        "def exported(): pass\n"
        "def traced(): pass\n"
        "def unused(): return _private()\n"
        "def _private(): return used_here()\n"
        "def used_here(): return bare\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def attribute(self): pass\n"
        "    def bare(self): pass\n"
        "    def __repr__(self): return ''\n"
        "class Exported:\n"
        "    def api(self): pass\n"
        "class Sub(C):\n"
        "    def hook(self): pass\n"
    )
    assert uncalled_public_functions([source], [], [("m", "traced", "s")]) == [
        "C.attribute",
        "C.bare",
        "C.method",
        "Exported.api",
        "exported",
        "unused",
    ]
    assert uncalled_public_functions(
        [source], ["x.attribute()", "x.api()", "exported()", "unused"],
        [("m", "traced", "s")],
    ) == ["C.bare", "C.method"]
