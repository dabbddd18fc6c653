"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of such
row tuples.  Every reduction scales each row to Python integers by the lcm
of its denominators (``integer_row``, ``integer_rows``) and eliminates
fraction-free in ``integer_rref`` (each updated row is divided by the gcd of
its entries, in the spirit of Bareiss, 1968), so every result is exact and
deterministic.  Product code calls the integer cores ``integer_rref``,
``integer_pivots`` (the same pivots by forward elimination alone, for a
rank), ``integer_null_space``, ``integer_inverse``, ``primitive_ints`` and
``primitive_signed_ints`` and builds ``Fraction``s only at its API.
``rref``, ``solve``, ``inverse``, ``mat_mul`` and ``transpose`` give the
same answers in ``Fraction``s, and no product code calls them.  The first
four stay while ``perfbench/tracing.py`` patches them by name;
``transpose`` stays because ``mat_mul`` calls it.
The sizes handled here are small (ambient dimension at most 64, the largest
built-in space; a weight polytope has one coordinate per vertex), so no
effort is spent on pivoting for speed.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from ..errors import InputError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def integer_row(values) -> tuple[list[int], int]:
    """(ints, scale) with ``ints[i] == values[i] * scale``, scale the lcm of
    the denominators.  Each value's numerator and denominator are read once;
    a float has neither, and raises."""
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    scale = lcm(*dens)
    if scale == 1:
        return nums, 1
    return [n * (scale // d) for n, d in zip(nums, dens)], scale


def integer_rows(rows) -> tuple[list[list[int]], int]:
    """(ints, scale): every row times one scale, the lcm of all denominators.

    One positive scale for all rows keeps their lexicographic order.
    """
    nums = [[x.numerator for x in row] for row in rows]
    dens = [[x.denominator for x in row] for row in rows]
    scale = lcm(*(d for row in dens for d in row))
    if scale == 1:
        return nums, 1
    return [
        [n * (scale // d) for n, d in zip(ns, ds)] for ns, ds in zip(nums, dens)
    ], scale


# Decimal text of at most this many digits converts to and from ``int``
# under any int-to-string limit that CPython accepts (``sys.int_info``'s
# ``str_digits_check_threshold``; 4300 by default, set by the environment
# variable PYTHONINTMAXSTRDIGITS).  ``decimal`` converts longer integers,
# since its conversions have no such limit, so that no answer depends on
# that process-wide setting.
_SAFE_DIGITS = 640
_SAFE_BOUND = 10**_SAFE_DIGITS

# The most digits that ``parse_rational`` reads in a numerator or denominator.
RATIONAL_DIGIT_LIMIT = 10_000

_DECIMAL = re.compile(r"[+-]?[0-9]+(?:_[0-9]+)*")


def _digit_count(text: str) -> int:
    """The digits of an integer text: its length less spaces, sign and
    underscores."""
    text = text.strip()
    return len(text) - text.count("_") - (text[:1] in ("+", "-"))


def _check_digit_limit(*texts: str):
    digits = max(map(_digit_count, texts))
    if digits > RATIONAL_DIGIT_LIMIT:
        raise InputError(
            "rational too long: a numerator or denominator of %d digits, "
            "over the limit of %d" % (digits, RATIONAL_DIGIT_LIMIT)
        )


def parse_integer(text: str) -> int:
    """``int(text)`` for a text of at most ``RATIONAL_DIGIT_LIMIT`` digits,
    under any int-to-string limit: how a rational's parts and every integer
    of a JSON input file are read.

    The text must be an ASCII decimal integer at every length, optionally
    signed, with single underscores between digits: what ``int`` reads in
    base 10, less non-ASCII digits.  ``int`` reads a text of at most
    ``_SAFE_DIGITS`` characters, with its own messages; ``decimal`` converts
    a longer one.
    """
    _check_digit_limit(text)
    text = text.strip()
    if not text.isascii():
        raise ValueError("not an ASCII decimal integer")
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    if not _DECIMAL.fullmatch(text):
        raise ValueError("not a decimal integer of %d characters" % len(text))
    return int(Decimal(text))


def parse_rational(text: str) -> Fraction:
    """Parse 'n/d' or plain integer strings; floats are rejected.

    Each of n and d may have up to ``RATIONAL_DIGIT_LIMIT`` digits, whatever
    the interpreter's int-to-string limit.
    """
    text = text.strip()
    num, den = text.split("/", 1) if "/" in text else (text, "1")
    _check_digit_limit(num, den)
    try:
        num, den = parse_integer(num), parse_integer(den)
    except ValueError as err:
        raise InputError("malformed rational %r: %s" % (text, err)) from None
    if den == 0:
        raise InputError("rational %r has a zero denominator" % text)
    return Fraction(num, den)


def format_integer(n: int) -> str:
    """``"%d" % n`` under any int-to-string limit, through ``decimal``."""
    return str(Decimal(n))


def format_rational(value: Fraction) -> str:
    """Serialize as 'n/d', always including the denominator, at any length;
    ``decimal`` writes a part of over ``_SAFE_DIGITS`` digits."""
    num, den = value.numerator, value.denominator
    if -_SAFE_BOUND < num < _SAFE_BOUND and den < _SAFE_BOUND:
        return "%d/%d" % (num, den)
    return format_integer(num) + "/" + format_integer(den)


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch: %d vs %d" % (len(a), len(b)))
    return sum((x * y for x, y in zip(a, b)), ZERO)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def zeros(n: int) -> Vector:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def mat_vec(m: Matrix, x: Vector) -> Vector:
    """m x, summed over the nonzero entries of x only (vertices are sparse)."""
    if any(len(row) != len(x) for row in m):
        raise ValueError("dimension mismatch: matrix rows vs %d" % len(x))
    support = [(j, v) for j, v in enumerate(x) if v]
    return tuple(sum((row[j] * v for j, v in support), ZERO) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(mat_vec(bt, row) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivots are chosen
    left to right, first nonzero entry in column order, which makes the
    output canonical for a given row span.  Each row is scaled to integers
    and reduced by ``integer_rref``; the pivot rows are divided by their
    pivots only on return.  Scaling a row by a nonzero number changes neither
    which entries are zero nor the row span, so the pivots and the result
    are those of elimination over the rationals.
    """
    work, pivots = integer_rref([integer_row(r)[0] for r in rows])
    return [
        [Fraction(x, row[c]) if x else ZERO for x in row]
        for row, c in zip(work, pivots)
    ], pivots


def integer_rref(rows) -> tuple[list, list[int]]:
    """Fraction-free reduced row echelon form of integer rows.

    Returns (nonzero rows, pivot column indices), pivots as in ``rref``.
    Each returned row is a nonzero integer multiple of the matching row of
    the rational reduced form: zero in every other row's pivot column.  Each
    updated row is divided by the gcd of its entries, in the spirit of
    Bareiss (1968), so the entries stay small.
    """
    work = list(rows)
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(len(work)):
            a = work[i][c]
            if i != r and a:
                g = gcd(p, a)
                fp, fa = p // g, a // g
                row = [fp * x - fa * y for x, y in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def integer_pivots(rows) -> list[int]:
    """The pivot columns of ``integer_rref(rows)``, by forward elimination
    alone, for callers that read only a rank.

    Column c is a pivot iff it is independent of the columns before it,
    whichever nonzero row each step pivots on, so no back-substitution is
    needed.  Each step is fraction-free and divides exactly by the previous
    pivot (Bareiss, 1968): every entry is a minor of the input, with the
    pivot rows negated where that makes their pivot positive.  A row that is
    zero in the pivot column changes only when the pivot does, so a run of
    unit pivots, as on a cube's rows of either sign, leaves it as it is.
    """
    work = list(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(len(work[0]) if work else 0):
        for i, prow in enumerate(work):
            if prow[c]:
                break
        else:
            continue
        del work[i]
        pivots.append(c)
        if not work:
            break
        p = prow[c]
        if p < 0:
            prow, p = [-y for y in prow], -p
        for j, row in enumerate(work):
            a = row[c]
            if a:
                work[j] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                work[j] = [p * x // prev for x in row]
        prev = p
    return pivots


def independent_rows(rows) -> list[int]:
    """Indices of the rows that a greedy scan in order keeps.

    The scan keeps a row iff it is not in the span of the rows before it.
    That is exactly when its column of the transpose is a pivot column of
    the reduced row echelon form, so one forward elimination
    (``integer_pivots``) answers for every row.
    Each column is scaled to ints by the lcm of its denominators, which
    keeps the row space of the transpose and so its pivots; int rows pass
    through unchanged.
    """
    return integer_pivots([integer_row(col)[0] for col in zip(*rows)])


def integer_null_space(reduced, pivots, ncols: int) -> tuple[list[list[int]], int]:
    """(basis, scale): the canonical basis of {x : Rx = 0}, one vector per
    free column, times ``scale``, the lcm of the pivots, from the (rows,
    pivots) that ``integer_rref`` returns."""
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return basis, scale


def solve(a_rows, b: Vector) -> Vector | None:
    """One solution of Ax = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to zero,
    which keeps the result canonical.
    """
    if not a_rows:
        return zeros(0)
    ncols = len(a_rows[0])
    augmented = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    reduced, pivots = rref(augmented)
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
    x = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    augmented = [list(row) + list(unit(n, i)) for i, row in enumerate(m)]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def integer_inverse(m) -> tuple[list[list[int]], int] | None:
    """(inv, den) with ``inv == m^-1 * den`` for a square integer matrix m,
    den the least positive such integer, or None if m is singular.

    Read off ``integer_rref([m | I])``: each row is its pivot times the
    matching row of the rational inverse.  Every row there has coprime
    entries (an input row holds a unit vector, an updated one is divided by
    its gcd), so each pivot is the lcm of its row's denominators up to sign,
    and their lcm is the least common denominator.
    """
    n = len(m)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = integer_rref(augmented)
    if pivots[:n] != list(range(n)):
        return None
    den = lcm(*(row[i] for i, row in enumerate(reduced)))
    inv = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(reduced)]
    return inv, den


def primitive_ints(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def primitive_signed_ints(ints) -> tuple[int, ...]:
    """``primitive_ints`` with the first nonzero entry positive (the
    canonical form of an equality); zero stays zero."""
    p = primitive_ints(ints)
    return tuple(-x for x in p) if next((x for x in p if x), 0) < 0 else p
