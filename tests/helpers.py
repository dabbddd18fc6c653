"""Exact helpers that only the tests read: rational vectors, affine maps
applied, composed and inverted in ``Fraction``s, and a table's marginals."""

from fractions import Fraction

from gptlab.ratgeo.linalg import inverse, mat_mul, mat_vec, unit, vadd, zeros
from gptlab.spaces import AffineMap


def vec(*entries):
    """A rational vector from ints and ``Fraction``s."""
    return tuple(map(Fraction, entries))


def identity_matrix(n):
    return tuple(unit(n, i) for i in range(n))


def identity_map(dim):
    return AffineMap(matrix=identity_matrix(dim), shift=zeros(dim))


def apply(t, x):
    """t(x) = matrix @ x + shift."""
    return vadd(mat_vec(t.matrix, tuple(x)), t.shift)


def compose(f, g):
    """f after g: x -> f(g(x))."""
    return AffineMap(
        matrix=mat_mul(f.matrix, g.matrix),
        shift=vadd(mat_vec(f.matrix, g.shift), f.shift),
    )


def fraction_affine_inverse(t):
    """Oracle: the inverse map from the ``Fraction`` ``linalg.inverse``."""
    minv = inverse(t.matrix)
    if minv is None:
        return None
    return AffineMap(matrix=minv, shift=tuple(-x for x in mat_vec(minv, t.shift)))


def marginals(t):
    """Oracle: the marginals (pA, pB) of a no-signalling ``ProbabilityTable``,
    each indexed [outcome][setting].  A marginal that depends on the remote
    party's setting fails an assertion."""

    def setting_independent(values):
        values = set(values)
        assert len(values) == 1, "marginal depends on the remote setting"
        return values.pop()

    pa = tuple(
        tuple(
            setting_independent(
                sum(t.value(a, b, x, y) for b in range(2)) for y in range(2)
            )
            for x in range(2)
        )
        for a in range(2)
    )
    pb = tuple(
        tuple(
            setting_independent(
                sum(t.value(a, b, x, y) for a in range(2)) for x in range(2)
            )
            for y in range(2)
        )
        for b in range(2)
    )
    return pa, pb
