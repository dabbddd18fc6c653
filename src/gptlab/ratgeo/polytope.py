"""Exact polytope representations and conversions.

A polytope lives either as an ``HRep`` (inequalities ``a.x <= b`` plus
equalities ``e.x = f``) or a ``VRep`` (canonically ordered vertex list).
Both conversions run the double description method on a pointed cone:
``vertex_enumeration`` on the homogenization cone of the inequalities,
``facet_enumeration`` on the cone of inequalities valid on the points, whose
extreme rays are the facets.  Everything from an ``HRep``'s canonical rows
to the re-verification of every output runs on integers: the cone's rows
(an ``HRep``'s coprime integer rows, or the points times one lcm), DD's
initial simplex (one elimination), its primitive rays, the adjacency tests
(a count of common zero rows, then a scan), the null spaces and the slacks
that every point test reads.  ``Fraction``s are built only for the returned
``VRep`` or ``HRep``, which each derive their integer form once: an
``HRep`` its coprime rows, a ``VRep`` its points times one lcm and, on first
read, their affine hull.  All outputs are canonically ordered, so
conversions are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from ..errors import EmptyError, InputError, UnboundedError, VerificationError
from . import lp
from .linalg import (
    Vector,
    format_rational,
    integer_null_space,
    integer_row,
    integer_rows,
    integer_rref,
    primitive_ints,
    primitive_signed_ints,
    vsub,
    zeros,
)

Constraint = tuple[Vector, Fraction]


def _pairs(rows) -> tuple:
    """The (normal, offset) pairs of rows (normal..., offset)."""
    return tuple((r[:-1], r[-1]) for r in rows)


def _canonical(pairs, primitive) -> tuple:
    """(normal_ints, offset_int) per (normal, offset) pair: the row
    (normal..., offset) scaled to ints, then made ``primitive``."""
    return _pairs(primitive(integer_row((*n, o))[0]) for n, o in pairs)


def _fraction_constraints(rows) -> tuple[Constraint, ...]:
    """The ``Fraction`` constraints of (normal_ints, offset_int) rows."""
    return tuple((tuple(map(Fraction, n)), Fraction(o)) for n, o in rows)


@dataclass(frozen=True)
class HRep:
    """Linear inequality/equality description of a polyhedron.

    The constructor stores every row (normal..., offset) in one canonical
    form: scaled to coprime integers, an equality's with its first nonzero
    entry positive.  A positive scale keeps the halfspace and the
    hyperplane, so rows that differ by positive scales build equal
    ``HRep``s.  The ``Fraction`` fields hold those integers, and
    ``_integer_constraints`` holds them once more as ints, (inequalities,
    equalities) of (normal_ints, offset_int) rows: the one form that the
    slacks, the simplex, its checkers and DD read.
    """

    ambient_dim: int
    inequalities: tuple[Constraint, ...]
    equalities: tuple[Constraint, ...] = ()
    _integer_constraints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        ineqs, eqs = tuple(self.inequalities), tuple(self.equalities)
        for kind, pairs in (("inequality", ineqs), ("equality", eqs)):
            if any(len(normal) != self.ambient_dim for normal, _ in pairs):
                raise InputError("%s normal has wrong length" % kind)

        ineqs = _canonical(ineqs, primitive_ints)
        eqs = _canonical(eqs, primitive_signed_ints)
        for normal, offset in ineqs:
            if offset < 0 and not any(normal):
                raise InputError(
                    "inequality 0.x <= %s is trivially infeasible"
                    % format_rational(offset)
                )
        # A frozen dataclass sets its own fields through object.__setattr__.
        object.__setattr__(self, "inequalities", _fraction_constraints(ineqs))
        object.__setattr__(self, "equalities", _fraction_constraints(eqs))
        object.__setattr__(self, "_integer_constraints", (ineqs, eqs))

    @staticmethod
    def make(dim, ineqs=(), eqs=()) -> "HRep":
        """``HRep(dim, ineqs, eqs)``.  Product code calls the constructor;
        this stays only for ``perfbench/hullcases.py`` and ``lpcases.py``,
        and goes when they call the constructor too."""
        return HRep(dim, ineqs, eqs)

    def slacks(self, x: Vector) -> tuple[list[int], list[int]]:
        """(b.den - a.x per inequality, f.den - e.x per equality) as ints on
        ``_integer_constraints``, den the lcm of x's denominators: each is a
        positive multiple of the rational slack, with its sign and zeros."""
        if len(x) != self.ambient_dim:
            raise ValueError(
                "dimension mismatch: %d vs %d" % (self.ambient_dim, len(x))
            )
        return self._slacks(*integer_row(x))

    def _slacks(self, ints, den: int) -> tuple[list[int], list[int]]:
        """``slacks`` of the point ints / den, den > 0: each slack times a
        positive int."""
        return tuple(
            [o * den - sum(map(mul, n, ints)) for n, o in rows]
            for rows in self._integer_constraints
        )

    def contains(self, x: Vector) -> bool:
        return _holds(self.slacks(x))

    def active_inequalities(self, x: Vector) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.slacks(x)[0]) if s == 0)


def _holds(slacks) -> bool:
    """Whether a point with these ``HRep.slacks`` lies in the polyhedron."""
    ineq, eq = slacks
    return all(s >= 0 for s in ineq) and not any(eq)


@dataclass(frozen=True)
class VRep:
    """Vertex description: canonically (lexicographically) ordered extreme points.

    The constructor stores the vertices in one canonical form: exact
    duplicates removed and the rest sorted lexicographically, so point lists
    that differ only in order or repetition build equal ``VRep``s.  That is
    ``tuple(sorted(set(points)))``, computed on the points times one lcm
    (``integer_rows``), and of equal points it keeps the first one given.
    It keeps (ints, scale) as ``_integer_points``, and ``_affine_hull``
    eliminates their differences on first read: facet enumeration,
    ``affine_dimension`` and the symmetry search read both.
    Points are kept as given otherwise: a VRep of a polytope lists extreme
    points only, and ``vertex_enumeration(facet_enumeration(v))`` keeps
    just those of any point list.
    """

    ambient_dim: int
    vertices: tuple[Vector, ...]
    _integer_points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        vertices = tuple(map(tuple, self.vertices))
        if any(len(v) != self.ambient_dim for v in vertices):
            raise InputError("vertex has wrong length")
        # One positive scale keeps the points' order and equalities; the
        # stable sort puts the first given of equal points first, the one
        # that a set keeps.  Dropping equal points leaves the lcm as it is.
        ints, scale = integer_rows(vertices)
        order = sorted(range(len(vertices)), key=ints.__getitem__)
        kept = [next(run) for _, run in itertools.groupby(order, ints.__getitem__)]
        # A frozen dataclass sets its own fields through object.__setattr__.
        object.__setattr__(self, "vertices", tuple(vertices[i] for i in kept))
        object.__setattr__(self, "_integer_points", ([ints[i] for i in kept], scale))

    @cached_property
    def _affine_hull(self) -> tuple[list[int], list[list[int]]]:
        """(coords, normals): the pivot columns of the integer points'
        differences, on which the hull projects injectively, and the normals
        of the hull's equalities (``integer_null_space``)."""
        points = self._integer_points[0]
        reduced, coords = integer_rref([vsub(p, points[0]) for p in points[1:]])
        return coords, integer_null_space(reduced, coords, self.ambient_dim)[0]


def affine_dimension(points) -> int:
    """Exact dimension of the affine hull of a nonempty point list."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise InputError("affine_dimension of an empty point list")
    return len(VRep(len(pts[0]), pts)._affine_hull[0])


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _adjacent(zero_sets: list[int], p: int, q: int, need: int) -> bool:
    """Combinatorial adjacency test on bitmask zero (active) sets.

    Members p and q are adjacent iff no third member's zero set contains
    Z(p) & Z(q).  Valid for the extreme rays of a pointed cone and for the
    full vertex list of a polytope under any H-representation.  An adjacent
    pair shares at least ``need`` zero rows, a bound that each caller takes
    from the dimension, so a smaller common zero set rules the pair out
    before the scan: the cardinality condition of Fukuda & Prodon (1996).
    """
    common = zero_sets[p] & zero_sets[q]
    if common.bit_count() < need:
        return False
    return not any(
        (common & ~zs) == 0
        for r, zs in enumerate(zero_sets)
        if r != p and r != q
    )


def _dd_extreme_rays(rows, k: int) -> list[tuple[int, ...]] | None:
    """Extreme rays of the cone {z in Q^k : M z <= 0}, or None if not pointed.

    ``rows`` are the integer rows of M; the rays are returned as primitive
    integer tuples (coprime entries), the canonical form of a ray.  The cone
    is pointed iff ``rows`` has rank k.  Uses the double description method
    on integers (Fukuda & Prodon, 1996): start from the simplicial subcone
    of k independent rows B, insert the remaining rows one at a time, and
    keep only combinations of adjacent pairs (``_adjacent``), each primitive.
    Two adjacent rays of the pointed k-cone share at least k - 2 zero rows,
    the count that ``_adjacent`` checks before its scan.

    One elimination of [M^T | I_k], the rows of M in sorted order, finds the
    initial simplex.  Its pivot columns in the M^T block are the rows B that
    a greedy scan in that order keeps.  Its rows are P [M^T | I_k] for an
    invertible P, and reduction makes P B^T = D diagonal: ray c, zero on
    every row of B but row c and negative there, is -sign(D_c) times row c
    of P, the I block.  A pivot in the I block means M has rank below k.
    """
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    n = len(order)
    reduced, pivots = integer_rref(
        [[rows[i][j] for i in order] + [int(j == c) for c in range(k)] for j in range(k)]
    )
    if pivots[-1] >= n:
        return None

    rays = [
        primitive_ints([-x for x in row[n:]] if row[col] > 0 else row[n:])
        for row, col in zip(reduced, pivots)
    ]
    # B P^T = D: ray c is zero on every basis row but row c.
    zero_sets = [((1 << k) - 1) ^ (1 << c) for c in range(k)]

    in_basis = set(pivots)
    remaining = [order[j] for j in range(n) if j not in in_basis]
    # The k basis rows hold bits 0..k-1; each inserted row takes the next bit.
    for step, i in enumerate(remaining, k):
        m = rows[i]
        bit = 1 << step
        values = [sum(map(mul, m, ray)) for ray in rays]
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
                if not _adjacent(zero_sets, p, q, k - 2):
                    continue
                combo = [
                    values[p] * y - values[q] * x for x, y in zip(rays[p], rays[q])
                ]
                keep_rays.append(primitive_ints(combo))
                keep_zs.append(zero_sets[p] & zero_sets[q] | bit)
        rays, zero_sets = keep_rays, keep_zs
    return rays


def vertex_enumeration(h: HRep) -> VRep:
    """Exact vertex list of a bounded nonempty H-represented polytope.

    Runs double description on the homogenization cone
    {(x, t) : a.x <= b t, e.x = f t, t >= 0} and reads the verdict from its
    extreme rays.  A ray with t = 0 next to one with t > 0 is a recession
    direction: ``UnboundedError`` names it.  If the cone contains a line, or
    no ray has t > 0, one phase-1 LP decides: ``EmptyError`` if it is
    infeasible, once its Farkas certificate is re-verified, otherwise
    ``UnboundedError`` for the line.  Every vertex is re-verified extremal
    via the active-constraint rank test (``_is_extreme``) on its integer ray,
    before any ``Fraction`` is built.  A failed re-check raises
    ``VerificationError``.

    The cone is parametrized by ``integer_null_space`` of the equalities,
    the canonical basis times one positive ``scale``, so every lifted ray
    (x, t) is ``scale`` times the rational one; its rows are the ``HRep``'s
    coprime integer rows, which are its ``Fraction`` rows.
    """
    d = h.ambient_dim
    ineqs, eqs = h._integer_constraints
    # An empty basis (no null space) leaves only (x, t) = 0: an empty input.
    eqs = integer_rref([(*n, -o) for n, o in eqs])
    basis, scale = integer_null_space(*eqs, d + 1)

    hom_ineqs = [(*n, -o) for n, o in ineqs]
    hom_ineqs.append((0,) * d + (-1,))  # t >= 0

    reduced_rows = [[sum(map(mul, b, row)) for b in basis] for row in hom_ineqs]
    reduced_rows = [row for row in reduced_rows if any(row)]

    rays = _dd_extreme_rays(reduced_rows, len(basis)) if basis else []
    if rays is not None:
        columns = list(zip(*basis))
        rays = [[sum(map(mul, col, zray)) for col in columns] for zray in rays]
    if rays is None or all(y[d] == 0 for y in rays):
        phase1 = lp.solve_lp(zeros(d), lp.MAX, h)
        if phase1.status != lp.INFEASIBLE:
            raise UnboundedError("polyhedron contains a line")
        if not lp.verify_farkas(h, phase1.witness):
            raise VerificationError(
                "the emptiness verdict fails its Farkas certificate"
            )
        raise EmptyError("the H-representation describes an empty polytope")
    for y in rays:
        if y[d] == 0:
            raise UnboundedError(
                "polyhedron is unbounded along direction (%s)"
                % ", ".join(format_rational(Fraction(x, scale)) for x in y[:d])
            )

    for y in rays:
        if not _is_extreme(h, h._slacks(y[:d], y[d])):
            raise VerificationError("double description produced a non-extreme point")
    return VRep(d, [tuple(Fraction(x, y[d]) for x in y[:d]) for y in rays])


def _is_extreme(h: HRep, slacks) -> bool:
    """Whether the point with these ``HRep.slacks`` is a vertex of h: it
    lies in h, and the constraints active at it, equalities included, have
    full rank."""
    if not _holds(slacks):
        return False
    ineqs, eqs = h._integer_constraints
    active = [n for (n, _), s in zip(ineqs, slacks[0]) if s == 0]
    active += [n for n, _ in eqs]
    return len(integer_rref(active)[1]) == h.ambient_dim


# ---------------------------------------------------------------------------
# Facet enumeration on the cone of valid inequalities
# ---------------------------------------------------------------------------


def facet_enumeration(v: VRep) -> HRep:
    """Irredundant H-representation of conv(v.vertices).

    The affine hull is returned as an exact equality system.  Within it, the
    facets are the extreme rays of the cone of valid inequalities
    {(c, b) : c.p <= b for every point p}, with p read on the hull's
    coordinate columns (the pivot columns of the point differences, on which
    the hull projects injectively, so the cone is pointed).  Double
    description enumerates those rays; each facet is re-verified against the
    points before the canonical HRep is built (``VerificationError`` if one
    fails).  The points need not be extreme: a non-extreme point only adds a
    redundant cone constraint.  For extreme points the round trip holds
    exactly: ``vertex_enumeration(facet_enumeration(v)) == v``.
    """
    if not v.vertices:
        raise InputError("facet enumeration of an empty vertex list")
    d = v.ambient_dim
    # The points times one lcm: the cone keeps its rays and its row order.
    points, scale = v._integer_points
    base = points[0]
    coords, normals = v._affine_hull
    # The hyperplane n.x = n.(base / scale), times scale.
    equalities = sorted(
        primitive_signed_ints([x * scale for x in n] + [sum(map(mul, n, base))])
        for n in normals
    )
    k = len(coords)
    if k == 0:
        return HRep(d, (), _pairs(equalities))

    cone = [[p[j] for j in coords] + [-scale] for p in points]
    rays = _dd_extreme_rays(cone, k + 1)
    if rays is None:  # p -> p[coords] is injective on the affine hull
        raise VerificationError("the cone of valid inequalities is not pointed")
    inequalities = []
    for ray in rays:
        row = [0] * d + [ray[k]]
        for j, c in zip(coords, ray):
            row[j] = c
        row = primitive_ints(_reduce_mod_equalities(row, equalities))
        bound = row[d] * scale
        values = [sum(map(mul, row, p)) for p in points]
        # The tight points span a (k - 1)-flat iff their cone rows have rank k.
        tight = [c for c, val in zip(cone, values) if val == bound]
        if max(values) > bound or len(integer_rref(tight)[1]) != k:
            raise VerificationError(
                "double description produced a non-facet inequality"
            )
        inequalities.append(row)
    return HRep(d, _pairs(sorted(inequalities)), _pairs(equalities))


def _reduce_mod_equalities(row, equalities):
    """An equivalent integer inequality row with zeros at the equalities'
    first columns.

    Each canonical equality in turn zeroes the row at its first nonzero
    entry, which is positive: the row is multiplied by it, so the halfspace
    within the hull and the primitive result are those of rational
    elimination.  The equalities are not in echelon form, so the result is
    canonical only for a normal that is zero off the hull's coordinate
    columns, where a facet fixes the normal up to a positive scale.
    """
    for eq in equalities:
        pivot = next(j for j, x in enumerate(eq) if x)
        row = [eq[pivot] * x - row[pivot] * y for x, y in zip(row, eq)]
    return row


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------


def vertex_adjacency(v: VRep, h: HRep) -> tuple[tuple[int, ...], ...]:
    """Edge graph of the polytope, as a sorted neighbor tuple per vertex.

    Vertices i and j are adjacent iff no third vertex's active set contains
    the inequalities active at both (``_adjacent``): the smallest face
    holding i and j then has no other vertex, so it is their edge.  An
    edge's active inequalities and the equalities have rank d - 1, so a
    pair with fewer than d - 1 - len(h.equalities) common active
    inequalities is ruled out by that count before the scan.  The test is
    exact; it requires ``v`` to list every vertex of ``h`` and nothing
    else.  Each vertex is checked to lie in ``h``.
    """
    if v.ambient_dim != h.ambient_dim:
        raise InputError("representation dimension mismatch")
    zero_sets = []
    for x in v.vertices:
        slacks = h.slacks(x)
        if not _holds(slacks):
            raise InputError(
                "vertex (%s) violates the H-representation"
                % ", ".join(map(format_rational, x))
            )
        zero_sets.append(sum(1 << c for c, s in enumerate(slacks[0]) if s == 0))
    need = h.ambient_dim - 1 - len(h.equalities)
    neighbors = [[] for _ in zero_sets]
    for i, j in itertools.combinations(range(len(zero_sets)), 2):
        if _adjacent(zero_sets, i, j, need):
            neighbors[i].append(j)
            neighbors[j].append(i)
    return tuple(map(tuple, neighbors))


def adjacency_edges(adj) -> tuple[tuple[int, int], ...]:
    """Edge list {(i, j) : i < j}, sorted, from a neighbor-list graph."""
    edges = set()
    for i, ns in enumerate(adj):
        for j in ns:
            edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))
