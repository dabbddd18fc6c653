"""Exact polytope representations and conversions.

A polytope lives either as an ``HRep`` (inequalities ``a.x <= b`` plus
equalities ``e.x = f``) or a ``VRep`` (canonically ordered vertex list).
Both conversions run the double description method on a pointed cone:
``vertex_enumeration`` on the homogenization cone of the inequalities,
``facet_enumeration`` on the cone of inequalities valid on the points, whose
extreme rays are the facets.  All arithmetic is exact, all outputs
canonically ordered, so conversions are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import EmptyError, InputError, UnboundedError
from . import lp
from .linalg import (
    ONE,
    Vector,
    ZERO,
    dot,
    format_rational,
    independent_rows,
    inverse,
    is_zero,
    mat_vec,
    null_space,
    primitive,
    primitive_signed,
    rank,
    rref,
    transpose,
    vscale,
    vsub,
    zeros,
)

Constraint = tuple[Vector, Fraction]


def _canonical_inequality(normal: Vector, offset: Fraction) -> Constraint:
    """Scale to primitive integers; positive scaling keeps the direction."""
    scaled = primitive(tuple(normal) + (offset,))
    return scaled[:-1], scaled[-1]


def _canonical_equality(normal: Vector, offset: Fraction) -> Constraint:
    scaled = primitive_signed(tuple(normal) + (offset,))
    return scaled[:-1], scaled[-1]


@dataclass(frozen=True)
class HRep:
    """Linear inequality/equality description of a polyhedron."""

    ambient_dim: int
    inequalities: tuple[Constraint, ...]
    equalities: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        for normal, offset in self.inequalities:
            if len(normal) != self.ambient_dim:
                raise InputError("inequality normal has wrong length")
            if is_zero(normal) and offset < 0:
                raise InputError(
                    "inequality 0.x <= %s is trivially infeasible"
                    % format_rational(offset)
                )
        for normal, _ in self.equalities:
            if len(normal) != self.ambient_dim:
                raise InputError("equality normal has wrong length")

    @staticmethod
    def make(dim, ineqs=(), eqs=()) -> "HRep":
        """Build with canonicalized constraints from (normal, offset) pairs."""
        canon_ineqs = tuple(
            _canonical_inequality(tuple(n), o) for n, o in ineqs
        )
        canon_eqs = tuple(_canonical_equality(tuple(n), o) for n, o in eqs)
        return HRep(ambient_dim=dim, inequalities=canon_ineqs, equalities=canon_eqs)

    def contains(self, x: Vector) -> bool:
        return all(dot(n, x) <= o for n, o in self.inequalities) and all(
            dot(n, x) == o for n, o in self.equalities
        )

    def active_inequalities(self, x: Vector) -> tuple[int, ...]:
        return tuple(
            i for i, (n, o) in enumerate(self.inequalities) if dot(n, x) == o
        )


@dataclass(frozen=True)
class VRep:
    """Vertex description: canonically (lexicographically) ordered extreme points."""

    ambient_dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise InputError("vertex has wrong length")

    @staticmethod
    def make(dim, points) -> "VRep":
        """Canonicalize: exact-duplicate removal and lexicographic sort.

        Points are kept as given: a VRep of a polytope lists extreme points
        only, and ``spaces.from_vertices`` drops the others.
        """
        unique = sorted(set(tuple(p) for p in points))
        return VRep(ambient_dim=dim, vertices=tuple(unique))


def affine_dimension(points) -> int:
    """Exact dimension of the affine hull of a nonempty point list."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise InputError("affine_dimension of an empty point list")
    base = pts[0]
    return rank([vsub(p, base) for p in pts[1:]])


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _adjacent(zero_sets: list[int], p: int, q: int) -> bool:
    """Combinatorial adjacency test on bitmask zero (active) sets.

    Members p and q are adjacent iff no third member's zero set contains
    Z(p) & Z(q).  Valid for the extreme rays of a pointed cone and for the
    full vertex list of a polytope under any H-representation.
    """
    common = zero_sets[p] & zero_sets[q]
    return not any(
        (common & ~zs) == 0
        for r, zs in enumerate(zero_sets)
        if r != p and r != q
    )


def _dd_extreme_rays(rows: list[Vector], k: int) -> list[Vector] | None:
    """Extreme rays of the cone {z in Q^k : M z <= 0}, or None if not pointed.

    The cone is pointed iff ``rows`` has rank k.  Uses the double description
    method: start from a simplicial subcone given by k independent rows,
    insert the remaining rows one at a time, and keep only combinations of
    adjacent pairs (``_adjacent``).
    """
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    basis_idx = [order[j] for j in independent_rows([rows[i] for i in order])]
    if len(basis_idx) < k:
        return None

    binv = inverse(tuple(rows[i] for i in basis_idx))
    assert binv is not None
    rays = [primitive(tuple(-binv[r][c] for r in range(k))) for c in range(k)]
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
                if not _adjacent(zero_sets, p, q):
                    continue
                combo = vsub(
                    vscale(values[p], rays[q]), vscale(values[q], rays[p])
                )
                keep_rays.append(primitive(combo))
                keep_zs.append(zero_sets[p] & zero_sets[q] | bit)
        rays, zero_sets = keep_rays, keep_zs
        processed.append(i)
    return rays


def vertex_enumeration(h: HRep) -> VRep:
    """Exact vertex list of a bounded nonempty H-represented polytope.

    Runs double description on the homogenization cone
    {(x, t) : a.x <= b t, e.x = f t, t >= 0} and reads the verdict from its
    extreme rays.  A ray with t = 0 next to one with t > 0 is a recession
    direction: ``UnboundedError`` names it.  If the cone contains a line, or
    no ray has t > 0, one phase-1 LP decides: ``EmptyError`` if it is
    infeasible, otherwise ``UnboundedError`` for the line.  Every returned
    vertex is re-verified extremal via the active-constraint rank test before
    the canonical VRep is built.
    """
    d = h.ambient_dim
    # An empty basis (no null space) leaves only (x, t) = 0: an empty input.
    n_basis = null_space([tuple(n) + (-o,) for n, o in h.equalities], d + 1)

    hom_ineqs = [tuple(n) + (-o,) for n, o in h.inequalities]
    hom_ineqs.append(tuple(ZERO for _ in range(d)) + (-ONE,))  # t >= 0

    reduced_rows = []
    for row in hom_ineqs:
        reduced = mat_vec(n_basis, row)
        if not is_zero(reduced):
            reduced_rows.append(reduced)

    rays = _dd_extreme_rays(reduced_rows, len(n_basis)) if n_basis else []
    if rays is not None:
        lift = transpose(n_basis)
        rays = [mat_vec(lift, zray) for zray in rays]
    if rays is None or all(y[d] == 0 for y in rays):
        if lp.solve_lp(zeros(d), lp.MAX, h).status == lp.INFEASIBLE:
            raise EmptyError("the H-representation describes an empty polytope")
        raise UnboundedError("polyhedron contains a line")
    for y in rays:
        if y[d] == 0:
            raise UnboundedError(
                "polyhedron is unbounded along direction (%s)"
                % ", ".join(map(format_rational, y[:d]))
            )

    result = VRep.make(d, [tuple(val / y[d] for val in y[:d]) for y in rays])
    for v in result.vertices:
        if not is_extreme_in(h, v):
            raise InputError("double description produced a non-extreme point")
    return result


def is_extreme_in(h: HRep, v: Vector) -> bool:
    """Whether v is a vertex of h.

    v must lie in h, and the constraints active at v, equalities included,
    must have full rank.
    """
    if not h.contains(v):
        return False
    active = [h.inequalities[i][0] for i in h.active_inequalities(v)]
    active += [n for n, _ in h.equalities]
    return rank(active) == h.ambient_dim


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
    points before the canonical HRep is built.  The points need not be
    extreme: a non-extreme point only adds a redundant cone constraint.  For
    extreme points the round trip holds exactly:
    ``vertex_enumeration(facet_enumeration(v)) == v``.
    """
    if not v.vertices:
        raise InputError("facet enumeration of an empty vertex list")
    d = v.ambient_dim
    verts = list(v.vertices)
    base = verts[0]
    diffs = [vsub(p, base) for p in verts[1:]]

    equalities = sorted(
        _canonical_equality(n, dot(n, base)) for n in null_space(diffs, d)
    )
    _, coords = rref(diffs)
    k = len(coords)
    if k == 0:
        return HRep(ambient_dim=d, inequalities=(), equalities=tuple(equalities))

    cone = [tuple(p[j] for j in coords) + (-ONE,) for p in verts]
    rays = _dd_extreme_rays(cone, k + 1)
    assert rays is not None  # p -> p[coords] is injective on the affine hull
    inequalities = []
    for ray in rays:
        normal = [ZERO] * d
        for j, c in zip(coords, ray):
            normal[j] = c
        normal, offset = _canonical_inequality(
            *_reduce_mod_equalities(tuple(normal), ray[k], equalities)
        )
        values = [dot(normal, p) for p in verts]
        tight = [p for p, val in zip(verts, values) if val == offset]
        if (
            any(val > offset for val in values)
            or not tight
            or affine_dimension(tight) != k - 1
        ):
            raise InputError("double description produced a non-facet inequality")
        inequalities.append((normal, offset))
    return HRep(
        ambient_dim=d,
        inequalities=tuple(sorted(inequalities)),
        equalities=tuple(equalities),
    )


def _reduce_mod_equalities(normal, offset, equalities):
    """An equivalent inequality with zeros at the equalities' first columns.

    Subtracts, row by row, the multiple of each equality that zeroes the
    normal at that row's first nonzero column; the halfspace within the
    hull is unchanged.  The rows are not in echelon form, so the result
    depends on the normal given, not only on the halfspace: it is canonical
    only for a normal that is zero off the hull's coordinate columns, where
    a facet fixes the normal up to a positive scale.
    """
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


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------


def vertex_adjacency(v: VRep, h: HRep) -> tuple[tuple[int, ...], ...]:
    """Edge graph of the polytope, as a sorted neighbor tuple per vertex.

    Vertices i and j are adjacent iff no third vertex's active set contains
    the inequalities active at both (``_adjacent``): the smallest face
    holding i and j then has no other vertex, so it is their edge.  The test
    is exact; it requires ``v`` to list every vertex of ``h`` and nothing
    else.  Each vertex is checked to lie in ``h``.
    """
    if v.ambient_dim != h.ambient_dim:
        raise InputError("representation dimension mismatch")
    for x in v.vertices:
        if not h.contains(x):
            raise InputError(
                "vertex (%s) violates the H-representation"
                % ", ".join(map(format_rational, x))
            )
    zero_sets = [
        sum(1 << c for c in h.active_inequalities(x)) for x in v.vertices
    ]
    n = len(zero_sets)
    return tuple(
        tuple(j for j in range(n) if j != i and _adjacent(zero_sets, i, j))
        for i in range(n)
    )


def adjacency_edges(adj) -> tuple[tuple[int, int], ...]:
    """Edge list {(i, j) : i < j}, sorted, from a neighbor-list graph."""
    edges = set()
    for i, ns in enumerate(adj):
        for j in ns:
            edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))
