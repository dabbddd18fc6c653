"""Affine symmetry groups of polytopal state spaces.

The reversible transformations of a GPT are the affine bijections of its
state space onto itself.  For a polytope these permute the vertex set, and
a vertex permutation extends to an affine map exactly when it fixes the
matrix Q = W (W^T W)^-1 W^T, the exact projector onto the column space of
the lifted vertex matrix W (rows (v, 1)).  Q is computed on integers, with
W read from the ``VRep``'s integer points and affine hull and (W^T W)^-1
held as ints over one denominator: that is Q times a positive integer,
which keeps every equality and order that the search reads.  The group is
found by a plain backtrack over vertices: a candidate image must agree with
Q on every vertex already assigned.  (Bremner, Dutour Sikirić, Pasechnik,
Rehn & Schürmann, *Computing symmetry groups of polyhedra*, LMS J. Comput.
Math. 17, 2014.)  The backtrack keeps, for each position not yet assigned,
a bitmask of the images still open to it, starting from every vertex.
Assigning i -> k ANDs each later position j's mask with the vertices v != k
that have Q[k][v] == Q[i][j], precomputed per row of Q with each distinct
entry renumbered as a small int, and an empty mask ends the branch.  So a
complete assignment keeps every off-diagonal entry of Q, and with it the
diagonal, since every row of Q has the same sum (Q fixes the lifted all-ones
column).  The lowest open image is tried first, so the permutations come
out in lexicographic order.

The search is certified independently of Q: every generator is realized
as an explicit affine map and verified on all vertices, and the closure of
the generators must equal the permutation set, so every element is a
product of verified affine automorphisms; a failed check raises
``VerificationError``.  The affine maps of the other elements are realized
(and verified again) only when they are read.  The realizer, too, forms and
verifies each map on integers and builds ``Fraction``s only for a map that
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .errors import InputError, UnsupportedError, VerificationError
from .ratgeo.linalg import independent_rows, integer_inverse
from .spaces import AffineMap, BALL3, StateSpace, ball_rotation_path

PASS = "pass"
FAIL = "fail"
INTERACTING = "interacting"
NON_INTERACTING = "non_interacting"
FINITE_SYMMETRY_GROUP = "FiniteSymmetryGroup"

MAX_VERTICES = 32


@dataclass(frozen=True)
class SymmetryGroup:
    """The complete group of affine self-bijections of a polytope.

    ``vertex_permutations`` is sorted lexicographically; it is every
    permutation that fixes the Gram projector Q of the lifted vertices.
    ``generator_permutations`` is a greedy minimal generating sublist whose
    ``generators`` were realized and verified on all vertices when the group
    was built, and whose closure equals the permutation set.  ``elements``
    realizes the affine map of every permutation, in the same order, on
    first read.
    """

    vertex_permutations: tuple[tuple[int, ...], ...]
    generators: tuple[AffineMap, ...]
    generator_permutations: tuple[tuple[int, ...], ...]
    _realizer: "_AffineRealizer" = field(repr=False, compare=False)

    @cached_property
    def elements(self) -> tuple[AffineMap, ...]:
        return tuple(self._realizer.realize(p) for p in self.vertex_permutations)

    @property
    def order(self) -> int:
        return len(self.vertex_permutations)


@lru_cache(maxsize=32)
def affine_automorphisms(space: StateSpace) -> SymmetryGroup:
    """Exact, complete affine symmetry group of a polytopal state space."""
    if space.kind == BALL3:
        raise UnsupportedError(
            "the ball has a continuous symmetry group; handled analytically"
        )
    vrep = space.v
    n = len(vrep.vertices)
    if n > MAX_VERTICES:
        raise InputError(
            "symmetry search supports at most %d vertices, got %d"
            % (MAX_VERTICES, n)
        )

    # Each distinct Q entry becomes a small int, which keeps every equality
    # the search reads and lets the masks below be indexed by it.
    ids: dict = {}
    q = [[ids.setdefault(x, len(ids)) for x in row] for row in _gram_projector(vrep)]
    # holders[k][x]: the vertices v other than k with q[k][v] == x.
    holders = [[0] * len(ids) for _ in range(n)]
    for k, row in enumerate(q):
        for v, x in enumerate(row):
            if v != k:
                holders[k][x] |= 1 << v
    tails = [row[i + 1:] for i, row in enumerate(q)]

    permutations: list[tuple[int, ...]] = []
    image: list[int] = []

    def descend(i, candidates):
        # candidates[j - i]: the images still open to position j >= i.
        if i == n:
            permutations.append(tuple(image))
            return
        mask, later, tail = candidates[0], candidates[1:], tails[i]
        while mask:
            low = mask & -mask
            mask ^= low
            k = low.bit_length() - 1
            held = holders[k]
            narrowed = [c & held[x] for c, x in zip(later, tail)]
            if all(narrowed):
                image.append(k)
                descend(i + 1, narrowed)
                image.pop()

    # Every image starts open; the lowest open one is tried first, so the
    # list comes out sorted.
    descend(0, [(1 << n) - 1] * n)

    realizer = _AffineRealizer(vrep)
    gen_perms, closure = _greedy_generators(permutations, n)
    generators = tuple(realizer.realize(p) for p in gen_perms)
    if None in generators:
        raise VerificationError("search produced an unrealizable generator")
    if closure != set(permutations):
        raise VerificationError("generators do not close on the search")
    return SymmetryGroup(
        vertex_permutations=tuple(permutations),
        generators=generators,
        generator_permutations=tuple(gen_perms),
        _realizer=realizer,
    )


def _gram_projector(v) -> list[list[int]]:
    """Q = W (W^T W)^-1 W^T times a positive integer, as int rows.

    Q depends only on W's column space.  The lifted vertices times the
    ``VRep``'s lcm L are the rows (p, L); the hull's coordinate columns of p
    and L span their columns, so W is the rows (p[coords], L).  (W^T W)^-1
    is held as ints over one denominator D, so the product is Q times D.
    """
    points, scale = v._integer_points
    coords = v._affine_hull[0]
    w = [[p[c] for c in coords] + [scale] for p in points]
    wt = list(zip(*w))
    gram_inv, _ = integer_inverse([[sum(map(mul, a, b)) for b in wt] for a in wt])
    wg = [[sum(map(mul, row, col)) for col in zip(*gram_inv)] for row in w]
    return [[sum(map(mul, a, b)) for b in w] for a in wg]


class _AffineRealizer:
    """Builds the canonical ambient affine map for a vertex permutation.

    On the affine hull the map is determined by the images of a fixed affine
    basis of vertices: the first vertex and those whose differences from it
    a greedy scan keeps independent.  On the orthogonal complement of the
    hull's direction space it acts as the identity, which makes the
    representative canonical.  Everything runs on integers: the ``VRep``'s
    points times one lcm L and its hull's normals (the complement), the
    basis from ``independent_rows`` of the differences, and the inverse of
    the source basis matrix A as ints over one denominator D.  The basis and
    A^-1 D do not depend on the permutation and are computed once.
    """

    def __init__(self, v):
        self.points, self.scale = v._integer_points
        self.complement = v._affine_hull[1]
        diffs = [[x - y for x, y in zip(p, self.points[0])] for p in self.points[1:]]
        independent = independent_rows(diffs)
        self.basis_idx = [1 + i for i in independent]
        columns = [diffs[i] for i in independent] + self.complement
        inverse = integer_inverse(list(zip(*columns)))
        if inverse is None:  # the basis and the complement span the space
            raise VerificationError("the realizer's affine basis is singular")
        a_inv, self.den = inverse
        self.a_inv_columns = list(zip(*a_inv))
        self.supports = [[(j, x) for j, x in enumerate(diff) if x] for diff in diffs]

    def realize(self, perm) -> AffineMap | None:
        """The affine map for perm, or None if perm is not affinely consistent.

        M D = T (A^-1 D) is built from the images T of the basis and then
        verified on every vertex u, M D (V_u - V_0) == (V_perm(u) -
        V_perm(0)) D on ints.  The basis differences span the hull's
        direction space, so the map sends every vertex to its image exactly
        when perm preserves every affine dependency among the vertices.  The
        matrix is M D over D, the shift V_perm(0) - M V_0 is an int vector
        over D L.
        """
        points, den = self.points, self.den
        image_base = points[perm[0]]
        images = [[x - y for x, y in zip(points[k], image_base)] for k in perm]
        columns = [images[i] for i in self.basis_idx] + self.complement
        md = [
            [sum(map(mul, row, col)) for col in self.a_inv_columns]
            for row in zip(*columns)
        ]
        for support, image in zip(self.supports, images[1:]):
            for row, y in zip(md, image):
                if sum(row[j] * x for j, x in support) != y * den:
                    return None
        shift_den = den * self.scale
        return AffineMap(
            matrix=tuple(tuple(Fraction(x, den) for x in row) for row in md),
            shift=tuple(
                Fraction(y * den - sum(map(mul, row, points[0])), shift_den)
                for row, y in zip(md, image_base)
            ),
        )


def _compose_perm(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def _closure(gens, n):
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose_perm(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen

def _greedy_generators(perms, n):
    """A greedy generating sublist of perms and the group it generates."""
    gens: list[tuple[int, ...]] = []
    generated = _closure(gens, n)
    for p in perms:
        if p not in generated:
            gens.append(p)
            generated = _closure(gens, n)
    return gens, generated


def orbits(group: SymmetryGroup, space: StateSpace) -> tuple[tuple[int, ...], ...]:
    """The orbits of the vertex indices under the group action, as printed
    by ``gptlab orbits``: each orbit sorted, the orbits by least member.

    Each orbit is walked over the generator permutations from its least
    member: a finite group's orbit is closed under its generators alone.
    """
    n = len(space.vertices)
    if not group.vertex_permutations or any(
        len(p) != n for p in group.vertex_permutations
    ):
        raise InputError("group permutations do not match the vertex count")
    classes, seen = [], set()
    for start in range(n):
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for i in orbit:
                images = {perm[i] for perm in group.generator_permutations} - seen
                seen |= images
                orbit += images
            classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def check_continuous_reversibility(space: StateSpace) -> dict:
    """Decide Continuous Reversibility for a registered state space, as the
    ``{"status", "subject", "reason"?, "detail"?}`` entry that
    ``gptlab postulates`` prints, ``detail`` keys in sorted order.

    Polytopal spaces with at least two pure states fail outright: their
    reversible transformations form a finite group (a subgroup of the
    vertex permutations), and a continuous family G(t) into a finite set of
    affine maps must be constant, so G(1) = G(0) = identity can move no
    pure state.  The ball passes: any two unit Bloch vectors are joined by
    the rotation family ``spaces.ball_rotation_path``, verified here at 101
    sample points.
    """
    if space.kind == BALL3:
        checks = [
            ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
            ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)),
            ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ]
        worst_endpoint = 0.0
        worst_step = 0.0
        for a, b in checks:
            path = ball_rotation_path(a, b)
            start_err = _max_abs_difference(path(0.0), _identity(3))
            end = [sum(x * y for x, y in zip(row, a)) for row in path(1.0)]
            worst_endpoint = max(worst_endpoint, start_err, math.dist(end, b))
            samples = [path(t / 100.0) for t in range(101)]
            for prev, cur in zip(samples, samples[1:]):
                worst_step = max(worst_step, _max_abs_difference(cur, prev))
        if worst_endpoint > 1e-9:
            return {
                "status": FAIL,
                "subject": space.label,
                "reason": "RotationPathBroken",
                "detail": {"endpoint_error": worst_endpoint},
            }
        return {
            "status": PASS,
            "subject": space.label,
            "detail": {
                "endpoint_error": worst_endpoint,
                "max_sample_step": worst_step,
                "samples": len(samples),
            },
        }
    n = len(space.vertices)
    if n >= 2:
        return {
            "status": FAIL,
            "subject": space.label,
            "reason": FINITE_SYMMETRY_GROUP,
            "detail": {"vertex_count": n},
        }
    return {"status": PASS, "subject": space.label, "detail": {"vertex_count": n}}


def _identity(d: int) -> list[list[float]]:
    return [[float(i == j) for j in range(d)] for i in range(d)]


def _max_abs_difference(m, n) -> float:
    return max(abs(x - y) for row_m, row_n in zip(m, n) for x, y in zip(row_m, row_n))


def check_interaction(space_ab: StateSpace, product_vertices) -> dict:
    """Decide whether any reversible transformation leaves the locally
    preparable vertex set (at the vertex level), as the interaction entry
    that ``gptlab postulates`` prints.

    ``product_vertices`` indexes the locally preparable vertices of the
    composite; the caller computes it (for boxworld, the image of the pure
    product preparations).  ``status`` is PASS when some group element
    moves a product vertex out of the set, and then ``witness`` is
    ``[element, vertex, image]``; ``vertex_level_result`` reads
    INTERACTING or NON_INTERACTING.
    """
    n = len(space_ab.vertices)
    product_set = frozenset(product_vertices or ())
    if not product_set:
        raise InputError(
            "no locally preparable vertex set given: not a composite space"
        )
    if any(not 0 <= i < n for i in product_set):
        raise InputError("product vertex index out of range")
    products = sorted(product_set)
    group = affine_automorphisms(space_ab)
    for k, perm in enumerate(group.vertex_permutations):
        for i in products:
            if perm[i] not in product_set:
                return {
                    "status": PASS,
                    "vertex_level_result": INTERACTING,
                    "symmetry_group_order": group.order,
                    "witness": [k, i, perm[i]],
                }
    return {
        "status": FAIL,
        "vertex_level_result": NON_INTERACTING,
        "symmetry_group_order": group.order,
    }
