"""Affine symmetry groups of polytopal state spaces.

The reversible transformations of a GPT are the affine bijections of its
state space onto itself.  For a polytope these permute the vertex set, and
a vertex permutation extends to an affine map exactly when it fixes the
matrix Q = W (W^T W)^-1 W^T, the exact projector onto the column space of
the lifted vertex matrix W (rows (v, 1)).  Q is scaled by the lcm of its
denominators and compared as integers.  The group is found by a plain
backtrack over vertices: a candidate image must carry the same colour (the
sorted Q row plus the diagonal entry) and agree with Q on every vertex
already assigned.  (Bremner, Dutour Sikirić, Pasechnik, Rehn & Schürmann,
*Computing symmetry groups of polyhedra*, LMS J. Comput. Math. 17, 2014.)

The search is certified independently of Q: every generator is realized
as an explicit affine map and verified on all vertices, and the closure of
the generators must equal the permutation set, so every element is a
product of verified affine automorphisms.  The affine maps of the other
elements are realized (and verified again) only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bloch import rotation_path
from .errors import InputError, UnsupportedError
from .ratgeo.linalg import (
    ONE,
    independent_rows,
    inverse,
    lcm_of_denominators,
    mat_mul,
    mat_vec,
    null_space,
    rref,
    scaled,
    transpose,
    vsub,
)
from .spaces import AffineMap, BALL3, StateSpace

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


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of vertex indices into group orbits (canonically sorted)."""

    classes: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def affine_automorphisms(space: StateSpace) -> SymmetryGroup:
    """Exact, complete affine symmetry group of a polytopal state space."""
    if space.kind == BALL3:
        raise UnsupportedError(
            "the ball has a continuous symmetry group; handled analytically"
        )
    space.require_polytopal()
    verts = space.vertices
    n = len(verts)
    if n > MAX_VERTICES:
        raise InputError(
            "symmetry search supports at most %d vertices, got %d"
            % (MAX_VERTICES, n)
        )

    lifted = [tuple(v) + (ONE,) for v in verts]
    _, pivots = rref(lifted)
    w = tuple(tuple(row[c] for c in pivots) for row in lifted)
    wt = transpose(w)
    q = mat_mul(mat_mul(w, inverse(mat_mul(wt, w))), wt)
    # Scaled by the lcm of its denominators, Q compares as ints; each colour
    # becomes a small int the first time it is seen.
    scale = lcm_of_denominators(x for row in q for x in row)
    q = [[scaled(x, scale) for x in row] for row in q]
    colour_ids: dict = {}
    colour = [
        colour_ids.setdefault((q[i][i], tuple(sorted(q[i]))), len(colour_ids))
        for i in range(n)
    ]

    permutations: list[tuple[int, ...]] = []
    image: list[int] = []
    used = [False] * n

    def descend():
        i = len(image)
        if i == n:
            permutations.append(tuple(image))
            return
        for k in range(n):
            if (
                not used[k]
                and colour[k] == colour[i]
                and all(q[k][image[j]] == q[i][j] for j in range(i))
            ):
                used[k] = True
                image.append(k)
                descend()
                image.pop()
                used[k] = False

    # Images are tried in increasing order, so the list comes out sorted.
    descend()

    realizer = _AffineRealizer(verts, space.dim)
    gen_perms, closure = _greedy_generators(permutations, n)
    generators = tuple(realizer.realize(p) for p in gen_perms)
    assert None not in generators, "search produced an unrealizable generator"
    assert closure == set(permutations), "generators do not close on the search"
    return SymmetryGroup(
        vertex_permutations=tuple(permutations),
        generators=generators,
        generator_permutations=tuple(gen_perms),
        _realizer=realizer,
    )


class _AffineRealizer:
    """Builds the canonical ambient affine map for a vertex permutation.

    On the affine hull the map is determined by the images of a fixed affine
    basis of vertices: the first vertex and those whose differences from it
    a greedy scan keeps independent.  On the orthogonal complement of the
    hull's direction space it acts as the identity, which makes the
    representative canonical.  The basis choice and the inverse of the
    source basis matrix do not depend on the permutation and are computed
    once.
    """

    def __init__(self, verts, d):
        self.verts = verts
        diffs = [vsub(v, verts[0]) for v in verts[1:]]
        independent = independent_rows(diffs)
        self.basis_idx = [1 + i for i in independent]
        self.complement = null_space(diffs, d)
        columns = [diffs[i] for i in independent] + self.complement
        self.a_inv = inverse(transpose(columns))
        assert self.a_inv is not None

    def realize(self, perm) -> AffineMap | None:
        """The affine map for perm, or None if perm is not affinely consistent.

        The map is built from the images of the basis and then verified on
        every vertex.  The basis differences span the hull's direction
        space, so the map sends every vertex to its image exactly when perm
        preserves every affine dependency among the vertices.
        """
        verts = self.verts
        image_base = verts[perm[0]]
        image_columns = [
            vsub(verts[perm[i]], image_base) for i in self.basis_idx
        ] + self.complement
        matrix = mat_mul(transpose(image_columns), self.a_inv)
        shift = vsub(image_base, mat_vec(matrix, verts[0]))
        candidate = AffineMap(matrix=matrix, shift=shift)
        if any(candidate.apply(v) != verts[perm[u]] for u, v in enumerate(verts)):
            return None
        return candidate


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


def orbits(group: SymmetryGroup, space: StateSpace) -> OrbitPartition:
    """Orbit partition of the vertex indices under the group action.

    The orbits are the connected components of the generators' action, so
    the union-find runs over the generators only.
    """
    space.require_polytopal()
    n = len(space.vertices)
    if not group.vertex_permutations or any(
        len(p) != n for p in group.vertex_permutations
    ):
        raise InputError("group permutations do not match the vertex count")
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in group.generator_permutations:
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    ordered = tuple(
        tuple(sorted(cls)) for _, cls in sorted(classes.items())
    )
    return OrbitPartition(classes=ordered)


@dataclass(frozen=True)
class ReversibilityResult:
    status: str
    witness: tuple[int, int] | None = None  # vertex pair in distinct orbits


def check_reversibility(space: StateSpace) -> ReversibilityResult:
    """Pass iff the symmetry group acts transitively on pure states."""
    group = affine_automorphisms(space)
    partition = orbits(group, space)
    if len(partition.classes) == 1:
        return ReversibilityResult(status=PASS)
    first, second = partition.classes[0][0], partition.classes[1][0]
    return ReversibilityResult(status=FAIL, witness=(first, second))


@dataclass(frozen=True)
class ContinuityResult:
    status: str
    reason: str | None = None
    detail: dict | None = None
    path_constructor: object | None = None


def check_continuous_reversibility(space: StateSpace) -> ContinuityResult:
    """Decide Continuous Reversibility for a registered state space.

    Polytopal spaces with at least two pure states fail outright: their
    reversible transformations form a finite group (a subgroup of the
    vertex permutations), and a continuous family G(t) into a finite set of
    affine maps must be constant, so G(1) = G(0) = identity can move no
    pure state.  The ball passes: any two unit Bloch vectors are joined by
    a one-parameter rotation family, verified here at 100 sample points.
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
            path = rotation_path(a, b)
            start_err = float(np.max(np.abs(path(0.0) - np.eye(3))))
            end_err = float(np.linalg.norm(path(1.0) @ np.array(a) - np.array(b)))
            worst_endpoint = max(worst_endpoint, start_err, end_err)
            samples = [path(t / 100.0) for t in range(101)]
            for prev, cur in zip(samples, samples[1:]):
                worst_step = max(worst_step, float(np.max(np.abs(cur - prev))))
        if worst_endpoint > 1e-9:
            return ContinuityResult(
                status=FAIL,
                reason="RotationPathBroken",
                detail={"endpoint_error": worst_endpoint},
            )
        return ContinuityResult(
            status=PASS,
            detail={
                "endpoint_error": worst_endpoint,
                "max_sample_step": worst_step,
                "samples": 101,
            },
            path_constructor=rotation_path,
        )
    space.require_polytopal()
    n = len(space.vertices)
    if n >= 2:
        return ContinuityResult(
            status=FAIL,
            reason=FINITE_SYMMETRY_GROUP,
            detail={"vertex_count": n},
        )
    return ContinuityResult(
        status=PASS,
        detail={"vertex_count": n, "note": "single pure state; constant path"},
        path_constructor=lambda a, b: (lambda t: np.eye(space.dim)),
    )


@dataclass(frozen=True)
class InteractionResult:
    status: str
    witness: tuple[int, int, int] | None = None  # (element, vertex, image)


def check_interaction(space_ab: StateSpace, product_vertices) -> InteractionResult:
    """Decide whether any reversible transformation leaves the locally
    preparable vertex set (at the vertex level).

    ``product_vertices`` indexes the locally preparable vertices of the
    composite; the caller computes it (for boxworld, the image of the pure
    product preparations).
    """
    space_ab.require_polytopal()
    n = len(space_ab.vertices)
    product_set = frozenset(product_vertices or ())
    if not product_set:
        raise InputError(
            "no locally preparable vertex set given: not a composite space"
        )
    if any(not 0 <= i < n for i in product_set):
        raise InputError("product vertex index out of range")
    for k, perm in enumerate(affine_automorphisms(space_ab).vertex_permutations):
        for i in sorted(product_set):
            if perm[i] not in product_set:
                return InteractionResult(status=INTERACTING, witness=(k, i, perm[i]))
    return InteractionResult(status=NON_INTERACTING)
