"""Symmetry groups, orbits, reversibility and interaction checks."""

import hashlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gptlab.boxworld import (
    LOCAL_DETERMINISTIC,
    PR_BOX,
    classify_vertex,
    make_boxworld2,
    table_from_vector,
)
from gptlab.errors import InputError, UnsupportedError
from gptlab.postulates import check_no_simultaneous_encoding
from gptlab.ratgeo import HRep
from gptlab.ratgeo.linalg import (
    independent_rows,
    inverse,
    mat_mul,
    mat_vec,
    rref,
    transpose,
    vsub,
)
from gptlab.serialize import dumps, symmetry_group_to_json
from gptlab.spaces import (
    AffineMap,
    ball_rotation_path,
    from_hrep,
    make_ball3,
    make_classical,
    make_gbit,
)
from gptlab.symmetry import (
    FAIL,
    FINITE_SYMMETRY_GROUP,
    INTERACTING,
    MAX_VERTICES,
    NON_INTERACTING,
    PASS,
    _AffineRealizer,
    _gram_projector,
    affine_automorphisms,
    check_continuous_reversibility,
    check_interaction,
    orbits,
)
from helpers import apply, compose, fraction_affine_inverse, identity_map
from test_linalg import fraction_null_space
from test_spaces import space_from_points


def brute_force_symmetries(space):
    """Oracle: every vertex permutation that preserves all affine dependencies.

    A permutation extends to an affine map iff each dependency
    sum_i c_i v_i = 0 with sum_i c_i = 0 still holds once every v_i is
    replaced by v_perm[i].  All n! permutations are tried; only the exact
    kernel is used, no Gram projector and no realized map.
    """
    verts = space.vertices
    n, d = len(verts), space.dim
    lifted_columns = [tuple(v[r] for v in verts) for r in range(d)] + [(1,) * n]
    dependencies = fraction_null_space(lifted_columns, n)
    return {
        perm
        for perm in itertools.permutations(range(n))
        if all(
            sum(c * verts[perm[i]][r] for i, c in enumerate(dep)) == 0
            for dep in dependencies
            for r in range(d)
        )
    }


def seeded_polytope(seed):
    """Hull of 3-7 grid points in 2 or 3 dimensions, some of them flat in 3."""
    rng = random.Random(seed)
    dim = 2 + seed % 2
    grid = list(itertools.product(range(-1, 2), repeat=dim))
    points = rng.sample(grid, rng.randint(3, 7))
    if seed % 4 == 3:
        points = [(x, y, 0) for x, y, _ in points]
    return space_from_points(points, "seeded-%d" % seed)


def fraction_realize(verts, d, perm):
    """Oracle: the canonical affine map for perm in ``Fraction``s, or None.

    The map sends the first vertex and those whose differences from it a
    greedy scan keeps independent to their images, and fixes the complement
    of the hull's direction space; it is then checked on every vertex.
    """
    diffs = [vsub(v, verts[0]) for v in verts[1:]]
    independent = independent_rows(diffs)
    complement = fraction_null_space(diffs, d)
    a_inv = inverse(transpose([diffs[i] for i in independent] + complement))
    image_base = verts[perm[0]]
    image_columns = [
        vsub(verts[perm[1 + i]], image_base) for i in independent
    ] + complement
    matrix = mat_mul(transpose(image_columns), a_inv)
    shift = vsub(image_base, mat_vec(matrix, verts[0]))
    candidate = AffineMap(matrix=matrix, shift=shift)
    if any(apply(candidate, v) != verts[perm[u]] for u, v in enumerate(verts)):
        return None
    return candidate


def fraction_gram_projector(verts):
    """Oracle: Q = W (W^T W)^-1 W^T in ``Fraction``s, W the lifted vertices
    (rows (v, 1)) on their pivot columns."""
    lifted = [tuple(v) + (1,) for v in verts]
    _, pivots = rref(lifted)
    w = tuple(tuple(row[c] for c in pivots) for row in lifted)
    return mat_mul(mat_mul(w, inverse(mat_mul(transpose(w), w))), transpose(w))


ORACLE_SPACES = [make_gbit, make_boxworld2] + [
    (lambda n=n: make_classical(n)) for n in range(1, 7)
] + [(lambda seed=seed: seeded_polytope(seed)) for seed in range(20)]
ORACLE_IDS = ["gbit", "boxworld2"] + ["classical-%d" % n for n in range(1, 7)] + [
    "seeded-%d" % seed for seed in range(20)
]


@pytest.mark.parametrize("make_space", ORACLE_SPACES, ids=ORACLE_IDS)
def test_integer_realizer_matches_fraction_oracle(make_space):
    space = make_space()
    verts, d = space.vertices, space.dim
    group = affine_automorphisms(space)
    for perm, element in zip(group.vertex_permutations, group.elements):
        assert element == fraction_realize(verts, d, perm)
    if len(verts) <= 8:
        # Transpositions exercise the reject path as well.
        realizer = _AffineRealizer(space.v)
        for i, j in itertools.combinations(range(len(verts)), 2):
            perm = list(range(len(verts)))
            perm[i], perm[j] = j, i
            assert realizer.realize(perm) == fraction_realize(verts, d, perm)


@pytest.mark.parametrize("make_space", ORACLE_SPACES, ids=ORACLE_IDS)
def test_integer_gram_projector_is_a_positive_multiple_of_q(make_space):
    v = make_space().v
    q, oracle = _gram_projector(v), fraction_gram_projector(v.vertices)
    factor = Fraction(q[0][0]) / oracle[0][0]
    assert factor > 0 and factor.denominator == 1
    assert q == [[factor * x for x in row] for row in oracle]


def test_gbit_group_is_dihedral_order_8(gbit):
    group = affine_automorphisms(gbit)
    assert group.order == 8
    assert set(group.vertex_permutations) == brute_force_symmetries(gbit)
    assert tuple(range(4)) in group.vertex_permutations  # identity


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_group_matches_brute_force(n):
    space = make_classical(n)
    group = affine_automorphisms(space)
    assert set(group.vertex_permutations) == brute_force_symmetries(space)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_polytope_group_matches_brute_force(seed):
    space = seeded_polytope(seed)
    assert len(space.vertices) <= 7
    group = affine_automorphisms(space)
    assert list(group.vertex_permutations) == sorted(group.vertex_permutations)
    assert set(group.vertex_permutations) == brute_force_symmetries(space)


def scanning_backtrack_permutations(space):
    """Oracle: the vertex search as a scan over all n vertices at each node.

    Position i may take vertex k when k is unused, has the colour of i (its
    diagonal Q entry and sorted Q row) and agrees with Q on every vertex
    already assigned.  Images are tried in increasing order.
    """
    q = _gram_projector(space.v)
    n = len(q)
    colour = [(q[i][i], sorted(q[i])) for i in range(n)]
    permutations, image, used = [], [], [False] * n

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

    descend()
    return permutations


@pytest.mark.parametrize(
    "make_space",
    ORACLE_SPACES + [lambda: make_classical(7)],
    ids=ORACLE_IDS + ["classical-7"],
)
def test_mask_search_matches_the_scanning_backtrack(make_space):
    space = make_space()
    assert list(affine_automorphisms(space).vertex_permutations) == (
        scanning_backtrack_permutations(space)
    )


def test_group_axioms_hold_exhaustively(gbit):
    group = affine_automorphisms(gbit)
    perm_set = set(group.vertex_permutations)
    index = {p: i for i, p in enumerate(group.vertex_permutations)}
    for p in group.vertex_permutations:
        inverse_perm = tuple(sorted(range(len(p)), key=lambda i: p[i]))
        assert inverse_perm in perm_set
    for p, ep in zip(group.vertex_permutations, group.elements):
        for q, eq in zip(group.vertex_permutations, group.elements):
            composed = tuple(p[q[i]] for i in range(len(p)))
            assert composed in perm_set
            # The affine maps compose consistently with the permutations.
            combined = compose(ep, eq)
            target = group.elements[index[composed]]
            for v in gbit.vertices:
                assert apply(combined, v) == apply(target, v)


def test_elements_have_affine_inverses(gbit):
    group = affine_automorphisms(gbit)
    for el in group.elements:
        inv = fraction_affine_inverse(el)
        assert inv is not None
        assert compose(inv, el) == identity_map(2)


@pytest.mark.parametrize("name", ["gbit", "boxworld2"])
def test_generators_generate(name, request):
    space = request.getfixturevalue(name)
    group = affine_automorphisms(space)
    verts = space.vertices
    n = len(verts)
    for gen, perm in zip(group.generators, group.generator_permutations):
        assert all(apply(gen, verts[i]) == verts[perm[i]] for i in range(n))
    generated = {tuple(range(n))}
    frontier = list(generated)
    gen_perms = set(group.generator_permutations)
    while frontier:
        new = []
        for p in frontier:
            for g in gen_perms:
                q = tuple(g[p[i]] for i in range(n))
                if q not in generated:
                    generated.add(q)
                    new.append(q)
        frontier = new
    assert generated == set(group.vertex_permutations)


def test_realizer_rejects_a_non_affine_permutation(gbit):
    # Swapping two adjacent corners of the square and fixing the other two
    # moves three affinely independent points consistently; only the
    # fourth vertex shows that no affine map does it.
    realizer = _AffineRealizer(gbit.v)
    assert realizer.realize((1, 0, 2, 3)) is None
    assert realizer.realize((0, 1, 2, 3)) == identity_map(2)


def test_realizer_rejects_swapping_a_local_vertex_with_a_pr_box(boxworld2):
    tags = [
        classify_vertex(table_from_vector(v)).tag for v in boxworld2.vertices
    ]
    local, pr = tags.index(LOCAL_DETERMINISTIC), tags.index(PR_BOX)
    perm = list(range(len(tags)))
    perm[local], perm[pr] = pr, local
    realizer = _AffineRealizer(boxworld2.v)
    assert realizer.realize(tuple(perm)) is None


def _sha256(elements, permutations):
    group = SimpleNamespace(elements=elements, vertex_permutations=permutations)
    return hashlib.sha256(dumps(symmetry_group_to_json(group)).encode()).hexdigest()


@pytest.mark.parametrize(
    "space, digest",
    [
        (make_gbit, "77037682528c2e7266def0c81b26d28717046f79478bd811e3a0e1310cec2202"),
        (
            lambda: make_classical(3),
            "205b763a9a6caeb4f8b63f88a55db8fc714ecb084f63157b4bf4b978f40adc45",
        ),
    ],
    ids=["gbit", "classical-3"],
)
def test_realized_group_is_pinned(space, digest):
    group = affine_automorphisms(space())
    assert _sha256(group.elements, group.vertex_permutations) == digest


def test_realized_boxworld_generators_are_pinned(boxworld2_group):
    group = boxworld2_group
    assert (
        _sha256(group.generators, group.generator_permutations)
        == "bd7aaf70301bad09d7e347c19590cdcf527c569559cabfd7c158628671660220"
    )
    assert (
        _sha256(group.elements, group.vertex_permutations)
        == "55babd3a996964645cdd486213cf25fad6fbd85dd5b9321e4ef393637d6df557"
    )


def test_boxworld_gram_graph_has_128_automorphisms(boxworld2):
    # Independent of the backtrack: networkx counts the permutations of the
    # complete graph coloured by Q = W (W^T W)^-1 W^T (nodes by the diagonal,
    # edges by the off-diagonal entries) that preserve every colour.
    nx = pytest.importorskip("networkx")
    q = fraction_gram_projector(boxworld2.vertices)
    graph = nx.complete_graph(len(q))
    for i in graph:
        graph.nodes[i]["q"] = q[i][i]
    for i, j in graph.edges:
        graph.edges[i, j]["q"] = q[i][j]
    same = lambda a, b: a["q"] == b["q"]
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        graph, graph, node_match=same, edge_match=same
    )
    assert sum(1 for _ in matcher.isomorphisms_iter()) == 128


def test_symmetries_preserve_facets(gbit):
    # Independent cross-check: each element maps the inequality set onto itself.
    group = affine_automorphisms(gbit)
    ineqs = set(gbit.h.inequalities)
    for el in group.elements:
        inv = fraction_affine_inverse(el)
        mapped = set()
        for normal, offset in ineqs:
            # a.x <= b becomes (a M^-1).y <= b + (a M^-1).s on y = Mx + s.
            new_normal = tuple(
                sum(normal[r] * inv.matrix[r][c] for r in range(2)) for c in range(2)
            )
            new_offset = offset + sum(n * s for n, s in zip(new_normal, el.shift))
            from test_polytope import fraction_canonical_inequality

            mapped.add(fraction_canonical_inequality(new_normal, new_offset))
        assert mapped == ineqs


def test_segment_group_order_2():
    assert affine_automorphisms(make_classical(2)).order == 2


def test_simplex_group_is_full_permutation_group():
    assert affine_automorphisms(make_classical(4)).order == 24


def test_symmetry_search_takes_the_5_cube_at_max_vertices():
    """The 5-cube, built from its 10 facets, has exactly ``MAX_VERTICES``
    vertices, and its group is the hyperoctahedral one, 2^5 * 5!."""
    unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    facets = [(tuple(-x for x in e), 0) for e in unit] + [(e, 1) for e in unit]
    cube = from_hrep(HRep(5, facets), "5-cube")
    assert len(cube.vertices) == MAX_VERTICES == 32
    assert affine_automorphisms(cube).order == 3840


def test_ball_unsupported():
    with pytest.raises(UnsupportedError):
        affine_automorphisms(make_ball3())


POLYTOPAL_ONLY = "operation requires a polytopal state space, got 'ball3'"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ball, gbit: orbits(affine_automorphisms(gbit), ball), POLYTOPAL_ONLY),
        (lambda ball, gbit: check_interaction(ball, (0,)), POLYTOPAL_ONLY),
        (lambda ball, gbit: check_no_simultaneous_encoding(ball), POLYTOPAL_ONLY),
        (
            lambda ball, gbit: affine_automorphisms(ball),
            "the ball has a continuous symmetry group; handled analytically",
        ),
    ],
    ids=["orbits", "check_interaction", "check_no_simultaneous_encoding",
         "affine_automorphisms"],
)
def test_polytope_checkers_reject_the_ball(gbit, call, message):
    """``space.vertices`` is each checker's polytopal guard; the symmetry
    search names the ball's continuous group before reaching it."""
    with pytest.raises(UnsupportedError) as err:
        call(make_ball3(), gbit)
    assert str(err.value) == message


def test_square_single_orbit(gbit):
    group = affine_automorphisms(gbit)
    assert orbits(group, gbit) == ((0, 1, 2, 3),)


def test_square_and_simplex_have_one_orbit(gbit):
    """Their groups act transitively on the pure states."""
    assert orbits(affine_automorphisms(gbit), gbit) == ((0, 1, 2, 3),)
    simplex = make_classical(3)
    assert orbits(affine_automorphisms(simplex), simplex) == ((0, 1, 2),)


def test_reversibility_of_gbit_and_simplex(gbit):
    """Every pure state reaches every other by a reversible transformation:
    for each ordered pair some group element maps the one to the other."""
    for space in (gbit, make_classical(3)):
        group = affine_automorphisms(space)
        n = len(space.vertices)
        reached = {(i, perm[i]) for perm in group.vertex_permutations for i in range(n)}
        assert reached == set(itertools.product(range(n), repeat=2))


def test_boxworld_reversibility_fails_with_witness(boxworld2, boxworld2_group):
    """No reversible transformation takes a local deterministic box to a PR
    box: the first vertex of each of the two orbits is such a pair."""
    partition = orbits(boxworld2_group, boxworld2)
    assert len(partition) == 2
    i, j = partition[0][0], partition[1][0]
    assert all(perm[i] != j for perm in boxworld2_group.vertex_permutations)
    tags = {
        classify_vertex(table_from_vector(boxworld2.vertices[k])).tag
        for k in (i, j)
    }
    assert tags == {LOCAL_DETERMINISTIC, PR_BOX}


def test_orbits_rejects_mismatched_group(gbit):
    group = affine_automorphisms(gbit)
    with pytest.raises(InputError):
        orbits(group, make_classical(3))


def orbits_of_all_permutations(group, n):
    """Oracle: orbits as the classes of i ~ perm[i] over every element."""
    classes = {i: {i} for i in range(n)}
    for perm in group.vertex_permutations:
        for i, j in enumerate(perm):
            if classes[i] is not classes[j]:
                merged = classes[i] | classes[j]
                for k in merged:
                    classes[k] = merged
    return tuple(sorted({tuple(sorted(c)) for c in classes.values()}))


def test_generator_orbits_match_all_permutations(gbit, boxworld2):
    spaces = [gbit, boxworld2] + [make_classical(n) for n in range(1, 6)]
    spaces += [seeded_polytope(seed) for seed in range(20)]
    trivial = 0
    for space in spaces:
        group = affine_automorphisms(space)
        trivial += not group.generator_permutations
        assert orbits(group, space) == orbits_of_all_permutations(
            group, len(space.vertices)
        )
    assert trivial > 0  # some seeded polytope has only the identity


def test_boxworld_group_preserves_classification(boxworld2, boxworld2_group):
    tags = [
        classify_vertex(table_from_vector(v)).tag for v in boxworld2.vertices
    ]
    for perm in boxworld2_group.vertex_permutations:
        for i, j in enumerate(perm):
            assert tags[i] == tags[j]


def test_boxworld_orbits_separate_local_from_pr(boxworld2, boxworld2_group):
    partition = orbits(boxworld2_group, boxworld2)
    tags = [
        classify_vertex(table_from_vector(v)).tag for v in boxworld2.vertices
    ]
    tag_sets = [sorted({tags[i] for i in cls}) for cls in partition]
    assert all(len(ts) == 1 for ts in tag_sets)
    sizes = sorted(len(cls) for cls in partition)
    assert sizes == [8, 16]


def test_orbit_classes_have_constant_degree(boxworld2, boxworld2_group):
    from gptlab.ratgeo import vertex_adjacency

    adj = vertex_adjacency(boxworld2.v, boxworld2.h)
    partition = orbits(boxworld2_group, boxworld2)
    for cls in partition:
        degrees = {len(adj[i]) for i in cls}
        assert len(degrees) == 1


def test_continuous_reversibility_gbit_fails(gbit):
    result = check_continuous_reversibility(gbit)
    assert result["status"] == FAIL
    assert result["reason"] == FINITE_SYMMETRY_GROUP


def test_continuous_reversibility_ball_passes():
    result = check_continuous_reversibility(make_ball3())
    assert result["status"] == PASS
    # Pinned to the last bit: the report prints endpoint_error.
    assert result["detail"] == {
        "endpoint_error": 1.2246467991473532e-16,
        "max_sample_step": 0.0314107590781284,
        "samples": 101,
    }
    path = ball_rotation_path((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    a = np.array([0.0, 0.0, 1.0])
    assert np.allclose(path(0.0), np.eye(3))
    assert np.linalg.norm(path(1.0) @ a - np.array([1.0, 0.0, 0.0])) < 1e-9


def test_continuous_reversibility_point_space_passes():
    assert check_continuous_reversibility(make_classical(1))["status"] == PASS


def test_interaction_boxworld_non_interacting(boxworld2):
    local = [
        i
        for i, v in enumerate(boxworld2.vertices)
        if classify_vertex(table_from_vector(v)).tag == LOCAL_DETERMINISTIC
    ]
    result = check_interaction(boxworld2, local)
    assert result["vertex_level_result"] == NON_INTERACTING


def test_interaction_requires_product_set(gbit):
    with pytest.raises(InputError):
        check_interaction(gbit, [])


@pytest.mark.parametrize("index", [-1, 24])
def test_interaction_rejects_a_product_index_outside_the_vertices(boxworld2, index):
    """boxworld2 has 24 vertices, indexed 0-23."""
    with pytest.raises(InputError, match="product vertex index out of range"):
        check_interaction(boxworld2, [0, index])


def test_interaction_classical_composite_vertex_level():
    # Two classical two-level systems compose to the 4-outcome simplex; all
    # vertices are products, and simplex symmetries permute them.
    composite = make_classical(4)
    result = check_interaction(composite, range(4))
    assert result["vertex_level_result"] == NON_INTERACTING


def test_interaction_detects_orbit_escape():
    # Mark only one square vertex as "product": any symmetry moving it
    # witnesses interaction at the vertex level.
    square = make_gbit()
    result = check_interaction(square, [0])
    assert result["vertex_level_result"] == INTERACTING
    element, source, image = result["witness"]
    group = affine_automorphisms(square)
    assert group.vertex_permutations[element][source] == image
    assert image != 0
