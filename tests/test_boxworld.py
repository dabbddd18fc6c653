"""Two-gbit composite: no-signalling polytope, classification, CHSH."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from gptlab.boxworld import (
    CHSHVariant,
    LOCAL_DETERMINISTIC,
    PR_BOX,
    ProbabilityTable,
    VertexClass,
    _chsh_value,
    _ns_vertex_classes,
    all_chsh_variants,
    build_ns_hrep,
    chsh_max,
    chsh_objective,
    chsh_value,
    classify_vertex,
    local_deterministic_table,
    marginals,
    pr_box_table,
    product_table,
    quantum_chsh_table,
    table_from_vector,
    table_index,
)
from gptlab.errors import InputError, NotAVertexError, SignallingError
from gptlab.ratgeo import (
    MAX,
    OPTIMAL,
    affine_dimension,
    is_extreme_in,
    solve_lp,
    verify_dual,
)
from gptlab.ratgeo.linalg import vec
from test_linalg import fraction_null_space, fraction_rank
from test_spaces import space_from_points


HALF = F(1, 2)


def test_index_order():
    assert table_index(0, 0, 0, 0) == 0
    assert table_index(1, 0, 0, 0) == 1
    assert table_index(0, 1, 0, 0) == 2
    assert table_index(0, 0, 1, 0) == 4
    assert table_index(0, 0, 0, 1) == 8
    assert table_index(1, 1, 1, 1) == 15


def test_table_validation():
    with pytest.raises(InputError):
        ProbabilityTable(p=(F(1),) * 16)  # not normalized
    with pytest.raises(InputError):
        ProbabilityTable(p=(F(-1),) + (F(0),) * 15)


def test_vertex_count_and_dimension(boxworld2):
    assert len(boxworld2.vertices) == 24
    assert affine_dimension(boxworld2.vertices) == 8


def test_every_vertex_is_valid_table(boxworld2):
    for v in boxworld2.vertices:
        t = table_from_vector(v)  # constructor checks nonneg + normalization
        marginals(t)  # raises if signalling


def test_vertex_classification_census(boxworld2):
    tags = [classify_vertex(table_from_vector(v)).tag for v in boxworld2.vertices]
    assert tags.count(LOCAL_DETERMINISTIC) == 16
    assert tags.count(PR_BOX) == 8
    assert len(tags) == 24


def test_local_vertices_are_exactly_product_images(boxworld2):
    corners = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    products = {
        product_table(wa, wb).p for wa in corners for wb in corners
    }
    assert len(products) == 16
    local = {
        v
        for v in boxworld2.vertices
        if classify_vertex(table_from_vector(v)).tag == LOCAL_DETERMINISTIC
    }
    assert products == local


def decode_vertex_class(t):
    """Oracle: decode a vertex's class from its marginals and xor supports.

    Deterministic marginals give the assignment (a(0), a(1), b(0), b(1));
    otherwise every setting pair must put weight 1/2 on one value g(x, y)
    of a xor b, and g fixes the PR relabelling r + 2s + 4t.
    """
    pa, pb = marginals(t)
    if all(v in (0, 1) for row in pa + pb for v in row):
        a_of = tuple(next(a for a in range(2) if pa[a][x] == 1) for x in range(2))
        b_of = tuple(next(b for b in range(2) if pb[b][y] == 1) for y in range(2))
        return VertexClass(tag=LOCAL_DETERMINISTIC, detail=a_of + b_of)
    assert all(v in (0, HALF) for v in t.p)
    g = {}
    for x, y in itertools.product(range(2), repeat=2):
        support = {
            a ^ b
            for a, b in itertools.product(range(2), repeat=2)
            if t.value(a, b, x, y) > 0
        }
        assert len(support) == 1
        g[(x, y)] = support.pop()
    tt = g[(0, 0)]
    r = g[(1, 0)] ^ tt
    s = g[(0, 1)] ^ tt
    assert g[(1, 1)] == 1 ^ r ^ s ^ tt
    return VertexClass(tag=PR_BOX, detail=r + 2 * s + 4 * tt)


def test_classification_matches_decoder_oracle(boxworld2):
    for v in boxworld2.vertices:
        t = table_from_vector(v)
        assert classify_vertex(t) == decode_vertex_class(t)


def test_vertex_table_is_the_enumerated_vertex_set(boxworld2):
    classes = _ns_vertex_classes()
    assert set(classes) == set(boxworld2.vertices)
    assert len(classes) == 24
    ns = build_ns_hrep()
    assert all(is_extreme_in(ns, key) for key in classes)


def test_classify_rejects_non_vertices():
    uniform = ProbabilityTable(p=(F(1, 4),) * 16)
    with pytest.raises(NotAVertexError, match="not an extreme point"):
        classify_vertex(uniform)
    # A table outside the no-signalling set is not a vertex either.
    entries = [F(0)] * 16
    entries[table_index(0, 0, 0, 0)] = F(1)
    entries[table_index(0, 0, 0, 1)] = F(1)
    entries[table_index(0, 0, 1, 0)] = F(1)
    entries[table_index(1, 1, 1, 1)] = F(1)
    with pytest.raises(NotAVertexError, match="not in the no-signalling set"):
        classify_vertex(ProbabilityTable(p=tuple(entries)))


def test_paper_pr_box():
    t = pr_box_table()
    for a, b, x, y in itertools.product(range(2), repeat=4):
        if (x, y) == (0, 0):
            expected = HALF if a == b else F(0)
        else:
            expected = HALF if a != b else F(0)
        assert t.value(a, b, x, y) == expected
    cls = classify_vertex(t)
    assert cls.tag == PR_BOX
    assert cls.detail == 1 + 2  # (r, s, t) = (1, 1, 0)


def test_local_deterministic_classification():
    t = local_deterministic_table(0, 0, 0, 0)  # always both-up
    cls = classify_vertex(t)
    assert cls.tag == LOCAL_DETERMINISTIC
    assert cls.detail == (0, 0, 0, 0)


def test_pr_marginals_uniform():
    pa, pb = marginals(pr_box_table())
    for outcome in range(2):
        for setting in range(2):
            assert pa[outcome][setting] == HALF
            assert pb[outcome][setting] == HALF


def test_product_table_marginals():
    wa, wb = vec(F(1, 3), F(2, 3)), vec(F(1, 5), F(4, 5))
    t = product_table(wa, wb)
    pa, pb = marginals(t)
    assert pa[0] == (F(1, 3), F(2, 3))
    assert pb[0] == (F(1, 5), F(4, 5))


def test_product_table_examples():
    allup = product_table(vec(1, 1), vec(1, 1))
    assert allup.value(0, 0, 0, 0) == 1 and allup.value(0, 0, 1, 1) == 1
    det = product_table(vec(1, 0), vec(0, 1))
    assert classify_vertex(det).tag == LOCAL_DETERMINISTIC
    uniform = product_table(vec(HALF, HALF), vec(HALF, HALF))
    assert all(p == F(1, 4) for p in uniform.p)


def test_product_table_rejects_outside_square():
    with pytest.raises(InputError):
        product_table(vec(2, 0), vec(0, 0))


def test_signalling_table_detected():
    # Alice's marginal depends on Bob's setting y.
    def f(a, b, x, y):
        pa = F(1) if y == 0 else HALF  # p(a=0|x) differs across y
        paval = pa if a == 0 else 1 - pa
        return paval * HALF

    t = ProbabilityTable.from_function(f)
    with pytest.raises(SignallingError) as err:
        marginals(t)
    assert err.value.party == "A"


@pytest.mark.parametrize(
    "pa, text",
    [(HALF, "1/2"), (F(1, 10**5000 + 7), "1/1" + "0" * 4999 + "7")],
    ids=["short", "long"],
)
def test_signalling_message_writes_values_of_any_length(pa, text):
    """The values read as ``str`` does, whole numbers without "/1", also past
    the interpreter's int-to-string limit."""

    def f(a, b, x, y):
        p = F(1) if y == 0 else pa
        return (p if a == 0 else 1 - p) * HALF

    with pytest.raises(SignallingError) as err:
        marginals(ProbabilityTable.from_function(f))
    assert str(err.value) == (
        "marginal p_A(0|0) depends on the remote setting: "
        "settings (0, 1) give values ['1', '%s']" % text
    )


def test_chsh_variant_family():
    variants = all_chsh_variants()
    assert len(variants) == 8
    assert all(
        v.signs[0] * v.signs[1] * v.signs[2] * v.signs[3] == -1 for v in variants
    )
    with pytest.raises(InputError):
        CHSHVariant(signs=(1, 1, 1, 1))


def test_chsh_on_pr_boxes(boxworld2):
    # Brute force over all 8 variants on all 8 PR vertices.
    for v in boxworld2.vertices:
        t = table_from_vector(v)
        if classify_vertex(t).tag == PR_BOX:
            assert chsh_max(t.p) == 4
            # Correlators and signs both have product -1, so they disagree in
            # an even number of places: |value| is 4 (twice) or 0 (six times).
            values = sorted(abs(chsh_value(t, var)) for var in all_chsh_variants())
            assert values == [0, 0, 0, 0, 0, 0, 4, 4]


def test_chsh_on_local_vertices(boxworld2):
    for v in boxworld2.vertices:
        t = table_from_vector(v)
        if classify_vertex(t).tag == LOCAL_DETERMINISTIC:
            assert chsh_max(t.p) == 2


def test_chsh_uniform_table():
    uniform = ProbabilityTable(p=(F(1, 4),) * 16)
    assert chsh_max(uniform.p) == 0


def test_chsh_lp_bounds(boxworld2):
    # Algebraic bound: exact LP maximization over the no-signalling H-rep.
    ns = build_ns_hrep()
    for variant in all_chsh_variants():
        c = chsh_objective(variant)
        result = solve_lp(c, MAX, ns)
        assert result.status == OPTIMAL
        assert result.optimum == 4
        assert verify_dual(ns, c, MAX, result)
    # Local bound: exact LP maximization over the local polytope's H-rep.
    local = [
        v
        for v in boxworld2.vertices
        if classify_vertex(table_from_vector(v)).tag == LOCAL_DETERMINISTIC
    ]
    local_space = space_from_points(local, "local-polytope")
    for variant in all_chsh_variants():
        result = solve_lp(chsh_objective(variant), MAX, local_space.h)
        assert result.status == OPTIMAL
        assert result.optimum == 2


def test_chsh_objective_matches_direct_value():
    t = pr_box_table()
    for variant in all_chsh_variants():
        c = chsh_objective(variant)
        direct = chsh_value(t, variant)
        assert sum(ci * pi for ci, pi in zip(c, t.p)) == direct


def singlet_oracle_table(theta_a0, theta_a1, theta_b0, theta_b1):
    """Born-rule oracle: measure the singlet along equatorial directions."""
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    psi = (np.kron(up, down) - np.kron(down, up)) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def projectors(theta):
        op = math.sin(theta) * sx + math.cos(theta) * sz
        vals, vecs = np.linalg.eigh(op)
        # outcome 0 ("up") = +1 eigenvalue, outcome 1 = -1
        plus = vecs[:, np.argmax(vals)]
        minus = vecs[:, np.argmin(vals)]
        return [np.outer(plus, plus.conj()), np.outer(minus, minus.conj())]

    pa = [projectors(theta_a0), projectors(theta_a1)]
    pb = [projectors(theta_b0), projectors(theta_b1)]
    table = [0.0] * 16
    for a, b, x, y in itertools.product(range(2), repeat=4):
        val = np.trace(rho @ np.kron(pa[x][a], pb[y][b])).real
        table[table_index(a, b, x, y)] = float(val)
    return tuple(table)


def test_quantum_table_matches_born_rule_oracle():
    angles = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    ours = quantum_chsh_table(*angles)
    oracle = singlet_oracle_table(*angles)
    assert max(abs(p - q) for p, q in zip(ours, oracle)) < 1e-12


def test_quantum_chsh_tsirelson_angles():
    t = quantum_chsh_table(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    assert abs(chsh_max(t) - 2 * math.sqrt(2)) < 1e-9


def test_quantum_aligned_measurements_anticorrelate():
    t = quantum_chsh_table(0.3, 1.1, 0.3, -0.7)
    e00 = sum(
        (1 if (a ^ b) == 0 else -1) * t[table_index(a, b, 0, 0)]
        for a in range(2)
        for b in range(2)
    )
    assert abs(e00 + 1.0) < 1e-12


def test_quantum_all_angles_equal():
    t = quantum_chsh_table(0.5, 0.5, 0.5, 0.5)
    assert abs(chsh_max(t) - 2.0) < 1e-12


def nested_loop_chsh_value(p, variant):
    """Oracle: sign(x,y) E(x,y) summed in one nested loop over settings and
    outcomes, each sum from the integer 0."""
    total = 0
    for x in range(2):
        for y in range(2):
            e = 0
            for a in range(2):
                for b in range(2):
                    term = p[table_index(a, b, x, y)]
                    e += term if (a ^ b) == 0 else -term
            total += variant.signs[2 * x + y] * e
    return total


def test_chsh_max_keeps_the_float_bits_of_the_nested_loop():
    rng = random.Random(2014)
    for _ in range(50):
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        t = quantum_chsh_table(*angles)
        assert chsh_max(t) == max(
            abs(nested_loop_chsh_value(t, v)) for v in all_chsh_variants()
        )
    # Arbitrary float entries: their sums round differently in another order.
    for _ in range(50):
        p = [rng.random() for _ in range(16)]
        assert chsh_max(p) == max(
            abs(nested_loop_chsh_value(p, v)) for v in all_chsh_variants()
        )
        for v in all_chsh_variants():
            assert _chsh_value(p, v) == nested_loop_chsh_value(p, v)


def test_chsh_value_matches_the_nested_loop(boxworld2):
    tables = [table_from_vector(v) for v in boxworld2.vertices]
    tables.append(product_table((F(1, 3), F(1, 2)), (F(3, 4), F(0))))
    for t in tables:
        for variant in all_chsh_variants():
            assert chsh_value(t, variant) == nested_loop_chsh_value(t.p, variant)


def test_quantum_table_is_no_signalling():
    t = quantum_chsh_table(0.1, 0.7, -0.4, 1.3)
    for a in range(2):
        for x in range(2):
            m0 = sum(t[table_index(a, b, x, 0)] for b in range(2))
            m1 = sum(t[table_index(a, b, x, 1)] for b in range(2))
            assert abs(m0 - m1) < 1e-12
    for b in range(2):
        for y in range(2):
            m0 = sum(t[table_index(a, b, 0, y)] for a in range(2))
            m1 = sum(t[table_index(a, b, 1, y)] for a in range(2))
            assert abs(m0 - m1) < 1e-12


def test_ns_polytope_facet_round_trip(boxworld2):
    from gptlab.ratgeo import facet_enumeration, vertex_enumeration

    recovered = facet_enumeration(boxworld2.v)
    assert vertex_enumeration(recovered) == boxworld2.v
    # The only facets of the no-signalling set are the 16 nonnegativity ones.
    assert len(recovered.inequalities) == 16
    assert len(recovered.equalities) == 8


def test_product_tables_respect_local_bound():
    import random

    rng = random.Random(99)
    for _ in range(50):
        wa = vec(F(rng.randrange(0, 9), 8), F(rng.randrange(0, 9), 8))
        wb = vec(F(rng.randrange(0, 9), 8), F(rng.randrange(0, 9), 8))
        assert chsh_max(product_table(wa, wb).p) <= 2


def test_ns_hrep_rank_structure(boxworld2):
    # The 24 vertices span a 9-dimensional linear space, so exactly
    # 16 - 9 = 7 independent homogeneous functionals vanish on all of them;
    # together with one inhomogeneous normalization the affine hull needs
    # an equality system of rank 8.
    assert fraction_rank(list(boxworld2.vertices)) == 9
    eq_normals = [n for n, _ in build_ns_hrep().equalities]
    assert fraction_rank(eq_normals) == 8
    # Homogeneous annihilators: functionals (n, o) in the row space of the
    # equality system with o = 0 form a rank-7 subspace.
    annihilators = fraction_null_space(list(boxworld2.vertices), 16)
    assert len(annihilators) == 7
    for n in annihilators:
        assert all(
            sum(c * x for c, x in zip(n, vtx)) == 0 for vtx in boxworld2.vertices
        )
