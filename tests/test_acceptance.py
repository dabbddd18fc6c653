"""Acceptance gate: every headline claim, one test per criterion.

Each test prints a single CRITERION line (visible with ``pytest -s`` or in
the captured-output report); the assertions enforce the stated tolerances,
which are zero for everything exact.
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np

from gptlab.bloch import bloch_density, bloch_eigenvalues, unitary_to_rotation
from gptlab.boxworld import (
    LOCAL_DETERMINISTIC,
    PR_BOX,
    all_chsh_variants,
    build_ns_hrep,
    chsh_max,
    chsh_objective,
    classify_vertex,
    quantum_chsh_table,
    table_from_vector,
)
from gptlab.postulates import (
    CONFIRMED,
    check_disturbance,
    check_joint_readout,
    check_no_simultaneous_encoding,
    check_tomographic_locality,
    joint_readout_system,
    run_report,
    verify_encoding_witness,
)
from gptlab.ratgeo import (
    EmptyError,
    HRep,
    INFEASIBLE,
    MAX,
    OPTIMAL,
    affine_dimension,
    solve_lp,
    verify_farkas,
    vertex_adjacency,
    vertex_enumeration,
)
from gptlab.spaces import decompose_state, make_ball3, make_classical
from gptlab.symmetry import (
    FAIL,
    FINITE_SYMMETRY_GROUP,
    PASS,
    affine_automorphisms,
    check_continuous_reversibility,
    orbits,
)
from helpers import vec
from test_linalg import fraction_rank, fraction_solve
from test_polytope import fraction_contains


def announce(number: int, text: str):
    print("CRITERION %02d PASS: %s" % (number, text))


def classification_tags(space):
    return [classify_vertex(table_from_vector(v)).tag for v in space.vertices]


def test_criterion_01_vertex_census(boxworld2):
    tags = classification_tags(boxworld2)
    assert len(boxworld2.vertices) == 24
    assert tags.count(LOCAL_DETERMINISTIC) == 16
    assert tags.count(PR_BOX) == 8
    announce(1, "24 vertices: 16 local deterministic + 8 PR boxes (exact)")


def test_criterion_02_affine_dimension(boxworld2):
    assert affine_dimension(boxworld2.vertices) == 8
    announce(2, "no-signalling polytope affine dimension = 8 (exact)")


def test_criterion_03_adjacency(boxworld2):
    tags = classification_tags(boxworld2)
    adj = vertex_adjacency(boxworld2.v, boxworld2.h)
    for i, tag in enumerate(tags):
        neighbors = adj[i]
        local_n = sum(1 for j in neighbors if tags[j] == LOCAL_DETERMINISTIC)
        pr_n = sum(1 for j in neighbors if tags[j] == PR_BOX)
        if tag == LOCAL_DETERMINISTIC:
            assert len(neighbors) == 17
            assert local_n == 13 and pr_n == 4
        else:
            assert len(neighbors) == 8
            assert local_n == 8 and pr_n == 0
    announce(3, "local degree 17 = 13 local + 4 PR; PR degree 8, all local (exact)")


def test_criterion_04_orbit_separation(boxworld2, boxworld2_group):
    tags = classification_tags(boxworld2)
    for perm in boxworld2_group.vertex_permutations:
        for i, j in enumerate(perm):
            assert tags[i] == tags[j]
    partition = orbits(boxworld2_group, boxworld2)
    for cls in partition:
        assert len({tags[i] for i in cls}) == 1
    announce(4, "no symmetry maps a local vertex to a PR vertex; orbits never mix")


def test_criterion_05_gbit_symmetry_and_continuity(gbit):
    group = affine_automorphisms(gbit)
    assert group.order == 8
    assert orbits(group, gbit) == ((0, 1, 2, 3),)
    gbit_result = check_continuous_reversibility(gbit)
    assert gbit_result["status"] == FAIL
    assert gbit_result["reason"] == FINITE_SYMMETRY_GROUP
    ball_result = check_continuous_reversibility(make_ball3())
    assert ball_result["status"] == PASS
    assert ball_result["detail"]["endpoint_error"] < 1e-9
    announce(
        5,
        "gbit group order 8, transitive; continuity Fail(FiniteSymmetryGroup); "
        "ball3 Pass, endpoint error %.2e" % ball_result["detail"]["endpoint_error"],
    )


def test_criterion_06_chsh(boxworld2):
    tags = classification_tags(boxworld2)
    for i, v in enumerate(boxworld2.vertices):
        value = chsh_max(table_from_vector(v).p)
        assert value == (4 if tags[i] == PR_BOX else 2)
    ns = build_ns_hrep()
    for variant in all_chsh_variants():
        result = solve_lp(chsh_objective(variant), MAX, ns)
        assert result.status == OPTIMAL and result.optimum == 4
    quantum = chsh_max(
        quantum_chsh_table(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    )
    assert abs(quantum - 2 * math.sqrt(2)) < 1e-9
    announce(
        6,
        "chsh_max: 4 on PR, 2 on local (exact); LP max over H-rep = 4; "
        "quantum = %.10f ~ 2*sqrt(2)" % quantum,
    )


def test_criterion_07_no_simultaneous_encoding(gbit):
    w = check_no_simultaneous_encoding(gbit)
    assert w is not None
    assert w.states == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))
    assert verify_encoding_witness(w, gbit)
    joint = check_joint_readout(w, gbit)
    assert joint.status == INFEASIBLE
    assert verify_farkas(joint_readout_system(w, gbit), joint.witness)
    disturbance = check_disturbance(gbit, w)
    assert disturbance["status"] == CONFIRMED
    announce(
        7,
        "gbit encodes two bits (corner witness); joint readout Infeasible "
        "with verified Farkas certificate; disturbance Confirmed",
    )


def test_criterion_08_tomographic_locality(gbit, boxworld2, classical_bit):
    bw = check_tomographic_locality(gbit, gbit, boxworld2)
    assert bw == {"status": PASS, "dim_a": 3, "dim_b": 3, "dim_ab": 9}
    cl = check_tomographic_locality(classical_bit, classical_bit, make_classical(4))
    assert cl == {"status": PASS, "dim_a": 2, "dim_b": 2, "dim_ab": 4}
    announce(8, "linear dimensions: 3 x 3 = 9 (boxworld), 2 x 2 = 4 (classical)")


def test_criterion_09_decompositions(gbit):
    decs = decompose_state(vec(F(1, 2), F(1, 2)), gbit)
    supports = {dec.support: dec.weights for dec in decs}
    assert supports == {
        (0, 3): (F(1, 2), F(1, 2)),
        (1, 2): (F(1, 2), F(1, 2)),
    }
    interior = decompose_state((F(1, 4),) * 4, make_classical(4))
    assert len(interior) == 1
    announce(
        9,
        "gbit center: exactly the two half-half diagonal decompositions; "
        "simplex interior point: exactly one",
    )


def test_criterion_10_bloch():
    rng = np.random.default_rng(7)
    worst_eig = 0.0
    for _ in range(1000):
        a = rng.normal(size=3)
        a = rng.uniform(0, 1) * a / np.linalg.norm(a)
        hi, lo = bloch_eigenvalues(a)
        eigs = sorted(np.linalg.eigvalsh(bloch_density(a)), reverse=True)
        worst_eig = max(worst_eig, abs(eigs[0] - hi), abs(eigs[1] - lo))
    assert worst_eig < 1e-10
    worst_rot = 0.0
    for _ in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        rot = unitary_to_rotation(u)
        for _ in range(20):
            a = rng.normal(size=3)
            a = rng.uniform(0, 1) * a / np.linalg.norm(a)
            err = np.max(
                np.abs(bloch_density(rot @ a) - u @ bloch_density(a) @ u.conj().T)
            )
            worst_rot = max(worst_rot, float(err))
    assert worst_rot < 1e-9
    announce(
        10,
        "eigenvalue error %.2e < 1e-10 (1000 states); rotation round-trip "
        "error %.2e < 1e-9 (100 unitaries)" % (worst_eig, worst_rot),
    )


def test_criterion_11_oracle_equivalence():
    rng = random.Random(424242)

    def brute_force(h):
        d = h.ambient_dim
        constraints = list(h.inequalities) + list(h.equalities)
        points = set()
        for subset in itertools.combinations(range(len(constraints)), d):
            rows = [constraints[i][0] for i in subset]
            rhs = tuple(constraints[i][1] for i in subset)
            if fraction_rank(rows) < d:
                continue
            x = fraction_solve(rows, rhs)
            if x is not None and fraction_contains(h, x):
                points.add(x)
        return tuple(sorted(points))

    checked = 0
    while checked < 200:
        dim = rng.randrange(1, 5)
        ineqs = []
        for _ in range(rng.randrange(0, 7)):
            normal = tuple(F(rng.randrange(-10, 11)) for _ in range(dim))
            if all(x == 0 for x in normal):
                continue
            ineqs.append((normal, F(rng.randrange(-10, 11))))
        for k in range(dim):
            e = tuple(F(1) if j == k else F(0) for j in range(dim))
            ineqs.append((e, F(rng.randrange(0, 11))))
            ineqs.append((tuple(-x for x in e), F(rng.randrange(0, 11))))
        try:
            h = HRep.make(dim, ineqs)
        except Exception:
            continue
        oracle = brute_force(h)
        if not oracle:
            try:
                vertex_enumeration(h)
                raise AssertionError("oracle empty but enumeration succeeded")
            except EmptyError:
                continue
        assert vertex_enumeration(h).vertices == oracle
        checked += 1
    announce(11, "double description matches hyperplane-intersection oracle on 200 H-reps")


def test_criterion_12_postulate_report():
    report = run_report("boxworld2")["results"]
    assert report["ContinuousReversibility"]["status"] == FAIL
    assert report["TomographicLocality"]["status"] == PASS
    assert report["InformationUnit_Interaction"]["status"] == FAIL
    assert report["NoSimultaneousEncoding"]["status"] == FAIL
    announce(
        12,
        "boxworld2 report: P1 Fail, P2 Pass, P3-interaction Fail, P4 Fail",
    )
