"""Postulate checkers: tomographic locality, encoding, disturbance, reports."""

import hashlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gptlab import postulates
from gptlab.errors import InputError
from gptlab.postulates import (
    CONFIRMED,
    EncodingWitness,
    NOT_APPLICABLE,
    REGISTERED_CONFIGS,
    NOT_CONFIRMED,
    check_disturbance,
    check_joint_readout,
    check_no_simultaneous_encoding,
    check_tomographic_locality,
    joint_readout_system,
    linear_dimension,
    run_report,
    verify_encoding_witness,
)
from gptlab.ratgeo import INFEASIBLE, solve_lp, verify_farkas
from gptlab.serialize import dumps, hrep_to_json, vector_to_json
from gptlab.spaces import BALL3, Effect, Measurement, make_ball3, make_classical
from gptlab.symmetry import (
    FAIL,
    PASS,
    check_continuous_reversibility,
    check_interaction,
)
from helpers import vec
from test_cli import _fresh_interpreter_env


def test_linear_dimensions(gbit, classical_bit, boxworld2):
    assert linear_dimension(gbit) == 3
    assert linear_dimension(classical_bit) == 2
    assert linear_dimension(boxworld2) == 9
    assert linear_dimension(make_ball3()) == 4


def test_tomographic_locality_boxworld(gbit, boxworld2):
    result = check_tomographic_locality(gbit, gbit, boxworld2)
    assert result["status"] == PASS
    assert (result["dim_a"], result["dim_b"], result["dim_ab"]) == (3, 3, 9)


def test_tomographic_locality_classical(classical_bit):
    result = check_tomographic_locality(
        classical_bit, classical_bit, make_classical(4)
    )
    assert result["status"] == PASS
    assert (result["dim_a"], result["dim_b"], result["dim_ab"]) == (2, 2, 4)


def test_tomographic_locality_padded_composite_fails(gbit):
    # A composite with linear dimension 10 instead of 3 * 3 = 9.
    padded = make_classical(10)
    result = check_tomographic_locality(gbit, gbit, padded)
    assert result["status"] == FAIL
    assert result["dim_ab"] == 10


def test_gbit_encoding_witness_is_the_corner_construction(gbit):
    w = check_no_simultaneous_encoding(gbit)
    assert w is not None
    # States w_bb' = (b, b'): both bits are encoded in the two coordinates.
    assert w.states == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))
    # M is the 0-measurement (first coordinate), M' the 1-measurement.
    assert w.measurement_b.effects[1] == Effect(linear=vec(1, 0), constant=F(0))
    assert w.measurement_bprime.effects[1] == Effect(linear=vec(0, 1), constant=F(0))
    assert verify_encoding_witness(w, gbit)


def test_classical_bit_passes_encoding(classical_bit):
    assert check_no_simultaneous_encoding(classical_bit) is None


def test_classical_4_fails_encoding():
    # Four perfectly distinguishable states encode two bits jointly readable,
    # but also individually: the postulate's witness condition is met.
    w = check_no_simultaneous_encoding(make_classical(4))
    assert w is not None
    assert verify_encoding_witness(w, make_classical(4))


def test_joint_readout_infeasible_with_certificate(gbit):
    w = check_no_simultaneous_encoding(gbit)
    result = check_joint_readout(w, gbit)
    assert result.status == INFEASIBLE
    system = joint_readout_system(w, gbit)
    assert verify_farkas(system, result.witness)


def test_joint_readout_feasible_on_classical_4():
    space = make_classical(4)
    w = check_no_simultaneous_encoding(space)
    # Delta measurements read both bits at once on a simplex.
    assert check_joint_readout(w, space).status == "optimal"


def test_disturbance_confirmed_on_gbit(gbit):
    w = check_no_simultaneous_encoding(gbit)
    result = check_disturbance(gbit, w)
    assert result["status"] == CONFIRMED
    assert result["detail"]["erased_branches"] == [0, 1]
    spread = result["detail"]["second_readout_spread"]
    assert spread == {"0": ["0/1", "0/1"], "1": ["0/1", "0/1"]}


def test_disturbance_degenerate_witness_not_confirmed(gbit):
    # b' ignored: the second readout never distinguished anything.
    trivial = Measurement(
        effects=(
            Effect(linear=vec(0, 0), constant=F(1, 2)),
            Effect(linear=vec(0, 0), constant=F(1, 2)),
        )
    )
    first_coord = Measurement(
        effects=(
            Effect(linear=vec(-1, 0), constant=F(1)),
            Effect(linear=vec(1, 0), constant=F(0)),
        )
    )
    degenerate = EncodingWitness(
        states=(vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)),
        measurement_b=first_coord,
        measurement_bprime=trivial,
    )
    result = check_disturbance(gbit, degenerate)
    assert result["status"] == NOT_CONFIRMED
    assert "witness" in result["detail"]["reason"]


def test_disturbance_not_applicable_off_gbit():
    space = make_classical(4)
    w = check_no_simultaneous_encoding(space)
    assert check_disturbance(space, w)["status"] == NOT_APPLICABLE


def test_boxworld_report_matches_paper_table():
    report = run_report("boxworld2")["results"]
    assert report["ContinuousReversibility"]["status"] == FAIL
    assert report["ContinuousReversibility"]["reason"] == "FiniteSymmetryGroup"
    assert report["TomographicLocality"]["status"] == PASS
    assert report["InformationUnit_Interaction"]["status"] == FAIL
    assert report["InformationUnit_Interaction"]["vertex_level_result"] == "non_interacting"
    assert report["NoSimultaneousEncoding"]["status"] == FAIL
    witness = report["NoSimultaneousEncoding"]["witness"]
    assert witness["joint_readout"] == INFEASIBLE
    assert witness["disturbance"] == CONFIRMED


def test_classical_report():
    report = run_report("classical2")["results"]
    assert report["ContinuousReversibility"]["status"] == FAIL
    assert report["TomographicLocality"]["status"] == PASS
    assert report["NoSimultaneousEncoding"]["status"] == PASS


def test_ball_report():
    report = run_report("ball3")["results"]
    assert report["ContinuousReversibility"]["status"] == PASS
    assert report["NoSimultaneousEncoding"]["status"] == NOT_APPLICABLE


@pytest.mark.parametrize("config", REGISTERED_CONFIGS)
def test_report_entries_are_the_checkers_return_values(config):
    unit, composite = postulates._config_spaces(config)
    results = run_report(config)["results"]
    assert results["ContinuousReversibility"] == check_continuous_reversibility(unit)
    if composite is not None:
        assert results["TomographicLocality"] == check_tomographic_locality(
            unit, unit, composite
        )
        products = postulates._product_vertex_indices(composite)
        assert results["InformationUnit_Interaction"] == check_interaction(
            composite, products
        )
    if unit.kind != BALL3:
        witness = check_no_simultaneous_encoding(unit)
        encoding = results["NoSimultaneousEncoding"]
        assert encoding["status"] == (PASS if witness is None else FAIL)


def test_unknown_config_rejected():
    with pytest.raises(InputError):
        run_report("qubit-pair")


def test_report_determinism():
    first = dumps(run_report("boxworld2"))
    second = dumps(run_report("boxworld2"))
    assert first == second


# sha256 of `gptlab postulates --config NAME` stdout, one per configuration.
POSTULATE_REPORT_SHA256 = {
    "boxworld2": "708684d3b9e5e2e10a2af42e0cd8c1ab788679a3509a1971a502b62aaef7ccd3",
    "classical2": "0262e68359e5eed3e928719f2e0c69363a37b162f89166a7c8e9f19228f6d844",
    "ball3": "3feb77022803b3b8bc83c6e3804ab6bd6d73d62c258c0c3dd4aa7f45dab9e3bc",
    "gbit": "1d7e3f65bf6b9ce82fcf977986ab3c0c58eeeec6a2317ec2b5b3f318972c6360",
}


@pytest.mark.parametrize("config", REGISTERED_CONFIGS)
def test_postulate_reports_are_pinned(config):
    stdout = dumps(run_report(config)) + "\n"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == POSTULATE_REPORT_SHA256[config]


# sha256 of every LP system the postulate checkers build on gbit, classical-3
# and classical-4: each HRep passed to solve_lp with its objective and sense,
# then joint_readout_system of the witness.  The verdicts alone would not see
# a change of row order, which changes pivots and certificates.
LP_SYSTEMS_SHA256 = "d1d4aa15a7f735d8ed6748886319d16e2582854d784351913a59d336d702a2d3"


def test_postulate_lp_systems_are_pinned(gbit, monkeypatch):
    systems = []

    def recording_solve_lp(objective, sense, system):
        systems.append(
            {
                "objective": vector_to_json(objective),
                "sense": sense,
                "system": hrep_to_json(system),
            }
        )
        return solve_lp(objective, sense, system)

    monkeypatch.setattr(postulates, "solve_lp", recording_solve_lp)
    for space in (gbit, make_classical(3), make_classical(4)):
        witness = check_no_simultaneous_encoding(space)
        if witness is None:
            continue
        check_joint_readout(witness, space)
        check_disturbance(space, witness)
        systems.append({"system": hrep_to_json(joint_readout_system(witness, space))})
    assert len(systems) == 12
    digest = hashlib.sha256(dumps(systems).encode()).hexdigest()
    assert digest == LP_SYSTEMS_SHA256


# Each check breaks one re-verification and prints what the checked call
# raises.  A bare ``assert`` would vanish under ``python -O``.
BROKEN_CERTIFICATE_CHECKS = """
import sys
from gptlab import postulates, symmetry
from gptlab.spaces import make_gbit

gbit = make_gbit()
witness = postulates.check_no_simultaneous_encoding(gbit)
greedy = symmetry._greedy_generators
search = symmetry.affine_automorphisms.__wrapped__
checks = [
    (postulates, "verify_farkas", lambda *a: False,
     lambda: postulates.check_joint_readout(witness, gbit)),
    (postulates, "verify_encoding_witness", lambda *a: False,
     lambda: postulates._encoding_entry(gbit)),
    (symmetry._AffineRealizer, "realize", lambda *a: None, lambda: search(gbit)),
    (symmetry, "_greedy_generators", lambda p, n: (greedy(p, n)[0], set()),
     lambda: search(gbit)),
]
print(sys.flags.optimize)
for owner, name, broken, call in checks:
    original = getattr(owner, name)
    setattr(owner, name, broken)
    try:
        call()
        print("not raised")
    except AssertionError as err:
        print(err)
    setattr(owner, name, original)
"""


def test_certificate_rechecks_raise_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CERTIFICATE_CHECKS],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "joint readout: the Farkas certificate fails",
        "the encoding witness fails its re-verification",
        "search produced an unrealizable generator",
        "generators do not close on the search",
    ]
