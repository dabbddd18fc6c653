"""Postulate checkers: tomographic locality, encoding, disturbance, reports."""

import hashlib
from fractions import Fraction as F

import pytest

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
from gptlab.ratgeo import INFEASIBLE, verify_farkas
from gptlab.ratgeo.linalg import vec
from gptlab.serialize import dumps, report_to_json
from gptlab.spaces import Effect, Measurement, make_ball3, make_classical
from gptlab.symmetry import FAIL, PASS


def test_linear_dimensions(gbit, classical_bit, boxworld2):
    assert linear_dimension(gbit) == 3
    assert linear_dimension(classical_bit) == 2
    assert linear_dimension(boxworld2) == 9
    assert linear_dimension(make_ball3()) == 4


def test_tomographic_locality_boxworld(gbit, boxworld2):
    result = check_tomographic_locality(gbit, gbit, boxworld2)
    assert result.status == PASS
    assert (result.dim_a, result.dim_b, result.dim_ab) == (3, 3, 9)


def test_tomographic_locality_classical(classical_bit):
    result = check_tomographic_locality(
        classical_bit, classical_bit, make_classical(4)
    )
    assert result.status == PASS
    assert (result.dim_a, result.dim_b, result.dim_ab) == (2, 2, 4)


def test_tomographic_locality_padded_composite_fails(gbit):
    # A composite with linear dimension 10 instead of 3 * 3 = 9.
    padded = make_classical(10)
    result = check_tomographic_locality(gbit, gbit, padded)
    assert result.status == FAIL
    assert result.dim_ab == 10


def test_gbit_encoding_witness_is_the_corner_construction(gbit):
    result = check_no_simultaneous_encoding(gbit)
    assert result.status == FAIL
    w = result.witness
    # States w_bb' = (b, b'): both bits are encoded in the two coordinates.
    assert w.states == (vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1))
    # M is the 0-measurement (first coordinate), M' the 1-measurement.
    assert w.measurement_b.effects[1] == Effect(linear=vec(1, 0), constant=F(0))
    assert w.measurement_bprime.effects[1] == Effect(linear=vec(0, 1), constant=F(0))
    assert verify_encoding_witness(w, gbit)


def test_classical_bit_passes_encoding(classical_bit):
    assert check_no_simultaneous_encoding(classical_bit).status == PASS


def test_classical_4_fails_encoding():
    # Four perfectly distinguishable states encode two bits jointly readable,
    # but also individually: the postulate's witness condition is met.
    result = check_no_simultaneous_encoding(make_classical(4))
    assert result.status == FAIL
    assert verify_encoding_witness(result.witness, make_classical(4))


def test_joint_readout_infeasible_with_certificate(gbit):
    w = check_no_simultaneous_encoding(gbit).witness
    result = check_joint_readout(w, gbit)
    assert result.status == INFEASIBLE
    system = joint_readout_system(w, gbit)
    assert verify_farkas(system, result.witness)


def test_joint_readout_feasible_on_classical_4():
    space = make_classical(4)
    w = check_no_simultaneous_encoding(space).witness
    # Delta measurements read both bits at once on a simplex.
    assert check_joint_readout(w, space).status == "optimal"


def test_disturbance_confirmed_on_gbit(gbit):
    w = check_no_simultaneous_encoding(gbit).witness
    result = check_disturbance(gbit, w)
    assert result.status == CONFIRMED
    assert result.detail["erased_branches"] == [0, 1]
    spread = result.detail["second_readout_spread"]
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
    assert result.status == NOT_CONFIRMED
    assert "witness" in result.detail["reason"]


def test_disturbance_not_applicable_off_gbit():
    space = make_classical(4)
    w = check_no_simultaneous_encoding(space).witness
    assert check_disturbance(space, w).status == NOT_APPLICABLE


def test_boxworld_report_matches_paper_table():
    report = run_report("boxworld2").as_dict()
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
    report = run_report("classical2").as_dict()
    assert report["ContinuousReversibility"]["status"] == FAIL
    assert report["TomographicLocality"]["status"] == PASS
    assert report["NoSimultaneousEncoding"]["status"] == PASS


def test_ball_report():
    report = run_report("ball3").as_dict()
    assert report["ContinuousReversibility"]["status"] == PASS
    assert report["NoSimultaneousEncoding"]["status"] == NOT_APPLICABLE


def test_unknown_config_rejected():
    with pytest.raises(InputError):
        run_report("qubit-pair")


def test_report_determinism():
    first = dumps(report_to_json(run_report("boxworld2")))
    second = dumps(report_to_json(run_report("boxworld2")))
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
    stdout = dumps(report_to_json(run_report(config))) + "\n"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == POSTULATE_REPORT_SHA256[config]
