"""Machine-checked verdicts for the four reconstruction postulates.

Each checker returns a result object carrying a witness that an independent
code path can re-verify: a dimension report for tomographic locality, an
encoding witness (states plus readout measurements) for the encoding
postulate, exact LP certificates for joint-readout infeasibility, and LP
value pairs for the disturbance claim.  ``run_report`` aggregates the
checkers for a registered configuration into a deterministic report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .boxworld import is_boxworld2, make_boxworld2, product_table
from .errors import InputError
from .ratgeo import (
    HRep,
    INFEASIBLE,
    LPResult,
    MAX,
    MIN,
    OPTIMAL,
    affine_dimension,
    format_rational,
    solve_lp,
    verify_farkas,
)
from .ratgeo.linalg import (
    ONE,
    Vector,
    ZERO,
    integer_null_space,
    integer_rows,
    integer_rref,
    zeros,
)
from .serialize import effect_to_json, vector_to_json
from .spaces import (
    BALL3,
    Effect,
    Measurement,
    StateSpace,
    make_ball3,
    make_classical,
    make_gbit,
)
from .symmetry import (
    FAIL,
    NON_INTERACTING,
    PASS,
    affine_automorphisms,
    check_continuous_reversibility,
    check_interaction,
)

NOT_APPLICABLE = "not_applicable"
CONFIRMED = "confirmed"
NOT_CONFIRMED = "not_confirmed"


# ---------------------------------------------------------------------------
# Postulate 2: tomographic locality (dimension criterion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TomographyResult:
    status: str
    dim_a: int
    dim_b: int
    dim_ab: int


def linear_dimension(space: StateSpace) -> int:
    """Affine dimension of the state space plus one (its linear span size)."""
    if space.kind == BALL3:
        return space.dim + 1
    return affine_dimension(space.vertices) + 1


def check_tomographic_locality(
    space_a: StateSpace, space_b: StateSpace, space_ab: StateSpace
) -> TomographyResult:
    """Pass iff dim(AB) = dim(A) * dim(B) for the linear span dimensions.

    Local measurements span dim(A) * dim(B) independent functionals on the
    composite; they determine every state exactly when the composite's
    linear dimension matches that product.
    """
    da, db, dab = (
        linear_dimension(space_a),
        linear_dimension(space_b),
        linear_dimension(space_ab),
    )
    status = PASS if dab == da * db else FAIL
    return TomographyResult(status=status, dim_a=da, dim_b=db, dim_ab=dab)


# ---------------------------------------------------------------------------
# Postulate 4: no simultaneous encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodingWitness:
    """Four states indexed by bit pairs, with perfect readouts for each bit.

    ``states`` is ordered (w00, w01, w10, w11) by the encoded pair (b, b');
    ``measurement_b`` outcome k fires with certainty exactly when b = k, and
    ``measurement_bprime`` likewise for b'.
    """

    states: tuple[Vector, Vector, Vector, Vector]
    measurement_b: Measurement
    measurement_bprime: Measurement

    def bit_values(self, index: int) -> tuple[int, int]:
        return index >> 1, index & 1


@dataclass(frozen=True)
class EncodingResult:
    status: str  # PASS: postulate holds; FAIL: violated, with witness
    witness: EncodingWitness | None = None


def _readout_effect(space, group0, group1) -> Effect | None:
    """Effect that is exactly 0 on group0 states and 1 on group1 states.

    Solved as an exact LP feasibility problem over the effect coefficients;
    validity (values in [0, 1]) is imposed at all vertices, which bounds the
    affine functional on the whole polytope.
    """
    d = space.dim
    nvars = d + 1  # linear coefficients plus constant
    ineqs = []
    for v in space.vertices:
        row = tuple(v) + (ONE,)
        ineqs.append((tuple(-x for x in row), ZERO))  # e(v) >= 0
        ineqs.append((row, ONE))  # e(v) <= 1
    eqs = []
    for omega in group0:
        eqs.append((tuple(omega) + (ONE,), ZERO))
    for omega in group1:
        eqs.append((tuple(omega) + (ONE,), ONE))
    system = HRep.make(nvars, ineqs, eqs)
    result = solve_lp(zeros(nvars), MAX, system)
    if result.status != OPTIMAL:
        return None
    coeffs = result.witness
    return Effect(linear=coeffs[:d], constant=coeffs[d])


def _two_outcome(effect: Effect) -> Measurement:
    complement = Effect(
        linear=tuple(-x for x in effect.linear), constant=ONE - effect.constant
    )
    return Measurement(effects=(complement, effect))


def check_no_simultaneous_encoding(space: StateSpace) -> EncodingResult:
    """Search vertex quadruples for two independently settable, perfectly
    readable bits; the first witness in canonical order is returned.

    A Fail means the postulate is violated (as for the gbit); Pass means no
    such witness exists among the pure states.
    """
    space.require_polytopal()
    verts = space.vertices
    n = len(verts)
    cache: dict = {}

    def readable(group0, group1) -> Effect | None:
        key = (frozenset(group0), frozenset(group1))
        if key not in cache:
            cache[key] = _readout_effect(
                space, [verts[i] for i in sorted(group0)],
                [verts[i] for i in sorted(group1)],
            )
        return cache[key]

    for quad in itertools.permutations(range(n), 4):
        i00, i01, i10, i11 = quad
        effect_b = readable((i00, i01), (i10, i11))
        if effect_b is None:
            continue
        effect_bp = readable((i00, i10), (i01, i11))
        if effect_bp is None:
            continue
        witness = EncodingWitness(
            states=(verts[i00], verts[i01], verts[i10], verts[i11]),
            measurement_b=_two_outcome(effect_b),
            measurement_bprime=_two_outcome(effect_bp),
        )
        return EncodingResult(status=FAIL, witness=witness)
    return EncodingResult(status=PASS)


def verify_encoding_witness(witness: EncodingWitness, space: StateSpace) -> bool:
    """Re-check a witness by direct probability evaluation (no LP involved)."""
    if len(set(witness.states)) != 4:
        return False
    for index, omega in enumerate(witness.states):
        if not space.contains(omega):
            return False
        b, bp = witness.bit_values(index)
        probs_b = witness.measurement_b.outcome_probabilities(omega)
        probs_bp = witness.measurement_bprime.outcome_probabilities(omega)
        if probs_b[b] != 1 or probs_bp[bp] != 1:
            return False
        if any(p < 0 for p in probs_b + probs_bp):
            return False
    return True


def joint_readout_system(witness: EncodingWitness, space: StateSpace) -> HRep:
    """Constraint system for a single 4-outcome measurement reading both bits.

    Variables: four effects of d+1 coefficients each, ordered by outcome
    (b, b') as 2b + b'.  Constraints: every effect is nonnegative at every
    vertex, the effects sum to the unit effect, and outcome (b, b') fires
    with certainty on the witness state w_bb'.
    """
    space.require_polytopal()
    d = space.dim
    block = d + 1
    nvars = 4 * block
    ineqs = []
    for k in range(4):
        for v in space.vertices:
            row = [ZERO] * nvars
            lifted = tuple(v) + (ONE,)
            for j in range(block):
                row[k * block + j] = -lifted[j]
            ineqs.append((tuple(row), ZERO))  # e_k(v) >= 0
    eqs = []
    for j in range(block):  # sum of effects = unit effect, coefficientwise
        row = [ZERO] * nvars
        for k in range(4):
            row[k * block + j] = ONE
        eqs.append((tuple(row), ONE if j == d else ZERO))
    for k, omega in enumerate(witness.states):
        row = [ZERO] * nvars
        lifted = tuple(omega) + (ONE,)
        for j in range(block):
            row[k * block + j] = lifted[j]
        eqs.append((tuple(row), ONE))  # e_k(w_k) = 1
    return HRep.make(nvars, ineqs, eqs)


def check_joint_readout(witness: EncodingWitness, space: StateSpace) -> LPResult:
    """Feasibility of one measurement reading both encoded bits at once.

    Infeasible results carry a Farkas certificate over
    :func:`joint_readout_system`, re-verified here before returning.
    """
    system = joint_readout_system(witness, space)
    result = solve_lp(zeros(system.ambient_dim), MAX, system)
    if result.status == INFEASIBLE:
        assert verify_farkas(system, result.witness)
    return result


# ---------------------------------------------------------------------------
# Disturbance: reading one bit erases the other
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisturbanceResult:
    status: str
    detail: dict | None = None


def _is_gbit(space: StateSpace) -> bool:
    if space.kind == BALL3 or space.dim != 2:
        return False
    corners = {(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ONE)}
    return set(space.vertices) == corners


def check_disturbance(space: StateSpace, witness: EncodingWitness) -> DisturbanceResult:
    """Confirm that reading the first bit necessarily erases the second.

    Post-measurement states are arbitrary valid states constrained by (i)
    repeatability (re-measuring the read bit returns the same outcome with
    certainty) and (ii) affinity of the measurement branch: the map from
    input state to unnormalized post-measurement state must be affine, or
    the sequential statistics would distinguish mixtures from their
    components.  Both constraints go into one exact LP; the claim is
    confirmed when the second readout's statistics are forced equal across
    the values of the second bit for at least one branch.
    """
    if not _is_gbit(space):
        return DisturbanceResult(
            status=NOT_APPLICABLE,
            detail={"reason": "disturbance claim is made for the gbit only"},
        )
    if not verify_encoding_witness(witness, space):
        return DisturbanceResult(
            status=NOT_CONFIRMED,
            detail={"reason": "witness does not encode two readable bits"},
        )

    d = space.dim
    block = d  # one post-state per witness state
    nvars = 4 * block
    read_effect = witness.measurement_b.effects[1]
    second_effect = witness.measurement_bprime.effects[1]

    ineqs = []
    for k in range(4):
        for normal, offset in space.h.inequalities:
            row = [ZERO] * nvars
            for j in range(d):
                row[k * block + j] = normal[j]
            ineqs.append((tuple(row), offset))
    eqs = []
    for k in range(4):
        b, _ = witness.bit_values(k)
        row = [ZERO] * nvars
        for j in range(d):
            row[k * block + j] = read_effect.linear[j]
        eqs.append((tuple(row), Fraction(b) - read_effect.constant))
    # Affinity of each measurement branch: every affine dependency among the
    # input states must be satisfied by the unnormalized branch outputs.  Each
    # dependency is an int multiple of the rational one, which HRep.make's
    # primitive rows drop.  The lam_k of either branch sum to 0, since the
    # verified witness reads e(w_k) = b_k exactly: no normalization row.
    input_matrix = list(zip(*(tuple(w) + (ONE,) for w in witness.states)))
    dependencies, _ = integer_null_space(
        *integer_rref(integer_rows(input_matrix)[0]), 4
    )
    for lam in dependencies:
        for branch in range(2):
            members = [
                k for k in range(4) if witness.bit_values(k)[0] == branch
            ]
            for j in range(d):
                row = [ZERO] * nvars
                for k in members:
                    row[k * block + j] = lam[k]
                eqs.append((tuple(row), ZERO))
    system = HRep.make(nvars, ineqs, eqs)

    branch_forced = {}
    for branch in range(2):
        k0 = branch << 1  # (b, b') = (branch, 0)
        k1 = (branch << 1) | 1
        objective = [ZERO] * nvars
        for j in range(d):
            objective[k1 * block + j] += second_effect.linear[j]
            objective[k0 * block + j] -= second_effect.linear[j]
        hi = solve_lp(tuple(objective), MAX, system)
        lo = solve_lp(tuple(objective), MIN, system)
        if hi.status != OPTIMAL or lo.status != OPTIMAL:
            return DisturbanceResult(
                status=NOT_CONFIRMED,
                detail={"reason": "post-measurement constraints infeasible"},
            )
        branch_forced[branch] = (hi.optimum, lo.optimum)

    erased = {b: hi == 0 and lo == 0 for b, (hi, lo) in branch_forced.items()}
    status = CONFIRMED if any(erased.values()) else NOT_CONFIRMED
    return DisturbanceResult(
        status=status,
        detail={
            "second_readout_spread": {
                str(b): [format_rational(hi), format_rational(lo)]
                for b, (hi, lo) in branch_forced.items()
            },
            "erased_branches": sorted(b for b, e in erased.items() if e),
        },
    )


# ---------------------------------------------------------------------------
# Report runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PostulateReport:
    subject: str
    results: tuple[tuple[str, dict], ...]

    def as_dict(self) -> dict:
        return {key: value for key, value in self.results}


def _product_vertex_indices(composite: StateSpace) -> tuple[int, ...]:
    """Indices of the locally preparable vertices of a registered composite."""
    if is_boxworld2(composite):
        corners = [(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ONE)]
        products = {
            product_table(wa, wb).p for wa in corners for wb in corners
        }
        return tuple(
            i for i, v in enumerate(composite.vertices) if tuple(v) in products
        )
    # Classical composite: every deterministic joint state is a product.
    return tuple(range(len(composite.vertices)))


REGISTERED_CONFIGS = ("boxworld2", "classical2", "ball3", "gbit")


def _config_spaces(config: str) -> tuple[StateSpace, StateSpace | None]:
    """The unit system of a registered configuration and its composite, if any."""
    if config == "boxworld2":
        return make_gbit(), make_boxworld2()
    if config == "classical2":
        return make_classical(2), make_classical(4)
    if config == "ball3":
        return make_ball3(), None
    if config == "gbit":
        return make_gbit(), None
    raise InputError(
        "unknown configuration %r; registered: %s"
        % (config, ", ".join(REGISTERED_CONFIGS))
    )


def run_report(config: str) -> PostulateReport:
    """Aggregate all postulate checkers for a registered configuration.

    ``boxworld2``: two gbits composing to the no-signalling polytope.
    ``classical2``: two classical bits composing to the 4-outcome simplex.
    ``ball3``: the qubit alone.  ``gbit``: the single gbit (no composite).
    Postulates about the composite read not-applicable without one.
    """
    unit, composite = _config_spaces(config)
    if composite is None:
        tomography = {"status": NOT_APPLICABLE, "reason": "NoCompositeRegistered"}
        interaction = dict(tomography)
    else:
        tomo = check_tomographic_locality(unit, unit, composite)
        tomography = {
            "status": tomo.status,
            "dim_a": tomo.dim_a,
            "dim_b": tomo.dim_b,
            "dim_ab": tomo.dim_ab,
        }
        interaction = _interaction_entry(composite)
    results = (
        ("ContinuousReversibility", _continuity_entry(unit)),
        ("TomographicLocality", tomography),
        (
            "InformationUnit_Tomography",
            {
                "status": PASS,
                "linear_dimension": linear_dimension(unit),
                "subject": unit.label,
            },
        ),
        ("InformationUnit_Interaction", interaction),
        (
            "InformationUnit_EncodeDecode",
            {"status": NOT_APPLICABLE, "reason": "UnboundedSearch"},
        ),
        ("NoSimultaneousEncoding", _encoding_entry(unit)),
    )
    return PostulateReport(subject=config, results=results)


def _continuity_entry(space: StateSpace) -> dict:
    result = check_continuous_reversibility(space)
    entry = {"status": result.status, "subject": space.label}
    if result.reason:
        entry["reason"] = result.reason
    if result.detail:
        entry["detail"] = {
            k: v for k, v in sorted(result.detail.items()) if k != "note"
        }
    return entry


def _interaction_entry(composite: StateSpace) -> dict:
    group = affine_automorphisms(composite)
    interaction = check_interaction(composite, _product_vertex_indices(composite))
    entry = {
        "status": FAIL if interaction.status == NON_INTERACTING else PASS,
        "vertex_level_result": interaction.status,
        "symmetry_group_order": group.order,
    }
    if interaction.witness is not None:
        entry["witness"] = list(interaction.witness)
    return entry


def _encoding_entry(space: StateSpace) -> dict:
    if space.kind == BALL3:
        return {"status": NOT_APPLICABLE, "reason": "NonPolytopalOutOfScope"}
    encoding = check_no_simultaneous_encoding(space)
    entry = {"status": encoding.status, "subject": space.label}
    if encoding.witness is not None:
        w = encoding.witness
        assert verify_encoding_witness(w, space)
        joint = check_joint_readout(w, space)
        disturbance = check_disturbance(space, w)
        entry["witness"] = {
            "states": [vector_to_json(s) for s in w.states],
            "readout_first_bit": effect_to_json(w.measurement_b.effects[1]),
            "readout_second_bit": effect_to_json(w.measurement_bprime.effects[1]),
            "joint_readout": joint.status,
            "disturbance": disturbance.status,
        }
    return entry
