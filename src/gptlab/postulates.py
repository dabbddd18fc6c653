"""Machine-checked verdicts for the four reconstruction postulates.

Each checker returns the entry that ``gptlab postulates`` prints for its
postulate, with a witness that an independent code path can re-verify: a
dimension report for tomographic locality, an encoding witness (states plus
readout measurements) for the encoding postulate, exact LP certificates for
joint-readout infeasibility, and LP value pairs for the disturbance claim.
``run_report`` collects those entries for a registered configuration into
the deterministic dict that ``gptlab postulates`` prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    unit,
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
    PASS,
    check_continuous_reversibility,
    check_interaction,
)

NOT_APPLICABLE = "not_applicable"
CONFIRMED = "confirmed"
NOT_CONFIRMED = "not_confirmed"


# ---------------------------------------------------------------------------
# Postulate 2: tomographic locality (dimension criterion)
# ---------------------------------------------------------------------------


def linear_dimension(space: StateSpace) -> int:
    """Affine dimension of the state space plus one (its linear span size)."""
    if space.kind == BALL3:
        return space.dim + 1
    return affine_dimension(space.vertices) + 1


def check_tomographic_locality(
    space_a: StateSpace, space_b: StateSpace, space_ab: StateSpace
) -> dict:
    """Pass iff dim(AB) = dim(A) * dim(B) for the linear span dimensions, as
    ``{"status", "dim_a", "dim_b", "dim_ab"}``.

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
    return {"status": status, "dim_a": da, "dim_b": db, "dim_ab": dab}


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


def _lift(state) -> Vector:
    """(state, 1): an effect's d + 1 coefficients (linear part, then
    constant) dotted with it give the effect's value on the state."""
    return tuple(state) + (ONE,)


def _negated(v) -> Vector:
    return tuple(-x for x in v)


def _in_blocks(size: int, blocks: dict) -> Vector:
    """A row over four consecutive variable blocks of ``size`` entries each:
    ``blocks[k]`` in block k, zeros in every block that ``blocks`` omits."""
    return tuple(x for k in range(4) for x in blocks.get(k, zeros(size)))


def _readout_effect(space, group0, group1) -> Effect | None:
    """Effect that is exactly 0 on group0 states and 1 on group1 states.

    Solved as an exact LP feasibility problem over the effect coefficients;
    validity (values in [0, 1]) is imposed at all vertices, which bounds the
    affine functional on the whole polytope.
    """
    d = space.dim
    ineqs = []
    for v in space.vertices:
        ineqs.append((_negated(_lift(v)), ZERO))  # e(v) >= 0
        ineqs.append((_lift(v), ONE))  # e(v) <= 1
    eqs = [(_lift(omega), ZERO) for omega in group0]
    eqs += [(_lift(omega), ONE) for omega in group1]
    system = HRep.make(d + 1, ineqs, eqs)
    result = solve_lp(zeros(d + 1), MAX, system)
    if result.status != OPTIMAL:
        return None
    coeffs = result.witness
    return Effect(linear=coeffs[:d], constant=coeffs[d])


def _two_outcome(effect: Effect) -> Measurement:
    complement = Effect(linear=_negated(effect.linear), constant=ONE - effect.constant)
    return Measurement(effects=(complement, effect))


def check_no_simultaneous_encoding(space: StateSpace) -> EncodingWitness | None:
    """Search vertex quadruples for two independently settable, perfectly
    readable bits; the first witness in canonical order is returned.

    A witness means the postulate is violated (as for the gbit); None means
    no such witness exists among the pure states.
    """
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
        return EncodingWitness(
            states=(verts[i00], verts[i01], verts[i10], verts[i11]),
            measurement_b=_two_outcome(effect_b),
            measurement_bprime=_two_outcome(effect_bp),
        )
    return None


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
    block = space.dim + 1
    ineqs = [
        (_in_blocks(block, {k: _negated(_lift(v))}), ZERO)  # e_k(v) >= 0
        for k in range(4)
        for v in space.vertices
    ]
    unit_effect = unit(block, space.dim)  # e(w) = 1 on every state w
    eqs = [  # the effects sum to the unit effect, coefficientwise
        (_in_blocks(block, dict.fromkeys(range(4), unit(block, j))), unit_effect[j])
        for j in range(block)
    ]
    eqs += [
        (_in_blocks(block, {k: _lift(omega)}), ONE)  # e_k(w_k) = 1
        for k, omega in enumerate(witness.states)
    ]
    return HRep.make(4 * block, ineqs, eqs)


def check_joint_readout(witness: EncodingWitness, space: StateSpace) -> LPResult:
    """Feasibility of one measurement reading both encoded bits at once.

    Infeasible results carry a Farkas certificate over
    :func:`joint_readout_system`, re-verified here before returning.
    """
    system = joint_readout_system(witness, space)
    result = solve_lp(zeros(system.ambient_dim), MAX, system)
    if result.status == INFEASIBLE:
        if not verify_farkas(system, result.witness):
            raise AssertionError("joint readout: the Farkas certificate fails")
    return result


# ---------------------------------------------------------------------------
# Disturbance: reading one bit erases the other
# ---------------------------------------------------------------------------


def _is_gbit(space: StateSpace) -> bool:
    if space.kind == BALL3 or space.dim != 2:
        return False
    corners = {(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ONE)}
    return set(space.vertices) == corners


def check_disturbance(space: StateSpace, witness: EncodingWitness) -> dict:
    """Confirm that reading the first bit necessarily erases the second, as
    ``{"status", "detail"}``.

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
        return {
            "status": NOT_APPLICABLE,
            "detail": {"reason": "disturbance claim is made for the gbit only"},
        }
    if not verify_encoding_witness(witness, space):
        return {
            "status": NOT_CONFIRMED,
            "detail": {"reason": "witness does not encode two readable bits"},
        }

    # Variables: one post-state of d coordinates per witness state.
    d = space.dim
    read_effect = witness.measurement_b.effects[1]
    second_effect = witness.measurement_bprime.effects[1]

    ineqs = [
        (_in_blocks(d, {k: normal}), offset)
        for k in range(4)
        for normal, offset in space.h.inequalities
    ]
    eqs = [  # the read bit's outcome is repeated: e(post_k) = b_k
        (
            _in_blocks(d, {k: read_effect.linear}),
            witness.bit_values(k)[0] - read_effect.constant,
        )
        for k in range(4)
    ]
    # Affinity of each measurement branch: every affine dependency among the
    # input states must be satisfied by the unnormalized branch outputs.  Each
    # dependency is an int multiple of the rational one, which HRep.make's
    # primitive rows drop.  The lam_k of either branch sum to 0, since the
    # verified witness reads e(w_k) = b_k exactly: no normalization row.
    input_matrix = list(zip(*map(_lift, witness.states)))
    dependencies, _ = integer_null_space(
        *integer_rref(integer_rows(input_matrix)[0]), 4
    )
    for lam in dependencies:
        for branch in range(2):
            members = [k for k in range(4) if witness.bit_values(k)[0] == branch]
            for j in range(d):
                coords = {k: tuple(lam[k] * x for x in unit(d, j)) for k in members}
                eqs.append((_in_blocks(d, coords), ZERO))
    system = HRep.make(4 * d, ineqs, eqs)

    branch_forced = {}
    for branch in range(2):
        k0 = branch << 1  # (b, b') = (branch, 0)
        k1 = (branch << 1) | 1
        objective = _in_blocks(
            d, {k1: second_effect.linear, k0: _negated(second_effect.linear)}
        )
        hi = solve_lp(objective, MAX, system)
        lo = solve_lp(objective, MIN, system)
        if hi.status != OPTIMAL or lo.status != OPTIMAL:
            return {
                "status": NOT_CONFIRMED,
                "detail": {"reason": "post-measurement constraints infeasible"},
            }
        branch_forced[branch] = (hi.optimum, lo.optimum)

    erased = {b: hi == 0 and lo == 0 for b, (hi, lo) in branch_forced.items()}
    return {
        "status": CONFIRMED if any(erased.values()) else NOT_CONFIRMED,
        "detail": {
            "second_readout_spread": {
                str(b): [format_rational(hi), format_rational(lo)]
                for b, (hi, lo) in branch_forced.items()
            },
            "erased_branches": sorted(b for b, e in erased.items() if e),
        },
    }


# ---------------------------------------------------------------------------
# Report runner
# ---------------------------------------------------------------------------


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


def run_report(config: str) -> dict:
    """Collect the postulate checkers' entries for a registered configuration,
    as they are, into ``{"subject": config, "results": {postulate: entry}}``,
    the dict that ``gptlab postulates`` prints.

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
        tomography = check_tomographic_locality(unit, unit, composite)
        interaction = check_interaction(
            composite, _product_vertex_indices(composite)
        )
    results = {
        "ContinuousReversibility": check_continuous_reversibility(unit),
        "TomographicLocality": tomography,
        "InformationUnit_Tomography": {
            "status": PASS,
            "linear_dimension": linear_dimension(unit),
            "subject": unit.label,
        },
        "InformationUnit_Interaction": interaction,
        "InformationUnit_EncodeDecode": {
            "status": NOT_APPLICABLE,
            "reason": "UnboundedSearch",
        },
        "NoSimultaneousEncoding": _encoding_entry(unit),
    }
    return {"subject": config, "results": results}


def _encoding_entry(space: StateSpace) -> dict:
    if space.kind == BALL3:
        return {"status": NOT_APPLICABLE, "reason": "NonPolytopalOutOfScope"}
    w = check_no_simultaneous_encoding(space)
    if w is None:
        return {"status": PASS, "subject": space.label}
    if not verify_encoding_witness(w, space):
        raise AssertionError("the encoding witness fails its re-verification")
    joint = check_joint_readout(w, space)
    disturbance = check_disturbance(space, w)
    return {
        "status": FAIL,
        "subject": space.label,
        "witness": {
            "states": [vector_to_json(s) for s in w.states],
            "readout_first_bit": effect_to_json(w.measurement_b.effects[1]),
            "readout_second_bit": effect_to_json(w.measurement_bprime.effects[1]),
            "joint_readout": joint.status,
            "disturbance": disturbance["status"],
        },
    }
