"""JSON serialization for all exact and floating-point artifacts.

Every rational value is rendered as an ``"n/d"`` string (never a float), so
files round-trip bit for bit.  Floating-point payloads (Bloch / quantum
tables) are kept in separate fields and flagged ``"inexact": true``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .ratgeo import HRep, VRep, format_rational, parse_rational
from .spaces import (
    BALL3,
    Effect,
    MAX_CLASSICAL_OUTCOMES,
    POLYTOPAL,
    StateSpace,
    from_hrep,
)


def rational_from_json(text) -> Fraction:
    if isinstance(text, str):
        return parse_rational(text)
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    raise InputError("exact rationals must be 'n/d' strings, got %r" % (text,))


def vector_to_json(v) -> list:
    return [format_rational(x) for x in v]


def _array(data) -> list:
    """``data`` if it is a JSON array; a string or an object, which would
    iterate too, is malformed."""
    if not isinstance(data, list):
        raise TypeError("expected a JSON array, got %s" % type(data).__name__)
    return data


def vector_from_json(data) -> tuple:
    return tuple(rational_from_json(x) for x in _array(data))


def _constraints_from_json(data) -> list:
    """The [normal, offset] pairs of an ``ineqs`` or ``eqs`` array."""
    return [
        (vector_from_json(n), rational_from_json(o))
        for n, o in map(_array, _array(data))
    ]


def _dim_from_json(value) -> int:
    """A JSON integer up to the largest built-in dim (``classical-64``); a
    float, a string or a bool is malformed.  Vertex enumeration's basis of
    an empty H-representation alone costs (dim + 1)^2 ints."""
    if type(value) is not int:
        raise TypeError("dim must be an integer, got %r" % (value,))
    if value > MAX_CLASSICAL_OUTCOMES:
        raise ValueError(
            "dim must be at most %d, got %d" % (MAX_CLASSICAL_OUTCOMES, value))
    return value


def hrep_to_json(h: HRep) -> dict:
    return {
        "dim": h.ambient_dim,
        "ineqs": [[vector_to_json(n), format_rational(o)] for n, o in h.inequalities],
        "eqs": [[vector_to_json(n), format_rational(o)] for n, o in h.equalities],
    }


def hrep_from_json(data) -> HRep:
    try:
        dim = _dim_from_json(data["dim"])
        ineqs = _constraints_from_json(data["ineqs"])
        eqs = _constraints_from_json(data["eqs"])
    except (KeyError, TypeError, ValueError) as err:
        raise InputError("malformed H-representation: %s" % err) from err
    return HRep(dim, ineqs, eqs)


def vrep_to_json(v: VRep) -> dict:
    return {
        "dim": v.ambient_dim,
        "vertices": [vector_to_json(x) for x in v.vertices],
    }


def vrep_from_json(data) -> VRep:
    try:
        dim = _dim_from_json(data["dim"])
        vertices = [vector_from_json(x) for x in _array(data["vertices"])]
    except (KeyError, TypeError, ValueError) as err:
        raise InputError("malformed V-representation: %s" % err) from err
    return VRep(dim, vertices)


def graph_to_json(edges) -> dict:
    normalized = sorted({(min(i, j), max(i, j)) for i, j in edges})
    return {"edges": [list(e) for e in normalized]}


def table_from_json(data):
    from .boxworld import ProbabilityTable

    try:
        entries = vector_from_json(data["p"])
    except (KeyError, TypeError) as err:
        raise InputError("malformed probability table: %s" % err) from err
    return ProbabilityTable(p=entries)


def float_table_to_json(p) -> dict:
    return {"p_float": [float(x) for x in p], "inexact": True}


def space_to_json(space: StateSpace) -> dict:
    data = {"kind": space.kind, "label": space.label}
    if space.kind == POLYTOPAL:
        data["vrep"] = vrep_to_json(space.v)
        data["hrep"] = hrep_to_json(space.h)
    return data


def space_from_json(data) -> StateSpace:
    try:
        kind = data["kind"]
        label = data["label"]
    except (KeyError, TypeError) as err:
        raise InputError("malformed state space: %s" % err) from err
    if not isinstance(label, str):
        raise InputError("state space label must be a string, got %r" % (label,))
    if kind == BALL3:
        return StateSpace(kind=BALL3, label=label)
    if kind != POLYTOPAL:
        raise InputError("unknown state space kind %r" % (kind,))
    v = vrep_from_json(data.get("vrep"))
    space = from_hrep(hrep_from_json(data.get("hrep")), label)
    if space.v != v:
        raise InputError(
            "state space %r: its vertices are not the vertices of its "
            "H-representation" % (label,)
        )
    return space


def effect_to_json(e: Effect) -> dict:
    return {
        "linear": vector_to_json(e.linear),
        "constant": format_rational(e.constant),
    }


def symmetry_group_to_json(group) -> list:
    return [
        {
            "matrix": [vector_to_json(row) for row in el.matrix],
            "shift": vector_to_json(el.shift),
            "perm": list(perm),
        }
        for el, perm in zip(group.elements, group.vertex_permutations)
    ]


def decompositions_to_json(decs) -> list:
    return [
        {"support": list(dec.support), "weights": vector_to_json(dec.weights)}
        for dec in decs
    ]


def complex_matrix_to_json(m) -> list:
    """Row-major [[re, im], ...] pairs for a complex matrix."""
    rows = []
    for row in m:
        rows.append([[float(z.real), float(z.imag)] for z in row])
    return rows


def dumps(data) -> str:
    """Deterministic JSON rendering (fixed key order, stable separators)."""
    return json.dumps(data, indent=2, sort_keys=False)
