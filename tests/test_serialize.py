"""Round trips and schema shape for the JSON layer."""

from fractions import Fraction as F

import pytest

from gptlab.boxworld import pr_box_table
from gptlab.errors import InputError
from gptlab.ratgeo.linalg import format_rational, vec
from gptlab.serialize import (
    dumps,
    effect_to_json,
    float_table_to_json,
    graph_to_json,
    hrep_from_json,
    hrep_to_json,
    rational_from_json,
    space_from_json,
    space_to_json,
    table_from_json,
    vector_from_json,
    vector_to_json,
    vrep_from_json,
    vrep_to_json,
)
from gptlab.spaces import MAX_CLASSICAL_OUTCOMES, Effect, make_ball3, make_gbit


def table_to_json(t):
    return {"p": vector_to_json(t.p)}


def effect_from_json(data):
    return Effect(
        linear=vector_from_json(data["linear"]),
        constant=rational_from_json(data["constant"]),
    )


def test_rational_strings():
    assert format_rational(F(4)) == "4/1"
    assert rational_from_json("-2/6") == F(-1, 3)
    assert rational_from_json(3) == F(3)
    with pytest.raises(InputError):
        rational_from_json(0.5)


def test_hrep_round_trip(gbit):
    data = hrep_to_json(gbit.h)
    assert set(data) == {"dim", "ineqs", "eqs"}
    assert hrep_from_json(data) == gbit.h


def test_vrep_round_trip(gbit):
    data = vrep_to_json(gbit.v)
    assert data["dim"] == 2
    assert data["vertices"][0] == ["0/1", "0/1"]
    assert vrep_from_json(data) == gbit.v


def test_graph_schema():
    # Edges normalized to i < j, deduplicated, sorted.
    assert graph_to_json([(2, 0), (0, 1), (1, 0)]) == {"edges": [[0, 1], [0, 2]]}


def test_table_round_trip():
    t = pr_box_table()
    data = table_to_json(t)
    assert len(data["p"]) == 16
    assert all("/" in entry for entry in data["p"])
    assert table_from_json(data) == t


def test_float_table_flagged_inexact():
    data = float_table_to_json([0.25] * 16)
    assert data["inexact"] is True
    assert data["p_float"] == [0.25] * 16


def test_space_round_trip(gbit):
    data = space_to_json(gbit)
    assert data["kind"] == "polytopal"
    restored = space_from_json(data)
    assert restored.v == gbit.v
    assert restored.h == gbit.h
    ball = make_ball3()
    assert space_from_json(space_to_json(ball)).kind == "ball3"


def test_effect_round_trip():
    e = Effect(linear=vec(F(1, 2), 0), constant=F(1, 4))
    assert effect_from_json(effect_to_json(e)) == e


def test_dumps_is_deterministic(gbit):
    a = dumps(space_to_json(gbit))
    b = dumps(space_to_json(make_gbit()))
    assert a == b


def test_dim_is_capped_at_the_largest_built_in_space():
    h = hrep_from_json({"dim": MAX_CLASSICAL_OUTCOMES, "ineqs": [], "eqs": []})
    assert h.ambient_dim == 64
    with pytest.raises(InputError, match="dim must be at most 64, got 65"):
        hrep_from_json({"dim": 65, "ineqs": [], "eqs": []})


def test_malformed_inputs_raise_input_error():
    with pytest.raises(InputError):
        hrep_from_json({"dim": 2})
    with pytest.raises(InputError):
        vrep_from_json({"vertices": "zzz"})
    with pytest.raises(InputError):
        table_from_json({"q": []})
    with pytest.raises(InputError):
        space_from_json({"kind": "weird", "label": "x"})
    # A string or an object where an array belongs, though it would iterate.
    for reader, data, message in (
        (table_from_json, {"p": "1000010000100001"}, "probability table"),
        (vrep_from_json, {"dim": 1, "vertices": "01"}, "V-representation"),
        (hrep_from_json, {"dim": 2, "ineqs": [], "eqs": ""}, "H-representation"),
    ):
        expected = "^malformed %s: expected a JSON array, got str$" % message
        with pytest.raises(InputError, match=expected):
            reader(data)
    # A [normal, offset] pair that is an object: its keys "0" and "1" would
    # read as the normal (0) and the offset 1.
    pair = {"dim": 1, "ineqs": [{"0": 0, "1": 0}], "eqs": []}
    with pytest.raises(InputError, match="expected a JSON array, got dict$"):
        hrep_from_json(pair)
