"""CLI behavior: schemas, idempotence, error handling."""

import hashlib
import json

import pytest

from gptlab.boxworld import pr_box_table
from gptlab.cli import build_full_report, run
from gptlab.serialize import dumps, space_to_json, table_to_json
from gptlab.spaces import make_gbit


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_vertices_boxworld2(capsys):
    code, data = invoke(capsys, "vertices", "--space", "boxworld2")
    assert code == 0
    assert data["dim"] == 16
    assert len(data["vertices"]) == 24
    assert all(
        all("/" in entry for entry in vertex) for vertex in data["vertices"]
    )


def test_adjacency_summary_matches_paper(capsys):
    code, data = invoke(capsys, "adjacency", "--space", "boxworld2", "--summary")
    assert code == 0
    assert data["local_degree"] == 17
    assert data["local_to_local"] == 13
    assert data["local_to_pr"] == 4
    assert data["pr_degree"] == 8


def test_adjacency_edges_schema(capsys):
    code, data = invoke(capsys, "adjacency", "--space", "gbit")
    assert code == 0
    assert data == {"edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}


def test_chsh_table_file(tmp_path, capsys):
    table_path = tmp_path / "pr0.json"
    table_path.write_text(dumps(table_to_json(pr_box_table())))
    code, data = invoke(capsys, "chsh", "--table", str(table_path))
    assert code == 0
    assert data["chsh_max"] == "4/1"


def test_chsh_quantum_angles(capsys):
    code, data = invoke(
        capsys,
        "chsh",
        "--angles",
        "0,1.5707963267948966,0.7853981633974483,-0.7853981633974483",
    )
    assert code == 0
    assert data["inexact"] is True
    assert abs(data["chsh_max"] - 2 * 2 ** 0.5) < 1e-9


def test_classify_space(capsys):
    code, data = invoke(capsys, "classify", "--space", "boxworld2")
    assert code == 0
    assert data["counts"] == {"local_deterministic": 16, "pr_box": 8}


def test_symmetries_gbit(capsys):
    code, data = invoke(capsys, "symmetries", "--space", "gbit")
    assert code == 0
    assert data["order"] == 8
    assert len(data["elements"]) == 8
    assert all(set(el) == {"matrix", "shift", "perm"} for el in data["elements"])


def test_orbits_gbit(capsys):
    code, data = invoke(capsys, "orbits", "--space", "gbit")
    assert code == 0
    assert data == {"classes": [[0, 1, 2, 3]]}


def test_decompose(capsys):
    code, data = invoke(
        capsys, "decompose", "--space", "gbit", "--state", "1/2,1/2"
    )
    assert code == 0
    assert len(data["decompositions"]) == 2


def test_bloch_vector(capsys):
    code, data = invoke(capsys, "bloch", "--vector", "0,0,0.8")
    assert code == 0
    assert data["inexact"] is True
    assert abs(data["eigenvalues"][0] - 0.9) < 1e-12


def test_postulates_config(capsys):
    code, data = invoke(capsys, "postulates", "--config", "boxworld2")
    assert code == 0
    results = data["results"]
    assert results["ContinuousReversibility"]["status"] == "fail"
    assert results["TomographicLocality"]["status"] == "pass"


def test_unknown_space_exits_2(capsys):
    code, data = invoke(capsys, "vertices", "--space", "not-a-space")
    assert code == 2
    assert data["error"]["type"] == "InputError"


def test_unknown_command_exits_2(capsys):
    code = run(["frobnicate"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"


def test_classical_space_parsing(capsys):
    code, data = invoke(capsys, "vertices", "--space", "classical-3")
    assert code == 0
    assert len(data["vertices"]) == 3


def test_build_and_reload_space(tmp_path, capsys):
    code, data = invoke(capsys, "build", "--space", "gbit")
    assert code == 0
    path = tmp_path / "gbit.json"
    path.write_text(json.dumps(data))
    code2, data2 = invoke(capsys, "vertices", "--space", str(path))
    assert code2 == 0
    assert data2["vertices"] == [["0/1", "0/1"], ["0/1", "1/1"], ["1/1", "0/1"], ["1/1", "1/1"]]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "verts.json"
    code, data = invoke(
        capsys, "vertices", "--space", "gbit", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == data


def test_idempotence(capsys):
    code1 = run(["vertices", "--space", "gbit"])
    out1 = capsys.readouterr().out
    code2 = run(["vertices", "--space", "gbit"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_malformed_state_exits_2(capsys):
    code, data = invoke(
        capsys, "decompose", "--space", "gbit", "--state", "0.5,0.5"
    )
    assert code == 2
    assert data["error"]["type"] == "InputError"


def _json_file(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _gbit_json_with_zero_denominator():
    data = space_to_json(make_gbit())
    data["vrep"]["vertices"][0][0] = "1/0"
    return data


def _gbit_json_with_triangle_vertices():
    """Three of the square's vertices against the whole square's H."""
    data = space_to_json(make_gbit())
    data["vrep"]["vertices"].pop()
    return data


BAD_INPUTS = {
    "state-zero-denominator": lambda tmp: [
        "decompose", "--space", "gbit", "--state", "1/0,1/2"
    ],
    "state-wrong-length": lambda tmp: [
        "decompose", "--space", "gbit", "--state", "1/2"
    ],
    "state-outside": lambda tmp: ["decompose", "--space", "gbit", "--state", "2,1/2"],
    "space-directory": lambda tmp: ["vertices", "--space", str(tmp)],
    "space-zero-denominator": lambda tmp: [
        "vertices", "--space", _json_file(tmp, _gbit_json_with_zero_denominator())
    ],
    "space-vh-mismatch": lambda tmp: [
        "decompose",
        "--space",
        _json_file(tmp, _gbit_json_with_triangle_vertices()),
        "--state",
        "1,1",
    ],
    "table-zero-denominator": lambda tmp: [
        "chsh", "--table", _json_file(tmp, {"p": ["1/0"] + ["0/1"] * 15})
    ],
    "table-directory": lambda tmp: ["chsh", "--table", str(tmp)],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_input_error(case, tmp_path, capsys):
    code, data = invoke(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert data["error"]["type"] == "InputError"
    assert "Fraction(" not in data["error"]["message"]


GOLDEN_GBIT_VERTICES = """\
{
  "dim": 2,
  "vertices": [
    [
      "0/1",
      "0/1"
    ],
    [
      "0/1",
      "1/1"
    ],
    [
      "1/1",
      "0/1"
    ],
    [
      "1/1",
      "1/1"
    ]
  ]
}
"""

GOLDEN_GBIT_ORBITS = """\
{
  "classes": [
    [
      0,
      1,
      2,
      3
    ]
  ]
}
"""


def test_golden_vertices_output(capsys):
    assert run(["vertices", "--space", "gbit"]) == 0
    assert capsys.readouterr().out == GOLDEN_GBIT_VERTICES


def test_golden_orbits_output(capsys):
    assert run(["orbits", "--space", "gbit"]) == 0
    assert capsys.readouterr().out == GOLDEN_GBIT_ORBITS


def test_full_report_bundle(capsys):
    code, data = invoke(capsys, "report")
    assert code == 0
    ns = data["no_signalling_polytope"]
    assert ns["vertex_count"] == 24
    assert ns["affine_dimension"] == 8
    assert ns["local_degree"] == [17]
    assert ns["pr_degree"] == [8]
    assert ns["pr_neighbors_all_local"] is True
    sym = data["symmetries"]
    assert sym["gbit_order"] == 8
    assert sym["orbits_mix_classes"] is False
    chsh = data["chsh"]
    assert set(chsh["lp_maxima_over_ns"].values()) == {"4/1"}
    assert abs(chsh["quantum_standard_angles"] - 2 * 2 ** 0.5) < 1e-9
    postulates = data["postulates"]["boxworld2"]["results"]
    assert postulates["NoSimultaneousEncoding"]["status"] == "fail"


REPORT_SHA256 = "6dd5a6f8a3fb1b8169bcd1403c630b39190da0c743861fd37b0ee5e19141aeb2"


def test_report_hashes_to_the_gate():
    stdout = dumps(build_full_report()) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_SHA256
