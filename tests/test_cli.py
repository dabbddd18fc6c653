"""CLI behavior: schemas, idempotence, error handling."""

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptlab
from gptlab.boxworld import local_deterministic_table, make_boxworld2, pr_box_table
from gptlab.cli import build_full_report, run
from gptlab.ratgeo import vertex_adjacency
from gptlab.ratgeo.linalg import format_rational
from gptlab.serialize import dumps, space_to_json, vector_to_json
from gptlab.spaces import from_vertices, make_classical, make_gbit

PR_BOX_DOCUMENT = {"p": vector_to_json(pr_box_table().p)}


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
    table_path.write_text(dumps(PR_BOX_DOCUMENT))
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


def test_decompose_boxworld2_answers(boxworld2):
    # Half the PR box plus half an adjacent local vertex: a point inside an
    # edge, so exactly one decomposition.  An exponential search over
    # vertex subsets never answers here; the timeout turns that into a fail.
    verts = boxworld2.vertices
    pr = verts.index(pr_box_table().p)
    local = vertex_adjacency(boxworld2.v, boxworld2.h)[pr][0]
    state = ",".join(
        format_rational((a + b) / 2) for a, b in zip(verts[pr], verts[local])
    )
    src = os.path.dirname(os.path.dirname(gptlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", "decompose",
         "--space", "boxworld2", "--state", state],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    decs = json.loads(proc.stdout)["decompositions"]
    assert len(decs) == 1
    assert sum(Fraction(w) for w in decs[0]["weights"]) == 1


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
    return _text_file(tmp_path, json.dumps(data))


def _text_file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
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
    "space-nul-byte": lambda tmp: ["vertices", "--space", "gbit\x00.json"],
    "space-nested-too-deeply": lambda tmp: [
        "vertices", "--space", _text_file(tmp, "[" * 100000)
    ],
    "unitary-directory": lambda tmp: ["bloch", "--unitary", str(tmp)],
    "space-classical-too-large": lambda tmp: [
        "vertices", "--space", "classical-99999999999"
    ],
    "chsh-angle-inf": lambda tmp: ["chsh", "--angles", "inf,0,0,0"],
    "chsh-angle-nan": lambda tmp: ["chsh", "--angles", "nan,0,0,0"],
    "bloch-vector-nan": lambda tmp: ["bloch", "--vector", "nan,0,0"],
    "bloch-vector-overflow": lambda tmp: ["bloch", "--vector", "1e308,1e308,0"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_input_error(case, tmp_path, capsys):
    code, data = invoke(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert data["error"]["type"] == "InputError"
    assert "Fraction(" not in data["error"]["message"]


def test_classify_needs_16_entry_tables(capsys):
    code, data = invoke(capsys, "classify", "--space", "gbit")
    assert code == 2
    assert data["error"] == {
        "type": "InputError",
        "message": "classify needs a space of 16-entry probability tables; "
        "'gbit' has dimension 2",
    }


def test_classify_accepts_a_subset_of_the_vertices(tmp_path, capsys):
    """The local polytope is not boxworld2, but each of its vertices is a
    no-signalling vertex, so it is classifiable."""
    local = [
        local_deterministic_table(*bits).p
        for bits in itertools.product(range(2), repeat=4)
    ]
    path = _json_file(tmp_path, space_to_json(from_vertices(local, "local")))
    code, data = invoke(capsys, "classify", "--space", path)
    assert code == 0
    assert data["counts"] == {"local_deterministic": 16, "pr_box": 0}


def test_adjacency_summary_ignores_the_label(tmp_path, capsys):
    """A square labelled "boxworld2" is summarized as a square."""
    data = space_to_json(make_gbit())
    data["label"] = "boxworld2"
    path = _json_file(tmp_path, data)
    code, summary = invoke(capsys, "adjacency", "--space", path, "--summary")
    assert code == 0
    assert summary == {"degree_histogram": {"2": 4}}


def test_adjacency_summary_classifies_a_relabelled_boxworld2(tmp_path, capsys):
    data = space_to_json(make_boxworld2())
    data["label"] = "ns"
    path = _json_file(tmp_path, data)
    assert run(["adjacency", "--space", path, "--summary"]) == 0
    relabelled = capsys.readouterr().out
    assert run(["adjacency", "--space", "boxworld2", "--summary"]) == 0
    assert relabelled == capsys.readouterr().out


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


# ---------------------------------------------------------------------------
# Property: any input gives JSON and exit 0 or 2, never a traceback
# ---------------------------------------------------------------------------

WELL_FORMED_DOCUMENTS = (
    space_to_json(make_gbit()),
    space_to_json(make_classical(3)),
    {"kind": "ball3", "label": "qubit"},
    PR_BOX_DOCUMENT,
)
RATIONAL_TEXTS = ("0", "1", "1/2", "-1/3", "1/0", "0.5", "", "x", " 1/4 ", "1/2/3")
SPACE_NAMES = (
    "gbit", "classical-1", "classical-3", "ball3", "classical-", "classical-x",
    "classical-0", "classical-99999999999", "no-such-space", "", "-",
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(RATIONAL_TEXTS)
)
json_keys = st.sampled_from(("kind", "label", "vrep", "hrep", "dim", "p"))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=3),
    max_leaves=10,
)


@st.composite
def mutated_documents(draw):
    """A well-formed space or table document with one nested node replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(WELL_FORMED_DOCUMENTS)))
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(list(keys)))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            node[key] = draw(json_values)
            return doc
        node = child


file_contents = (
    st.sampled_from(WELL_FORMED_DOCUMENTS).map(json.dumps)
    | mutated_documents().map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=20)
)
state_texts = st.lists(st.sampled_from(RATIONAL_TEXTS), max_size=4).map(
    ",".join
) | st.text(max_size=8)


@st.composite
def cli_arguments(draw, path):
    """An argument list whose space, state and file inputs may be malformed."""
    source = draw(st.sampled_from(("registered", "text", "file")))
    if source == "registered":
        name = draw(st.sampled_from(SPACE_NAMES))
    elif source == "text":
        name = draw(st.text(max_size=12))
    else:
        with open(path, "w") as fh:
            fh.write(draw(file_contents))
        name = path
    commands = [
        [command, "--space", name]
        for command in ("build", "vertices", "adjacency", "classify", "symmetries", "orbits")
    ] + [
        ["adjacency", "--space", name, "--summary"],
        ["decompose", "--space", name, "--state", draw(state_texts)],
        ["chsh", "--table", name],
        ["classify", "--table", name],
    ]
    return draw(st.sampled_from(commands))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-property") / "input.json")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_input_gives_json_and_exit_0_or_2(input_path, data):
    argv = data.draw(cli_arguments(input_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), argv
    parsed = json.loads(out.getvalue())
    assert (code == 2) == ("error" in parsed), (argv, parsed)
    assert "Traceback" not in err.getvalue()
