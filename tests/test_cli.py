"""CLI behavior: schemas, idempotence, error handling."""

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptlab
from gptlab.boxworld import local_deterministic_table, make_boxworld2, pr_box_table
from gptlab.cli import build_full_report, run
from gptlab.postulates import REGISTERED_CONFIGS, run_report
from gptlab.ratgeo import vertex_adjacency
from gptlab.ratgeo.linalg import format_rational, parse_rational
from gptlab.serialize import dumps, space_to_json, vector_to_json
from gptlab.spaces import make_classical, make_gbit
from gptlab.symmetry import check_continuous_reversibility
from test_spaces import space_from_points

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
    proc = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", "decompose",
         "--space", "boxworld2", "--state", state],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    decs = json.loads(proc.stdout)["decompositions"]
    assert len(decs) == 1
    assert sum(Fraction(w) for w in decs[0]["weights"]) == 1


def test_closed_stdout_exits_1_without_a_traceback():
    # The reader closes the pipe before the first write, so every write fails.
    with subprocess.Popen(
        [sys.executable, "-m", "gptlab.cli", "symmetries", "--space", "gbit"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_fresh_interpreter_env(),
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "Error" not in stderr, stderr


def _fresh_interpreter_env():
    """The environment with this checkout's gptlab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(gptlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


# Every module a cold ``import gptlab.cli`` loads outside the standard
# library: numpy and ``gptlab.bloch`` are left to ``gptlab bloch``.
CLI_IMPORTS = [
    "gptlab",
    "gptlab.boxworld",
    "gptlab.cli",
    "gptlab.errors",
    "gptlab.postulates",
    "gptlab.ratgeo",
    "gptlab.ratgeo.linalg",
    "gptlab.ratgeo.lp",
    "gptlab.ratgeo.polytope",
    "gptlab.serialize",
    "gptlab.spaces",
    "gptlab.symmetry",
]


def test_cli_import_loads_only_gptlab_without_bloch():
    """Every command starts with this import, so a heavy module it pulls in
    slows them all."""
    code = (
        "import json, sys; before = set(sys.modules); import gptlab.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        name
        for name in json.loads(proc.stdout)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert loaded == CLI_IMPORTS


def _run_without_numpy(*argv):
    """``gptlab ARGV`` in a fresh interpreter in which importing numpy fails."""
    code = (
        "import sys; sys.modules['numpy'] = None; from gptlab import cli; "
        "raise SystemExit(cli.run(sys.argv[1:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=120,
    )


def test_report_and_ball_postulates_run_without_numpy():
    """The exact commands, the ball's continuity check included, need no
    numpy; only ``gptlab bloch`` does."""
    report = _run_without_numpy("report")
    assert report.returncode == 0, report.stderr
    assert hashlib.sha256(report.stdout.encode()).hexdigest() == REPORT_SHA256
    ball = _run_without_numpy("postulates", "--config", "ball3")
    assert ball.returncode == 0, ball.stderr
    assert ball.stdout == dumps(run_report("ball3")) + "\n"


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


# Each value flag, with a value that starts with "-" and a digit or ".".
NEGATIVE_VALUES = (
    ["decompose", "--space", "gbit", "--state", "-1/3,1/2"],
    ["decompose", "--space", "-1/2", "--state", "1/2,1/2"],
    ["bloch", "--vector", "-1/2,0,0"],
    ["bloch", "--vector", "-0.5,0,0"],
    ["chsh", "--angles", "-0.25,0,0.25,0.5"],
    ["chsh", "--table", "-1.json"],
    ["classify", "--table", "-1.json"],
    ["bloch", "--unitary", "-.json"],
    ["postulates", "--config", "-1/2"],
    ["vertices", "--space", "gbit", "--out", "-1.json"],
)


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=shlex.join)
def test_a_value_may_start_with_a_minus(argv, tmp_path, monkeypatch):
    """``--flag -1/3,...`` answers as ``--flag=-1/3,...`` does, not with a
    usage error for a flag without its value."""
    monkeypatch.chdir(tmp_path)
    *head, flag, value = argv
    answers = []
    for args in (argv, head + [flag + "=" + value]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            answers.append((run(args), out.getvalue()))
    assert answers[0] == answers[1]
    assert '"usage"' not in answers[0][1]
    if flag == "--out":
        assert (tmp_path / value).read_text() == answers[0][1]


def test_decompose_reads_a_negative_state(tmp_path, capsys):
    triangle = space_from_points([(-1, 0), (1, 0), (0, 1)], "triangle")
    path = _json_file(tmp_path, space_to_json(triangle))
    code, data = invoke(capsys, "decompose", "--space", path, "--state", "-1/2,1/4")
    assert code == 0
    assert data == {
        "state": ["-1/2", "1/4"],
        "decompositions": [{"support": [0, 1, 2], "weights": ["5/8", "1/4", "1/8"]}],
    }


def test_a_flag_after_a_value_flag_is_still_a_missing_value(capsys):
    code, data = invoke(capsys, "decompose", "--space", "gbit", "--state", "--out", "x")
    assert code == 2
    assert data["error"] == {
        "type": "usage", "message": "argument --state: expected one argument"
    }


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


def _gbit_json_with(rep, path, value):
    """The gbit space's JSON with the entry at ``path`` in ``rep`` replaced."""
    data = space_to_json(make_gbit())
    *keys, last = path
    target = data[rep]
    for key in keys:
        target = target[key]
    target[last] = value
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
    "bloch-unitary-overflow": lambda tmp: [
        "bloch", "--unitary", _json_file(tmp, [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]])
    ],
    "bloch-unitary-huge-int": lambda tmp: [
        "bloch",
        "--unitary",
        _json_file(tmp, [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]),
    ],
    "bloch-unitary-bool": lambda tmp: [
        "bloch",
        "--unitary",
        _json_file(tmp, [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]),
    ],
    "out-directory": lambda tmp: ["vertices", "--space", "gbit", "--out", str(tmp)],
    "out-missing-parent": lambda tmp: [
        "vertices", "--space", "gbit", "--out", str(tmp / "missing" / "out.json")
    ],
    "out-nul-byte": lambda tmp: ["vertices", "--space", "gbit", "--out", "out\x00.json"],
    "dim-float": lambda tmp: [
        "vertices", "--space", _json_file(tmp, _gbit_json_with("vrep", ["dim"], 2.9))
    ],
    "dim-string": lambda tmp: [
        "vertices", "--space", _json_file(tmp, _gbit_json_with("hrep", ["dim"], "2"))
    ],
    "dim-65": lambda tmp: [
        "build",
        "--space",
        _json_file(tmp, {
            "kind": "polytopal",
            "label": "big",
            "vrep": {"dim": 65, "vertices": []},
            "hrep": {"dim": 65, "ineqs": [], "eqs": []},
        }),
    ],
    "space-normal-wrong-length": lambda tmp: [
        "vertices",
        "--space",
        _json_file(tmp, _gbit_json_with("hrep", ["ineqs", 0, 0], ["1/1"])),
    ],
    "entry-bool": lambda tmp: [
        "vertices",
        "--space",
        _json_file(tmp, _gbit_json_with("vrep", ["vertices", 1, 1], True)),
    ],
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
    path = _json_file(tmp_path, space_to_json(space_from_points(local, "local")))
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


def test_report_checks_ball_continuity_once(monkeypatch, capsys):
    """The ball's and the gbit's continuity are each checked once, by the
    postulate reports of ball3 and boxworld2 (whose unit is the gbit)."""
    checked = []

    def counting(space):
        checked.append(space.label)
        return check_continuous_reversibility(space)

    # ``cli`` does not import the checker; patched there too, a direct call
    # from it would still be counted.
    for module in ("gptlab.cli", "gptlab.postulates"):
        monkeypatch.setattr(
            module + ".check_continuous_reversibility", counting, raising=False
        )
    assert run(["report"]) == 0
    capsys.readouterr()
    assert checked.count("ball3") == 1
    assert checked.count("gbit") == 1


def _edge_midpoint_state():
    """Half the PR box plus half its first neighbour, as CLI text."""
    boxworld2 = make_boxworld2()
    verts = boxworld2.vertices
    pr = verts.index(pr_box_table().p)
    local = vertex_adjacency(boxworld2.v, boxworld2.h)[pr][0]
    return ",".join(
        format_rational((a + b) / 2) for a, b in zip(verts[pr], verts[local])
    )


# sha256 of the stdout of each command, recorded before a rewrite beneath it:
# the integer kernel that replaced the Fraction elimination, Q and constraint
# checks, for classify-boxworld2 the lookup that replaced the decoder, and for
# the chsh cases the correlators that are now summed once per table (the float
# chsh_max of --angles is an output byte).
PINNED_OUTPUTS = {
    "vertices-gbit": "a998db93dd76fb7e7f84904dcf53ce995a29449b114d8b429c71d587ff4e13c3",
    "vertices-classical-4": "5dcd4a95faa2f3f0a441ae85d97de1e8e8d26ad20bc9e3b62a73ed51a983c9c7",
    "vertices-boxworld2": "90357470010d72902bf40ab038ed0a8c6cb925a3d3c2195fb53a01c2912a6627",
    "build-gbit": "7a287fd617435d246ed890abb6150c73a6ef112079546eef775696950c3371f3",
    "build-classical-4": "721d7cd2773b845583e7b9209baa14f4503be0ecde621bb36a2ea473ba952802",
    "build-boxworld2": "d1de3a8988d0c603f21b49061e9ddd8071d41be8509daba1f9b6f519dcd4aa0b",
    "symmetries-gbit": "42733aec8e07025b2d46cefd62d9db55a234272056514f7a1d1293e6fd5d6666",
    "symmetries-classical-4": "e66e434a1bd51c38300d44849a2e772342071ff856df7dc6c589068185f36a5d",
    "symmetries-boxworld2": "6b9d5f2aed87fbe84658d31f071207e1cb622190ec14ac5041b6fce7a51e03e9",
    "orbits-gbit": "79672ef08f3a3f9d83c409d5e70cbb44fb6799ab794189fac42be0e4e197cabb",
    "orbits-classical-4": "79672ef08f3a3f9d83c409d5e70cbb44fb6799ab794189fac42be0e4e197cabb",
    "orbits-boxworld2": "948f01c1de54b1b730c3dbac8ad198995121e472fc2a2b6db6aa4272fec3e249",
    "decompose-boxworld2-edge-midpoint": "5dfa5df3a67d9b237400730a0c40b2d56d0474c43791deff46fd4152250e5c71",
    "classify-boxworld2": "9f2c1df26909368d56b0359e9e935de55d8896811165a6cc3f671eea59551299",
    "chsh-table-pr-box": "884fad2d98c1749ede82f60efa67ed9bff6f5b7360e0df7833be5cf48383c872",
    "chsh-table-local-deterministic": "9fabc00b69238e5bd690a1b62993f24d6d8062ef03df825991a40a2c017e4a33",
    "chsh-table-mixed": "46e5dad4987835eb76bbb7a9af86571a3b7579aefbc085601153717f25fd89d1",
    "chsh-angles": "1146f44d6104ff7122c6473c9dd9ee5309119c44d38b7b590d7211f140c64ffb",
}

# The tables behind the chsh-table cases: a PR box, a local deterministic
# table, and one third of the first plus two thirds of the second.
PINNED_TABLES = {
    "pr-box": pr_box_table().p,
    "local-deterministic": local_deterministic_table(0, 1, 1, 0).p,
}
PINNED_TABLES["mixed"] = tuple(
    Fraction(1, 3) * a + Fraction(2, 3) * b
    for a, b in zip(PINNED_TABLES["pr-box"], PINNED_TABLES["local-deterministic"])
)


def _pinned_argv(case, tmp_path):
    if case == "decompose-boxworld2-edge-midpoint":
        return ["decompose", "--space", "boxworld2", "--state", _edge_midpoint_state()]
    if case == "chsh-angles":
        return ["chsh", "--angles", "0,1.5707963,0.7853981,-0.7853981"]
    if case.startswith("chsh-table-"):
        p = PINNED_TABLES[case[len("chsh-table-"):]]
        return ["chsh", "--table", _json_file(tmp_path, {"p": vector_to_json(p)})]
    command, space = case.split("-", 1)
    return [command, "--space", space]


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned(case, tmp_path, capsys):
    assert run(_pinned_argv(case, tmp_path)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_OUTPUTS[case]


def _stdout_under_the_lowest_int_limit(argv):
    """The stdout of ``gptlab ARGV`` in a fresh interpreter whose
    int-to-string limit is the lowest that CPython accepts, 640 digits."""
    proc = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(_fresh_interpreter_env(), PYTHONINTMAXSTRDIGITS="640"),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_decompose_reads_and_writes_rationals_of_any_length(capsys):
    """A state with 3000-digit denominators has weights of about 6000 digits,
    past the interpreter's default int-to-string limit."""
    p = "1" + "0" * 2999 + "7"  # 10**3000 + 7
    q = "1" + "0" * 2998 + "9"  # 10**2999 + 9
    argv = ["decompose", "--space", "gbit", "--state", "1/%s,1/%s" % (p, q)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    decs = json.loads(stdout)["decompositions"]
    assert len(decs) == 2
    for dec in decs:
        assert sum(map(parse_rational, dec["weights"])) == 1
    assert max(len(w) for dec in decs for w in dec["weights"]) > 4300
    assert _stdout_under_the_lowest_int_limit(argv) == stdout


def test_chsh_reads_and_writes_rationals_of_any_length(tmp_path, capsys):
    argv = ["chsh", "--table", _json_file(tmp_path, LONG_TABLE_DOCUMENT)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    assert len(json.loads(stdout)["chsh_max"]) > 4300
    assert _stdout_under_the_lowest_int_limit(argv) == stdout


# ---------------------------------------------------------------------------
# Property: any input gives JSON and exit 0 or 2, never a traceback
# ---------------------------------------------------------------------------

# A PR box mixed with a local deterministic table at weight 1/(10**5000 + 7):
# its entries and its CHSH values have about 5000 digits.
LONG_WEIGHT = Fraction(1, 10**5000 + 7)
LONG_TABLE_DOCUMENT = {
    "p": vector_to_json(
        tuple(
            (1 - LONG_WEIGHT) * a + LONG_WEIGHT * b
            for a, b in zip(pr_box_table().p, local_deterministic_table(0, 1, 1, 0).p)
        )
    )
}
WELL_FORMED_DOCUMENTS = (
    space_to_json(make_gbit()),
    space_to_json(make_classical(3)),
    {"kind": "ball3", "label": "qubit"},
    PR_BOX_DOCUMENT,
    LONG_TABLE_DOCUMENT,
)
RATIONAL_TEXTS = ("0", "1", "1/2", "-1/3", "1/0", "0.5", "", "x", " 1/4 ", "1/2/3")
# Long digit strings: past the default int-to-string limit of 4300 digits,
# past parse_rational's own limit of 10000, and long but malformed.
LONG_RATIONAL_TEXTS = (
    "1/1" + "0" * 2999 + "7", "3" * 5000 + "/" + "7" * 5001, "1/" + "9" * 10_001,
    "1" * 700 + "/x",
)
SPACE_NAMES = (
    "gbit", "classical-1", "classical-3", "ball3", "classical-", "classical-x",
    "classical-0", "classical-99999999999", "no-such-space", "", "-",
)
rational_texts = st.sampled_from(RATIONAL_TEXTS + LONG_RATIONAL_TEXTS)
json_leaves = st.none() | st.booleans() | st.integers(-3, 3) | rational_texts
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
state_texts = st.lists(rational_texts, max_size=4).map(",".join) | st.text(max_size=8)


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


def assert_json_and_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), argv
    parsed = json.loads(out.getvalue())
    assert (code == 2) == ("error" in parsed), (argv, parsed)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_input_gives_json_and_exit_0_or_2(input_path, data):
    assert_json_and_exit_0_or_2(data.draw(cli_arguments(input_path)))


FILE_COMMANDS = tuple(
    [command, "--space", "{path}"]
    for command in ("build", "vertices", "adjacency", "classify", "symmetries", "orbits")
) + (
    ["adjacency", "--space", "{path}", "--summary"],
    ["decompose", "--space", "{path}", "--state", "1/2,1/2"],
    ["chsh", "--table", "{path}"],
    ["classify", "--table", "{path}"],
    ["bloch", "--unitary", "{path}"],
)


@pytest.mark.parametrize("doc", range(len(WELL_FORMED_DOCUMENTS)))
@pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
def test_well_formed_documents_give_json_and_exit_0_or_2(doc, command, tmp_path):
    """Every well-formed document under every command that reads a file:
    each one, where the property test above draws only some of them."""
    path = _json_file(tmp_path, WELL_FORMED_DOCUMENTS[doc])
    assert_json_and_exit_0_or_2([arg.format(path=path) for arg in command])


# ---------------------------------------------------------------------------
# Pins: every subcommand on every built-in space
# ---------------------------------------------------------------------------

# cli_pins.json holds the sha256 of stdout and the exit code per command line
# (shlex.join of argv), recorded before a rewrite beneath the commands: the
# half-width simplex tableau.  A table argument names a file that the test
# writes into tmp_path.  ``python tests/test_cli.py`` records the pins anew.
CLI_PINS_PATH = os.path.join(os.path.dirname(__file__), "cli_pins.json")
PIN_SPACES = ("gbit", "boxworld2", "ball3") + tuple(
    "classical-%d" % n for n in range(1, 8)
)
SPACE_COMMANDS = (
    ["build"], ["vertices"], ["adjacency"], ["adjacency", "--summary"],
    ["symmetries"], ["orbits"],
)


def _centroid(vertices):
    return tuple(sum(column) / len(vertices) for column in zip(*vertices))


def _pin_tables():
    """The table files that pinned command lines name, by file name."""
    return {
        "boxworld2-vertex-%d.json" % i: v
        for i, v in enumerate(make_boxworld2().vertices)
    }


def _pin_argvs():
    argvs = [
        [command[0], "--space", name, *command[1:]]
        for name in PIN_SPACES + SPACE_NAMES
        for command in SPACE_COMMANDS
    ]
    argvs += [["postulates", "--config", config] for config in REGISTERED_CONFIGS]
    for name, space in (
        ("gbit", make_gbit()),
        ("classical-3", make_classical(3)),
        ("boxworld2", make_boxworld2()),
    ):
        for state in space.vertices + (_centroid(space.vertices),):
            state_text = ",".join(map(format_rational, state))
            argvs.append(["decompose", "--space", name, "--state", state_text])
    for text in RATIONAL_TEXTS:
        for state_text in (text, text + ",1/2"):
            argvs.append(["decompose", "--space", "gbit", "--state", state_text])
    argvs += [["classify", "--table", name] for name in _pin_tables()]
    unique = {shlex.join(argv): argv for argv in argvs}
    return [unique[key] for key in sorted(unique)]


def _pin_run(argv, tmp_path):
    """(sha256 of stdout, exit code) of ``argv``, table names made files."""
    tables = _pin_tables()
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg in tables:
            path = tmp_path / arg
            path.write_text(json.dumps({"p": vector_to_json(tables[arg])}))
            argv[i] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.fixture(scope="module")
def cli_pins():
    with open(CLI_PINS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", _pin_argvs(), ids=shlex.join)
def test_every_subcommand_output_is_pinned(argv, cli_pins, tmp_path):
    digest, code = _pin_run(argv, tmp_path)
    assert {"sha256": digest, "exit": code} == cli_pins[shlex.join(argv)]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for argv in _pin_argvs():
            digest, code = _pin_run(argv, Path(tmp))
            pins[shlex.join(argv)] = {"sha256": digest, "exit": code}
    with open(CLI_PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
