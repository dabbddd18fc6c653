"""Command-line front end: every analysis as a subcommand with JSON output.

Exact quantities are printed as "n/d" strings; the bloch and quantum
subcommands are flagged ``"inexact": true``.  Every ``GptlabError`` exits
with code 2 and a machine-readable error object on standard output, whose
``type`` names the class: ``InputError`` and its kin for input that gptlab
rejects, ``VerificationError`` when an internal re-check of a computed
result fails, which is a defect in gptlab and not in the input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import serialize
from .boxworld import (
    LOCAL_DETERMINISTIC,
    PR_BOX,
    all_chsh_variants,
    build_ns_hrep,
    chsh_max,
    chsh_objective,
    chsh_value,
    classify_vertex,
    is_boxworld2,
    make_boxworld2,
    quantum_chsh_table,
    table_from_vector,
)
from .errors import GptlabError, InputError, VerificationError
from .postulates import REGISTERED_CONFIGS, run_report
from .ratgeo import (
    MAX,
    adjacency_edges,
    affine_dimension,
    format_rational,
    parse_rational,
    solve_lp,
    verify_dual,
    vertex_adjacency,
)
from .ratgeo.linalg import parse_integer
from .spaces import MAX_CLASSICAL_OUTCOMES, decompose_state, make_ball3
from .spaces import make_classical, make_gbit
from .symmetry import affine_automorphisms, orbits


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports errors as JSON with exit code 2.

    A token that starts with ``-`` and a digit or ``.`` is read as a value,
    so ``--state -1/2,1/4`` passes the negative state; argparse by itself
    takes only a plain negative number for one, and would report the flag
    as missing its value.  No gptlab option looks like that.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test for a negative number, widened to the prefix.
        self._negative_number_matcher = re.compile(r"-[0-9.]")

    def error(self, message):
        _fail("usage", message)


def _fail(kind: str, message: str):
    print(serialize.dumps({"error": {"type": kind, "message": message}}))
    raise SystemExit(2)


def resolve_space(name: str):
    """Built-in registry plus JSON files for custom spaces."""
    if name == "gbit":
        return make_gbit()
    if name == "boxworld2":
        return make_boxworld2()
    if name == "ball3":
        return make_ball3()
    if name.startswith("classical-"):
        # N's size from its digit count: no int-to-string limit applies.
        digits = name[len("classical-"):]
        if not re.fullmatch("0|[1-9][0-9]*", digits):
            raise InputError("malformed classical space name %r" % name)
        if len(digits) > len(str(MAX_CLASSICAL_OUTCOMES)):
            raise InputError(
                "classical systems are limited to %d outcomes, got %s"
                % (MAX_CLASSICAL_OUTCOMES, digits)
            )
        return make_classical(int(digits))
    missing = (
        "unknown space %r (registered: gbit, classical-N, boxworld2, "
        "ball3, or a JSON file path)" % name
    )
    return serialize.space_from_json(_read_json(name, "space", missing))


def load_table(path: str):
    missing = "table file %r not found" % path
    return serialize.table_from_json(_read_json(path, "table", missing))


def _read_json(path: str, what: str, missing: str):
    """The parsed JSON file at ``path``; every way to fail is an InputError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=parse_integer)
    except FileNotFoundError:
        raise InputError(missing)
    except InputError:
        raise  # an integer past the digit limit: the error a rational gets
    except OSError as err:
        raise InputError("cannot read %s file %r: %s" % (what, path, err.strerror))
    except json.JSONDecodeError as err:
        raise InputError("%s file %r is not valid JSON: %s" % (what, path, err))
    except (ValueError, RecursionError) as err:
        # A NUL byte in the path, bytes that are not text, or nesting deeper
        # than the decoder's recursion limit.
        raise InputError("cannot read %s file %r: %s" % (what, path, err))


def parse_state(text: str):
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError as err:
        raise InputError("malformed state %r: %s" % (text, err))


def _classification_labels(space):
    return [classify_vertex(table_from_vector(v)).tag for v in space.vertices]


def cmd_build(args):
    return serialize.space_to_json(resolve_space(args.space))


def cmd_vertices(args):
    space = resolve_space(args.space)
    space.require_polytopal()
    return serialize.vrep_to_json(space.v)


def cmd_adjacency(args):
    space = resolve_space(args.space)
    space.require_polytopal()
    adj = vertex_adjacency(space.v, space.h)
    if not args.summary:
        return serialize.graph_to_json(adjacency_edges(adj))
    degrees = sorted(len(row) for row in adj)
    summary = {
        "degree_histogram": {
            str(d): degrees.count(d) for d in sorted(set(degrees))
        }
    }
    if is_boxworld2(space):
        census = _boxworld_census(adj, _classification_labels(space))
        summary.update(
            {
                key: next(iter(values)) if len(values) == 1 else None
                for key, values in census.items()
            }
        )
    return summary


def _boxworld_census(adj, tags) -> dict[str, set[int]]:
    """Degree sets by vertex class: all neighbours, and local or PR ones."""
    local = [i for i, t in enumerate(tags) if t == LOCAL_DETERMINISTIC]
    pr = [i for i, t in enumerate(tags) if t == PR_BOX]

    def neighbours(i, tag):
        return sum(1 for j in adj[i] if tags[j] == tag)

    return {
        "local_degree": {len(adj[i]) for i in local},
        "local_to_local": {neighbours(i, LOCAL_DETERMINISTIC) for i in local},
        "local_to_pr": {neighbours(i, PR_BOX) for i in local},
        "pr_degree": {len(adj[i]) for i in pr},
    }


def cmd_classify(args):
    if args.table is not None:
        cls = classify_vertex(load_table(args.table))
        return {"tag": cls.tag, "detail": cls.detail}
    if args.space is None:
        raise InputError("classify needs --space NAME or --table FILE")
    space = resolve_space(args.space)
    space.require_polytopal()
    if space.dim != 16:
        raise InputError(
            "classify needs a space of 16-entry probability tables; "
            "%r has dimension %d" % (space.label, space.dim)
        )
    tags = _classification_labels(space)
    return {
        "classes": tags,
        "counts": {
            LOCAL_DETERMINISTIC: tags.count(LOCAL_DETERMINISTIC),
            PR_BOX: tags.count(PR_BOX),
        },
    }


def cmd_symmetries(args):
    space = resolve_space(args.space)
    group = affine_automorphisms(space)
    return {
        "order": group.order,
        "generator_count": len(group.generators),
        "elements": serialize.symmetry_group_to_json(group),
    }


def cmd_orbits(args):
    space = resolve_space(args.space)
    group = affine_automorphisms(space)
    return {"classes": [list(cls) for cls in orbits(group, space)]}


def cmd_chsh(args):
    if args.angles:
        try:
            angles = [float(part) for part in args.angles.split(",")]
        except ValueError as err:
            raise InputError("malformed angles %r: %s" % (args.angles, err))
        if len(angles) != 4:
            raise InputError("need exactly 4 angles (thetaA0,thetaA1,thetaB0,thetaB1)")
        if not all(math.isfinite(angle) for angle in angles):
            raise InputError("angles must be finite numbers, got %r" % args.angles)
        table = quantum_chsh_table(*angles)
        data = serialize.float_table_to_json(table)
        data["chsh_max"] = chsh_max(table)
        return data
    if not args.table:
        raise InputError("chsh needs --table FILE or --angles LIST")
    t = load_table(args.table)
    values = {variant.label: chsh_value(t, variant) for variant in all_chsh_variants()}
    return {
        "chsh_max": format_rational(max(map(abs, values.values()))),
        "values": {
            label: format_rational(value) for label, value in values.items()
        },
    }


def cmd_decompose(args):
    space = resolve_space(args.space)
    state = parse_state(args.state)
    decs = decompose_state(state, space)
    return {
        "state": serialize.vector_to_json(state),
        "decompositions": serialize.decompositions_to_json(decs),
    }


def cmd_bloch(args):
    # numpy is imported here only: no other command loads it.
    import numpy as np

    from . import bloch as bloch_mod

    if args.unitary:
        missing = "unitary file %r not found" % args.unitary
        raw = _read_json(args.unitary, "unitary", missing)
        try:
            u = np.array(
                [[_complex_entry(re, im) for re, im in row] for row in raw],
                dtype=complex,
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise InputError("malformed unitary file: %s" % err)
        rotation = bloch_mod.unitary_to_rotation(u)
        return {"rotation": rotation.tolist(), "inexact": True}
    if not args.vector:
        raise InputError("bloch needs --vector X,Y,Z or --unitary FILE")
    try:
        a = tuple(float(part) for part in args.vector.split(","))
    except ValueError as err:
        raise InputError("malformed Bloch vector %r: %s" % (args.vector, err))
    rho = bloch_mod.bloch_density(a)
    hi, lo = bloch_mod.bloch_eigenvalues(a)
    return {
        "density": serialize.complex_matrix_to_json(rho),
        "eigenvalues": [hi, lo],
        "inexact": True,
    }


def _complex_entry(re, im) -> complex:
    """One [re, im] unitary entry; a JSON bool is not a number here."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("unitary entries are numbers, not booleans")
    return complex(re, im)


def cmd_postulates(args):
    return run_report(args.config)


def cmd_report(args):
    return build_full_report()


def build_full_report() -> dict:
    """One artifact bundling every headline computation of the workbench.

    Each CHSH maximum over the no-signalling polytope is re-verified through
    its dual certificate before it is printed.
    """
    bw = make_boxworld2()
    gbit = make_gbit()
    tags = _classification_labels(bw)
    adj = vertex_adjacency(bw.v, bw.h)
    local = [i for i, t in enumerate(tags) if t == LOCAL_DETERMINISTIC]
    pr = [i for i, t in enumerate(tags) if t == PR_BOX]

    group = affine_automorphisms(bw)
    bw_orbits = orbits(group, bw)
    orbit_tags = [sorted({tags[i] for i in cls}) for cls in bw_orbits]

    gbit_group = affine_automorphisms(gbit)
    gbit_orbits = orbits(gbit_group, gbit)

    ns = build_ns_hrep()
    lp_maxima = {}
    for variant in all_chsh_variants():
        objective = chsh_objective(variant)
        result = solve_lp(objective, MAX, ns)
        if not verify_dual(ns, objective, MAX, result):
            raise VerificationError(
                "CHSH %s: the LP maximum fails its dual certificate" % variant.label
            )
        lp_maxima[variant.label] = format_rational(result.optimum)
    chsh_by_class = {
        "pr_box": sorted(
            {format_rational(chsh_max(bw.vertices[i])) for i in pr}
        ),
        "local_deterministic": sorted(
            {format_rational(chsh_max(bw.vertices[i])) for i in local}
        ),
    }
    tsirelson = chsh_max(
        quantum_chsh_table(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    )

    center = (Fraction(1, 2), Fraction(1, 2))
    decs = decompose_state(center, gbit)

    postulates = {
        config: run_report(config) for config in ("boxworld2", "classical2", "ball3")
    }
    gbit_continuity = postulates["boxworld2"]["results"]["ContinuousReversibility"]
    ball_continuity = postulates["ball3"]["results"]["ContinuousReversibility"]

    return {
        "no_signalling_polytope": {
            "vertex_count": len(bw.vertices),
            "affine_dimension": affine_dimension(bw.vertices),
            "local_vertices": len(local),
            "pr_vertices": len(pr),
            **{
                key: sorted(values)
                for key, values in _boxworld_census(adj, tags).items()
            },
            "pr_neighbors_all_local": all(
                tags[j] == LOCAL_DETERMINISTIC for i in pr for j in adj[i]
            ),
        },
        "symmetries": {
            "boxworld2_order": group.order,
            "orbit_sizes": [len(cls) for cls in bw_orbits],
            "orbit_tags": orbit_tags,
            "orbits_mix_classes": any(len(ts) > 1 for ts in orbit_tags),
            "gbit_order": gbit_group.order,
            "gbit_vertex_transitive": len(gbit_orbits) == 1,
        },
        "chsh": {
            "lp_maxima_over_ns": lp_maxima,
            "max_by_vertex_class": chsh_by_class,
            "quantum_standard_angles": tsirelson,
            "quantum_standard_angles_inexact": True,
        },
        "decompositions": {
            "gbit_center": serialize.decompositions_to_json(decs),
            "simplex_interior_count": len(
                decompose_state((Fraction(1, 4),) * 4, make_classical(4))
            ),
        },
        "continuous_reversibility": {
            "gbit": gbit_continuity["status"],
            "ball3": ball_continuity["status"],
            "ball3_endpoint_error": ball_continuity["detail"]["endpoint_error"],
        },
        "postulates": postulates,
    }


def make_parser() -> _Parser:
    parser = _Parser(prog="gptlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, exclusive=False, **flags):
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for flag, kwargs in flags.items():
            group.add_argument("--" + flag, **kwargs)
        p.add_argument("--out", help="also write the JSON output to this path")
        p.set_defaults(func=func)
        return p

    space_arg = {"space": dict(required=True, help="registered name or JSON path")}
    add("build", cmd_build, **space_arg)
    add("vertices", cmd_vertices, **space_arg)
    add(
        "adjacency",
        cmd_adjacency,
        space=dict(required=True),
        summary=dict(action="store_true"),
    )
    add("classify", cmd_classify, exclusive=True, space=dict(), table=dict())
    add("symmetries", cmd_symmetries, **space_arg)
    add("orbits", cmd_orbits, **space_arg)
    add("chsh", cmd_chsh, exclusive=True, table=dict(), angles=dict())
    add(
        "decompose",
        cmd_decompose,
        space=dict(required=True),
        state=dict(required=True, help="comma-separated rationals, e.g. 1/2,1/2"),
    )
    add("bloch", cmd_bloch, exclusive=True, vector=dict(), unitary=dict())
    add(
        "postulates",
        cmd_postulates,
        config=dict(required=True, help="one of: " + ", ".join(REGISTERED_CONFIGS)),
    )
    add("report", cmd_report)
    return parser


def run(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        text = serialize.dumps(args.func(args))
        if args.out:
            _write_out(args.out, text)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except GptlabError as err:
        print(
            serialize.dumps(
                {"error": {"type": type(err).__name__, "message": str(err)}}
            )
        )
        return 2
    print(text)
    return 0


def _write_out(path: str, text: str):
    """Write the output file; every way to fail is an InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as err:
        raise InputError("cannot write output file %r: %s" % (path, err.strerror))
    except ValueError as err:
        # A NUL byte in the path.
        raise InputError("cannot write output file %r: %s" % (path, err))


def main():
    try:
        code = run(sys.argv[1:])
        # Flush inside the try, so a reader that has gone away is seen here.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
