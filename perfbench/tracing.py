"""Spans around calls into gptlab's layers, recorded from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in
every loaded ``gptlab`` module that binds it, so calls made through
``from .x import f`` names are seen too.  Each call becomes a span with a
parent link; spans stay in memory until ``write`` and ``summarize``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module defining the function, function name, span name)
LAYERS = (
    ("gptlab.ratgeo.linalg", "mat_mul", "linalg.mat_mul"),
    ("gptlab.ratgeo.linalg", "rref", "linalg.rref"),
    ("gptlab.ratgeo.linalg", "inverse", "linalg.inverse"),
    ("gptlab.ratgeo.linalg", "solve", "linalg.solve"),
    ("gptlab.ratgeo.lp", "solve_lp", "lp.solve_lp"),
    ("gptlab.ratgeo.lp", "verify_dual", "lp.verify_dual"),
    ("gptlab.ratgeo.lp", "verify_farkas", "lp.verify_farkas"),
    ("gptlab.ratgeo.polytope", "vertex_enumeration", "polytope.vertex_enumeration"),
    ("gptlab.ratgeo.polytope", "facet_enumeration", "polytope.facet_enumeration"),
    ("gptlab.ratgeo.polytope", "vertex_adjacency", "polytope.vertex_adjacency"),
    ("gptlab.spaces", "decompose_state", "spaces.decompose_state"),
    ("gptlab.boxworld", "make_boxworld2", "boxworld.make_boxworld2"),
    ("gptlab.symmetry", "affine_automorphisms", "symmetry.affine_automorphisms"),
    ("gptlab.symmetry", "orbits", "symmetry.orbits"),
    ("gptlab.postulates", "run_report", "postulates.run_report"),
    (
        "gptlab.postulates",
        "check_no_simultaneous_encoding",
        "postulates.check_no_simultaneous_encoding",
    ),
    ("gptlab.serialize", "dumps", "serialize.dumps"),
)

# Span names whose result status is counted (LPResult.status).
STATUS_SPANS = {"lp.solve_lp"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "status")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.status = None


class Tracer:
    """Collects spans; ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func):
        record_status = name in STATUS_SPANS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else -1, self.clock())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.status = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if record_status:
                span.status = result.status
            return result

        return traced

    def install(self):
        """Wrap every ``LAYERS`` function wherever a gptlab module binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "gptlab" or n.startswith("gptlab."))
        ]
        for module_name, attr, span_name in LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: str):
        """Write the spans as JSON lines: id, parent, name, start, end, status."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "status": s.status,
                }) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, self_s, total_s, status counts, and for each
    ancestor name the calls and time of spans nested under it.

    ``self_s`` is a span's duration minus the part of it that its children
    cover.  ``total_s`` counts only spans with no ancestor of the same name,
    so recursion is not counted twice.  ``under[a]`` holds (calls, seconds)
    of this name's outermost spans that have an ``a`` span above them.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        entry = stats.setdefault(s.name, {
            "calls": 0, "self_s": 0.0, "total_s": 0.0, "status": {}, "under": {},
        })
        duration = s.end - s.start
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(children.get(i, ()))
        if s.status is not None:
            entry["status"][s.status] = entry["status"].get(s.status, 0) + 1
        ancestors = set()
        p = s.parent
        while p >= 0:
            ancestors.add(spans[p].name)
            p = spans[p].parent
        if s.name not in ancestors:
            entry["total_s"] += duration
            for a in ancestors:
                calls, secs = entry["under"].get(a, (0, 0.0))
                entry["under"][a] = (calls + 1, secs + duration)
    return stats
