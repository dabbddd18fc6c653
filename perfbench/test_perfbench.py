"""Tests of the benchmark itself: seeded inputs, span arithmetic, answer checks."""

import dataclasses
import json
import os

import pytest

import hullcases
import lpcases
import run
import tracing
from gptlab.ratgeo import lp


def test_same_seed_gives_identical_inputs():
    for module in (hullcases, lpcases):
        first = [c.describe() for c in module.make_cases(7, 30)]
        again = [c.describe() for c in module.make_cases(7, 30)]
        other = [c.describe() for c in module.make_cases(8, 30)]
        assert "\n".join(first).encode() == "\n".join(again).encode()
        assert first != other


def test_kinds_repeat_in_a_fixed_order_whatever_the_seed():
    for seed in (3, 4):
        hull = hullcases.make_cases(seed, 2 * len(hullcases.BLOCK))
        assert [(c.kind, c.dim) for c in hull] == 2 * list(hullcases.BLOCK)
        lps = lpcases.make_cases(seed, 2 * len(lpcases.BLOCK))
        assert [c.kind for c in lps] == 2 * list(lpcases.BLOCK)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_on_a_nested_call():
    # outer [0, 10] calls inner [1, 3] and inner [4, 8]; the second inner
    # calls leaf [5, 6].  leaf also runs at top level, [11, 12].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10, 11, 12]))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda deep: leaf() if deep else None)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    leaf()
    stats = tracing.summarize(tracer.spans)
    assert stats["outer"]["calls"] == 1
    assert stats["outer"]["total_s"] == 10
    assert stats["outer"]["self_s"] == 10 - 2 - 4
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["total_s"] == 6
    assert stats["inner"]["self_s"] == 2 + 4 - 1
    assert stats["leaf"]["calls"] == 2
    assert stats["leaf"]["self_s"] == 2
    assert stats["leaf"]["under"] == {"inner": (1, 1), "outer": (1, 1)}


def test_recursion_is_counted_once_in_total_time():
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 5, 9]))

    def body(depth):
        return f(depth - 1) if depth else None

    f = tracer.wrap("f", body)
    f(1)
    stats = tracing.summarize(tracer.spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["total_s"] == 9
    assert stats["f"]["self_s"] == 9


def test_install_wraps_every_binding_and_uninstall_restores():
    import gptlab
    from gptlab import postulates, spaces
    from gptlab.ratgeo import lp as lp_module

    original = lp_module.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (gptlab, postulates, spaces, lp_module):
            assert module.solve_lp is not original
    finally:
        tracer.uninstall()
    for module in (gptlab, postulates, spaces, lp_module):
        assert module.solve_lp is original


def _first(module, kinds, seed=5, count=40):
    return next(c for c in module.make_cases(seed, count) if c.kind in kinds)


def test_hull_round_trip_passes_and_a_dropped_vertex_fails():
    case = _first(hullcases, {hullcases.BOX_CUTS, hullcases.CUBE})
    error, (v1, h1, v2, adj) = hullcases.run_case(case)
    assert error is None
    assert hullcases.check_case(case, (None, (v1, h1, v2, adj)))
    dropped = dataclasses.replace(v1, vertices=v1.vertices[:-1])
    assert not hullcases.check_case(case, (None, (dropped, h1, v2, adj)))
    assert not hullcases.check_case(case, (None, (v1, h1, dropped, adj[:-1])))
    one_way = tuple(ns[1:] if i == 0 else ns for i, ns in enumerate(adj))
    assert not hullcases.check_case(case, (None, (v1, h1, v2, one_way)))


def test_hull_rejection_cases_need_the_right_error():
    from gptlab.errors import EmptyError, UnboundedError

    empty = _first(hullcases, {hullcases.EMPTY})
    unbounded = _first(hullcases, {hullcases.UNBOUNDED})
    assert hullcases.run_case(empty) == (EmptyError, None)
    assert hullcases.run_case(unbounded) == (UnboundedError, None)
    assert not hullcases.check_case(empty, (UnboundedError, None))
    assert not hullcases.check_case(unbounded, (EmptyError, None))


@pytest.mark.parametrize("kind", sorted(lpcases.EXPECTED_STATUS))
def test_lp_certificates_pass_and_tampered_results_fail(kind):
    case = _first(lpcases, {kind}, count=60)
    result = lpcases.run_case(case)
    assert lpcases.check_case(case, result)
    for status in {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED} - {result.status}:
        assert not lpcases.check_case(case, dataclasses.replace(result, status=status))
    if result.status == lp.OPTIMAL:
        worse = dataclasses.replace(result, optimum=result.optimum - 1)
        assert not lpcases.check_case(case, worse)
    else:
        flipped = tuple(-x for x in result.witness)
        assert not lpcases.check_case(case, dataclasses.replace(result, witness=flipped))


def test_ns_oracle_has_the_24_vertices():
    vertices = lpcases.ns_vertices()
    assert len(set(vertices)) == 24
    from gptlab.boxworld import build_ns_hrep

    h = build_ns_hrep()
    assert all(h.contains(v) for v in vertices)


def _traced_counts(module, cases):
    tracer = tracing.Tracer()
    op = run.checked_op(module)
    tracer.install()
    try:
        assert all(op(c) for c in cases)
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracing.summarize(tracer.spans), {})
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_traced_counts_repeat_exactly():
    cases = [c for c in hullcases.make_cases(11, 40) if c.dim == 2][:6]
    cases += lpcases.make_cases(11, 12)
    by_module = [(hullcases, cases[:6]), (lpcases, cases[6:])]
    for module, batch in by_module:
        first = _traced_counts(module, batch)
        assert first == _traced_counts(module, batch)
        assert first["lp.solve_lp.calls"] > 0


def test_closed_loop_keeps_each_inputs_best_ratio_to_the_reference(monkeypatch):
    # Two inputs, each run twice: (ok, op seconds, reference seconds).
    runs = iter([(True, 4.0, 2.0), (True, 9.0, 3.0), (True, 3.0, 1.0), (False, 6.0, 3.0)])
    monkeypatch.setattr(run.time, "perf_counter", FakeClock([0.0, 1.0, 2.0, 3.0, 4.0]))
    best, ops, failed = run.closed_loop(lambda case: next(runs), ["a", "b"], 4.9)
    assert (ops, failed) == (4, 1)
    assert sorted(best) == [2.0, 2.0]


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == ["report", "hull", "lp"]
