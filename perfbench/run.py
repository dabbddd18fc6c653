"""gptlab benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload {report,hull,lp} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client in a closed loop runs one op at a time over a fixed
pool of inputs, round-robin, and starts the next op only while it is
expected to end within ``--seconds``.  Every op's answer is checked; the
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (inputs come from ``--seed`` only; see BENCHMARK.json for why):

* ``report``: ``python3 -m gptlab.cli report`` in a fresh interpreter, whose
  stdout must hash to the committed gate (one input, about two ops a run).
* ``hull``: 40 seeded H-polytopes through V -> H -> V and adjacency
  (``hullcases``), about three passes a run.
* ``lp``: 130 seeded exact LPs with re-verified certificates (``lpcases``),
  about five passes a run.

``--trace 0`` reports the end-to-end metrics.  On the 2-CPU virtual machine
this was sized on, other tenants slow every op down together, by 20 to 80%
and differently from one ten-second window to the next, so that the median
of one fixed input moved by up to 30% between 40-second runs.  Each op's CPU
time is therefore divided by the CPU time of a fixed stdlib reference loop
(``reference_s``) timed on the same CPU around it, and each input keeps its
best ratio over its passes.  ``op_p50_ref`` and ``op_p90_ref`` are the
median and 90th percentile of those best ratios over the inputs, and
``op_mean_ref`` their mean: the inverse of the closed loop's throughput, in
reference-loop units.  A ``report`` op is too long for a reference timed
before and after it, so the reference is timed every ``REPORT_SAMPLE_S``
while the child runs, on the CPU both are pinned to.  ``setup_s`` is the
median, in seconds, of at least five set-ups: generating the pool, or for
``report`` a fresh interpreter importing ``gptlab.cli``.  ``peak_rss_mb`` is
the benchmark process's high-water mark, or for ``report`` the child's.

``--trace 1`` runs the pool once untraced and once with spans around every
call into the layers listed in ``tracing.LAYERS``, and reports the
per-layer metrics; ``trace.overhead_s`` is the traced op p50 minus the
untraced one.  The traced ``report`` runs in process after the
``lru_cache``s are cleared, so the untraced op's interpreter start-up
(``cli.startup_s``) is taken out of its side of the difference.  Spans are
written to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "perfbench", "traces")

# sha256 of `gptlab report` stdout: the gate that no change may move.
REPORT_SHA256 = "6dd5a6f8a3fb1b8169bcd1403c630b39190da0c743861fd37b0ee5e19141aeb2"
REPORT_TIMEOUT_S = 150
REPORT_SAMPLE_S = 0.25
SETUP_REPEATS = 5
SETUP_SECONDS = 0.25
STARTUP_REPEATS = 3
# Inputs per run: whole blocks of each workload's fixed order of kinds, few
# enough that a run passes over each input three (hull) to five (lp) times.
POOL = {"hull": 40, "lp": 130}

END_TO_END = ("setup_s", "op_p50_ref", "op_p90_ref", "op_mean_ref", "ok_ratio", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "op_p50_ref": "ref", "op_p90_ref": "ref", "op_mean_ref": "ref",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = (
    "symmetry.affine_automorphisms.calls",
    "symmetry.affine_automorphisms.self_s",
    "symmetry.affine_automorphisms.total_s",
    "symmetry.affine_automorphisms.cache_hits",
    "symmetry.orbits.self_s",
    "linalg.mat_mul.calls",
    "linalg.mat_mul.self_s",
    "polytope.vertex_enumeration.calls",
    "polytope.vertex_enumeration.self_s",
    "polytope.vertex_enumeration.total_s",
    "polytope.vertex_enumeration.lp_calls",
    "polytope.vertex_enumeration.lp_s",
    "polytope.facet_enumeration.calls",
    "polytope.facet_enumeration.self_s",
    "polytope.facet_enumeration.total_s",
    "polytope.vertex_adjacency.calls",
    "polytope.vertex_adjacency.self_s",
    "polytope.vertex_adjacency.total_s",
    "lp.solve_lp.calls",
    "lp.solve_lp.self_s",
    "lp.solve_lp.optimal",
    "lp.solve_lp.infeasible",
    "lp.solve_lp.unbounded",
    "lp.verify_dual.self_s",
    "lp.verify_farkas.self_s",
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.inverse.calls",
    "linalg.solve.calls",
    "boxworld.make_boxworld2.total_s",
    "postulates.run_report.total_s",
    "postulates.check_no_simultaneous_encoding.total_s",
    "postulates.check_no_simultaneous_encoding.lp_calls",
    "spaces.decompose_state.total_s",
    "serialize.dumps.self_s",
    "cli.startup_s",
    "trace.ops",
    "trace.overhead_s",
)
# Metrics that count work; they must repeat exactly between traced runs.
COUNT_FIELDS = ("calls", "cache_hits", "lp_calls", "optimal", "infeasible", "unbounded", "ops")


def metric_unit(name: str) -> str:
    return "count" if name.rsplit(".", 1)[1] in COUNT_FIELDS else "s"


def load_gptlab():
    """Import gptlab from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "gptlab", "cli.py")):
        sys.exit("perfbench: no gptlab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import gptlab

    if not os.path.abspath(gptlab.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: gptlab imported from %s, not from %s" % (gptlab.__file__, SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def p90(times) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def describe_pool(pool) -> tuple:
    return tuple(case.describe() for case in pool)


def median_setup(setup, key=describe_pool):
    """Run ``setup`` at least SETUP_REPEATS times and SETUP_SECONDS long.

    Returns (median seconds, first result, whether every result had the
    same ``key``).  A collection before each repeat keeps a full garbage
    collection, left pending by earlier work, out of the timing.
    """
    durations, keys, first = [], set(), None
    while len(durations) < SETUP_REPEATS or sum(durations) < SETUP_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - t0)
        keys.add(key(result))
        if first is None:
            first = result
    return statistics.median(durations), first, len(keys) == 1


def timed_op(op, case, clock=time.perf_counter):
    """(seconds on ``clock``, ok) for one op; an exception counts as a wrong answer."""
    t0 = clock()
    try:
        ok = op(case)
    except Exception as exc:
        print("perfbench: op raised %r" % (exc,), file=sys.stderr)
        ok = False
    return clock() - t0, ok


def reference_s() -> float:
    """CPU seconds a fixed stdlib ``Fraction`` loop takes: the machine's speed now.

    It runs no gptlab code, so no change to gptlab can move it.
    """
    t0 = time.thread_time()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, i % 7 + 2)
    return time.thread_time() - t0


def bracketed(check):
    """An in-process op, in CPU seconds, with the reference timed just before and after."""

    def op(case):
        before = reference_s()
        seconds, ok = timed_op(check, case, clock=time.thread_time)
        return ok, seconds, (before + reference_s()) / 2

    return op


def closed_loop(op, cases, seconds: float):
    """Run the cases round-robin, back to back, while the next op is
    expected to end within ``seconds``.

    ``op(case)`` returns (ok, CPU seconds, reference CPU seconds).  Each case
    keeps its best ratio of the two over its passes.  Returns (best ratio of
    every case timed, ops run, failures).
    """
    best: dict[int, float] = {}
    ops = failed = 0
    start = time.perf_counter()
    while True:
        i = ops % len(cases)
        ok, cpu, ref = op(cases[i])
        best[i] = min(cpu / ref, best.get(i, cpu / ref))
        ops += 1
        failed += not ok
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / ops > seconds:
            return list(best.values()), ops, failed


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def report_op(_case=None):
    """One cold `gptlab report` in a fresh interpreter, checked against the gate.

    ``python3 -m gptlab.cli`` runs the same ``main`` as the ``gptlab`` script.
    While the child runs, this process times the reference loop every
    REPORT_SAMPLE_S on the CPU it shares with the child (see
    ``run_untraced``).  Returns (ok, child CPU seconds, median reference CPU
    seconds).
    """
    t0 = time.perf_counter()
    cpu0 = children_cpu_s()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gptlab.cli", "report"],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    refs = []
    while True:
        refs.append(reference_s())
        try:
            out, _ = proc.communicate(timeout=REPORT_SAMPLE_S)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - t0 > REPORT_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                return False, children_cpu_s() - cpu0, statistics.median(refs)
    ok = proc.returncode == 0 and hashlib.sha256(out).hexdigest() == REPORT_SHA256
    return ok, children_cpu_s() - cpu0, statistics.median(refs)


def startup_s() -> float:
    """Time for a fresh interpreter to import gptlab.cli from src/."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "import gptlab.cli; print(gptlab.cli.__file__)"],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, check=True, timeout=60,
    ).stdout
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(out.decode().strip()).startswith(SRC + os.sep):
        sys.exit("perfbench: child imported gptlab from outside %s" % SRC)
    return elapsed


# ---------------------------------------------------------------------------
# hull and lp
# ---------------------------------------------------------------------------


def case_module(workload: str):
    if workload == "hull":
        import hullcases

        return hullcases
    import lpcases

    return lpcases


def make_pool(workload: str, seed: int):
    """Set-up: the seeded input pool (a fresh no-signalling H-rep for lp)."""
    module = case_module(workload)
    if workload == "lp":
        from gptlab.boxworld import build_ns_hrep

        build_ns_hrep.cache_clear()
    return module.make_cases(seed, POOL[workload])


def checked_op(module):
    def op(case) -> bool:
        return module.check_case(case, module.run_case(case))

    return op


def timed_batch(op, cases):
    """Run every case once; (per-op seconds, failures)."""
    runs = [timed_op(op, case) for case in cases]
    return [dt for dt, _ in runs], sum(not ok for _, ok in runs)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float):
    if workload == "report":
        setup, _, deterministic = median_setup(startup_s, key=lambda _: None)
        # The child and the reference loop timed beside it share one CPU, so
        # that both see the same contention from other tenants.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        best, ops, failed = closed_loop(report_op, [None], seconds)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        setup, pool, deterministic = median_setup(lambda: make_pool(workload, seed))
        best, ops, failed = closed_loop(bracketed(checked_op(case_module(workload))), pool, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup,
        "op_p50_ref": statistics.median(best),
        "op_p90_ref": p90(best),
        "op_mean_ref": statistics.fmean(best),
        "ok_ratio": (ops - failed) / ops,
        "peak_rss_mb": rss,
    }
    return deterministic, ops, failed, {k: (metrics[k], UNITS[k]) for k in END_TO_END}


def traced_report(tracer):
    """In-process `report` under the tracer, as cold as a fresh interpreter's."""
    from gptlab import boxworld, cli, symmetry

    boxworld.make_boxworld2.cache_clear()
    boxworld.build_ns_hrep.cache_clear()
    symmetry.affine_automorphisms.cache_clear()
    hits_before = symmetry.affine_automorphisms.cache_info().hits
    out = io.StringIO()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.run(["report"])
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    hits = symmetry.affine_automorphisms.cache_info().hits - hits_before
    ok = code == 0 and hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256
    return elapsed, ok, hits


NO_SPANS = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "status": {}, "under": {}}


def layer_metrics(stats: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from ``tracing.summarize`` output and ``extra``."""
    metrics = {}
    for name in PER_LAYER:
        if name in extra:
            value = extra[name]
        else:
            span, field = name.rsplit(".", 1)
            entry = stats.get(span, NO_SPANS)
            if field in ("calls", "self_s", "total_s"):
                value = entry[field]
            elif field in ("optimal", "infeasible", "unbounded"):
                value = entry["status"].get(field, 0)
            else:  # lp_calls / lp_s: solve_lp spans nested under this span
                calls, secs = stats.get("lp.solve_lp", NO_SPANS)["under"].get(span, (0, 0.0))
                value = calls if field == "lp_calls" else secs
        metrics[name] = (value, metric_unit(name))
    return metrics


def run_traced(workload: str, seed: int):
    import tracing

    tracer = tracing.Tracer()
    startup = statistics.median(startup_s() for _ in range(STARTUP_REPEATS))
    extra = {"cli.startup_s": startup, "symmetry.affine_automorphisms.cache_hits": 0}
    if workload == "report":
        t0 = time.perf_counter()
        untraced_ok = report_op()[0]
        untraced = time.perf_counter() - t0
        traced, traced_ok, extra["symmetry.affine_automorphisms.cache_hits"] = traced_report(tracer)
        attempted, failed = 2, (not untraced_ok) + (not traced_ok)
        # The in-process traced run pays no interpreter start-up.
        extra["trace.overhead_s"] = traced - (untraced - startup)
        extra["trace.ops"] = 1
        deterministic = True
    else:
        module = case_module(workload)
        cases = make_pool(workload, seed)
        deterministic = describe_pool(cases) == describe_pool(make_pool(workload, seed))
        op = checked_op(module)
        plain_times, plain_failed = timed_batch(op, cases)
        tracer.install()
        try:
            traced_times, traced_failed = timed_batch(op, cases)
        finally:
            tracer.uninstall()
        attempted = 2 * len(cases)
        failed = plain_failed + traced_failed
        extra["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
        extra["trace.ops"] = len(cases)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, "%s-seed%d.jsonl" % (workload, seed)))
    metrics = layer_metrics(tracing.summarize(tracer.spans), extra)
    return deterministic, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("report", "hull", "lp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave the checkout as it was
    load_gptlab()
    if args.trace:
        deterministic, attempted, failed, metrics = run_traced(args.workload, args.seed)
    else:
        deterministic, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds
        )
    if not deterministic:
        print("perfbench: the same seed gave different inputs", file=sys.stderr)
    result = {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
