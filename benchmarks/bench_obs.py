"""Overhead benchmark for the observability layer (``BENCH_solver.json``).

The claim asserted here is the acceptance criterion of the instrumentation
PR: the hooks that are *compiled into* every engine (``engine.map`` /
``ii_attempt`` spans, the ``solver:<tier>`` check of every SAT solve, the
II-latency histogram, the terminal counters) cost at most
:data:`OVERHEAD_THRESHOLD` of end-to-end mapping time while tracing is
**disabled** -- the shipped default, where
:func:`repro.obs.trace.span` returns a shared null context manager
without allocating.

**Why not a two-leg wall-clock diff.** On a shared runner the run-to-run
spread of one identical ``map()`` call is 15-30% -- two orders of
magnitude above the effect being bounded -- so "instrumented minus
stubbed" measures scheduler noise, not instrumentation. Instead the
overhead is measured as the product of two stable quantities:

1. **call counts** -- every obs entry point is wrapped by a counting
   shim for one ``map()`` per benchmark of the solver-bench small set
   (gsm, cfd on an 8x8 torus, the same map leg as ``bench_solver.py``),
   so the exact number of disabled-path calls a real run makes is known,
   not estimated; and
2. **per-call cost** -- each entry point timed in a tight loop
   (best-of-:data:`COST_BATCHES` batches of :data:`COST_REPS` calls),
   which resolves sub-microsecond costs reliably.

``overhead = sum(count_i * cost_i) / disabled_run_seconds`` is asserted
per the total over the set; the denominator is a best-of-:data:`RUNS`
wall-clock ``map()``. A tracing-*enabled* leg is also measured end to end
and recorded to the artifact for the record (not asserted -- live span
bookkeeping is allowed to cost more than the disabled floor).

All legs must produce identical mapping results -- an observability layer
that changes answers is a bug, not overhead.
"""

import gc
import pathlib
import signal
import time

import pytest

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig
from repro.obs import hooks as obs_hooks
from repro.obs import metrics
from repro.obs import profiler as obs_profiler
from repro.obs import trace as obs_trace
from repro.perf.history import update_artifact
from repro.workloads.suite import load_benchmark

ARTIFACT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_solver.json"
)

#: the solver-bench small set: search-bound, seconds not minutes
BENCHMARKS = ["gsm", "cfd"]
SIDE = 8

#: asserted ceiling on instrumentation_seconds / run_seconds
OVERHEAD_THRESHOLD = 0.03
#: asserted ceiling on the continuous sampling profiler's overhead
PROFILER_OVERHEAD_THRESHOLD = 0.01
#: best-of runs for the end-to-end legs
RUNS = 3
#: tight-loop sizing for the per-call cost measurements
COST_REPS = 20_000
COST_BATCHES = 5


def _run_map(dfg, timeout: float):
    cgra = CGRA(SIDE, SIDE)
    mapper = SatMapItMapper(
        cgra, BaselineConfig(budget_seconds=timeout))
    start = time.monotonic()
    result = mapper.map(dfg)
    return result, time.monotonic() - start


class _counting_shims:
    """Count every obs entry-point call made during one ``map()``.

    Engines resolve ``obs_trace.span`` / ``metrics.observe`` /
    ``obs_hooks.finish_engine_run`` as module attributes at call time,
    so wrapping the three modules reaches every call site without
    touching engine code. ``enabled`` is the one tracing check of each
    SAT solve (``FiniteDomainProblem.solve_detailed``).
    """

    def __init__(self):
        self.counts = {"span": 0, "instant": 0, "enabled": 0,
                       "ii_attempt": 0, "finish": 0}

    def __enter__(self):
        counts = self.counts

        def wrap(key, original):
            def shim(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return shim

        self._saved = [
            (obs_trace, "span", obs_trace.span),
            (obs_trace, "instant", obs_trace.instant),
            (obs_trace, "enabled", obs_trace.enabled),
            (metrics, "observe", metrics.observe),
            (obs_hooks, "finish_engine_run", obs_hooks.finish_engine_run),
        ]
        keys = ("span", "instant", "enabled", "ii_attempt", "finish")
        for key, (mod, name, original) in zip(keys, self._saved):
            setattr(mod, name, wrap(key, original))
        return self

    def __exit__(self, *exc):
        for mod, name, original in self._saved:
            setattr(mod, name, original)
        return False


def _per_call_seconds(fn) -> float:
    """Best-of-batches cost of one ``fn()`` call, in seconds."""
    best = None
    for _ in range(COST_BATCHES):
        gc.collect()
        start = time.perf_counter()
        for _ in range(COST_REPS):
            fn()
        elapsed = (time.perf_counter() - start) / COST_REPS
        best = elapsed if best is None else min(best, elapsed)
    return best


def _measure_costs(sample_result):
    """Per-call disabled-path cost of each obs entry point."""

    def span_call():
        with obs_trace.span("ii_attempt", ii=7):
            pass

    return {
        "span": _per_call_seconds(span_call),
        "instant": _per_call_seconds(
            lambda: obs_trace.instant("improvement", ii=7)),
        "enabled": _per_call_seconds(obs_trace.enabled),
        "ii_attempt": _per_call_seconds(
            lambda: metrics.observe("repro_ii_attempt_seconds", 0.001,
                                    engine="satmapit")),
        "finish": _per_call_seconds(
            lambda: obs_hooks.finish_engine_run("satmapit", sample_result)),
    }


def test_instrumentation_overhead_disabled(bench_timeout):
    """Tracing-disabled instrumentation costs <= 3% end to end."""
    assert not obs_trace.enabled()
    timeout = max(bench_timeout, 60.0)
    records = []
    total_instr = 0.0
    total_run = 0.0
    total_traced = 0.0
    costs = None
    for name in BENCHMARKS:
        dfg = load_benchmark(name)

        # exact call counts of one real run, via counting shims
        with _counting_shims() as shims:
            reference, _ = _run_map(dfg, timeout)
        counts = dict(shims.counts)

        if costs is None:
            costs = _measure_costs(reference)

        # end-to-end legs: the shipped default, then tracing enabled
        best_run = best_traced = None
        for _ in range(RUNS):
            gc.collect()
            result, seconds = _run_map(dfg, timeout)
            assert result.status == reference.status, name
            assert result.ii == reference.ii, name
            best_run = seconds if best_run is None else min(best_run, seconds)

            gc.collect()
            obs_trace.enable()
            try:
                result, seconds = _run_map(dfg, timeout)
            finally:
                obs_trace.disable()
                obs_trace.reset()
            assert result.status == reference.status, name
            assert result.ii == reference.ii, name
            best_traced = (seconds if best_traced is None
                           else min(best_traced, seconds))

        instr = sum(counts[key] * costs[key] for key in counts)
        overhead = instr / best_run
        total_instr += instr
        total_run += best_run
        total_traced += best_traced
        records.append({
            "benchmark": name,
            "cgra": f"{SIDE}x{SIDE}",
            "status": reference.status.value,
            "ii": reference.ii,
            "calls": counts,
            "instrumentation_seconds": round(instr, 9),
            "disabled_seconds": round(best_run, 6),
            "traced_seconds": round(best_traced, 6),
            "disabled_overhead": round(overhead, 6),
        })
        print(f"\n{name}: {sum(counts.values())} obs calls "
              f"({counts}) -> {instr * 1e6:.1f}us of "
              f"{best_run:.3f}s run ({overhead * 100:.4f}%); "
              f"traced {best_traced:.3f}s")
    overhead = total_instr / total_run
    update_artifact(ARTIFACT_PATH, {
        "obs_overhead": {
            "workload": ("solver-bench small set, full coupled map() per "
                         "benchmark on an 8x8 torus"),
            "benchmarks": BENCHMARKS,
            "threshold": OVERHEAD_THRESHOLD,
            "runs_per_leg": RUNS,
            "per_call_seconds": {k: round(v, 9) for k, v in costs.items()},
            "instrumentation_seconds": round(total_instr, 9),
            "disabled_seconds": round(total_run, 6),
            "traced_seconds": round(total_traced, 6),
            "disabled_overhead": round(overhead, 6),
            "records": records,
        },
    }, {
        "label": "obs-overhead",
        "benchmarks": BENCHMARKS,
        "disabled_overhead": round(overhead, 6),
        "threshold": OVERHEAD_THRESHOLD,
    })
    print(f"\ntotal: {total_instr * 1e6:.1f}us instrumentation over "
          f"{total_run:.3f}s of mapping ({overhead * 100:.4f}%); traced "
          f"end-to-end {total_traced:.3f}s; artifact written to "
          f"{ARTIFACT_PATH}")
    assert overhead <= OVERHEAD_THRESHOLD, (
        f"tracing-disabled instrumentation costs {overhead * 100:.2f}% "
        f"(threshold {OVERHEAD_THRESHOLD * 100:.0f}%)"
    )


def test_sampling_profiler_overhead(bench_timeout):
    """The continuous sampling profiler costs <= 1% of mapping time.

    Same exact-count methodology as the instrumentation leg: a
    wall-clock diff of profiler-on vs profiler-off runs would measure
    scheduler noise, so the overhead is computed as ``samples taken
    during a real profiled run x measured per-sample handler cost /
    run seconds``. SIGPROF fires on *CPU* time, so the sample count of
    a run is itself stable.
    """
    if not hasattr(signal, "setitimer"):  # pragma: no cover - non-POSIX
        pytest.skip("sampling profiler needs setitimer/SIGPROF")
    timeout = max(bench_timeout, 60.0)

    # per-sample cost of one handler invocation (walks every thread's
    # stack and folds it), resolved in a tight loop; the folded key is
    # identical each call so the aggregate dict stays tiny
    obs_profiler.reset()
    handler_cost = _per_call_seconds(
        lambda: obs_profiler._handler(signal.SIGPROF, None))
    obs_profiler.reset()

    records = []
    total_samples = 0
    total_run = 0.0
    for name in BENCHMARKS:
        dfg = load_benchmark(name)
        reference, _ = _run_map(dfg, timeout)

        best = None
        samples = 0
        for _ in range(RUNS):
            gc.collect()
            obs_profiler.reset()
            assert obs_profiler.start()
            try:
                result, seconds = _run_map(dfg, timeout)
            finally:
                obs_profiler.stop()
            run_samples = sum(obs_profiler.local_counts().values())
            assert result.status == reference.status, name
            assert result.ii == reference.ii, name
            if best is None or seconds < best:
                best, samples = seconds, run_samples
        # the profile must attribute real work, not just exist
        assert samples > 0, f"{name}: no samples in a {best:.3f}s run"
        overhead = samples * handler_cost / best
        total_samples += samples
        total_run += best
        records.append({
            "benchmark": name,
            "cgra": f"{SIDE}x{SIDE}",
            "samples": samples,
            "run_seconds": round(best, 6),
            "profiler_overhead": round(overhead, 6),
        })
        print(f"\n{name}: {samples} samples in {best:.3f}s "
              f"({overhead * 100:.4f}% overhead at "
              f"{handler_cost * 1e6:.1f}us/sample)")
    overhead = total_samples * handler_cost / total_run
    obs_profiler.reset()
    update_artifact(ARTIFACT_PATH, {
        "profiler_overhead": {
            "workload": ("solver-bench small set, full coupled map() per "
                         "benchmark on an 8x8 torus, sampling profiler "
                         "running"),
            "benchmarks": BENCHMARKS,
            "threshold": PROFILER_OVERHEAD_THRESHOLD,
            "interval_seconds": obs_profiler.DEFAULT_INTERVAL_SECONDS,
            "per_sample_seconds": round(handler_cost, 9),
            "samples": total_samples,
            "run_seconds": round(total_run, 6),
            "profiler_overhead": round(overhead, 6),
            "records": records,
        },
    }, {
        "label": "profiler-overhead",
        "benchmarks": BENCHMARKS,
        "profiler_overhead": round(overhead, 6),
        "threshold": PROFILER_OVERHEAD_THRESHOLD,
    })
    print(f"\ntotal: {total_samples} samples x "
          f"{handler_cost * 1e6:.1f}us over {total_run:.3f}s of mapping "
          f"({overhead * 100:.4f}%); artifact written to {ARTIFACT_PATH}")
    assert overhead <= PROFILER_OVERHEAD_THRESHOLD, (
        f"sampling profiler costs {overhead * 100:.2f}% "
        f"(threshold {PROFILER_OVERHEAD_THRESHOLD * 100:.0f}%)"
    )
