"""End-to-end benchmark of the SAT time-phase stack (``BENCH_solver.json``).

The main claim asserted here is the acceptance criterion of the solver
rewrite: on the coupled-baseline 8x8 schedule-enumeration set, the
flat-arena kernel (:mod:`repro.smt.sat`) is at least
:data:`SPEEDUP_THRESHOLD` times faster end to end than the pre-rewrite
solver stack, with identical results. A third leg
(``incremental-vs-reencode``) asserts that the decoupled mapper's time
solver, encoded once per DFG, enumerates slot patterns strictly faster
than re-encoding it per II.

**Workload** (per benchmark of the enumeration set -- gsm,
particlefilter, crc32, aes, cfd -- on an 8x8 torus):

1. a full coupled ``SatMapItMapper.map()`` call (the mII -> II sweep whose
   ``nodes x II x PEs`` formulas are the hottest thing the repo builds), and
2. coupled *schedule enumeration*: encode once, then enumerate up to
   :data:`SCHEDULES_PER_II` distinct schedules at the first feasible II
   through blocking clauses -- the solve/block/re-solve loop the mapper
   runs whenever the space phase rejects schedules.

**Baseline leg**: the pre-rewrite kernel, preserved verbatim in
:mod:`repro.smt.sat_reference`, injected as a class:
``BaselineConfig(solver_backend=ReferenceSATSolver)``. See
docs/performance.md for the exact definition.

**Equality checks**: map status and II must match per benchmark, and the
enumeration legs must produce the same number of distinct schedules. (The
kernels may visit models in different orders; the differential suite in
``tests/test_solver_differential.py`` covers status/core semantics.)

Timings are best-of-:data:`RUNS`. The per-benchmark measurements are
written to ``BENCH_solver.json`` at the repository root. CI's perf-smoke
job runs the small set (``REPRO_BENCH_SOLVER_SMALL=1``) against the same
threshold.
"""

import os
import pathlib
import time

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper, _CoupledEncoding
from repro.core.config import SLACK_LADDER, BaselineConfig
from repro.core.mapper import begin_mapping
from repro.core.time_solver import IncrementalTimeSolver
from repro.graphs.analysis import rec_ii, res_ii
from repro.perf.history import update_artifact
from repro.workloads.suite import load_benchmark
from repro.smt.csp import resolve_solver_backend
from repro.smt.sat import SolveStatus
from repro.smt.sat_reference import ReferenceSATSolver

ARTIFACT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_solver.json"
)

#: the schedule-enumeration benchmarks, on the array size where the
#: coupled encoding's nodes x II x PEs growth bites
ENUMERATION_BENCHMARKS = ["gsm", "particlefilter", "crc32", "aes", "cfd"]
#: subset used by the CI perf-smoke job (search-bound, seconds not minutes)
SMALL_SET = ["gsm", "cfd"]
ENUMERATION_SIDE = 8

#: distinct schedules requested from the enumeration leg per benchmark
SCHEDULES_PER_II = 16
#: asserted end-to-end speedup of the arena kernel over the pre-rewrite one
SPEEDUP_THRESHOLD = 1.5
#: target end-to-end speedup of the native C tier over the arena kernel
#: (the assertion floor is 1.0x with C, NATIVE_FALLBACK_FLOOR otherwise)
NATIVE_TARGET_SPEEDUP = 1.5
#: noise allowance when the C tier cannot be built and "native" runs the
#: arena kernel: the executed code is then identical to the arena leg
NATIVE_FALLBACK_FLOOR = 0.8
#: best-of runs per leg (absorbs scheduler noise without hiding regressions)
RUNS = 2

#: the incremental-vs-reencode leg: (benchmark, CGRA side, IIs beyond
#: mII, slot patterns per II) -- the mapper's time-phase sweep when the
#: space phase rejects schedules
INCREMENTAL_WORKLOAD = [
    ("gsm", 4, 4, 8),
    ("particlefilter", 5, 3, 6),
    ("crc32", 4, 4, 8),
    ("aes", 4, 3, 8),
    ("cfd", 5, 3, 6),
]


def _benchmark_set():
    if os.environ.get("REPRO_BENCH_SOLVER_SMALL"):
        return SMALL_SET
    return ENUMERATION_BENCHMARKS


def _config(backend, timeout: float) -> BaselineConfig:
    """``backend`` is "arena", "native" or a solver class."""
    return BaselineConfig(budget_seconds=timeout, solver_backend=backend)


def _run_map(dfg, backend, timeout: float):
    cgra = CGRA(ENUMERATION_SIDE, ENUMERATION_SIDE)
    mapper = SatMapItMapper(cgra, _config(backend, timeout))
    start = time.monotonic()
    result = mapper.map(dfg)
    return result, time.monotonic() - start


def _run_enumeration(dfg, backend, timeout: float):
    """Encode once, enumerate schedules at the first feasible II."""
    cgra = CGRA(ENUMERATION_SIDE, ENUMERATION_SIDE)
    config = _config(backend, timeout)
    _, _, mii, infeasible = begin_mapping(dfg, cgra)
    assert infeasible is None
    start = time.monotonic()
    encoding = _CoupledEncoding(
        dfg, cgra, max(SLACK_LADDER),
        solver_cls=resolve_solver_backend(config.solver_backend),
    )
    produced = 0
    ii = mii
    while produced == 0 and ii < mii + 8:
        eff_slack = encoding.effective_slack(0)
        encoding.problem.push()
        try:
            encoding._add_horizon(eff_slack)
            encoding._add_loop_carried(ii)
            encoding._add_capacity(ii)
            encoding._add_exclusivity(ii, eff_slack)
            for _ in range(SCHEDULES_PER_II):
                result = encoding.problem.solve_detailed(
                    timeout_seconds=timeout)
                if result.status is not SolveStatus.SAT:
                    break
                produced += 1
                solution = encoding.problem._extract(result)
                encoding.problem.forbid_assignment({
                    var: solution.value(var)
                    for var in encoding.time_vars.values()
                })
        finally:
            encoding.problem.pop()
        ii += 1
    return produced, time.monotonic() - start


def _measure(dfg, backend, timeout: float):
    """Best-of-RUNS end-to-end seconds for both workload components."""
    best_map = best_enum = None
    map_result = None
    produced = None
    for _ in range(RUNS):
        map_result, map_seconds = _run_map(dfg, backend, timeout)
        count, enum_seconds = _run_enumeration(dfg, backend, timeout)
        if produced is None:
            produced = count
        else:
            assert produced == count, "enumeration count not reproducible"
        best_map = map_seconds if best_map is None else min(best_map,
                                                           map_seconds)
        best_enum = enum_seconds if best_enum is None else min(best_enum,
                                                               enum_seconds)
    return map_result, produced, best_map, best_enum


def test_arena_kernel_end_to_end_speedup(bench_timeout):
    """The tentpole perf claim, measured against the pre-rewrite stack."""
    benchmarks = _benchmark_set()
    timeout = max(bench_timeout, 60.0)  # equality matters more than budget
    records = []
    arena_total = 0.0
    reference_total = 0.0
    for name in benchmarks:
        dfg = load_benchmark(name)
        arena_result, arena_count, arena_map, arena_enum = _measure(
            dfg, "arena", timeout)
        ref_result, ref_count, ref_map, ref_enum = _measure(
            dfg, ReferenceSATSolver, timeout)
        # identical results first: the speed claim is meaningless otherwise
        assert arena_result.status == ref_result.status, name
        assert arena_result.ii == ref_result.ii, name
        assert arena_count == ref_count, name
        assert arena_count >= 1, name
        arena_seconds = arena_map + arena_enum
        reference_seconds = ref_map + ref_enum
        arena_total += arena_seconds
        reference_total += reference_seconds
        records.append({
            "benchmark": name,
            "cgra": f"{ENUMERATION_SIDE}x{ENUMERATION_SIDE}",
            "status": arena_result.status.value,
            "ii": arena_result.ii,
            "schedules_enumerated": arena_count,
            "arena_map_seconds": round(arena_map, 6),
            "arena_enum_seconds": round(arena_enum, 6),
            "reference_map_seconds": round(ref_map, 6),
            "reference_enum_seconds": round(ref_enum, 6),
            "speedup": round(reference_seconds / arena_seconds, 3),
        })
        print(f"\n{name}: arena {arena_seconds:.3f}s "
              f"(map {arena_map:.3f} + enum {arena_enum:.3f}), "
              f"reference {reference_seconds:.3f}s, "
              f"{reference_seconds / arena_seconds:.2f}x")
    speedup = reference_total / arena_total
    artifact = {
        "workload": (
            "coupled-baseline 8x8 schedule-enumeration set: full map() "
            f"plus {SCHEDULES_PER_II}-schedule enumeration per benchmark"
        ),
        "benchmarks": benchmarks,
        "baseline": (
            "repro.smt.sat_reference.ReferenceSATSolver (the pre-rewrite "
            "kernel) behind the current SMT layer"
        ),
        "threshold_speedup": SPEEDUP_THRESHOLD,
        "runs_per_leg": RUNS,
        "arena_seconds": round(arena_total, 6),
        "reference_seconds": round(reference_total, 6),
        "speedup": round(speedup, 3),
        "records": records,
    }
    update_artifact(ARTIFACT_PATH, artifact, {
        "label": "arena-vs-reference",
        "backend_tier": "arena",
        "benchmarks": benchmarks,
        "speedup": round(speedup, 3),
    })
    print(f"\ntotal: arena {arena_total:.3f}s, reference "
          f"{reference_total:.3f}s ({speedup:.2f}x); artifact written to "
          f"{ARTIFACT_PATH}")
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"flat-arena kernel only {speedup:.2f}x faster than the pre-rewrite "
        f"stack (threshold {SPEEDUP_THRESHOLD}x)"
    )


def test_native_backend_end_to_end_speedup(bench_timeout):
    """The native tier is no slower than arena end to end (target: faster).

    Measured on the same 8x8 schedule-enumeration workload as the arena
    leg. With the C tier built this asserts parity and targets
    :data:`NATIVE_TARGET_SPEEDUP`; when the C tier cannot be built (no
    cffi or C toolchain -- "native" then runs the arena kernel itself) the
    assertion allows scheduler noise down to
    :data:`NATIVE_FALLBACK_FLOOR`.
    """
    from repro.smt.native import selected_tier

    benchmarks = _benchmark_set()
    timeout = max(bench_timeout, 60.0)
    tier = selected_tier()
    records = []
    arena_total = 0.0
    native_total = 0.0
    for name in benchmarks:
        dfg = load_benchmark(name)
        arena_result, arena_count, arena_map, arena_enum = _measure(
            dfg, "arena", timeout)
        nat_result, nat_count, nat_map, nat_enum = _measure(
            dfg, "native", timeout)
        # bit-identical results are the native backend's contract
        assert nat_result.status == arena_result.status, name
        assert nat_result.ii == arena_result.ii, name
        assert nat_count == arena_count, name
        arena_seconds = arena_map + arena_enum
        native_seconds = nat_map + nat_enum
        arena_total += arena_seconds
        native_total += native_seconds
        records.append({
            "benchmark": name,
            "cgra": f"{ENUMERATION_SIDE}x{ENUMERATION_SIDE}",
            "status": nat_result.status.value,
            "ii": nat_result.ii,
            "schedules_enumerated": nat_count,
            "arena_map_seconds": round(arena_map, 6),
            "arena_enum_seconds": round(arena_enum, 6),
            "native_map_seconds": round(nat_map, 6),
            "native_enum_seconds": round(nat_enum, 6),
            "speedup": round(arena_seconds / native_seconds, 3),
        })
        print(f"\n{name}: native[{tier}] {native_seconds:.3f}s "
              f"(map {nat_map:.3f} + enum {nat_enum:.3f}), "
              f"arena {arena_seconds:.3f}s, "
              f"{arena_seconds / native_seconds:.2f}x")
    speedup = arena_total / native_total
    update_artifact(ARTIFACT_PATH, {
        "native_tier": tier,
        "native_seconds": round(native_total, 6),
        "native_arena_seconds": round(arena_total, 6),
        "native_speedup": round(speedup, 3),
        "native_records": records,
    }, {
        "label": "native-vs-arena",
        "backend_tier": tier,
        "benchmarks": benchmarks,
        "speedup": round(speedup, 3),
        "target_speedup": NATIVE_TARGET_SPEEDUP,
    })
    print(f"\ntotal: native[{tier}] {native_total:.3f}s, arena "
          f"{arena_total:.3f}s ({speedup:.2f}x); artifact written to "
          f"{ARTIFACT_PATH}")
    floor = 1.0 if tier == "native-c" else NATIVE_FALLBACK_FLOOR
    assert speedup >= floor, (
        f"native backend ({tier} tier) ran {speedup:.2f}x vs arena "
        f"(floor {floor}x, target {NATIVE_TARGET_SPEEDUP}x)"
    )


def _sweep(dfg, cgra, iis, per_ii, reencode: bool) -> int:
    """Slot patterns enumerated over ``iis``; ``reencode`` builds a fresh
    time solver per II instead of reusing one."""
    produced = 0
    solver = None
    for ii in iis:
        if reencode or solver is None:
            solver = IncrementalTimeSolver(dfg, cgra)
        produced += sum(
            1 for _ in solver.iter_schedules(ii, limit=per_ii, timeout_seconds=60)
        )
    return produced


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(RUNS):
        start = time.monotonic()
        fn(*args)
        best = min(best, time.monotonic() - start)
    return best


def test_incremental_time_solver_beats_reencoding():
    """One encoding per DFG enumerates slot patterns strictly faster than
    a fresh :class:`IncrementalTimeSolver` per II (scoped per-II
    constraints, warm activities and phases)."""
    reencode_total = 0.0
    incremental_total = 0.0
    for name, side, n_iis, per_ii in INCREMENTAL_WORKLOAD:
        dfg = load_benchmark(name)
        cgra = CGRA(side, side)
        mii = max(res_ii(dfg, cgra.num_pes), rec_ii(dfg))
        iis = list(range(mii, mii + n_iis))
        # identical output first: the speed claim is meaningless otherwise
        assert (_sweep(dfg, cgra, iis, per_ii, reencode=True)
                == _sweep(dfg, cgra, iis, per_ii, reencode=False)), name
        reencode_total += _best_of(_sweep, dfg, cgra, iis, per_ii, True)
        incremental_total += _best_of(_sweep, dfg, cgra, iis, per_ii, False)
    speedup = reencode_total / incremental_total
    benchmarks = [name for name, *_ in INCREMENTAL_WORKLOAD]
    update_artifact(ARTIFACT_PATH, {
        "incremental_seconds": round(incremental_total, 6),
        "reencode_seconds": round(reencode_total, 6),
        "incremental_speedup": round(speedup, 3),
    }, {
        "label": "incremental-vs-reencode",
        "benchmarks": benchmarks,
        "speedup": round(speedup, 3),
    })
    print(f"\nslot-pattern sweep: re-encoding {reencode_total:.3f}s, "
          f"incremental {incremental_total:.3f}s ({speedup:.2f}x)")
    assert incremental_total < reencode_total, (
        f"incremental time solver only {speedup:.2f}x vs re-encoding"
    )
