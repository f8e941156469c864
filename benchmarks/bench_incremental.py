"""Micro-benchmarks of the incremental time-solver path and batch engine.

Two claims are asserted here (they are the acceptance criteria of the
incremental rework):

* on the schedule-enumeration workload -- an mII -> II sweep that asks for
  several schedules per II, exactly what the mapper does when the space
  phase rejects schedules -- the incremental path (one persistent
  encoding, scoped per-II constraints, warm activities/phases) is
  *strictly faster* than re-encoding, i.e. building a fresh
  :class:`IncrementalTimeSolver` per II;
* the parallel batch engine produces results identical to the serial run.
"""

import time

from repro.arch.cgra import CGRA
from repro.core.time_solver import IncrementalTimeSolver
from repro.experiments.batch import BatchRunner, build_cases
from repro.graphs.analysis import rec_ii, res_ii
from repro.workloads.suite import benchmark_names, load_benchmark

#: (benchmark, CGRA side, IIs beyond mII, schedules per II)
ENUMERATION_WORKLOAD = [
    ("gsm", 4, 4, 8),
    ("particlefilter", 5, 3, 6),
    ("crc32", 4, 4, 8),
    ("aes", 4, 3, 8),
    ("cfd", 5, 3, 6),
]


def _sweep_reencoding(dfg, cgra, iis, per_ii) -> int:
    produced = 0
    for ii in iis:
        solver = IncrementalTimeSolver(dfg, cgra)
        produced += sum(
            1 for _ in solver.iter_schedules(ii, limit=per_ii, timeout_seconds=60)
        )
    return produced


def _sweep_incremental(dfg, cgra, iis, per_ii) -> int:
    produced = 0
    solver = IncrementalTimeSolver(dfg, cgra)
    for ii in iis:
        produced += sum(
            1 for _ in solver.iter_schedules(ii, limit=per_ii, timeout_seconds=60)
        )
    return produced


def _time_best_of(runs, fn, *args) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.monotonic()
        fn(*args)
        best = min(best, time.monotonic() - start)
    return best


def test_incremental_time_solver_beats_reencoding_on_enumeration():
    """The tentpole perf claim, measured on the enumeration workload."""
    total_reencode = 0.0
    total_incremental = 0.0
    for name, side, n_iis, per_ii in ENUMERATION_WORKLOAD:
        dfg = load_benchmark(name)
        cgra = CGRA(side, side)
        mii = max(res_ii(dfg, cgra.num_pes), rec_ii(dfg))
        iis = list(range(mii, mii + n_iis))
        # identical output first (the speed claim is meaningless otherwise)
        assert (_sweep_reencoding(dfg, cgra, iis, per_ii)
                == _sweep_incremental(dfg, cgra, iis, per_ii))
        total_reencode += _time_best_of(
            2, _sweep_reencoding, dfg, cgra, iis, per_ii)
        total_incremental += _time_best_of(
            2, _sweep_incremental, dfg, cgra, iis, per_ii)
    print(f"\nenumeration sweep: re-encoding {total_reencode:.3f}s, "
          f"incremental {total_incremental:.3f}s "
          f"({total_reencode / total_incremental:.2f}x)")
    assert total_incremental < total_reencode


def test_parallel_sweep_matches_serial_and_uses_the_pool():
    """BatchRunner: deterministic results, parallel speed on real cases."""
    cases = build_cases(benchmark_names(), ["4x4"], ["monomorphism"], 60.0)
    start = time.monotonic()
    serial = BatchRunner(jobs=1).run(cases)
    serial_seconds = time.monotonic() - start
    start = time.monotonic()
    parallel = BatchRunner(jobs=4).run(cases)
    parallel_seconds = time.monotonic() - start

    def signature(result):
        return (result.benchmark, result.cgra_size, result.approach,
                result.status, result.ii, result.mii)

    assert [signature(r) for r in serial.results] == [
        signature(r) for r in parallel.results
    ]
    assert serial.succeeded == len(cases)
    print(f"\n17-benchmark sweep: serial {serial_seconds:.2f}s, "
          f"jobs=4 {parallel_seconds:.2f}s")
