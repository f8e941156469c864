"""Benchmarks of the pre-mapping optimization pipeline (``repro.opt``).

Two claims are asserted here (the acceptance criteria of the opt rework):

* on the schedule-enumeration benchmark set of ``bench_solver``,
  driven through the engine whose compilation time is search-dominated at
  laptop scale -- the coupled SAT-MapIt baseline, whose formula grows with
  ``nodes x II x PEs`` -- mapping at ``O2`` end to end (optimization and
  verification included) is no slower than at ``O0``: every node the
  passes erase is a node the encoding never contains (the decoupled
  mapper solves these cases in milliseconds either way, so a wall-clock
  comparison there measures noise, not solver work);
* for every built-in benchmark *and* every frontend kernel example, the
  ``O2`` mapping is validated and achieves an II no worse than ``O0``,
  with at least two benchmarks showing a measurable II or compile-time
  improvement.

The per-benchmark measurements are written to ``BENCH_opt.json`` at the
repository root as a machine-readable perf artifact. Its ``opt-o2-vs-o0``
history entry tracks ``speedup``: total O0 over total O2 seconds across
the Table III rows, judged by ``tools/check_bench.py``.
"""

import pathlib
import time

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.perf.history import update_artifact
from repro.workloads.suite import benchmark_names, load_benchmark

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_opt.json"

#: the schedule-enumeration benchmarks of bench_solver, on the array
#: size where the coupled encoding's nodes x II x PEs growth bites
ENUMERATION_BENCHMARKS = ["gsm", "particlefilter", "crc32", "aes", "cfd"]
ENUMERATION_SIDE = 8

#: a compile-time ratio above this counts as a "measurable" improvement
SPEEDUP_THRESHOLD = 1.2


def _mono_config(opt_level, timeout):
    return MapperConfig(budget_seconds=timeout, opt_level=opt_level)


def _map_once(dfg, side, opt_level, timeout, baseline=False):
    cgra = CGRA(side, side)
    if baseline:
        mapper = SatMapItMapper(
            cgra, BaselineConfig(budget_seconds=timeout, opt_level=opt_level)
        )
    else:
        mapper = MonomorphismMapper(cgra, _mono_config(opt_level, timeout))
    start = time.monotonic()
    result = mapper.map(dfg)
    elapsed = time.monotonic() - start
    assert result.success, f"{dfg.name} O{opt_level}: {result.summary()}"
    return result, elapsed


def _best_of(runs, dfg, side, opt_level, timeout, baseline=False):
    best = None
    result = None
    for _ in range(runs):
        result, elapsed = _map_once(dfg, side, opt_level, timeout,
                                    baseline=baseline)
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_o2_mapping_no_slower_than_o0_on_enumeration_benches(bench_timeout):
    """End-to-end O2 (opt time included) beats O0 where search dominates."""
    total_o0 = 0.0
    total_o2 = 0.0
    side = ENUMERATION_SIDE
    for name in ENUMERATION_BENCHMARKS:
        dfg = load_benchmark(name)
        base, base_seconds = _best_of(2, dfg, side, 0, bench_timeout,
                                      baseline=True)
        opt, opt_seconds = _best_of(2, dfg, side, 2, bench_timeout,
                                    baseline=True)
        assert opt.ii <= base.ii, name
        total_o0 += base_seconds
        total_o2 += opt_seconds
        print(f"\n{name}/{side}x{side}: O0 {base_seconds:.3f}s II={base.ii}, "
              f"O2 {opt_seconds:.3f}s II={opt.ii}")
    print(f"enumeration total: O0 {total_o0:.3f}s, O2 {total_o2:.3f}s "
          f"({total_o0 / total_o2:.2f}x)")
    assert total_o2 <= total_o0


def test_o2_never_worse_everywhere_and_emit_artifact(bench_timeout):
    """II(O2) <= II(O0) on every benchmark and kernel; artifact emitted."""
    records = []

    def measure(kind, name, dfg, side=4):
        base, base_seconds = _map_once(dfg, side, 0, bench_timeout)
        opt, opt_seconds = _map_once(dfg, side, 2, bench_timeout)
        assert opt.ii <= base.ii, name
        assert opt.mii <= base.mii, name
        records.append({
            "kind": kind,
            "name": name,
            "cgra": f"{side}x{side}",
            "nodes": base.mapping.dfg.num_nodes,
            "nodes_o2": opt.mapping.dfg.num_nodes,
            "ii_o0": base.ii,
            "ii_o2": opt.ii,
            "mii_o0": base.mii,
            "mii_o2": opt.mii,
            "seconds_o0": round(base_seconds, 6),
            "seconds_o2": round(opt_seconds, 6),
            "opt_seconds": round(opt.opt_seconds, 6),
        })

    for name in benchmark_names():
        measure("benchmark", name, load_benchmark(name))
    for name in sorted(EXAMPLE_KERNELS):
        measure("kernel", name, extract_dfg(EXAMPLE_KERNELS[name],
                                            name=name).dfg)

    improved = [
        r for r in records
        if r["kind"] == "benchmark" and (
            r["ii_o2"] < r["ii_o0"]
            or r["seconds_o0"] >= SPEEDUP_THRESHOLD * r["seconds_o2"]
        )
    ]
    table3 = [r for r in records if r["kind"] == "benchmark"]
    total_o0 = sum(r["seconds_o0"] for r in table3)
    total_o2 = sum(r["seconds_o2"] for r in table3)
    speedup = total_o0 / total_o2
    artifact = {
        "workload": "all Table III benchmarks + frontend kernel examples",
        "threshold_speedup": SPEEDUP_THRESHOLD,
        "improved_benchmarks": [r["name"] for r in improved],
        "records": records,
    }
    update_artifact(ARTIFACT_PATH, artifact, {
        "label": "opt-o2-vs-o0",
        "backend_tier": "arena",
        "improved_benchmarks": [r["name"] for r in improved],
        "speedup": round(speedup, 3),
    })
    print(f"\n{len(improved)} benchmark(s) improved II or compile time at "
          f"O2: {', '.join(r['name'] for r in improved)}")
    print(f"Table III total: O0 {total_o0:.3f}s, O2 {total_o2:.3f}s "
          f"({speedup:.2f}x)")
    print(f"perf artifact written to {ARTIFACT_PATH}")
    assert len(improved) >= 2
