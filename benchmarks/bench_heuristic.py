"""Quality/time benchmark of the anytime engine (``BENCH_heuristic.json``).

The claim asserted here is the acceptance criterion of the heuristic
subsystem: on the **large-array subset** -- the widest Table III kernels
on a 10x10 torus, where the coupled exact encoding's ``nodes x II x PEs``
growth bites -- the stochastic anytime engine is at least
:data:`SPEEDUP_THRESHOLD` times faster end to end than the exact coupled
baseline, while staying within :data:`II_GAP_LIMIT` of the exact
*decoupled* engine's II (which is optimal-first: it returns the smallest
feasible II, so it is the quality oracle).

**Legs per benchmark** (best-of-:data:`RUNS` wall clock each):

1. exact decoupled ``MonomorphismMapper.map()`` -- the II oracle (also
   timed, for context: it is the fastest thing in the repo at 10x10);
2. exact coupled ``SatMapItMapper.map()`` -- the speed baseline this
   bench beats (CGRA practice pairs exact mappers with heuristic ones
   precisely because of this leg's growth);
3. heuristic ``HeuristicMapper.map()`` under a pinned seed
   (:func:`repro.heuristic.engine.resolve_seed` honours
   ``REPRO_PROPERTY_SEED``, so CI pins one variable for everything).

**Quality gates**: the heuristic must succeed on every benchmark, with
``II(exact) <= II(heuristic) <= II(exact) + II_GAP_LIMIT``.

The per-benchmark measurements are written to ``BENCH_heuristic.json`` at
the repository root. CI's heuristic-smoke job runs the small set
(``REPRO_BENCH_HEURISTIC_SMALL=1``) against the same thresholds and
uploads the artifact.
"""

import os
import pathlib
import time

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, HeuristicConfig, MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.heuristic.engine import HeuristicMapper, resolve_seed
from repro.perf.history import update_artifact
from repro.workloads.suite import load_benchmark

ARTIFACT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_heuristic.json"
)

#: the widest Table III kernels (33-57 nodes) on the array size where the
#: coupled exact encoding is largest
LARGE_SET = ["cfd", "hotspot3D", "nw", "heartwall", "backprop"]
#: subset used by the CI heuristic-smoke job
SMALL_SET = ["cfd", "nw"]
LARGE_SIDE = 10

#: asserted end-to-end speedup of the heuristic over the coupled exact leg
SPEEDUP_THRESHOLD = 2.0
#: asserted quality ceiling relative to the exact (optimal-first) II
II_GAP_LIMIT = 2
#: best-of runs per leg (absorbs scheduler noise without hiding regressions)
RUNS = 2


def _benchmark_set():
    if os.environ.get("REPRO_BENCH_HEURISTIC_SMALL"):
        return SMALL_SET
    return LARGE_SET


def _best_of(runs, build_mapper, dfg):
    best_seconds = None
    result = None
    for _ in range(runs):
        mapper = build_mapper()
        start = time.monotonic()
        result = mapper.map(dfg)
        elapsed = time.monotonic() - start
        best_seconds = (elapsed if best_seconds is None
                        else min(best_seconds, elapsed))
    return result, best_seconds


def test_heuristic_speedup_within_ii_gap(bench_timeout):
    """The tentpole quality/time claim of the heuristic subsystem."""
    benchmarks = _benchmark_set()
    timeout = max(bench_timeout, 60.0)  # equality matters more than budget
    seed = resolve_seed(None)
    cgra = CGRA(LARGE_SIDE, LARGE_SIDE)

    records = []
    heuristic_total = 0.0
    coupled_total = 0.0
    for name in benchmarks:
        dfg = load_benchmark(name)
        exact, exact_seconds = _best_of(
            RUNS,
            lambda: MonomorphismMapper(cgra, MapperConfig(
                budget_seconds=timeout)),
            dfg,
        )
        coupled, coupled_seconds = _best_of(
            RUNS,
            lambda: SatMapItMapper(cgra, BaselineConfig(
                budget_seconds=timeout)),
            dfg,
        )
        heuristic, heuristic_seconds = _best_of(
            RUNS,
            lambda: HeuristicMapper(cgra, HeuristicConfig(
                budget_seconds=timeout, seed=seed)),
            dfg,
        )
        # quality gates first: a fast wrong answer is worthless
        assert exact.success, name
        assert heuristic.success, (name, heuristic.summary())
        assert validate_mapping(heuristic.mapping) == [], name
        assert exact.ii <= heuristic.ii <= exact.ii + II_GAP_LIMIT, (
            f"{name}: heuristic II={heuristic.ii} vs exact II={exact.ii} "
            f"(gap limit {II_GAP_LIMIT}, seed {seed})"
        )
        heuristic_total += heuristic_seconds
        coupled_total += coupled_seconds
        records.append({
            "benchmark": name,
            "cgra": f"{LARGE_SIDE}x{LARGE_SIDE}",
            "nodes": dfg.num_nodes,
            "exact_ii": exact.ii,
            "heuristic_ii": heuristic.ii,
            "coupled_ii": coupled.ii if coupled.success else None,
            "exact_seconds": round(exact_seconds, 6),
            "coupled_seconds": round(coupled_seconds, 6),
            "heuristic_seconds": round(heuristic_seconds, 6),
            "speedup_vs_coupled": round(
                coupled_seconds / heuristic_seconds, 3),
        })
        print(f"\n{name}: heuristic {heuristic_seconds:.3f}s "
              f"(II={heuristic.ii}), coupled exact {coupled_seconds:.3f}s "
              f"(II={coupled.ii}), decoupled exact {exact_seconds:.3f}s "
              f"(II={exact.ii}), "
              f"{coupled_seconds / heuristic_seconds:.2f}x vs coupled")

    speedup = coupled_total / heuristic_total
    artifact = {
        "workload": (
            f"{LARGE_SIDE}x{LARGE_SIDE} large-array subset: one full "
            "map() per engine per benchmark, best-of-"
            f"{RUNS} wall clock"
        ),
        "benchmarks": benchmarks,
        "baseline": "SatMapItMapper (exact coupled SAT baseline)",
        "quality_oracle": "MonomorphismMapper (exact decoupled, optimal-first II)",
        "seed": seed,
        "threshold_speedup": SPEEDUP_THRESHOLD,
        "ii_gap_limit": II_GAP_LIMIT,
        "runs_per_leg": RUNS,
        "heuristic_seconds": round(heuristic_total, 6),
        "coupled_seconds": round(coupled_total, 6),
        "speedup": round(speedup, 3),
        "max_ii_gap": max(
            r["heuristic_ii"] - r["exact_ii"] for r in records),
        "results": records,
    }
    update_artifact(ARTIFACT_PATH, artifact, {
        "label": "heuristic-vs-coupled",
        "backend_tier": "arena",
        "benchmarks": benchmarks,
        "speedup": round(speedup, 3),
        "max_ii_gap": artifact["max_ii_gap"],
    })
    print(f"\ntotal: heuristic {heuristic_total:.3f}s, coupled exact "
          f"{coupled_total:.3f}s -> {speedup:.2f}x "
          f"(threshold {SPEEDUP_THRESHOLD}x); artifact at {ARTIFACT_PATH}")
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"heuristic speedup {speedup:.2f}x below the "
        f"{SPEEDUP_THRESHOLD}x threshold"
    )
