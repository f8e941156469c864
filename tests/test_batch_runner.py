"""Tests for the parallel batch experiment engine."""

import dataclasses
import os
import signal

import pytest

from repro.core.mapper import MappingResult, MappingStatus
from repro.experiments import batch
from repro.experiments.batch import (
    BatchCase,
    BatchRunner,
    build_cases,
    results_by_case,
)
from repro.experiments.runner import CaseResult, normalize_approach
from repro.obs import metrics
from repro.service.store import ResultStore
from repro.workloads.suite import load_benchmark

SMALL_CASES = [
    BatchCase("bitcount", "2x2", "monomorphism", 30.0),
    BatchCase("susan", "2x2", "monomorphism", 30.0),
    BatchCase("bitcount", "2x2", "satmapit", 30.0),
    BatchCase("lud", "3x3", "monomorphism", 30.0),
]


def _signature(result: CaseResult):
    return (result.benchmark, result.cgra_size, result.approach,
            result.status, result.ii, result.mii)


class TestBatchCase:
    def test_approach_normalisation(self):
        assert BatchCase("aes", "2x2", "mono").approach == "monomorphism"
        assert BatchCase("aes", "2x2", "baseline").approach == "satmapit"
        with pytest.raises(ValueError):
            BatchCase("aes", "2x2", "quantum")
        with pytest.raises(ValueError):
            normalize_approach("nope")

    def test_cache_key_depends_on_configuration(self):
        base = BatchCase("aes", "2x2", "monomorphism", 30.0)
        assert base.cache_key() == BatchCase("aes", "2x2", "mono", 30.0).cache_key()
        assert base.cache_key() != BatchCase("aes", "5x5", "mono", 30.0).cache_key()
        assert base.cache_key() != BatchCase("aes", "2x2", "mono", 60.0).cache_key()
        assert base.cache_key() != BatchCase("aes", "2x2", "satmapit", 30.0).cache_key()

    def test_build_cases_grid_order(self):
        cases = build_cases(["a", "b"], ["2x2", "5x5"], ["mono"], 10.0)
        labels = [(c.size, c.benchmark) for c in cases]
        assert labels == [("2x2", "a"), ("2x2", "b"), ("5x5", "a"), ("5x5", "b")]

    def test_cache_key_depends_on_architecture(self, tmp_path):
        base = BatchCase("aes", "2x2", "mono", 30.0)
        preset = BatchCase("aes", "2x2", "mono", 30.0,
                           arch="mul_sparse_checkerboard")
        assert base.cache_key() != preset.cache_key()
        assert preset.cache_key() == BatchCase(
            "aes", "2x2", "mono", 30.0, arch="mul_sparse_checkerboard"
        ).cache_key()
        # a spec *file* is keyed by its content: editing it invalidates
        from repro.arch.spec import build_preset

        path = os.fspath(tmp_path / "fabric.json")
        build_preset("memory_column_mesh", 2, 2).dump(path)
        first = BatchCase("aes", "2x2", "mono", 30.0, arch=path).cache_key()
        build_preset("mul_sparse_checkerboard", 2, 2).dump(path)
        assert BatchCase("aes", "2x2", "mono", 30.0,
                         arch=path).cache_key() != first

    def test_arch_in_label_and_grid(self):
        case = BatchCase("aes", "2x2", "mono", arch="mul_free_torus")
        assert case.label().endswith("/mul_free_torus")
        cases = build_cases(["a"], ["2x2"], ["mono"], 10.0,
                            arch="memory_column_mesh")
        assert all(c.arch == "memory_column_mesh" for c in cases)

    def test_cache_key_depends_on_opt_configuration(self):
        # satellite regression: every mapper-affecting knob must reach the
        # cache key, or stale entries replay across configurations
        base = BatchCase("aes", "2x2", "mono", 30.0)
        o1 = BatchCase("aes", "2x2", "mono", 30.0, opt_level=1)
        o2 = BatchCase("aes", "2x2", "mono", 30.0, opt_level=2)
        assert len({base.cache_key(), o1.cache_key(), o2.cache_key()}) == 3
        # "O2", "2" and 2 are one configuration -> one key
        assert o2.cache_key() == BatchCase(
            "aes", "2x2", "mono", 30.0, opt_level="O2").cache_key()
        assert o2.cache_key() == BatchCase(
            "aes", "2x2", "mono", 30.0, opt_level="2").cache_key()
        # explicit pass lists are their own axis (list == tuple)
        passes = BatchCase("aes", "2x2", "mono", 30.0,
                           opt_passes=("constfold", "dce"))
        assert passes.cache_key() not in {base.cache_key(), o2.cache_key()}
        assert passes.cache_key() == BatchCase(
            "aes", "2x2", "mono", 30.0,
            opt_passes=["constfold", "dce"]).cache_key()
        assert passes.cache_key() != BatchCase(
            "aes", "2x2", "mono", 30.0, opt_passes=("dce",)).cache_key()
        # opt configuration shows up in the progress label
        assert o2.label().endswith("/O2")
        assert passes.label().endswith("/passes=constfold,dce")

    def test_opt_in_build_cases_grid(self):
        cases = build_cases(["a"], ["2x2"], ["mono"], 10.0, opt_level="O2",
                            opt_passes=None)
        assert all(c.opt_level == 2 for c in cases)

    def test_cache_key_and_records_outlive_the_backend_axis(self, tmp_path):
        # the digest this case had while the SAT kernel was a sweep axis
        # (the default and the native spellings shared it): caches written
        # then keep hitting
        case = BatchCase("aes", "2x2", "mono", 30.0)
        assert case.cache_key() == "6a32f19bb857438a775455bb"
        # ... and their records, which carry a solver_backend field,
        # still load
        store = ResultStore(str(tmp_path / "cache.jsonl"))
        result = CaseResult(
            benchmark="aes", cgra_size="2x2", approach="monomorphism",
            status="success", ii=6, mii=6, time_phase_seconds=0.1,
            space_phase_seconds=0.1, total_seconds=0.2)
        store.put(case.cache_key(), {
            "case": {}, "result": dict(dataclasses.asdict(result),
                                       solver_backend=None)})
        assert BatchRunner._cached_result(store, case.cache_key()) == result

    def test_seed_keys_only_stochastic_approaches(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROPERTY_SEED", raising=False)
        from repro.heuristic.engine import DEFAULT_HEURISTIC_SEED

        # exact engines are deterministic: a seed must not fragment keys
        assert BatchCase("aes", "2x2", "mono", 30.0, seed=7).cache_key() \
            == BatchCase("aes", "2x2", "mono", 30.0).cache_key()
        # stochastic engines resolve the seed eagerly (explicit > env >
        # default) so the *effective* seed keys the cache
        default = BatchCase("aes", "2x2", "heuristic", 30.0)
        assert default.seed == DEFAULT_HEURISTIC_SEED
        pinned = BatchCase("aes", "2x2", "heuristic", 30.0, seed=7)
        assert pinned.seed == 7
        assert pinned.cache_key() != default.cache_key()
        assert pinned.cache_key() == BatchCase(
            "aes", "2x2", "sa", 30.0, seed=7).cache_key()
        assert pinned.label().endswith("/seed=7")
        monkeypatch.setenv("REPRO_PROPERTY_SEED", "31337")
        env_seeded = BatchCase("aes", "2x2", "heuristic", 30.0)
        assert env_seeded.seed == 31337
        assert env_seeded.cache_key() != default.cache_key()

    def test_portfolio_and_heuristic_in_the_grid(self):
        cases = build_cases(["a"], ["2x2"], ["heuristic", "portfolio"],
                            10.0, seed=3)
        assert [c.approach for c in cases] == ["heuristic", "portfolio"]
        assert all(c.seed == 3 for c in cases)


class TestBatchRunner:
    def test_parallel_results_match_serial_order_and_values(self):
        serial = BatchRunner(jobs=1).run(SMALL_CASES)
        parallel = BatchRunner(jobs=3).run(SMALL_CASES)
        assert [_signature(r) for r in serial.results] == [
            _signature(r) for r in parallel.results
        ]
        assert serial.succeeded == len(SMALL_CASES)
        lookup = results_by_case(SMALL_CASES, parallel)
        assert lookup[("bitcount", "2x2", "monomorphism")].ii == 3

    def test_cache_hit_short_circuits_execution(self, tmp_path):
        path = os.fspath(tmp_path / "cache.jsonl")
        cases = SMALL_CASES[:2]
        first = BatchRunner(jobs=2, cache_path=path).run(cases)
        assert first.executed == 2 and first.cache_hits == 0
        second = BatchRunner(jobs=2, cache_path=path).run(cases)
        assert second.executed == 0 and second.cache_hits == 2
        assert [_signature(r) for r in first.results] == [
            _signature(r) for r in second.results
        ]
        # a different configuration is a different key: it must execute
        third = BatchRunner(jobs=1, cache_path=path).run(
            [BatchCase("bitcount", "2x2", "monomorphism", 31.0)]
        )
        assert third.executed == 1 and third.cache_hits == 0

    def test_stale_cache_never_replays_across_opt_configs(self, tmp_path):
        # the same benchmark/size/approach at O0 and O2 produce different
        # IIs; a cache written at O0 must not serve the O2 case
        path = os.fspath(tmp_path / "cache.jsonl")
        o0_case = BatchCase("aes", "4x4", "monomorphism", 60.0)
        o2_case = BatchCase("aes", "4x4", "monomorphism", 60.0, opt_level=2)
        first = BatchRunner(jobs=1, cache_path=path).run([o0_case])
        assert first.executed == 1 and first.results[0].succeeded
        second = BatchRunner(jobs=1, cache_path=path).run([o2_case])
        assert second.executed == 1 and second.cache_hits == 0
        assert second.results[0].ii < first.results[0].ii  # aes: 6 vs 14
        assert second.results[0].opt_level == 2
        assert second.results[0].nodes_opt < second.results[0].nodes
        # both configurations now hit, each under its own key
        third = BatchRunner(jobs=1, cache_path=path).run([o0_case, o2_case])
        assert third.executed == 0 and third.cache_hits == 2
        assert third.results[0].ii == first.results[0].ii
        assert third.results[1].ii == second.results[0].ii

    def test_heterogeneous_cases_run_through_the_engine(self):
        # the architecture axis end to end: same kernel, three fabrics,
        # including one where it is infeasible
        cases = [
            BatchCase("fft", "4x4", "monomorphism", 30.0),
            BatchCase("fft", "4x4", "monomorphism", 30.0,
                      arch="mul_sparse_checkerboard"),
            BatchCase("fft", "4x4", "monomorphism", 30.0,
                      arch="mul_free_torus"),
        ]
        report = BatchRunner(jobs=1).run(cases)
        homogeneous, checker, mul_free = report.results
        assert homogeneous.succeeded and checker.succeeded
        assert checker.arch == "mul_sparse_checkerboard"
        assert checker.ii >= homogeneous.ii  # restriction cannot help
        assert mul_free.status == MappingStatus.INFEASIBLE.value
        assert "supported by no PE" in mul_free.message

    def test_synthetic_results_keep_the_architecture(self):
        case = BatchCase("aes", "2x2", "mono", 30.0,
                         arch="mul_sparse_checkerboard")
        synthetic = BatchRunner._synthetic_result(case, "hard_timeout", 1.0)
        assert synthetic.arch == "mul_sparse_checkerboard"
        assert synthetic.status == "hard_timeout"

    def test_cache_tolerates_garbage_lines(self, tmp_path):
        path = os.fspath(tmp_path / "cache.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n{\"key\": \"missing-result\"}\n\n")
        report = BatchRunner(jobs=1, cache_path=path).run(SMALL_CASES[:1])
        assert report.executed == 1 and report.succeeded == 1

    def test_hard_timeout_is_enforced_and_records_elapsed(self):
        # particlefilter on 20x20 takes far longer than the 0.3 s hard cap
        case = BatchCase("particlefilter", "20x20", "satmapit", 120.0)
        report = BatchRunner(jobs=1, hard_timeout_seconds=0.3).run([case])
        result = report.results[0]
        assert result.status == "hard_timeout"
        assert report.hard_timeouts == 1
        assert result.total_seconds is not None and result.total_seconds >= 0.3
        assert result.ii is None

    def test_worker_errors_are_reported_not_raised(self):
        report = BatchRunner(jobs=1).run(
            [BatchCase("no-such-benchmark", "2x2", "monomorphism", 5.0)]
        )
        result = report.results[0]
        assert result.status == "error"
        assert "no-such-benchmark" in result.message
        assert report.errors == 1

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)

    def test_worker_crash_is_attributed_and_the_worker_restarts(
            self, monkeypatch):
        # the forked child inherits the patched module: it SIGKILLs
        # itself on the sentinel benchmark and maps everything else
        real_run_case = batch.run_case

        def run_or_die(benchmark, *args, **kwargs):
            if benchmark == "bitcount":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_case(benchmark, *args, **kwargs)

        monkeypatch.setattr(batch, "run_case", run_or_die)
        report = BatchRunner(jobs=1).run([
            BatchCase("bitcount", "2x2", "monomorphism", 30.0),
            BatchCase("susan", "2x2", "monomorphism", 30.0),
        ])
        crashed, survivor = report.results
        assert crashed.status == "error"
        assert "signal 9 (SIGKILL)" in crashed.message
        assert report.errors == 1
        assert survivor.succeeded  # on the restarted worker

    def test_child_metrics_are_folded_into_the_parent(self):
        cases = SMALL_CASES[:2]  # two monomorphism cases
        metrics.reset()
        try:
            report = BatchRunner(jobs=1).run(cases)
            runs = metrics.snapshot().get("repro_engine_runs_total", {})
            mono = sum(value for labels, value in runs.items()
                       if 'engine="monomorphism"' in labels)
            assert report.executed == len(cases)
            assert mono == report.executed
        finally:
            metrics.reset()


class TestCaseResultTiming:
    def test_failed_cases_keep_their_elapsed_time(self):
        dfg = load_benchmark("bitcount")
        failed = MappingResult(
            status=MappingStatus.TIME_TIMEOUT,
            mii=3,
            time_phase_seconds=1.5,
            space_phase_seconds=0.25,
            total_seconds=1.75,
            message="SAT solver timed out on II=3",
        )
        case = CaseResult.from_mapping_result(
            "bitcount", "2x2", "monomorphism", dfg, failed
        )
        assert case.status == "time_timeout"
        assert case.total_seconds == pytest.approx(1.75)
        assert case.time_phase_seconds == pytest.approx(1.5)
        assert case.space_phase_seconds == pytest.approx(0.25)
        assert case.message == "SAT solver timed out on II=3"


class TestStochasticEnginesInTheBatchLayer:
    def test_heuristic_and_portfolio_cases_run_and_cache(self, tmp_path):
        path = os.fspath(tmp_path / "cache.jsonl")
        cases = [
            BatchCase("bitcount", "3x3", "heuristic", 30.0, seed=5),
            BatchCase("bitcount", "3x3", "portfolio", 60.0, seed=5),
        ]
        first = BatchRunner(jobs=1, cache_path=path).run(cases)
        assert first.executed == 2
        heuristic, portfolio = first.results
        assert heuristic.succeeded and portfolio.succeeded
        assert heuristic.approach == "heuristic"
        assert heuristic.seed == 5
        assert portfolio.winner is not None
        assert portfolio.portfolio  # per-engine outcomes persisted
        # the cache round-trips every new field (per_ii, portfolio, seed)
        second = BatchRunner(jobs=1, cache_path=path).run(cases)
        assert second.executed == 0 and second.cache_hits == 2
        assert second.results[0].seed == 5
        assert second.results[1].winner == portfolio.winner

    def test_per_ii_attribution_reaches_the_case_result(self):
        report = BatchRunner(jobs=1).run(
            [BatchCase("aes", "2x2", "monomorphism", 30.0)]
        )
        result = report.results[0]
        assert result.succeeded
        assert result.iis_tried >= 1
        assert result.per_ii, "per-II attribution missing from the batch layer"
        last = result.per_ii[-1]
        assert last["ii"] == result.ii
        assert last["schedules"] >= 1
        assert result.iis_tried == len(result.per_ii)

    def test_per_ii_attribution_for_the_coupled_baseline(self):
        report = BatchRunner(jobs=1).run(
            [BatchCase("bitcount", "2x2", "satmapit", 30.0)]
        )
        result = report.results[0]
        assert result.succeeded
        assert result.per_ii is not None
        assert result.per_ii[-1]["ii"] == result.ii
