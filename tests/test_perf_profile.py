"""Tests for the repro.perf subsystem and its surfaces.

Covers: PerfCounters accounting through both mapping engines
(``MappingResult.stats``), the one layer record every engine's phase
seconds read, detailed in-loop attribution under ``config.profile``, the
``repro-map profile`` CLI command, the batch-cache header record, and the
memoized ``Schedule.slot_population``.
"""

import json
import time

import pytest

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.cli import main as cli_main
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.time_solver import IncrementalTimeSolver
from repro.experiments.batch import BatchRunner, build_cases
from repro.obs import trace as obs_trace
from repro.perf import LAYERS, PerfCounters
from repro.smt.csp import FiniteDomainProblem
from repro.smt.sat import SATSolver
from repro.workloads.suite import load_benchmark


class TestPerfCounters:
    def test_layer_accumulates_and_opens_only_layer_spans(self):
        perf = PerfCounters()
        obs_trace.reset()
        obs_trace.enable()
        try:
            for _ in range(2):
                with perf.layer("time", ii=3):
                    with perf.layer("encode"):
                        time.sleep(0.002)
            with pytest.raises(RuntimeError):
                with perf.layer("space"):
                    raise RuntimeError("the clock stops on the way out")
        finally:
            obs_trace.disable()
        names = [event["name"] for event in obs_trace.events()]
        assert names.count("time_phase") == 2
        assert names.count("space_phase") == 1
        assert "encode_phase" not in names
        seconds = perf.seconds
        assert seconds["time"] >= seconds["encode"] >= 0.004
        assert seconds["space"] > 0.0
        assert perf.as_dict()["seconds"]["time"] == round(seconds["time"], 6)

    def test_solver_folds_counters_into_perf(self):
        perf = PerfCounters()
        solver = SATSolver(perf=perf)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve().is_sat
        assert perf.solve_calls == 1
        assert perf.propagations >= 0
        # the solve clock is the caller's (FiniteDomainProblem), not the
        # tier's
        assert perf.seconds["solve"] == 0.0

    def test_each_finite_domain_solve_adds_to_the_solve_share(self):
        perf = PerfCounters()
        problem = FiniteDomainProblem(perf=perf)
        x = problem.new_int("x", 0, 3)
        y = problem.new_int("y", 0, 3)
        problem.add_ge(y, x, 2)
        assert problem.solve() is not None
        first = perf.seconds["solve"]
        assert first > 0.0 and perf.solve_calls == 1
        assert problem.solve() is not None
        assert perf.seconds["solve"] > first and perf.solve_calls == 2

    def test_as_dict_detail_gating(self):
        plain = PerfCounters().as_dict()
        assert "propagate" not in plain["seconds"]
        detailed = PerfCounters(detailed=True).as_dict()
        assert "propagate" in detailed["seconds"]
        assert "reduce" in detailed["seconds"]


class TestMappingResultStats:
    def test_decoupled_engine_populates_stats(self):
        result = MonomorphismMapper(CGRA(4, 4), MapperConfig()).map(
            load_benchmark("bitcount"))
        assert result.success
        stats = result.stats
        assert stats is not None
        assert stats["engine"] == "monomorphism"
        assert stats["backend"] == "native"
        assert stats["solver"]["propagations"] > 0
        assert stats["seconds"]["encode"] > 0.0
        assert stats["space"]["calls"] >= 1
        assert not stats["detailed"]
        assert "propagate" not in stats["seconds"]

    def test_baseline_engine_populates_stats_with_detail(self):
        result = SatMapItMapper(
            CGRA(4, 4), BaselineConfig(profile=True)
        ).map(load_benchmark("bitcount"))
        assert result.success
        stats = result.stats
        assert stats["engine"] == "satmapit"
        assert stats["detailed"]
        assert stats["solver"]["solve_calls"] >= 1
        assert stats["seconds"]["propagate"] >= 0.0

    def test_infeasible_result_still_carries_stats(self):
        from repro.arch.spec import build_preset

        cgra = build_preset("mul_free_torus", 4, 4).build()
        result = MonomorphismMapper(cgra, MapperConfig()).map(
            load_benchmark("fft"))
        assert not result.success
        assert result.stats is not None

    @pytest.mark.parametrize("approach",
                             ["monomorphism", "satmapit", "heuristic"])
    def test_every_engine_honours_one_result_contract(self, approach):
        from repro.arch.spec import build_preset
        from repro.core.engine import create_engine
        from repro.core.mapper import MappingStatus

        cases = [
            (CGRA(4, 4), "bitcount", MappingStatus.SUCCESS),
            (build_preset("mul_free_torus", 4, 4).build(), "fft",
             MappingStatus.INFEASIBLE),
        ]
        for cgra, benchmark, status in cases:
            result = create_engine(approach, cgra, budget_seconds=30.0,
                                   seed=20260730).map(
                load_benchmark(benchmark))
            assert result.status is status, (benchmark, result.message)
            assert result.mii > 0
            assert result.total_seconds > 0
            stats = result.stats
            assert stats["engine"] == approach
            assert set(LAYERS) | {"encode", "solve"} <= set(
                stats["seconds"])
            assert {"solve_calls", "conflicts", "decisions",
                    "propagations"} <= set(stats["solver"])
            assert set(stats["space"]) == {"calls", "nodes_explored",
                                           "backtracks"}
            assert len(stats["per_ii"]) == result.iis_tried
            assert stats["seconds"]["space"] == round(
                result.space_phase_seconds, 6)
            if status is MappingStatus.SUCCESS:
                assert result.iis_tried >= 1
                assert stats["per_ii"][-1]["ii"] == result.ii


class TestOneLayerRecord:
    """Every engine times the layers of ``map()`` once, in one record, and
    every phase field of the result reads that record."""

    #: rounding slack of a sum of layers each rounded to 1e-6 s
    ROUNDING = 1e-5

    @pytest.mark.parametrize("approach", ["monomorphism", "satmapit",
                                          "heuristic", "portfolio"])
    @pytest.mark.parametrize("name", ["aes", "bitcount", "crc32", "gsm",
                                      "sha2"])
    def test_layers_tile_the_run_and_feed_every_field(self, approach, name):
        from repro.core.engine import create_engine

        result = create_engine(approach, CGRA(4, 4), budget_seconds=30.0,
                               seed=20260730).map(load_benchmark(name))
        assert result.success, result.message
        seconds = result.stats["seconds"]
        layers = [seconds[name] for name in LAYERS]
        assert all(value >= 0.0 for value in layers), seconds
        assert sum(layers) <= result.total_seconds + self.ROUNDING
        assert seconds["encode"] + seconds["solve"] <= (
            seconds["time"] + self.ROUNDING)
        assert seconds["time"] == round(result.time_phase_seconds, 6)
        assert seconds["space"] == round(result.space_phase_seconds, 6)
        assert seconds["opt"] == round(result.opt_seconds, 6)
        assert len(result.stats["per_ii"]) == result.iis_tried


class TestTheKernelLoadIsNoLayer:
    """The first ``map()`` of a process loads the C kernel when it selects
    the solver tier; that load belongs to no mapping layer, so it must
    stay outside ``total_seconds`` too. Inside the clock it was 90% of a
    fresh process's first bitcount job, and the layers covered 7-9%."""

    SCRIPT = """
import json
from repro.arch.cgra import CGRA
from repro.core.config import MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.perf import LAYERS
from repro.smt.native import ckernel
from repro.workloads.suite import load_benchmark

dfg = load_benchmark("bitcount")
loaded_before = ckernel._kernel is not None
result = MonomorphismMapper(CGRA(4, 4), MapperConfig()).map(dfg)
seconds = result.stats["seconds"]
print(json.dumps({
    "loaded_before": loaded_before,
    "tier": result.stats.get("solver_tier"),
    "layers": sum(seconds[name] for name in LAYERS),
    "total": result.total_seconds,
}))
"""

    #: the shell's own bookkeeping outside the five layers (result and run
    #: records, the per-II entry and metric) is 10-13% of this ~1 ms job
    #: in a cold process
    MIN_COVERED = 0.75

    def test_layers_cover_a_fresh_process_s_first_map(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        run = json.loads(proc.stdout.splitlines()[-1])
        assert not run["loaded_before"]
        assert run["layers"] >= self.MIN_COVERED * run["total"], run


class TestLayersAreCharged:
    """The base time encoding is Time and mII is its own layer: a sleep in
    either shows up in the result (the pattern of ``TestPrepareIsCharged``
    in ``test_time_solver.py``)."""

    DELAY = 0.05

    def test_base_encoding_and_mii_are_charged(self, monkeypatch):
        from repro.core import mapper

        def slowly(function):
            def slow(*args, **kwargs):
                time.sleep(TestLayersAreCharged.DELAY)
                return function(*args, **kwargs)
            return slow

        monkeypatch.setattr(IncrementalTimeSolver, "_encode",
                            slowly(IncrementalTimeSolver._encode))
        monkeypatch.setattr(mapper, "begin_mapping",
                            slowly(mapper.begin_mapping))
        result = MonomorphismMapper(CGRA(4, 4), MapperConfig()).map(
            load_benchmark("bitcount"))
        assert result.success
        assert result.time_phase_seconds >= self.DELAY
        assert result.stats["seconds"]["time"] >= self.DELAY
        assert result.stats["seconds"]["mii"] >= self.DELAY


class TestProfileCLI:
    def test_profile_command_emits_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = cli_main([
            "profile", "bitcount", "--cgra", "4x4", "--json", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        record = records[0]
        assert record["benchmark"] == "bitcount"
        assert record["status"] == "success"
        assert record["stats"]["detailed"]
        assert "propagate" in record["stats"]["seconds"]
        assert record["stats"]["solver"]["propagations"] > 0
        rendered = capsys.readouterr().out
        assert "Profile" in rendered and "bitcount" in rendered

    def test_profiling_the_heuristic_engine_claims_no_solver_split(
            self, tmp_path):
        # no SAT kernel, so no in-loop solver clocks to attribute
        out = tmp_path / "profile.json"
        assert cli_main(["profile", "bitcount", "--cgra", "4x4",
                         "--approach", "heuristic", "--seed", "7",
                         "--json", str(out)]) == 0
        stats = json.loads(out.read_text())[0]["stats"]
        assert stats["detailed"] is False
        assert "propagate" not in stats["seconds"]

    def test_profile_command_baseline_records_the_detected_tier(
            self, capsys):
        from repro.smt.native import selected_tier

        code = cli_main([
            "profile", "bitcount", "--cgra", "3x3", "--approach", "baseline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        records = json.loads(out[out.index("["):])
        assert records[0]["approach"] == "satmapit"
        tier = selected_tier()
        assert records[0]["stats"]["solver_tier"] == tier
        assert f"({tier} kernel)" in out

    def test_profile_command_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError):
            cli_main(["profile", "definitely-not-a-benchmark"])


class TestBatchCacheHeader:
    def test_header_records_job_count_and_cache_still_hits(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cases = build_cases(["bitcount"], ["2x2"], ["monomorphism"], 60.0)
        first = BatchRunner(jobs=2, cache_path=str(cache)).run(cases)
        assert first.executed == 1
        lines = [json.loads(line) for line in
                 cache.read_text().splitlines() if line.strip()]
        assert lines[0]["header"]["jobs"] == 2
        assert lines[0]["header"]["cases"] == 1
        # a second run must hit the cache despite the header line
        second = BatchRunner(jobs=3, cache_path=str(cache)).run(cases)
        assert second.cache_hits == 1
        assert second.executed == 0

    def test_sweep_and_drivers_default_jobs_to_cpu_count(self):
        import os

        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--benchmarks", "bitcount"])
        assert args.jobs == (os.cpu_count() or 1)

    def test_jobs_default_to_one_when_cpu_count_unknown(self, monkeypatch):
        """``os.cpu_count()`` may return None; ``--jobs`` must default to 1.

        The parser bakes the default in at build time, so the regression
        is only visible when the parser is built *while* cpu_count is
        unknowable -- exactly what containers with restricted procfs do.
        """
        import os

        from repro.cli import build_parser

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        args = build_parser().parse_args(["sweep", "--benchmarks", "bitcount"])
        assert args.jobs == 1


class TestScheduleMemoization:
    def test_slot_population_is_cached_and_stable(self):
        dfg = load_benchmark("bitcount")
        schedule = IncrementalTimeSolver(dfg, CGRA(4, 4)).solve(
            3, timeout_seconds=30)
        assert schedule is not None
        first = schedule.slot_population()
        assert schedule.slot_population() is first  # memoized object
        assert schedule.max_slot_population() == max(len(s) for s in first)
        # the cached populations agree with a fresh computation
        recomputed = [set() for _ in range(schedule.ii)]
        for node_id, start in schedule.start_times.items():
            recomputed[start % schedule.ii].add(node_id)
        assert list(first) == recomputed
        # immutable: callers cannot corrupt the shared cache in place
        with pytest.raises(AttributeError):
            first[0].add(999)


class TestPerfHistory:
    """The BENCH_*.json artifacts keep a per-commit trajectory."""

    def test_fresh_artifact_gets_summary_and_one_history_entry(self, tmp_path):
        from repro.perf.history import update_artifact

        path = tmp_path / "BENCH.json"
        written = update_artifact(
            path,
            {"workload": "w", "speedup": 2.5},
            {"label": "native-vs-arena", "speedup": 2.5},
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == written
        assert on_disk["workload"] == "w"
        assert len(on_disk["history"]) == 1
        entry = on_disk["history"][0]
        assert entry["label"] == "native-vs-arena"
        # stamped in: the commit SHA (or None outside a checkout) and a
        # UTC date in YYYY-MM-DD
        assert "git_sha" in entry
        assert len(entry["date"]) == 10

    def test_rerun_replaces_same_commit_entry_and_new_commit_appends(
            self, tmp_path):
        from repro.perf.history import update_artifact

        path = tmp_path / "BENCH.json"
        update_artifact(path, {"speedup": 1.0},
                        {"label": "l", "git_sha": "aaa", "speedup": 1.0})
        update_artifact(path, {"speedup": 2.0},
                        {"label": "l", "git_sha": "aaa", "speedup": 2.0})
        data = json.loads(path.read_text())
        assert [e["speedup"] for e in data["history"]] == [2.0]
        update_artifact(path, {"speedup": 3.0},
                        {"label": "l", "git_sha": "bbb", "speedup": 3.0})
        data = json.loads(path.read_text())
        assert [e["speedup"] for e in data["history"]] == [2.0, 3.0]
        assert data["speedup"] == 3.0  # summary tracks the latest run

    def test_independent_labels_share_one_artifact(self, tmp_path):
        from repro.perf.history import update_artifact

        path = tmp_path / "BENCH.json"
        update_artifact(path, {"arena_speedup": 4.0},
                        {"label": "arena-vs-reference", "git_sha": "aaa"})
        update_artifact(path, {"native_speedup": 1.8},
                        {"label": "native-vs-arena", "git_sha": "aaa"})
        data = json.loads(path.read_text())
        # the second leg merged its summary without clobbering the first
        assert data["arena_speedup"] == 4.0
        assert data["native_speedup"] == 1.8
        assert sorted(e["label"] for e in data["history"]) == [
            "arena-vs-reference", "native-vs-arena"]

    def test_corrupt_or_legacy_artifact_starts_a_fresh_history(
            self, tmp_path):
        from repro.perf.history import update_artifact

        path = tmp_path / "BENCH.json"
        path.write_text("not json {{{")
        data = update_artifact(path, {"speedup": 1.5},
                               {"label": "l", "git_sha": "aaa"})
        assert data["speedup"] == 1.5
        assert len(data["history"]) == 1
        # a pre-history artifact (plain summary dict) is upgraded in place
        path.write_text(json.dumps({"speedup": 9.9, "workload": "old"}))
        data = update_artifact(path, {"speedup": 1.0},
                               {"label": "l", "git_sha": "bbb"})
        assert data["workload"] == "old"
        assert data["speedup"] == 1.0
        assert len(data["history"]) == 1

    def test_summary_only_update_keeps_history(self, tmp_path):
        from repro.perf.history import update_artifact

        path = tmp_path / "BENCH.json"
        update_artifact(path, {"speedup": 1.0}, {"label": "l",
                                                 "git_sha": "aaa"})
        update_artifact(path, {"extra": True})
        data = json.loads(path.read_text())
        assert data["extra"] is True
        assert len(data["history"]) == 1
