"""Tests for repro.obs: tracing, metrics registry, structured run log."""

import json
import re

import pytest

from repro.obs import logjson, metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    obs_trace.disable()
    obs_trace.reset()
    yield
    obs_trace.disable()
    obs_trace.reset()


# --------------------------------------------------------------------- #
# Tracing: spans, nesting, buffers
# --------------------------------------------------------------------- #
class TestSpans:
    def test_disabled_span_is_the_shared_null_object(self):
        # zero-cost disabled path: no per-call allocation at all
        assert obs_trace.span("a") is obs_trace.span("b", x=1)
        with obs_trace.span("a"):
            pass
        assert obs_trace.events() == []

    def test_nesting_parent_ids(self):
        obs_trace.enable()
        with obs_trace.span("outer"):
            with obs_trace.span("mid", ii=3):
                with obs_trace.span("inner"):
                    pass
            with obs_trace.span("mid2"):
                pass
        events = {e["name"]: e for e in obs_trace.events()}
        assert events["outer"]["parent"] == 0
        assert events["mid"]["parent"] == events["outer"]["sid"]
        assert events["inner"]["parent"] == events["mid"]["sid"]
        assert events["mid2"]["parent"] == events["outer"]["sid"]
        assert events["mid"]["args"] == {"ii": 3}
        sids = [e["sid"] for e in events.values()]
        assert len(set(sids)) == len(sids)  # unique span ids

    def test_child_spans_lie_within_the_parent_window(self):
        obs_trace.enable()
        with obs_trace.span("outer"):
            with obs_trace.span("inner"):
                pass
        events = {e["name"]: e for e in obs_trace.events()}
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_add_complete_with_explicit_parent(self):
        obs_trace.enable()
        parent = obs_trace.add_complete("solver:arena", 10.0, 2.0,
                                        conflicts=5)
        child = obs_trace.add_complete("propagate", 10.0, 1.5, parent=parent)
        assert parent and child and parent != child
        events = {e["name"]: e for e in obs_trace.events()}
        assert events["propagate"]["parent"] == parent
        assert events["solver:arena"]["args"]["conflicts"] == 5

    def test_instants_record_under_the_open_span(self):
        obs_trace.enable()
        with obs_trace.span("run"):
            obs_trace.instant("improvement", ii=4)
        instant = [e for e in obs_trace.events() if e["ph"] == "i"][0]
        run = [e for e in obs_trace.events() if e["name"] == "run"][0]
        assert instant["parent"] == run["sid"]
        assert instant["args"] == {"ii": 4}

    def test_trace_labels_slice_the_buffer(self):
        obs_trace.enable()
        obs_trace.push_trace("job-a")
        with obs_trace.span("a"):
            pass
        obs_trace.pop_trace()
        with obs_trace.span("unlabelled"):
            pass
        assert [e["name"] for e in obs_trace.events("job-a")] == ["a"]
        snap = obs_trace.snapshot(trace="job-a", clear=True)
        assert [e["name"] for e in snap["events"]] == ["a"]
        # the slice is gone; the unlabelled event stays
        assert [e["name"] for e in obs_trace.events()] == ["unlabelled"]

    def test_buffer_bound_drops_not_grows(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "MAX_EVENTS", 4)
        obs_trace.enable()
        for index in range(10):
            with obs_trace.span(f"s{index}"):
                pass
        assert len(obs_trace.events()) == 4
        assert obs_trace.snapshot()["dropped"] == 6


class TestIngest:
    def _child_snapshot(self, epoch_offset=5.0):
        """A hand-built snapshot as a forked worker would ship it."""
        return {
            "epoch": obs_trace.snapshot()["epoch"] + epoch_offset,
            "pid": 4242,
            "events": [
                {"name": "engine.map", "ph": "X", "ts": 100.0, "dur": 2.0,
                 "sid": 1, "parent": 0, "tid": 7},
                {"name": "ii_attempt", "ph": "X", "ts": 100.5, "dur": 1.0,
                 "sid": 2, "parent": 1, "tid": 7},
            ],
        }

    def test_ingest_shifts_rebases_and_reparents(self):
        obs_trace.enable()
        with obs_trace.span("race") as race:
            merged = obs_trace.ingest(self._child_snapshot(),
                                      parent_span_id=race.span_id)
        assert merged == 2
        events = {e["name"]: e for e in obs_trace.events()}
        child_root = events["engine.map"]
        child_leaf = events["ii_attempt"]
        # epoch difference of +5s shifts child timestamps forward by 5s
        assert child_root["ts"] == pytest.approx(105.0)
        # the child's root is re-parented under the ingesting span
        assert child_root["parent"] == events["race"]["sid"]
        # intra-child nesting is preserved through the id rebase
        assert child_leaf["parent"] == child_root["sid"]
        assert child_root["sid"] != 1  # rebased off the parent's id space
        assert child_root["proc"] == 4242

    def test_ingest_determinism(self):
        """Same snapshots in, same merged shape out (pinned ids)."""
        shapes = []
        for _ in range(2):
            obs_trace.reset()
            obs_trace.enable()
            with obs_trace.span("race") as race:
                obs_trace.ingest(self._child_snapshot(),
                                 parent_span_id=race.span_id)
                obs_trace.ingest(self._child_snapshot(epoch_offset=1.0),
                                 parent_span_id=race.span_id)
            sids = {e["sid"]: e for e in obs_trace.events() if "sid" in e}
            shapes.append(sorted(
                (e["name"], e.get("proc"),
                 sids[e["parent"]]["name"] if e.get("parent") else None)
                for e in obs_trace.events()))
            # every parent id resolves inside the merged buffer
            for event in obs_trace.events():
                if event.get("parent"):
                    assert event["parent"] in sids
        assert shapes[0] == shapes[1]

    def test_empty_or_none_snapshots_are_noops(self):
        obs_trace.enable()
        assert obs_trace.ingest(None) == 0
        assert obs_trace.ingest({"epoch": 0.0, "events": []}) == 0
        assert obs_trace.events() == []


class TestChromeExport:
    def test_schema_and_microsecond_units(self, tmp_path):
        obs_trace.enable()
        with obs_trace.span("outer", engine="monomorphism"):
            obs_trace.instant("improvement", ii=4)
        path = tmp_path / "trace.json"
        count = obs_trace.write_chrome_trace(str(path))
        assert count == 2
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["span_count"] == 2
        events = doc["traceEvents"]
        # process metadata first, then the recorded events
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"
        for event in events:
            assert set(event) >= {"name", "ph", "pid", "tid"}
            if event["ph"] == "X":
                assert "ts" in event and "dur" in event
                assert event["args"]["span_id"] > 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        outer = next(e for e in events if e["name"] == "outer")
        raw = next(e for e in obs_trace.events() if e["name"] == "outer")
        assert outer["ts"] == pytest.approx(raw["ts"] * 1e6, abs=0.2)
        assert outer["args"]["engine"] == "monomorphism"

    def test_export_of_explicit_snapshot(self):
        obs_trace.enable()
        with obs_trace.span("kept"):
            pass
        snap = obs_trace.snapshot()
        obs_trace.reset()
        doc = obs_trace.chrome_trace(snap=snap)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["kept"]


class TestCrossProcessMerge:
    def test_batch_pool_merges_child_traces(self):
        """Two traced pool cases merge under the parent, proc-stamped,
        with every parent id resolving -- twice, identically (pinned
        deterministic engine)."""
        from repro.experiments.batch import BatchCase, BatchRunner

        cases = [BatchCase("running_example", "4x4", "monomorphism", 30.0),
                 BatchCase("running_example", "3x3", "monomorphism", 30.0)]
        shapes = []
        for _ in range(2):
            obs_trace.reset()
            obs_trace.enable()
            report = BatchRunner(jobs=2, progress=None).run(cases)
            assert {r.status for r in report.results} == {"success"}
            events = obs_trace.events()
            procs = {e.get("proc") for e in events if e.get("proc")}
            assert len(procs) == 2  # one child process per case
            sids = {e["sid"] for e in events if e.get("sid")}
            for event in events:
                if event.get("parent"):
                    assert event["parent"] in sids
            shapes.append(sorted(
                (e["name"], e.get("args", {}).get("ii"))
                for e in events if e.get("ph") == "X"))
        assert shapes[0] == shapes[1]
        assert ("engine.map", None) in shapes[0]


# --------------------------------------------------------------------- #
# Metrics registry and Prometheus exposition
# --------------------------------------------------------------------- #
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""   # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" -?[0-9][0-9eE.+-]*$")              # value
COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def assert_valid_exposition(text):
    """Every line is a valid Prometheus text-format line."""
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert COMMENT_LINE.match(line) or SAMPLE_LINE.match(line), line


class TestMetrics:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        snapshot_before = None  # registry is process-global: reset around
        metrics.reset()
        yield snapshot_before
        metrics.reset()

    def test_counter_gauge_snapshot(self):
        metrics.inc("repro_engine_runs_total", engine="heuristic",
                    status="success")
        metrics.inc("repro_engine_runs_total", 2.0, engine="heuristic",
                    status="success")
        metrics.set_gauge("repro_service_queue_depth", 3)
        snap = metrics.snapshot()
        key = '{engine="heuristic",status="success"}'
        assert snap["repro_engine_runs_total"][key] == 3.0
        assert snap["repro_service_queue_depth"][""] == 3.0

    def test_histogram_buckets_are_cumulative(self):
        for value in (0.004, 0.09, 7.0, 120.0):
            metrics.observe("repro_ii_attempt_seconds", value, engine="x")
        text = metrics.render()
        assert_valid_exposition(text)
        buckets = {}
        for line in text.splitlines():
            if line.startswith("repro_ii_attempt_seconds_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = int(line.rsplit(" ", 1)[1])
        assert buckets["0.005"] == 1
        assert buckets["0.1"] == 2
        assert buckets["10"] == 3
        assert buckets["+Inf"] == 4
        counts = [buckets[k] for k in
                  ("0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10",
                   "60", "+Inf")]
        assert counts == sorted(counts)  # cumulative, monotone
        assert "repro_ii_attempt_seconds_sum" in text
        assert 'repro_ii_attempt_seconds_count{engine="x"} 4' in text

    def test_described_families_exposed_even_without_samples(self):
        text = metrics.render()
        assert_valid_exposition(text)
        names = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")}
        assert len(names) >= 12
        assert "repro_store_skipped_lines_total" in names
        assert "# TYPE repro_ii_attempt_seconds histogram" in text

    def test_help_and_type_emitted_once_per_family(self):
        metrics.inc("repro_engine_runs_total", engine="a", status="success")
        metrics.inc("repro_engine_runs_total", engine="b", status="success")
        text = metrics.render()
        assert text.count("# TYPE repro_engine_runs_total counter") == 1
        assert text.count("# HELP repro_engine_runs_total") == 1


# --------------------------------------------------------------------- #
# Structured JSONL run log
# --------------------------------------------------------------------- #
class TestLogJson:
    @pytest.fixture(autouse=True)
    def closed_log(self):
        logjson.close()
        yield
        logjson.close()

    def test_noop_until_configured(self, tmp_path):
        logjson.log("engine_run", engine="x")  # must not raise
        assert logjson.configured() is None

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logjson.configure(str(path))
        logjson.log("engine_run", engine="heuristic", ii=4, trace=None)
        logjson.log("job", job="j000001", status="done")
        lines = path.read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["record"] for r in records] == ["engine_run", "job"]
        assert records[0]["engine"] == "heuristic"
        assert records[0]["ii"] == 4
        assert all("ts" in r for r in records)

    def test_env_var_configures_lazily(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(logjson.ENV_VAR, str(path))
        monkeypatch.setattr(logjson, "_env_checked", False)
        logjson.log("probe", n=1)
        assert logjson.configured() == str(path)
        assert json.loads(path.read_text())["record"] == "probe"


# --------------------------------------------------------------------- #
# Engine hooks: one taxonomy for every engine
# --------------------------------------------------------------------- #
class TestEngineInstrumentation:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        metrics.reset()
        yield
        metrics.reset()

    def _run(self, approach="monomorphism", **kwargs):
        from repro.core.engine import create_engine
        from repro.experiments.runner import build_cgra_from_arch
        from repro.workloads.suite import load_benchmark

        engine = create_engine(approach, build_cgra_from_arch("4x4", None),
                               budget_seconds=30.0, **kwargs)
        return engine.map(load_benchmark("running_example"))

    def test_engine_run_moves_counters_without_tracing(self):
        result = self._run()
        assert result.success
        snap = metrics.snapshot()
        key = '{engine="monomorphism",status="success"}'
        assert snap["repro_engine_runs_total"][key] == 1.0
        assert snap["repro_ii_attempt_seconds_count"][
            '{engine="monomorphism"}'] >= 1
        assert obs_trace.events() == []  # tracing stayed off

    def test_tier_is_selected_once_per_sat_engine_run(self):
        from repro.smt.native import selected_tier

        tier = selected_tier()
        metrics.reset()
        for approach in ("monomorphism", "monomorphism", "satmapit",
                         "heuristic"):
            result = self._run(approach=approach, seed=20260730)
            assert result.success
            expected = None if approach == "heuristic" else tier
            assert result.stats.get("solver_tier") == expected
        snap = metrics.snapshot()
        assert snap["repro_solver_tier_selected_total"] == {
            f'{{tier="{tier}"}}': 3.0}

    def test_without_the_c_kernel_each_run_degrades_to_arena_once(
            self, monkeypatch):
        from repro.smt.native import ckernel

        monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
        for approach in ("monomorphism", "satmapit"):
            result = self._run(approach=approach)
            assert result.success
            assert result.stats["solver_tier"] == "arena"
        snap = metrics.snapshot()
        assert snap["repro_solver_tier_selected_total"] == {
            '{tier="arena"}': 2.0}
        assert snap["repro_solver_tier_degradations_total"] == {"": 2.0}

    def test_traced_profiled_run_synthesizes_solver_spans(self):
        obs_trace.enable()
        result = self._run(profile=True)
        assert result.success
        events = {e["name"]: e for e in obs_trace.events()}
        assert "engine.map" in events
        assert "ii_attempt" in events
        solver = [n for n in events if n.startswith("solver:")]
        assert solver  # synthesized from the perf counters
        # the solver span nests under engine.map via the span stack
        assert events[solver[0]]["parent"] == events["engine.map"]["sid"]

    @pytest.mark.parametrize("approach, validator", [
        ("monomorphism", "repro.core.mapper.assert_valid_mapping"),
        ("satmapit", "repro.baseline.satmapit.assert_valid_mapping"),
        ("heuristic", "repro.heuristic.engine.validate_mapping"),
    ])
    def test_a_raising_validation_leaves_no_span_open(
            self, approach, validator, monkeypatch):
        from repro.core.engine import create_engine
        from repro.core.exceptions import InvalidMappingError
        from repro.experiments.runner import build_cgra
        from repro.workloads.suite import load_benchmark

        def reject(mapping):
            raise InvalidMappingError(["injected"])

        monkeypatch.setattr(validator, reject)
        obs_trace.enable()
        engine = create_engine(approach, build_cgra("2x2"),
                               budget_seconds=30.0, seed=20260730)
        with pytest.raises(InvalidMappingError):
            engine.map(load_benchmark("bitcount"))
        # a stale id would parent this thread's next span to a dead one
        assert obs_trace._stack() == []
        names = {e["name"] for e in obs_trace.events()}
        assert {"engine.map", "ii_attempt"} <= names

    @pytest.mark.parametrize("approach", ["heuristic", "satmapit"])
    def test_every_engine_emits_the_same_taxonomy(self, approach):
        obs_trace.enable()
        result = self._run(approach=approach, seed=20260730)
        assert result.success
        names = {e["name"] for e in obs_trace.events()}
        assert "engine.map" in names
        assert "ii_attempt" in names
        engine_span = next(e for e in obs_trace.events()
                           if e["name"] == "engine.map")
        assert engine_span["args"]["engine"] == approach
