"""Distributed trace correlation, the sampling profiler, and the
perf-regression sentinel (the observability tentpole of this PR).

Covers the three new pillars end to end:

* **trace-context propagation** -- W3C-style ``traceparent`` parsing and
  minting, one ``trace_id`` shared by a job's spans, NDJSON events and
  run-log records, stable across an injected worker crash + retry;
* **continuous profiling** -- the SIGPROF sampling profiler's folding,
  merging and windowing, the ``GET /v1/debug/profile`` endpoint, and the
  cross-process sample shipping from worker children;
* **perf-regression sentinel** -- ``repro.perf.history`` comparisons and
  the ``tools/check_bench.py`` / ``tools/check_obs.py --propagation``
  CLI gates.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from fault_harness import arm
from repro.obs import logjson, metrics, profiler
from repro.obs import trace as obs_trace
from repro.perf import history as perf_history
from repro.service.client import ServiceClient
from repro.service.jobs import MappingService
from repro.service.server import create_server

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
HEX32 = re.compile(r"^[0-9a-f]{32}$")


@pytest.fixture(autouse=True)
def clean_obs():
    metrics.reset()
    obs_trace.reset()
    profiler.reset()
    yield
    profiler.stop()
    profiler.reset()
    obs_trace.disable()
    obs_trace.reset()
    metrics.reset()


# --------------------------------------------------------------------- #
# traceparent minting / parsing
# --------------------------------------------------------------------- #
class TestTraceparent:
    def test_round_trip(self):
        trace_id = obs_trace.new_trace_id()
        header = obs_trace.format_traceparent(trace_id, 0x1234)
        assert obs_trace.parse_traceparent(header) == (trace_id, 0x1234)

    def test_minted_ids_are_unique_32_hex(self):
        ids = {obs_trace.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(HEX32.match(t) for t in ids)

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-zzzz-0000000000000001-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",   # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # all-zero trace id
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",   # unknown version
    ])
    def test_malformed_headers_rejected(self, header):
        assert obs_trace.parse_traceparent(header) is None

    def test_push_trace_inherits_enclosing_trace_id(self):
        obs_trace.push_trace("outer", "a" * 32)
        try:
            obs_trace.push_trace("inner")
            try:
                assert obs_trace.current_trace_id() == "a" * 32
                assert obs_trace.current_trace() == "inner"
            finally:
                obs_trace.pop_trace()
        finally:
            obs_trace.pop_trace()


class TestDropOldestCounter:
    def test_eviction_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "MAX_EVENTS", 4)
        obs_trace.enable()
        try:
            for index in range(10):
                with obs_trace.span(f"s{index}"):
                    pass
        finally:
            obs_trace.disable()
        names = [e["name"] for e in obs_trace.events()]
        assert len(names) == 4
        assert names == ["s6", "s7", "s8", "s9"]  # oldest evicted
        assert obs_trace.dropped() == 6
        snapshot = metrics.snapshot()
        assert snapshot["repro_trace_dropped_spans_total"][""] == 6.0


# --------------------------------------------------------------------- #
# sampling profiler unit surface
# --------------------------------------------------------------------- #
class TestProfiler:
    def test_merge_validates_and_accumulates(self):
        assert profiler.merge(None) == 0
        assert profiler.merge({"a;b": 2, "c": 1}) == 3
        assert profiler.merge({"a;b": 3}) == 3
        assert profiler.cumulative()["a;b"] == 5
        # junk shapes are ignored, not crashed on
        assert profiler.merge({1: 2, "x": "y", "ok": 0, "neg": -4}) == 0

    def test_window_is_a_positive_delta(self):
        profiler.merge({"a": 5, "b": 1})
        before = profiler.cumulative()
        profiler.merge({"a": 2, "c": 7})
        window = profiler.window(before, profiler.cumulative())
        assert window == {"a": 2, "c": 7}

    def test_render_sorted_busiest_first(self):
        assert profiler.render({}) == ""
        text = profiler.render({"cold": 1, "hot": 9})
        assert text.splitlines() == ["hot 9", "cold 1"]
        assert text.endswith("\n")

    @pytest.mark.skipif(not hasattr(signal, "setitimer"),
                        reason="needs SIGPROF/setitimer")
    def test_live_sampling_attributes_cpu_burn(self):
        assert profiler.start(0.002)
        try:
            deadline = time.monotonic() + 0.5
            value = 1
            while time.monotonic() < deadline:
                value = (value * 31 + 7) % 1000003
        finally:
            profiler.stop()
        counts = profiler.local_counts()
        assert sum(counts.values()) > 0
        # the busy loop above must appear in at least one folded stack
        assert any("test_obs_distributed.py" in stack for stack in counts)

    @pytest.mark.skipif(not hasattr(signal, "setitimer"),
                        reason="needs SIGPROF/setitimer")
    def test_idle_process_accrues_no_samples(self):
        assert profiler.start(0.002)
        try:
            time.sleep(0.2)  # wall-clock idle: ITIMER_PROF must not fire
        finally:
            profiler.stop()
        assert sum(profiler.local_counts().values()) == 0

    def test_start_rejects_nonpositive_interval(self):
        assert not profiler.start(0.0)
        assert not profiler.running()


class TestLogCapture:
    def test_capture_buffers_instead_of_writing(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        logjson.configure(str(log_path))
        try:
            logjson.capture_begin()
            logjson.log("engine_run", engine="x", status="success")
            captured = logjson.capture_end()
            logjson.log("job", job="j1")
        finally:
            logjson.close()
        assert [r["record"] for r in captured] == ["engine_run"]
        written = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [r["record"] for r in written] == ["job"]

    def test_reemitted_capture_lands_restamped(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        logjson.configure(str(log_path))
        try:
            logjson.capture_begin()
            logjson.log("engine_run", engine="x")
            for record in logjson.capture_end():
                logjson.emit(dict(record, job="j9", trace_id="t" * 32))
        finally:
            logjson.close()
        written = json.loads(log_path.read_text().splitlines()[0])
        assert written["record"] == "engine_run"
        assert written["job"] == "j9"
        assert written["trace_id"] == "t" * 32


# --------------------------------------------------------------------- #
# one trace id end to end through the service
# --------------------------------------------------------------------- #
class TestServiceTracePropagation:
    def _service(self, tmp_path, **kwargs):
        return MappingService(store_path=str(tmp_path / "results"),
                              workers=1, default_budget_seconds=20.0,
                              **kwargs)

    def test_submitted_traceparent_is_adopted(self, tmp_path):
        service = self._service(tmp_path)
        try:
            trace_id = "ab" * 16
            header = obs_trace.format_traceparent(trace_id, 0x77)
            job = service.submit({"benchmark": "running_example",
                                  "cgra": "4x4"}, traceparent=header)
            list(service.stream_events(job.id))
            assert job.trace_id == trace_id
            assert job.parent_span_id == 0x77
            assert job.view()["trace_id"] == trace_id
            stamped = [e for e in job.events if e.get("trace_id")]
            assert stamped and all(
                e["trace_id"] == trace_id for e in stamped)
        finally:
            service.shutdown()

    def test_malformed_traceparent_mints_fresh(self, tmp_path):
        service = self._service(tmp_path)
        try:
            job = service.submit({"benchmark": "running_example",
                                  "cgra": "4x4"}, traceparent="not-a-header")
            list(service.stream_events(job.id))
            assert HEX32.match(job.trace_id)
        finally:
            service.shutdown()

    def test_cache_hit_replay_carries_new_trace_id(self, tmp_path):
        service = self._service(tmp_path)
        try:
            payload = {"benchmark": "running_example", "cgra": "4x4"}
            first = service.submit(payload)
            list(service.stream_events(first.id))
            second = service.submit(payload)
            list(service.stream_events(second.id))
            assert second.cache == "hit"
            assert second.trace_id != first.trace_id
            assert all(e["trace_id"] == second.trace_id
                       for e in second.events if e.get("trace_id"))
        finally:
            service.shutdown()

    def test_one_trace_id_across_crash_and_retry(self, tmp_path,
                                                 monkeypatch):
        arm(monkeypatch, {"kill_worker": {"phase": "engine",
                                          "attempts": [0]}})
        log_path = tmp_path / "run.jsonl"
        logjson.configure(str(log_path))
        service = self._service(tmp_path, max_retries=2)
        try:
            trace_id = "cd" * 16
            job = service.submit(
                {"benchmark": "running_example", "cgra": "4x4"},
                traceparent=obs_trace.format_traceparent(trace_id))
            list(service.stream_events(job.id))
        finally:
            service.shutdown()
            logjson.close()
        assert job.status == "done"
        names = [e["event"] for e in job.events]
        assert "worker_crashed" in names and "retrying" in names
        # every stamped event of the crashed AND surviving attempt agrees
        assert {e["trace_id"] for e in job.events
                if e.get("trace_id")} == {trace_id}
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        mine = [r for r in records if r.get("trace_id") == trace_id]
        kinds = {r["record"] for r in mine}
        assert {"request", "worker_crash", "engine_run", "job"} <= kinds

    def test_worker_metrics_folded_into_parent_registry(self, tmp_path):
        service = self._service(tmp_path)
        try:
            job = service.submit({"benchmark": "running_example",
                                  "cgra": "4x4"})
            list(service.stream_events(job.id))
            assert job.status == "done"
        finally:
            service.shutdown()
        snapshot = metrics.snapshot()
        # engine-side series recorded in the worker child are visible here
        assert any(value > 0 for value in
                   snapshot.get("repro_ii_attempt_seconds_count",
                                {}).values())
        assert any(value > 0 for value in
                   snapshot.get("repro_engine_runs_total", {}).values())


# --------------------------------------------------------------------- #
# HTTP surface: traceparent header, /v1/debug/profile, /metrics races
# --------------------------------------------------------------------- #
@pytest.fixture
def live_server(tmp_path):
    service = MappingService(store_path=str(tmp_path / "results"),
                             workers=2, default_budget_seconds=20.0)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield service, client
    server.shutdown()
    service.shutdown()


class TestHttpSurface:
    def test_client_mints_traceparent_and_server_echoes(self, live_server):
        _service, client = live_server
        job = client.submit({"benchmark": "running_example",
                             "cgra": "4x4"})
        assert HEX32.match(job["trace_id"])
        done = client.wait(job["id"])
        assert done["trace_id"] == job["trace_id"]

    def test_explicit_traceparent_round_trips(self, live_server):
        _service, client = live_server
        trace_id = "ef" * 16
        job = client.submit(
            {"benchmark": "running_example", "cgra": "4x4"},
            traceparent=obs_trace.format_traceparent(trace_id, 5))
        assert job["trace_id"] == trace_id
        client.wait(job["id"])
        events = list(client.events(job["id"]))
        assert {e["trace_id"] for e in events
                if e.get("trace_id")} == {trace_id}

    def test_debug_profile_returns_window_and_cumulative(self, live_server):
        _service, client = live_server
        profiler.merge({"pool.py:work;solver.py:solve": 3})
        text = client.profile()
        assert "pool.py:work;solver.py:solve 3" in text
        # a zero-length window over an idle process is empty, not an error
        assert client.profile(seconds=0) == text

    def test_debug_profile_rejects_bad_seconds(self, live_server):
        from repro.service.client import ServiceError
        _service, client = live_server
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/debug/profile?seconds=banana")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/debug/profile?seconds=-1")
        assert excinfo.value.status == 400

    def test_concurrent_metrics_scrapes_during_jobs(self, live_server):
        _service, client = live_server
        failures = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                try:
                    text = client.metrics()
                    if "# TYPE repro_service_jobs_total counter" not in text:
                        failures.append("missing family header")
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append(repr(exc))

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            jobs = [client.submit({"benchmark": "running_example",
                                   "cgra": "4x4", "seed": seed,
                                   "approach": "heuristic",
                                   "budget_seconds": 2.0})
                    for seed in range(3)]
            for job in jobs:
                client.wait(job["id"])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not failures, failures[:3]

    def test_health_reports_observability_block(self, live_server):
        _service, client = live_server
        obs = client.health()["observability"]
        assert obs["profile_sampling"] is True
        assert obs["trace_dropped_spans"] == 0


# --------------------------------------------------------------------- #
# status --watch plumbing
# --------------------------------------------------------------------- #
class TestStatusWatch:
    def test_histogram_quantile_interpolates(self):
        from repro.service.cli import _histogram_quantile
        buckets = [(0.1, 10.0), (1.0, 20.0), (float("inf"), 20.0)]
        assert _histogram_quantile(buckets, 0.5) == 0.1
        # rank 15 of 20 sits halfway through the (0.1, 1.0] bucket
        assert _histogram_quantile(buckets, 0.75) == pytest.approx(0.55)
        assert _histogram_quantile([], 0.5) is None
        assert _histogram_quantile([(float("inf"), 0.0)], 0.5) is None

    def test_parse_exposition_labels_and_inf(self):
        from repro.service.cli import _parse_exposition
        text = ('# TYPE repro_x histogram\n'
                'repro_x_bucket{engine="mono",le="0.1"} 4\n'
                'repro_x_bucket{engine="mono",le="+Inf"} 9\n'
                'repro_y 2.5\n')
        samples = _parse_exposition(text)
        assert samples["repro_y"] == [({}, 2.5)]
        buckets = samples["repro_x_bucket"]
        assert ({"engine": "mono", "le": "0.1"}, 4.0) in buckets
        assert any(value == 9.0 for _labels, value in buckets)

    def test_watch_dashboard_against_live_server(self, live_server,
                                                 capsys):
        from repro.service.cli import main as serve_main
        _service, client = live_server
        job = client.submit({"benchmark": "running_example",
                             "cgra": "4x4"})
        client.wait(job["id"])
        status = serve_main(["status", "--url", client.base_url,
                             "--watch"])
        out = capsys.readouterr().out
        assert status == 0
        assert "SLO burn" in out
        assert "jobs submitted" in out

    def test_watch_slo_config_breach_fails(self, live_server, capsys,
                                           tmp_path):
        from repro.service.cli import main as serve_main
        _service, client = live_server
        job = client.submit({"benchmark": "running_example",
                             "cgra": "4x4"})
        client.wait(job["id"])
        config = tmp_path / "slo.json"
        # an absurdly tight latency objective: any mapped job breaches it
        config.write_text(json.dumps({"p95_latency_seconds": 1e-9}))
        status = serve_main(["status", "--url", client.base_url,
                             "--watch", "--slo-config", str(config)])
        out = capsys.readouterr().out
        assert status == 1
        assert "SLO breached" in out


# --------------------------------------------------------------------- #
# the perf-regression sentinel
# --------------------------------------------------------------------- #
class TestPerfSentinel:
    def test_direction_classification(self):
        assert perf_history.metric_direction("speedup") == "higher"
        assert perf_history.metric_direction("native_speedup") == "higher"
        assert perf_history.metric_direction("disabled_overhead") == "lower"
        assert perf_history.metric_direction("run_seconds") == "lower"
        assert perf_history.metric_direction("target_speedup") is None
        assert perf_history.metric_direction("label") is None

    def test_regression_and_tolerance_band(self):
        previous = {"label": "x", "speedup": 2.0, "git_sha": "a"}
        ok = {"label": "x", "speedup": 1.85, "git_sha": "b"}
        bad = {"label": "x", "speedup": 1.5, "git_sha": "b"}
        assert perf_history.compare_entries(previous, ok) == []
        findings = perf_history.compare_entries(previous, bad)
        assert len(findings) == 1
        assert findings[0]["metric"] == "speedup"
        assert findings[0]["change"] == pytest.approx(-0.25)

    def test_overhead_noise_floor(self):
        previous = {"label": "x", "disabled_overhead": 4e-05}
        doubled = {"label": "x", "disabled_overhead": 9e-05}
        # doubled relatively, but far below the absolute noise floor
        assert perf_history.compare_entries(previous, doubled) == []
        real = {"label": "x", "disabled_overhead": 0.02}
        assert perf_history.compare_entries(previous, real)

    def test_blessed_entry_accepted_and_resets_baseline(self):
        history = [
            {"label": "x", "speedup": 2.0, "git_sha": "a"},
            {"label": "x", "speedup": 1.0, "git_sha": "b",
             "blessed": True},
        ]
        findings, comparisons = perf_history.compare_history(history)
        assert findings == [] and comparisons == 1
        # next commit is judged against the blessed 1.0, not the old 2.0
        history.append({"label": "x", "speedup": 0.98, "git_sha": "c"})
        findings, _ = perf_history.compare_history(history)
        assert findings == []

    def test_series_are_label_and_tier(self):
        history = [
            {"label": "x", "backend_tier": "arena", "speedup": 8.0,
             "git_sha": "a"},
            {"label": "x", "backend_tier": "native-c", "speedup": 4.0,
             "git_sha": "b"},
            {"label": "x", "speedup": 1.0, "git_sha": "b"},
        ]
        # a tier change starts a new series: nothing to compare yet
        findings, comparisons = perf_history.compare_history(history)
        assert findings == [] and comparisons == 0
        # a native-c entry is judged against the native-c one, not arena
        history.append({"label": "x", "backend_tier": "native-c",
                        "speedup": 2.0, "git_sha": "c"})
        findings, comparisons = perf_history.compare_history(history)
        assert comparisons == 1
        assert [(f["label"], f["previous"], f["latest"])
                for f in findings] == [("x [native-c]", 4.0, 2.0)]
        # an arena entry is judged against the arena one
        history.append({"label": "x", "backend_tier": "arena",
                        "speedup": 4.5, "git_sha": "d"})
        findings, comparisons = perf_history.compare_history(history)
        assert comparisons == 2
        assert sorted((f["label"], f["previous"]) for f in findings) == [
            ("x [arena]", 8.0), ("x [native-c]", 4.0)]

    def test_single_entry_labels_pass_vacuously(self):
        findings, comparisons = perf_history.compare_history(
            [{"label": "x", "speedup": 2.0}])
        assert findings == [] and comparisons == 0

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_bench.py"),
             *argv],
            capture_output=True, text=True)

    def test_check_bench_cli_gate(self, tmp_path):
        artifact = tmp_path / "BENCH_x.json"
        artifact.write_text(json.dumps({"history": [
            {"label": "x", "speedup": 2.0, "git_sha": "a"},
            {"label": "x", "speedup": 1.2, "git_sha": "b"},
        ]}))
        result = self._run(str(artifact))
        assert result.returncode == 1
        assert "x/speedup regressed" in result.stdout
        # blessing the trade-off turns the gate green
        assert self._run("--bless", "x", str(artifact)).returncode == 0
        assert self._run(str(artifact)).returncode == 0

    @pytest.mark.parametrize("artifact,problem", [
        ({"workload": "x"}, "no history to judge"),
        ({"history": []}, "no history to judge"),
        ({"history": [{"label": "x", "improved_benchmarks": ["aes"]}]},
         "x: newest entry has no tracked metric"),
        ({"history": [{"label": "x", "speedup": 2.0, "git_sha": "a"},
                      {"label": "x", "speedup": math.nan, "git_sha": "b"}]},
         "x: speedup is nan, not a finite number"),
        ({"history": [{"label": "x", "speedup": 2.0, "git_sha": "a"},
                      {"label": "x", "run_seconds": 1.0, "git_sha": "b"}]},
         "x: speedup is missing from the newest entry"),
        ({"history": [{"speedup": 2.0}]}, "history[0]: entry has no label"),
    ], ids=["no-history", "empty-history", "untracked", "nan", "dropped",
            "unlabelled"])
    def test_check_bench_fails_closed(self, tmp_path, artifact, problem):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(artifact))
        result = self._run(str(path))
        assert result.returncode == 1, result.stdout
        assert f"BENCH_x.json: {problem}" in result.stdout

    @pytest.mark.parametrize("flag,value", [
        ("--tolerance", "nan"), ("--tolerance", "-0.1"),
        ("--overhead-floor", "inf"), ("--overhead-floor", "-1"),
    ])
    def test_check_bench_rejects_bad_flags(self, tmp_path, flag, value):
        artifact = tmp_path / "BENCH_x.json"
        artifact.write_text(json.dumps({"history": [
            {"label": "x", "speedup": 2.0, "git_sha": "a"},
            {"label": "x", "speedup": 0.5, "git_sha": "b"},
        ]}))
        result = self._run(f"{flag}={value}", str(artifact))
        assert result.returncode == 2
        assert "finite number >= 0" in result.stderr

    def test_check_bench_green_on_real_artifacts(self):
        result = self._run()
        assert result.returncode == 0, result.stdout + result.stderr

    def test_bless_latest_only_touches_newest(self, tmp_path):
        artifact = tmp_path / "BENCH_x.json"
        artifact.write_text(json.dumps({"history": [
            {"label": "x", "speedup": 2.0, "git_sha": "a"},
            {"label": "x", "speedup": 1.2, "git_sha": "b"},
        ]}))
        assert perf_history.bless_latest(artifact, "x")
        history = json.loads(artifact.read_text())["history"]
        assert "blessed" not in history[0]
        assert history[1]["blessed"] is True
        assert not perf_history.bless_latest(artifact, "missing")


class TestCheckObsPropagation:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_obs.py"),
             *argv],
            capture_output=True, text=True)

    def _trace_file(self, path, trace_id):
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": "test"}},
            {"ph": "X", "pid": 1, "tid": 1, "name": "engine.map",
             "ts": 0, "dur": 5,
             "args": {"span_id": 1, "trace_id": trace_id}},
        ]}))

    def test_shared_trace_id_passes(self, tmp_path):
        trace = tmp_path / "trace.json"
        self._trace_file(trace, "a" * 32)
        events = tmp_path / "events.ndjson"
        events.write_text(json.dumps({"event": "done",
                                      "trace_id": "a" * 32}) + "\n")
        result = self._run("--propagation", "--trace", str(trace),
                           "--ndjson", str(events))
        assert result.returncode == 0, result.stdout

    def test_mismatched_trace_ids_fail(self, tmp_path):
        trace = tmp_path / "trace.json"
        self._trace_file(trace, "a" * 32)
        events = tmp_path / "events.ndjson"
        events.write_text(json.dumps({"event": "done",
                                      "trace_id": "b" * 32}) + "\n")
        result = self._run("--propagation", "--trace", str(trace),
                           "--ndjson", str(events))
        assert result.returncode == 1
        assert "2 distinct trace ids" in result.stdout

    def test_unstamped_trace_fails(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": "test"}},
            {"ph": "X", "pid": 1, "tid": 1, "name": "engine.map",
             "ts": 0, "dur": 5, "args": {"span_id": 1}},
        ]}))
        result = self._run("--propagation", "--trace", str(trace))
        assert result.returncode == 1
        assert "no span carries a trace_id" in result.stdout
