"""Tests for the compile service: store, jobs, HTTP daemon, client, CLI."""

import json
import os
import threading

import pytest

from repro.core.mapping import Mapping
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import MapRequest, MappingService, RequestError
from repro.service.server import create_server
from repro.service.store import ResultStore, content_key, file_content_hash
from repro.workloads.suite import load_benchmark


# --------------------------------------------------------------------- #
# The content-addressed store
# --------------------------------------------------------------------- #
class TestContentKey:
    def test_stable_and_order_independent(self):
        a = content_key({"x": 1, "y": [2, 3]})
        b = content_key({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 24
        assert int(a, 16) >= 0  # hex

    def test_different_content_different_key(self):
        assert content_key({"x": 1}) != content_key({"x": 2})

    def test_file_content_hash_tracks_content(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"a": 1}')
        first = file_content_hash(str(path))
        path.write_text('{"a": 2}')
        assert file_content_hash(str(path)) != first


class TestResultStore:
    def test_sharded_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        keys = [content_key({"n": n}) for n in range(32)]
        for n, key in enumerate(keys):
            store.put(key, {"value": n})
        assert len(store) == 32
        for n, key in enumerate(keys):
            assert store.get(key) == {"key": key, "value": n}
        # 32 random keys land in several distinct shard files
        shard_dir = tmp_path / "results" / "shards"
        assert len(list(shard_dir.glob("*.jsonl"))) > 1

    def test_reload_from_disk(self, tmp_path):
        path = str(tmp_path / "results")
        store = ResultStore(path)
        store.put("a" * 24, {"value": 1})
        reloaded = ResultStore(path)
        assert reloaded.get("a" * 24) == {"key": "a" * 24, "value": 1}

    def test_flat_jsonl_layout(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        store = ResultStore(path)
        store.put("b" * 24, {"value": 2})
        assert os.path.isfile(path)
        assert ResultStore(path).get("b" * 24)["value"] == 2

    def test_readonly_open_is_side_effect_free(self, tmp_path):
        """The satellite fix: opening a store for reading writes nothing."""
        flat = str(tmp_path / "cache.jsonl")
        sharded = str(tmp_path / "results")
        reader = ResultStore(flat, writable=False, header={"jobs": 4})
        assert reader.get("c" * 24) is None
        assert len(reader) == 0
        assert not os.path.exists(flat)
        reader = ResultStore(sharded, writable=False, header={"jobs": 4})
        assert len(reader) == 0
        assert not os.path.exists(sharded)
        with pytest.raises(PermissionError):
            reader.put("c" * 24, {"value": 3})

    def test_header_written_lazily_and_skipped_on_load(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        store = ResultStore(path, header={"jobs": 8})
        assert not os.path.exists(path)  # header is lazy
        store.put("d" * 24, {"value": 4})
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0] == {"header": {"jobs": 8}}
        assert lines[1]["key"] == "d" * 24
        assert len(ResultStore(path)) == 1  # header not indexed

    def test_conflicting_embedded_key_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        with pytest.raises(ValueError):
            store.put("e" * 24, {"key": "f" * 24})

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        store = ResultStore(path)
        store.put("a1" * 12, {"value": 1})
        with open(path, "a") as handle:
            handle.write('{"key": "trunc')  # simulated torn append
        assert len(ResultStore(path)) == 1


class TestBatchCacheRerun:
    def test_all_hit_rerun_leaves_cache_byte_identical(self, tmp_path):
        """A rerun served entirely from cache appends nothing -- not even
        a header line (the reader-side-effect satellite, end to end)."""
        from repro.experiments.batch import BatchCase, BatchRunner

        cache = str(tmp_path / "cache.jsonl")
        cases = [BatchCase("bitcount", "2x2", "monomorphism", 30.0)]
        runner = BatchRunner(jobs=1, cache_path=cache)
        first = runner.run(cases)
        assert first.results[0].status == "success"
        before = open(cache, "rb").read()
        second = BatchRunner(jobs=1, cache_path=cache).run(cases)
        assert second.cache_hits == 1
        assert open(cache, "rb").read() == before


# --------------------------------------------------------------------- #
# Request validation and store-key derivation
# --------------------------------------------------------------------- #
class TestMapRequest:
    def test_requires_exactly_one_source(self):
        with pytest.raises(RequestError):
            MapRequest.from_payload({})
        with pytest.raises(RequestError):
            MapRequest.from_payload({"benchmark": "crc32",
                                     "kernel": "x = a + b;"})

    def test_rejects_bad_fields(self):
        base = {"benchmark": "crc32"}
        for bad in ({"benchmark": "nope"},
                    dict(base, cgra="4by4"),
                    dict(base, approach="quantum"),
                    dict(base, opt_level="O9"),
                    dict(base, opt_passes=["nope"]),
                    dict(base, solver_backend="z3"),
                    dict(base, seed="seven"),
                    dict(base, opt_level=[1]),
                    dict(base, opt_level=1.5),
                    dict(base, budget_seconds=-1),
                    dict(base, budget_seconds=float("nan")),
                    dict(base, strategy="sideways"),
                    dict(base, arch="not_a_preset")):
            with pytest.raises(RequestError):
                MapRequest.from_payload(bad)

    def test_solver_backend_field_is_rejected(self):
        # the tier is detected, not configured: any value -- even a kernel
        # that exists -- is a 400, never silently ignored
        for backend in ("numpy", "arena", "native", None):
            with pytest.raises(RequestError) as excinfo:
                MapRequest.from_payload({"benchmark": "crc32",
                                         "solver_backend": backend})
            message = str(excinfo.value)
            assert repr(backend) in message
            assert "chosen automatically" in message

    def test_store_key_is_unchanged_since_the_tier_was_detected(self):
        # the digest this request had while payloads could name a kernel
        # (the default and the native spellings shared it): existing
        # stores keep hitting
        request = MapRequest.from_payload({"benchmark": "crc32",
                                           "cgra": "4x4"})
        assert content_key(request.store_record()) == \
            "d4a68e39318a77b514be588b"

    def test_source_spelling_does_not_change_key(self):
        """A kernel by name and the same DFG serialized share a key."""
        by_name = MapRequest.from_payload({"benchmark": "running_example"})
        by_dfg = MapRequest.from_payload(
            {"dfg": load_benchmark("running_example").to_dict()})
        assert (content_key(by_name.store_record())
                == content_key(by_dfg.store_record()))

    def test_key_tracks_result_shaping_knobs_only(self):
        base = {"benchmark": "crc32", "approach": "heuristic", "seed": 7}
        key = content_key(MapRequest.from_payload(base).store_record())
        same = content_key(MapRequest.from_payload(
            dict(base, priority=5)).store_record())
        assert key == same  # priority is transport, not content
        for knob in (dict(base, seed=8),
                     dict(base, strategy="refine"),
                     dict(base, budget_seconds=5),
                     dict(base, opt_level="O2"),
                     dict(base, cgra="5x5")):
            assert content_key(
                MapRequest.from_payload(knob).store_record()) != key

    def test_exact_engine_key_ignores_budget_and_seed(self):
        base = {"benchmark": "crc32", "approach": "monomorphism"}
        key = content_key(MapRequest.from_payload(base).store_record())
        assert content_key(MapRequest.from_payload(
            dict(base, budget_seconds=5, seed=7)).store_record()) == key

    def test_budget_capped_at_server_max(self):
        request = MapRequest.from_payload(
            {"benchmark": "crc32", "budget_seconds": 10_000},
            max_budget_seconds=60.0)
        assert request.budget_seconds == 60.0


class TestServeParser:
    @pytest.mark.parametrize("argv", [
        ["--max-budget", "nan"],
        ["--max-budget", "-1"],
        ["--default-budget", "nan"],
        ["--default-budget", "0"],
        ["--heartbeat-timeout", "inf"],
        ["--drain-timeout", "-5"],
        ["--profile-interval", "nan"],
        ["--profile-interval", "-0.01"],
    ])
    def test_rejects_bad_budget_flags(self, argv):
        from repro.service.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["start", *argv])
        assert excinfo.value.code == 2

    def test_zero_profile_interval_turns_the_profiler_off(self):
        from repro.service.cli import build_parser

        args = build_parser().parse_args(["start", "--profile-interval", "0"])
        assert args.profile_interval == 0.0


# --------------------------------------------------------------------- #
# The service core (no HTTP)
# --------------------------------------------------------------------- #
@pytest.fixture
def service(tmp_path):
    svc = MappingService(store_path=str(tmp_path / "results"), workers=2,
                         default_budget_seconds=20.0)
    yield svc
    svc.shutdown()


REFINE_PAYLOAD = {"benchmark": "running_example", "approach": "heuristic",
                  "strategy": "refine", "seed": 7, "budget_seconds": 20}


class TestMappingService:
    def test_second_identical_request_is_a_pure_store_hit(self, service):
        first = service.submit(dict(REFINE_PAYLOAD))
        list(service.stream_events(first.id))
        assert first.status == "done"
        assert first.cache == "miss"
        runs_before = service.counters["engine_runs"]

        second = service.submit(dict(REFINE_PAYLOAD))
        # done synchronously, straight from the store: no engine ran
        assert second.status == "done"
        assert second.cache == "hit"
        assert service.counters["engine_runs"] == runs_before
        assert second.result["cached"] is True
        assert second.result["mapping"] == first.result["mapping"]
        serve_seconds = second.finished - second.created
        assert serve_seconds < 1.0  # ~zero compute, no queue wait

    def test_hit_survives_service_restart(self, service, tmp_path):
        service.submit(dict(REFINE_PAYLOAD))
        # drain: submit returns a queued job; wait for it
        list(service.stream_events("j000001"))
        fresh = MappingService(store_path=str(tmp_path / "results"),
                               workers=1)
        try:
            job = fresh.submit(dict(REFINE_PAYLOAD))
            assert job.cache == "hit"
            assert fresh.counters["engine_runs"] == 0
        finally:
            fresh.shutdown()

    def test_streamed_improvements_monotonically_decrease(self, service):
        job = service.submit(dict(REFINE_PAYLOAD))
        events = list(service.stream_events(job.id))
        iis = [e["ii"] for e in events if e["event"] == "improvement"]
        assert len(iis) >= 2  # refine genuinely improves, not one-shot
        assert all(a > b for a, b in zip(iis, iis[1:]))
        assert iis[-1] == job.result["ii"]
        assert events[-1]["event"] == "done"

    def test_cache_hit_replays_improvement_stream(self, service):
        first = service.submit(dict(REFINE_PAYLOAD))
        list(service.stream_events(first.id))
        original = [e["ii"] for e in first.events
                    if e["event"] == "improvement"]
        second = service.submit(dict(REFINE_PAYLOAD))
        replayed = [e["ii"] for e in second.events
                    if e["event"] == "improvement"]
        assert replayed == original

    def test_warm_fabric_cache_counts_hits(self, service):
        first = service.submit({"benchmark": "running_example",
                                "approach": "monomorphism"})
        list(service.stream_events(first.id))
        # different kernel, same fabric: at least one worker is warm now;
        # run enough jobs that some land on it
        for name in ("crc32", "bitcount"):
            job = service.submit({"benchmark": name,
                                  "approach": "monomorphism"})
            list(service.stream_events(job.id))
        total = (service.counters["fabric_cache_hits"]
                 + service.counters["engine_runs"])
        assert service.counters["engine_runs"] == 3
        assert total >= 3  # hits only ever add to runs

    def test_cancel_queued_job(self, tmp_path):
        svc = MappingService(workers=1)
        try:
            # occupy the single worker, then cancel a queued job
            running = svc.submit(dict(REFINE_PAYLOAD, seed=11))
            queued = svc.submit(dict(REFINE_PAYLOAD, seed=12))
            svc.cancel(queued.id)
            events = list(svc.stream_events(queued.id))
            assert queued.status == "cancelled"
            assert events[-1]["event"] == "cancelled"
            list(svc.stream_events(running.id))
            assert running.status == "done"
        finally:
            svc.shutdown()

    def test_invalid_payload_rejected_before_queueing(self, service):
        with pytest.raises(RequestError):
            service.submit({"benchmark": "running_example",
                            "approach": "quantum"})
        assert service.counters["submitted"] == 0


# --------------------------------------------------------------------- #
# End to end over real HTTP
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


class TestServiceEndToEnd:
    def test_health_and_engine_registry(self, live_server):
        _, client = live_server
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        names = [e["name"] for e in client.engines()["engines"]]
        assert names == ["monomorphism", "satmapit", "heuristic",
                         "portfolio"]

    def test_submit_stream_and_cached_second_request(self, live_server):
        service, client = live_server
        job = client.submit(dict(REFINE_PAYLOAD))
        assert job["status"] in ("queued", "running", "done")

        iis = [e["ii"] for e in client.events(job["id"])
               if e["event"] == "improvement"]
        assert len(iis) >= 2
        assert all(a > b for a, b in zip(iis, iis[1:]))

        done = client.wait(job["id"])
        assert done["result"]["status"] == "success"
        runs_before = service.counters["engine_runs"]

        second = client.submit(dict(REFINE_PAYLOAD))
        assert second["status"] == "done"          # answered synchronously
        assert second["cache"] == "hit"
        assert second["result"]["cached"] is True
        assert second["result"]["mapping"] == done["result"]["mapping"]
        assert service.counters["engine_runs"] == runs_before

        stats = client.store_stats()["store"]
        assert stats["records"] == 1

    def test_mapping_round_trips_through_the_wire(self, live_server):
        _, client = live_server
        job = client.map({"benchmark": "running_example",
                          "approach": "monomorphism"})
        mapping = Mapping.from_dict(job["result"]["mapping"])
        assert mapping.ii == job["result"]["ii"]
        mapping.kernel_table()  # structurally consistent
        # JSON stringifies the int node-id keys; from_dict restores them
        again = Mapping.from_dict(json.loads(mapping.to_json()))
        assert again.to_dict() == mapping.to_dict()

    def test_error_envelopes(self, live_server):
        _, client = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"benchmark": "nope"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"benchmark": "crc32", "solver_backend": "numpy"})
        assert excinfo.value.status == 400
        assert "chosen automatically" in str(excinfo.value)
        # NaN travels as a bare ``NaN`` token, which the server's JSON
        # parser accepts; it must not reach the worker as a deadline
        for bad in ({"budget_seconds": float("nan")},
                    {"opt_level": [1]},
                    {"opt_level": 1.5}):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(bad, benchmark="crc32"))
            assert excinfo.value.status == 400, bad
            assert excinfo.value.code == "bad_request", bad
        with pytest.raises(ServiceError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/bogus")
        assert excinfo.value.status == 404

    def test_events_resume_from_offset(self, live_server):
        _, client = live_server
        job = client.map({"benchmark": "running_example",
                          "approach": "monomorphism"})
        full = list(client.events(job["id"]))
        tail = list(client.events(job["id"], start=len(full) - 1))
        assert tail == full[-1:]
        assert tail[0]["event"] == "done"

    def test_remote_cli_round_trip(self, live_server, capsys, tmp_path):
        from repro.cli import main

        _, client = live_server
        out_path = str(tmp_path / "mapping.json")
        rc = main(["map", "--benchmark", "running_example",
                   "--approach", "heuristic", "--strategy", "refine",
                   "--seed", "7", "--timeout", "20",
                   "--remote", client.base_url, "--json", out_path])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "improvement: II=" in captured
        assert "slot |" in captured  # kernel table rendered locally
        with open(out_path) as handle:
            Mapping.from_dict(json.load(handle))

    def test_serve_cli_status(self, live_server, capsys):
        from repro.service.cli import main as serve_main

        _, client = live_server
        assert serve_main(["status", "--url", client.base_url]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"


# --------------------------------------------------------------------- #
# The refine strategy on the engine itself (no service)
# --------------------------------------------------------------------- #
class TestRefineStrategy:
    def test_refine_reaches_the_same_ii_as_ascend(self):
        from repro.arch.cgra import CGRA
        from repro.core.engine import create_engine

        dfg = load_benchmark("running_example")
        events = []
        refine = create_engine("heuristic", CGRA(4, 4), budget_seconds=20,
                               seed=7, strategy="refine",
                               on_event=events.append)
        ascend = create_engine("heuristic", CGRA(4, 4), budget_seconds=20,
                               seed=7)
        r_refine, r_ascend = refine.map(dfg), ascend.map(dfg)
        assert r_refine.status.value == "success"
        assert r_refine.ii == r_ascend.ii  # per-II outcome is direction-free
        iis = [e["ii"] for e in events if e["event"] == "improvement"]
        assert all(a > b for a, b in zip(iis, iis[1:]))
        assert iis[-1] == r_refine.ii

    def test_unknown_strategy_rejected(self):
        from repro.core.config import HeuristicConfig

        with pytest.raises(ValueError):
            HeuristicConfig(strategy="sideways")

    def test_on_event_exception_propagates(self):
        """Cooperative cancellation: a raising callback aborts map()."""
        from repro.arch.cgra import CGRA
        from repro.core.engine import create_engine

        class Abort(Exception):
            pass

        def explode(_payload):
            raise Abort()

        engine = create_engine("heuristic", CGRA(4, 4), budget_seconds=20,
                               seed=7, strategy="refine", on_event=explode)
        with pytest.raises(Abort):
            engine.map(load_benchmark("running_example"))


# --------------------------------------------------------------------- #
# Observability: /metrics, event timestamps, per-job traces
# --------------------------------------------------------------------- #
class TestServiceObservability:
    def test_every_streamed_event_carries_a_ts(self, service):
        job = service.submit(dict(REFINE_PAYLOAD))
        events = list(service.stream_events(job.id))
        assert events  # submitted .. done at minimum
        stamps = [e["ts"] for e in events]
        assert all(isinstance(ts, float) for ts in stamps)
        assert stamps == sorted(stamps)  # monotonic-anchored ordering

    def test_metrics_exposition_over_http(self, live_server):
        from tests.test_obs import assert_valid_exposition

        service, client = live_server
        first = service.submit({"benchmark": "running_example",
                                "approach": "monomorphism"})
        list(service.stream_events(first.id))
        before = client.metrics()
        assert_valid_exposition(before)
        names = {line.split()[2] for line in before.splitlines()
                 if line.startswith("# TYPE")}
        assert len(names) >= 12

        def sample(text, prefix):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(prefix) and not line.startswith("#"))

        # a second identical request is a pure store hit: the store-hit
        # counter moves, the engine-run counter does not
        second = service.submit({"benchmark": "running_example",
                                 "approach": "monomorphism"})
        assert second.cache == "hit"
        after = client.metrics()
        assert_valid_exposition(after)
        assert (sample(after, "repro_store_hits_total")
                == sample(before, "repro_store_hits_total") + 1)
        assert (sample(after, "repro_engine_runs_total")
                == sample(before, "repro_engine_runs_total"))
        assert sample(after, 'repro_service_jobs_total{status="hit"}') >= 1
        assert sample(after, "repro_http_requests_total") > 0
        # scrape-time gauges reflect the live store
        assert (sample(after, "repro_store_records")
                == service.store.stats()["records"])

    def test_store_counts_skipped_lines(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        store = ResultStore(path)
        store.put("a1" * 12, {"value": 1})
        with open(path, "a") as handle:
            handle.write('{"key": "torn\n')          # torn append
            handle.write('["not", "a", "dict"]\n')   # foreign line
            handle.write('{"keyless": true}\n')      # keyless non-header
        reloaded = ResultStore(path)
        stats = reloaded.stats()
        assert stats["records"] == 1
        assert stats["skipped_lines"] == 3
        assert stats["header_lines"] == 0

    def test_skipped_lines_surface_in_service_health(self, tmp_path):
        root = tmp_path / "results"
        svc = MappingService(store_path=str(root), workers=1)
        try:
            job = svc.submit({"benchmark": "running_example",
                              "approach": "monomorphism"})
            list(svc.stream_events(job.id))
        finally:
            svc.shutdown()
        shard = next((root / "shards").glob("*.jsonl"))
        with open(shard, "a") as handle:
            handle.write('{"key": "torn')
        fresh = MappingService(store_path=str(root), workers=1)
        try:
            assert fresh.health()["store"]["skipped_lines"] == 1
        finally:
            fresh.shutdown()

    def test_traced_job_exports_one_merged_chrome_trace(self, tmp_path):
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        trace_dir = tmp_path / "traces"
        svc = MappingService(workers=2, trace_dir=str(trace_dir))
        try:
            job = svc.submit({"benchmark": "running_example",
                              "approach": "monomorphism"})
            list(svc.stream_events(job.id))
            assert job.status == "done"
        finally:
            svc.shutdown()
            obs_trace.disable()
            obs_trace.reset()
        path = trace_dir / f"{job.id}.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        # the acceptance chain: HTTP handler -> queue wait -> worker ->
        # engine -> solver tier, all in one file
        for name in ("http.handler", "queue.wait", "worker.run",
                     "engine.map"):
            assert name in spans, sorted(spans)
        assert any(name.startswith("solver:") for name in spans)
        sids = {e["args"]["span_id"] for e in doc["traceEvents"]
                if e["ph"] == "X"}
        engine = spans["engine.map"]
        assert engine["args"]["parent_id"] == \
            spans["worker.run"]["args"]["span_id"]
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            parent = event["args"]["parent_id"]
            assert parent == 0 or parent in sids
            assert event["args"]["trace"] == job.id

    def test_second_traced_job_gets_its_own_file(self, tmp_path):
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        trace_dir = tmp_path / "traces"
        svc = MappingService(workers=1, trace_dir=str(trace_dir))
        try:
            jobs = []
            for benchmark in ("running_example", "bitcount"):
                job = svc.submit({"benchmark": benchmark, "cgra": "2x2"})
                list(svc.stream_events(job.id))
                jobs.append(job)
        finally:
            svc.shutdown()
            obs_trace.disable()
            obs_trace.reset()
        for job in jobs:
            doc = json.loads((trace_dir / f"{job.id}.json").read_text())
            traces = {e["args"]["trace"] for e in doc["traceEvents"]
                      if e["ph"] == "X"}
            assert traces == {job.id}  # no neighbour's spans leaked in
