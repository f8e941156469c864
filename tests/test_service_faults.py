"""Chaos suite: crash isolation, supervised retries, drain, recovery.

Every test here exercises the service *under injected failure*: workers
killed mid-job, wedged heartbeats, hard-deadline overruns (all armed
through ``tests/fault_harness.py``), torn store tails, SIGTERM against a
live daemon. The process pool must absorb each fault --
restart the worker, retry the job within its budget, demote a crashing
solver backend, journal queued work across a drain -- while the job's
event stream, the counters and ``/metrics`` attribute what happened.
"""

import json
import os
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import fault_harness
from fault_harness import FaultError, FaultPlan, arm, disarm, inject, tear
from repro.obs import metrics as obs_metrics
from repro.core import workers
from repro.service import jobs as service_jobs
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import MappingService, ServiceUnavailable
from repro.service.server import create_server
from repro.service.store import ResultStore, content_key

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REFINE_PAYLOAD = {"benchmark": "running_example", "approach": "heuristic",
                  "strategy": "refine", "seed": 7, "budget_seconds": 20}


def finish(service, job):
    """Block until ``job`` is terminal (drains its event stream)."""
    list(service.stream_events(job.id))
    return job


def event_names(job):
    return [e["event"] for e in job.events]


# --------------------------------------------------------------------- #
# The fault-plan parser
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_empty_env_is_inactive(self):
        assert not FaultPlan.parse(None).active
        assert not FaultPlan.parse("").active

    def test_round_trip(self):
        plan = FaultPlan.parse(json.dumps(
            {"kill_worker": {"phase": "start", "attempts": [0, 1]},
             "slow_solver": {"seconds": 1.5}}))
        assert plan.active
        assert plan.kill_action("start", 0) is not None
        assert plan.kill_action("start", 2) is None
        assert plan.kill_action("engine", 0) is None
        assert plan.slow_solver_seconds == 1.5
        # faults only fire inside marked worker processes: here the
        # armed job function is the job function
        calls = []
        faulty = inject(lambda spec, emit: calls.append(spec) or "ok", plan)
        started = time.monotonic()
        assert faulty({"attempt": 0}, print) == "ok"
        assert calls == [{"attempt": 0}]
        assert time.monotonic() - started < 1.0

    def test_a_wedge_starves_every_other_thread(self):
        """The stall fault holds the GIL: a heartbeat cannot get in."""
        ticks = []
        stop = threading.Event()

        def tick():
            while not stop.is_set():
                ticks.append(time.monotonic())
                time.sleep(0.01)

        thread = threading.Thread(target=tick, daemon=True)
        thread.start()
        time.sleep(0.1)
        begin = time.monotonic()
        fault_harness._wedge(1.0)
        end = time.monotonic()
        stop.set()
        thread.join()
        assert end - begin >= 0.9
        assert not [t for t in ticks if begin + 0.05 < t < end - 0.05]

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"explode": {}}',
        '{"kill_worker": {"phase": "teardown"}}',
        '{"kill_worker": {"attempts": "first"}}',
        '{"stall_worker": {"seconds": "long"}}',
        '{"slow_solver": {}}',
        '{"torn_write": {"fraction": 1.5}}',
    ])
    def test_invalid_plans_are_rejected(self, text):
        with pytest.raises(FaultError):
            FaultPlan.parse(text)


# --------------------------------------------------------------------- #
# Crash isolation and supervised retry
# --------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_killed_worker_is_restarted_and_job_retried(
            self, tmp_path, monkeypatch):
        """The acceptance path: SIGKILL mid-engine, then a clean rerun."""
        arm(monkeypatch, {"kill_worker": {"phase": "engine",
                                          "attempts": [0]}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            job = finish(service, service.submit(dict(REFINE_PAYLOAD)))
            assert job.status == "done"
            assert job.attempts == 2
            names = event_names(job)
            assert "worker_crashed" in names
            assert "retrying" in names
            assert names.index("worker_crashed") < names.index("retrying")
            crash = next(e for e in job.events
                         if e["event"] == "worker_crashed")
            assert crash["reason"] == "crashed"
            assert "signal" in crash["exit"] or "exit" in crash["exit"]
            assert service.counters["worker_crashes"] == 1
            assert service.counters["worker_restarts"] == 1
            assert service.counters["retries"] == 1
            # the crash is visible on /metrics, labelled by reason
            exposition = obs_metrics.render()
            assert 'repro_worker_crashes_total{reason="crashed"} 1' \
                in exposition
            assert "repro_worker_restarts_total 1" in exposition
            # the result survived the crash and reached the store
            assert job.result is not None
            view = job.view()
            assert view["attempts"] == 2 and view["crashes"] == 1
        finally:
            service.shutdown()

    @pytest.mark.parametrize("phase", ["start", "engine", "mid", "result"])
    def test_a_kill_at_any_phase_is_retried(self, tmp_path, monkeypatch,
                                            phase):
        arm(monkeypatch, {"kill_worker": {"phase": phase, "attempts": [0]}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            job = finish(service, service.submit(dict(REFINE_PAYLOAD)))
            assert job.status == "done" and job.attempts == 2
            crash = next(e for e in job.events
                         if e["event"] == "worker_crashed")
            assert crash["reason"] == "crashed" and crash["attempt"] == 0
            names = event_names(job)
            # a kill before the engine ran streams no improvement first
            before = names[:names.index("worker_crashed")]
            assert ("improvement" in before) == (phase in ("mid", "result"))
            assert ("started" in before) == (phase != "start")
        finally:
            service.shutdown()

    def test_crashing_on_every_attempt_fails_the_job(
            self, tmp_path, monkeypatch):
        arm(monkeypatch, {"kill_worker": {"phase": "start",
                                          "attempts": "all"}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1, max_retries=1)
        try:
            job = finish(service, service.submit(dict(REFINE_PAYLOAD)))
            assert job.status == "failed"
            assert job.attempts == 2  # max_retries=1 -> two attempts total
            assert "crashed" in job.error
            assert event_names(job).count("worker_crashed") == 2
        finally:
            service.shutdown()

    def test_stalled_worker_is_detected_and_replaced(
            self, tmp_path, monkeypatch):
        """Heartbeat silence, not just death, puts a worker down."""
        arm(monkeypatch, {"stall_worker": {"seconds": 30,
                                           "attempts": [0]}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1, heartbeat_timeout_seconds=1.0)
        try:
            job = finish(service, service.submit(dict(REFINE_PAYLOAD)))
            assert job.status == "done"
            crash = next(e for e in job.events
                         if e["event"] == "worker_crashed")
            assert crash["reason"] == "stalled"
            assert service.counters["worker_crashes"] == 1
        finally:
            service.shutdown()

    def test_hard_deadline_overrun_fails_without_retry(
            self, tmp_path, monkeypatch):
        """A worker blowing budget + grace is killed and NOT retried:
        a second attempt would burn another full budget the same way."""
        arm(monkeypatch, {"slow_solver": {"seconds": 30}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1,
                                 hard_deadline_grace_seconds=0.5)
        try:
            payload = dict(REFINE_PAYLOAD, budget_seconds=0.2)
            job = finish(service, service.submit(payload))
            assert job.status == "failed"
            assert job.attempts == 1
            assert "hard deadline" in job.error
            assert "retrying" not in event_names(job)
            assert service.counters["retries"] == 0
            crash = next(e for e in job.events
                         if e["event"] == "worker_crashed")
            assert crash["reason"] == "hard_timeout"
        finally:
            service.shutdown()


class TestGracefulDegradation:
    def test_crashing_backend_is_demoted_down_the_ladder(
            self, tmp_path, monkeypatch):
        """The detected (native) tier crashes twice -> the job finishes
        on arena."""
        arm(monkeypatch, {"kill_worker": {"phase": "start",
                                          "attempts": [0, 1]}})
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            payload = {"benchmark": "running_example",
                       "approach": "monomorphism", "budget_seconds": 20}
            job = finish(service, service.submit(payload))
            assert job.status == "done"
            demoted = next(e for e in job.events
                           if e["event"] == "backend_demoted")
            assert demoted["from"] == "native"
            assert demoted["to"] == "arena"
            assert job.view()["effective_backend"] == "arena"
            assert "solver_tier" not in job.result["stats"]
            assert service.counters["demotions"] == 1
            assert "repro_backend_demotions_total 1" in obs_metrics.render()
        finally:
            service.shutdown()

    def test_unspawnable_pool_degrades_to_in_thread_execution(
            self, tmp_path, monkeypatch):
        """If worker processes cannot start at all, the service keeps
        answering -- in-thread, flagged degraded on /healthz."""
        def refuse(self):
            raise workers.WorkerStartError("fork refused (injected)")

        monkeypatch.setattr(workers.ProcessWorker, "ensure", refuse)
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            job = finish(service, service.submit(dict(REFINE_PAYLOAD)))
            assert job.status == "done"
            assert "degraded" in event_names(job)
            health = service.health()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert 'repro_service_degraded 1' in obs_metrics.render()
        finally:
            service.shutdown()

    def test_degraded_run_keeps_the_demoted_backend(
            self, tmp_path, monkeypatch):
        """native crashes twice and is demoted; the pool then refuses to
        start, and the in-thread run must use arena, not the tier that
        just crashed twice."""
        arm(monkeypatch, {"kill_worker": {"phase": "start",
                                          "attempts": [0, 1]}})
        real_ensure = workers.ProcessWorker.ensure
        calls = []

        def ensure_twice(self):
            calls.append(1)
            if len(calls) > 2:
                raise workers.WorkerStartError("fork refused (injected)")
            return real_ensure(self)

        monkeypatch.setattr(workers.ProcessWorker, "ensure", ensure_twice)
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            payload = {"benchmark": "running_example",
                       "approach": "monomorphism", "budget_seconds": 20}
            job = finish(service, service.submit(payload))
            assert job.status == "done"
            names = event_names(job)
            assert "backend_demoted" in names and "degraded" in names
            assert job.view()["effective_backend"] == "arena"
            assert "solver_tier" not in job.result["stats"]
        finally:
            service.shutdown()


# --------------------------------------------------------------------- #
# Drain, journal, recover (in-process)
# --------------------------------------------------------------------- #
class TestDrainAndRecover:
    def test_drain_finishes_inflight_journals_queued_then_recovers(
            self, tmp_path, monkeypatch):
        arm(monkeypatch, {"slow_solver": {"seconds": 1.5}})
        store_path = str(tmp_path / "results")
        service = MappingService(store_path=store_path, workers=1)
        try:
            running = service.submit(dict(REFINE_PAYLOAD, seed=11))
            deadline = time.monotonic() + 10
            while running.status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            queued = service.submit(dict(REFINE_PAYLOAD, seed=12))
            assert queued.status == "queued"

            summary = service.drain(timeout=20)
            assert summary == {"journaled": 1, "running": []}
            assert running.status == "done"
            assert queued.status == "journaled"
            # the journal sits next to the store, outside the shard dir,
            # and carries the original payload
            journal = service.journal_path()
            assert journal == os.path.join(store_path, "journal.jsonl")
            entries = [json.loads(line) for line in open(journal)]
            assert len(entries) == 1
            assert entries[0]["payload"]["seed"] == 12
            # draining services refuse new work with a retry hint
            with pytest.raises(ServiceUnavailable) as excinfo:
                service.submit(dict(REFINE_PAYLOAD, seed=13))
            assert excinfo.value.retry_after > 0
            assert service.health()["status"] == "draining"
        finally:
            service.shutdown()

        # --- restart: a fresh service over the same store recovers ---
        disarm(monkeypatch)
        revived = MappingService(store_path=store_path, workers=1)
        try:
            assert revived.recover_journal() == 1
            assert not os.path.exists(journal)
            assert revived.counters["recovered"] == 1
            jobs = list(revived.jobs.values())
            assert len(jobs) == 1
            recovered = finish(revived, jobs[0])
            assert recovered.status == "done"
            assert recovered.request.seed == 12
        finally:
            revived.shutdown()

    def test_journal_entry_naming_a_removed_backend_is_skipped(
            self, tmp_path, monkeypatch):
        """A journal written before a backend was removed still recovers:
        the stale entry is logged as ``journal_skip``, the rest resubmit."""
        records = []
        monkeypatch.setattr(service_jobs.logjson, "log",
                            lambda record, **fields:
                            records.append((record, fields)))
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            stale = {"benchmark": "running_example",
                     "approach": "monomorphism", "solver_backend": "numpy"}
            journal = service.journal_path()
            os.makedirs(os.path.dirname(journal), exist_ok=True)
            with open(journal, "w") as handle:
                for job_id, payload in (("j000001", stale),
                                        ("j000002",
                                         dict(REFINE_PAYLOAD, seed=31))):
                    handle.write(json.dumps({"id": job_id,
                                             "payload": payload}) + "\n")
            assert service.recover_journal() == 1
            skipped = [fields for record, fields in records
                       if record == "journal_skip"]
            assert [fields["entry"] for fields in skipped] == ["j000001"]
            assert "numpy" in skipped[0]["error"]
            (job,) = service.jobs.values()
            assert finish(service, job).status == "done"
            assert job.request.seed == 31
        finally:
            service.shutdown()

    def test_malformed_journal_lines_are_skipped_not_raised(
            self, tmp_path, monkeypatch):
        """Torn, non-object, payload-less and non-UTF-8 journal lines are
        each one ``journal_skip``; the good entry still resubmits."""
        records = []
        monkeypatch.setattr(service_jobs.logjson, "log",
                            lambda record, **fields:
                            records.append((record, fields)))
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        try:
            journal = service.journal_path()
            os.makedirs(os.path.dirname(journal), exist_ok=True)
            good = json.dumps({"id": "j000005",
                               "payload": dict(REFINE_PAYLOAD, seed=51)})
            with open(journal, "wb") as handle:
                handle.write(b"\n".join([
                    b"[1, 2]", b'"text"', b"\xff\xfe not utf-8",
                    b'{"id": "j000003"}', b'{"id": "j000004", "payload": 7}',
                    b"", good.encode(), good[:len(good) // 2].encode()]))
            assert service.recover_journal() == 1
            skipped = [fields for record, fields in records
                       if record == "journal_skip"]
            assert [fields["line"] for fields in skipped] == [1, 2, 3, 4, 5, 8]
            assert [fields["entry"] for fields in skipped][3:5] == \
                ["j000003", "j000004"]
            assert not os.path.exists(journal)
            (job,) = service.jobs.values()
            assert finish(service, job).status == "done"
            assert job.request.seed == 51
        finally:
            service.shutdown()

    def test_drain_without_store_cancels_queued_honestly(
            self, monkeypatch):
        arm(monkeypatch, {"slow_solver": {"seconds": 1.0}})
        service = MappingService(workers=1)
        try:
            running = service.submit(dict(REFINE_PAYLOAD, seed=21))
            deadline = time.monotonic() + 10
            while running.status != "running":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            queued = service.submit(dict(REFINE_PAYLOAD, seed=22))
            summary = service.drain(timeout=20)
            assert summary["journaled"] == 0
            assert queued.status == "cancelled"
            assert running.status == "done"
            assert service.journal_path() is None
        finally:
            service.shutdown()


# --------------------------------------------------------------------- #
# Torn writes and compaction
# --------------------------------------------------------------------- #
def _shard_file(path, key):
    return os.path.join(path, "shards", key[:2] + ".jsonl")


def _key_in_shard(prefix, exclude):
    """A content key other than ``exclude`` that lands in shard ``prefix``."""
    return next(key for key in (content_key({"n": n}) for n in range(10000))
                if key.startswith(prefix) and key != exclude)


class TestTornWritesAndCompaction:
    def test_torn_write_is_skipped_on_load_and_healed_by_compact(
            self, tmp_path):
        path = str(tmp_path / "results")
        torn_key = content_key({"n": "torn"})
        ResultStore(path).put(torn_key, {"value": "lost"})
        shard = _shard_file(path, torn_key)
        tear(shard, 0.4)  # the crash: the shard ends mid-line
        # the next put to the same shard must not be glued onto the
        # fragment: it was fsync'd, so it must survive a reload
        after_key = _key_in_shard(torn_key[:2], exclude=torn_key)
        store = ResultStore(path)
        store.put(after_key, {"value": "after the fragment"})
        good_key = content_key({"n": "good"})
        store.put(good_key, {"value": "kept"})

        reloaded = ResultStore(path)
        assert reloaded.get(torn_key) is None  # torn line never loads
        assert reloaded.get(after_key)["value"] == "after the fragment"
        assert reloaded.get(good_key)["value"] == "kept"
        assert reloaded.stats()["skipped_lines"] == 1

        summary = reloaded.compact()
        assert summary["dropped_lines"] == 1
        assert summary["records"] == 2
        healed = ResultStore(path)
        assert healed.stats()["skipped_lines"] == 0
        assert len(healed) == 2
        assert healed.get(after_key)["value"] == "after the fragment"

    def test_non_utf8_line_is_skipped_and_dropped_by_compact(self, tmp_path):
        path = str(tmp_path / "results")
        store = ResultStore(path)
        key = content_key({"n": "live"})
        store.put(key, {"value": "kept"})
        shard = _shard_file(path, key)
        with open(shard, "ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
        store.put(_key_in_shard(key[:2], exclude=key), {"value": "next"})
        with open(shard, "rb") as handle:
            live = [line for line in handle if not line.startswith(b"\xff")]

        reloaded = ResultStore(path)
        assert reloaded.get(key)["value"] == "kept"
        assert reloaded.stats()["skipped_lines"] == 1
        summary = reloaded.compact()
        assert summary["dropped_lines"] == 1 and summary["records"] == 2
        with open(shard, "rb") as handle:
            assert handle.readlines() == live  # byte-identical survivors
        assert ResultStore(path).stats()["skipped_lines"] == 0

    def test_compact_preserves_live_lines_byte_identically(self, tmp_path):
        path = str(tmp_path / "results")
        store = ResultStore(path, header={"writer": "test"})
        key_a = content_key({"n": "a"})
        key_b = content_key({"n": "b"})
        store.put(key_a, {"value": 1})
        store.put(key_a, {"value": 2})  # supersedes value 1
        store.put(key_b, {"value": 3})
        # capture the exact bytes of every live line before compaction
        live = {}
        for shard in sorted(
                os.listdir(os.path.join(path, "shards"))):
            for line in open(os.path.join(path, "shards", shard)):
                record = json.loads(line)
                if "key" in record:
                    live[record["key"]] = line

        fresh = ResultStore(path)
        summary = fresh.compact()
        assert summary["dropped_lines"] == 1  # the superseded value 1
        assert summary["records"] == 2
        after = []
        for shard in sorted(
                os.listdir(os.path.join(path, "shards"))):
            after.extend(
                open(os.path.join(path, "shards", shard)).readlines())
        for key in (key_a, key_b):
            assert live[key] in after  # byte-identical survival
        assert ResultStore(path).get(key_a)["value"] == 2
        # a clean store is not rewritten again
        again = ResultStore(path).compact()
        assert again["rewritten"] == 0 and again["dropped_lines"] == 0

    def test_store_size_is_reported(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        assert store.stats()["size_bytes"] == 0
        store.put(content_key({"n": 1}), {"value": 1})
        assert store.stats()["size_bytes"] > 0


# --------------------------------------------------------------------- #
# Client resilience
# --------------------------------------------------------------------- #
class _FlakyHandler(BaseHTTPRequestHandler):
    """Answers 500 to the first N requests, then a healthy /healthz."""

    failures = 2
    calls = 0

    def do_GET(self):  # noqa: N802
        cls = type(self)
        cls.calls += 1
        if cls.calls <= cls.failures:
            body = json.dumps(
                {"error": {"code": "internal", "message": "flaky"}}
            ).encode()
            self.send_response(500)
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence
        pass


class TestClientResilience:
    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", retries=0,
                               timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.retryable

    def test_idempotent_request_retries_through_transient_5xx(self):
        class Handler(_FlakyHandler):
            failures = 2
            calls = 0

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", retries=3,
                                   backoff_seconds=0.01,
                                   backoff_cap_seconds=0.05)
            assert client.health() == {"status": "ok"}
            assert Handler.calls == 3  # two failures + the success
        finally:
            server.shutdown()
            server.server_close()

    def test_retries_exhausted_surfaces_the_server_error(self):
        class Handler(_FlakyHandler):
            failures = 10 ** 6
            calls = 0

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            port = server.server_address[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", retries=1,
                                   backoff_seconds=0.01,
                                   backoff_cap_seconds=0.02)
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status == 500
            assert Handler.calls == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_wait_deadline_bounds_a_hung_server(self):
        """wait(timeout=1) must give up in ~1s even though the socket
        timeout is 30s: the overall deadline caps each poll."""
        with socketserver.TCPServer(("127.0.0.1", 0),
                                    socketserver.BaseRequestHandler) as sink:
            # accept connections, never answer
            port = sink.server_address[1]
            threading.Thread(target=sink.serve_forever, daemon=True).start()
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   timeout=30.0, retries=0)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait("j000001", timeout=1.0)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"wait hung for {elapsed:.1f}s"
            sink.shutdown()

    def test_draining_service_answers_503_with_retry_after(self, tmp_path):
        service = MappingService(store_path=str(tmp_path / "results"),
                                 workers=1)
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            port = server.server_address[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
            service.begin_drain()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(REFINE_PAYLOAD))
            assert excinfo.value.status == 503
            assert excinfo.value.code == "draining"
            assert excinfo.value.retryable
            # reads still work while draining
            assert client.health()["status"] == "draining"
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()


# --------------------------------------------------------------------- #
# The daemon end to end: SIGTERM, journal, restart
# --------------------------------------------------------------------- #
def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _start_daemon(port, store, plan=None, *extra_args):
    """``repro-serve start``; with a fault ``plan``, through the harness."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    launcher = ["-m", "repro.service.cli"] if plan is None else \
        [os.path.join(REPO_ROOT, "tests", "fault_harness.py"),
         json.dumps(plan)]
    return subprocess.Popen(
        [sys.executable, *launcher, "start",
         "--port", str(port), "--store", store, "--workers", "1",
         "--quiet", *extra_args],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


class TestDaemonLifecycle:
    def test_sigterm_drains_journals_and_restart_recovers(self, tmp_path):
        """The full acceptance round trip against a real daemon."""
        store = str(tmp_path / "store")
        port = _free_port()
        proc = _start_daemon(port, store, {"slow_solver": {"seconds": 2.0}},
                             "--drain-timeout", "30")
        client = ServiceClient(f"http://127.0.0.1:{port}", retries=8)
        try:
            assert client.health()["execution"] == "process"
            inflight = client.submit(dict(REFINE_PAYLOAD, seed=31))
            deadline = time.monotonic() + 15
            while client.job(inflight["id"])["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            queued = client.submit(dict(REFINE_PAYLOAD, seed=32))

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = proc.stdout.read()
        assert "journaled 1 queued job(s)" in output

        journal = os.path.join(store, "journal.jsonl")
        entries = [json.loads(line) for line in open(journal)]
        assert [e["payload"]["seed"] for e in entries] == [32]
        # the in-flight job finished during the drain and was stored
        assert len(ResultStore(store, writable=False)) == 1

        port2 = _free_port()
        proc2 = _start_daemon(port2, store)
        client2 = ServiceClient(f"http://127.0.0.1:{port2}", retries=8)
        try:
            jobs = client2.jobs()["jobs"]
            assert len(jobs) == 1  # the recovered submission
            done = client2.wait(jobs[0]["id"], timeout=90)
            assert done["status"] == "done"
            assert not os.path.exists(journal)
            # the drained job's payload is now a synchronous store hit
            hit = client2.submit(dict(REFINE_PAYLOAD, seed=31))
            assert hit["status"] == "done"
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()

    def test_daemon_survives_a_worker_kill_and_answers(self, tmp_path):
        store = str(tmp_path / "store")
        port = _free_port()
        proc = _start_daemon(port, store, {"kill_worker": {"phase": "engine",
                                                           "attempts": [0]}})
        client = ServiceClient(f"http://127.0.0.1:{port}", retries=8)
        try:
            job = client.submit(dict(REFINE_PAYLOAD, seed=41))
            done = client.wait(job["id"], timeout=90)
            assert done["status"] == "done"
            assert done["attempts"] == 2
            assert 'repro_worker_crashes_total{reason="crashed"} 1' \
                in client.metrics()
            assert client.health()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
