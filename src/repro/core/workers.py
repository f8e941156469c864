"""The worker-process runtime: the one way work crosses a process boundary.

A :class:`ProcessWorker` is a *persistent* child process plus the
parent-side handle that supervises it. The caller supplies the job
function; the child runs it in a loop -- receive a spec, call
``job(spec, emit)``, ship the return value back -- so repeated jobs keep
whatever warm state the job function caches per process (the compile
service's fabric cache, the native solver's compiled kernel), while a
segfaulting cffi call, an ``os._exit`` or a SIGKILL takes down *only*
that child. Two callers build on it: the compile service
(:mod:`repro.service.jobs`, one worker per pool thread, with retries,
backend demotion and in-thread degradation on top) and the batch sweep
(:mod:`repro.experiments.batch`, one worker per ``--jobs`` slot).

The parent detects death three ways and attributes it:

* ``crashed`` -- the process exited (nonzero exit code or a signal)
  while a job was in flight; the pipe reports EOF or the process stops
  being alive with nothing buffered.
* ``stalled`` -- the child's heartbeat thread (which beats only while a
  job is executing) went silent past the heartbeat timeout: the worker
  is wedged in a C-level loop that ignores everything short of SIGKILL.
* ``hard_timeout`` -- the job overran its deadline; the engine's own
  budget enforcement failed and the supervisor is the backstop.

In every death case the parent escalates through :func:`reap`
(terminate -> kill -> join, pipe closed) so nothing leaks, and the
*next* :meth:`ProcessWorker.ensure` call restarts a fresh child; the
crash carries :func:`describe_exit`'s attribution (``signal 9
(SIGKILL)``, ``exit 3``).

Around every job the child brackets the observability state that would
otherwise be lost with the process: it records spans when the spec asks
for tracing (``spec["traced"]``), runs under the spec's trace context
(``spec["job"]`` label, ``spec["trace_id"]``), captures its run-log
records (a child never writes the log file) and resets its metrics
registry so the result carries the job's delta. :meth:`ProcessWorker.run`
folds all three into the parent before returning.

Wire protocol (pickled tuples over one duplex pipe):

* parent -> child: ``("job", spec)`` and ``("stop",)``;
* child -> parent: ``("hb",)`` heartbeats, ``("event", payload)`` from
  the job's ``emit``, ``("prof", counts)`` sampling-profiler
  folded-stack deltas (shipped by the heartbeat thread while a job burns
  CPU), ``("done", value, trace_snapshot, log_records, metric_dump)``
  and ``("failed", message)`` -- a job *exception* is a failed job on a
  healthy worker, never a crash.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import logjson, metrics, profiler
from repro.obs import trace as obs_trace

#: per-stage join patience; two stages bound reap() at twice this
DEFAULT_REAP_GRACE_SECONDS = 5.0

#: child heartbeat period while a job is executing
HEARTBEAT_INTERVAL_SECONDS = 0.25

#: parent-side silence tolerance before a busy worker counts as stalled
DEFAULT_HEARTBEAT_TIMEOUT_SECONDS = 30.0

#: patience when stopping a worker gracefully
STOP_GRACE_SECONDS = 2.0

#: minimum spacing between a child's ("prof", ...) shipments
PROFILE_SHIP_INTERVAL_SECONDS = 1.0

#: a job function: ``job(spec, emit) -> value``; ``emit(payload)``
#: streams an event dict to the parent's ``on_event`` while the job runs
Job = Callable[[Dict[str, Any], Callable[[Dict[str, Any]], Any]], Any]

_in_worker = False


def describe_exit(exitcode: Optional[int]) -> str:
    """Human-readable form of a ``Process.exitcode``.

    ``multiprocessing`` encodes death-by-signal as a negative exit code;
    supervisors attribute crashes in events and logs with this
    (``signal 9 (SIGKILL)``, ``exit 3``, ``no exit code``).
    """
    if exitcode is None:
        return "no exit code"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = "?"
        return f"signal {-exitcode} ({name})"
    return f"exit {exitcode}"


def reap(
    process,
    connection=None,
    grace: float = DEFAULT_REAP_GRACE_SECONDS,
    terminate: bool = True,
) -> Optional[int]:
    """Bring a worker process down for certain; never hangs, never leaks.

    Escalation ladder: ``terminate()`` (skipped when ``terminate`` is
    False -- for workers that should just be joined), ``join(grace)``,
    and if the worker ignored SIGTERM (a worker stuck in a C-level loop
    does until it next returns to the interpreter), ``kill()`` followed
    by a final ``join(grace)``. ``connection`` (the parent's pipe end)
    is closed in all cases, including when a join raises. Returns the
    worker's exit code, or ``None`` if it survived even SIGKILL
    (kernel-stuck; nothing more can be done from here).
    """
    try:
        if terminate and process.is_alive():
            process.terminate()
        process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)
    finally:
        if connection is not None:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed by peer
                pass
    return process.exitcode


def in_worker_process() -> bool:
    """Whether this process is a :class:`ProcessWorker` child."""
    return _in_worker


class WorkerCrash(Exception):
    """The worker process died (or was put down) mid-job."""

    def __init__(self, reason: str, exitcode: Optional[int],
                 detail: str) -> None:
        super().__init__(f"{reason}: {detail} ({describe_exit(exitcode)})")
        self.reason = reason            # "crashed" | "stalled" | "hard_timeout"
        self.exitcode = exitcode
        self.detail = detail

    def describe(self) -> str:
        return describe_exit(self.exitcode)


class WorkerJobError(Exception):
    """The job raised inside a healthy worker (no retry, no restart)."""


class WorkerCancelled(Exception):
    """The job was cancelled mid-run; the worker was killed to stop it."""


class WorkerStartError(Exception):
    """The worker process could not be started."""


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _child_main(connection, job: Job, profile_interval: float) -> None:
    """Worker child entry point: the persistent job loop."""
    global _in_worker
    # a daemon installs SIGTERM/SIGINT drain handlers; a forked worker
    # must not inherit them or reap()'s terminate() would be ignored
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover - non-main thread
            pass
    _in_worker = True
    # continuous profiling: SIGPROF ticks only while this child burns
    # CPU, so an idle worker costs nothing; sample deltas ship back on
    # the heartbeat thread below
    if profile_interval > 0:
        profiler.start(profile_interval)
    send_lock = threading.Lock()
    working = threading.Event()
    done = threading.Event()
    prof_lock = threading.Lock()
    prof_last: Dict[str, int] = {}

    def send(message: Tuple) -> bool:
        try:
            with send_lock:
                connection.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False  # parent gone; the job loop exits on recv EOF

    def ship_prof() -> None:
        # deltas only ship while a job is in flight: that is when the
        # parent is actively draining the pipe (between jobs nobody
        # recvs and messages would pile up in the pipe buffer)
        if not profiler.running():
            return
        with prof_lock:
            counts = profiler.local_counts()
            delta = profiler.window(prof_last, counts)
            if delta and send(("prof", delta)):
                prof_last.clear()
                prof_last.update(counts)

    def beat() -> None:
        last_ship = time.monotonic()
        while not done.is_set():
            if working.is_set():
                if not send(("hb",)):
                    return
                now = time.monotonic()
                if now - last_ship >= PROFILE_SHIP_INTERVAL_SECONDS:
                    ship_prof()
                    last_ship = now
            time.sleep(HEARTBEAT_INTERVAL_SECONDS)

    threading.Thread(target=beat, name="repro-worker-heartbeat",
                     daemon=True).start()
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "stop":
                break
            if message[0] != "job":
                continue
            working.set()
            try:
                reply = _run_job(job, message[1],
                                 lambda payload: send(("event", payload)))
                ship_prof()  # the tail of this job's samples
                send(("done",) + reply)
            except BaseException as exc:  # noqa: BLE001 - report, parent decides
                logjson.capture_end()  # discard the aborted run's capture
                obs_trace.pop_trace()
                send(("failed", repr(exc)))
            finally:
                working.clear()
    finally:
        done.set()
        try:
            connection.close()
        except OSError:
            pass
    os._exit(0)


def _run_job(job: Job, spec: Dict[str, Any],
             emit: Callable[[Dict[str, Any]], Any]) -> Tuple:
    """One job in this child: ``(value, snapshot, log_records, metric_dump)``."""
    traced = bool(spec.get("traced"))
    if traced:
        # shed any fork-inherited buffer/stack state; this child's spans
        # ship back with the result and re-root under the parent's span
        # on ingest
        obs_trace.reset()
        obs_trace.enable()
    # the job's trace context: every span and captured log record this
    # child produces joins it (a supervisor that retries a job sends the
    # same trace_id on every attempt)
    obs_trace.push_trace(str(spec.get("job") or ""),
                         str(spec.get("trace_id") or ""))
    logjson.capture_begin()
    # per-job metric delta: cleared here, dumped with the result, folded
    # into the parent registry by ProcessWorker.run
    metrics.reset()
    value = job(spec, emit)
    snapshot = obs_trace.snapshot() if traced else None
    log_records = logjson.capture_end()
    obs_trace.pop_trace()  # the persistent child reuses this thread
    return value, snapshot, log_records, metrics.dump()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class ProcessWorker:
    """Parent-side handle: one supervised, restartable worker process."""

    def __init__(
        self,
        job: Job,
        index: int = 0,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT_SECONDS,
        profile_interval: float = 0.0,
    ) -> None:
        self.job = job
        self.index = index
        self.heartbeat_timeout = heartbeat_timeout
        self.profile_interval = profile_interval
        self._process = None
        self._connection = None
        self._spawned = 0  # lifetime process count

    # ------------------------------------------------------------------ #
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def ensure(self) -> str:
        """Start (or restart) the child if needed.

        Returns ``"alive"``, ``"started"`` or ``"restarted"``; raises
        :class:`WorkerStartError` when the OS refuses -- the signal the
        service uses to declare the pool unhealthy and degrade.
        """
        if self.alive():
            return "alive"
        self._put_down()
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        # daemonic: a parent that exits without stop() takes its workers
        # along (an orphan would also exit once the pipe reports EOF)
        process = multiprocessing.Process(
            target=_child_main,
            args=(child_conn, self.job, self.profile_interval),
            name=f"repro-worker-{self.index}",
            daemon=True,
        )
        try:
            process.start()
        except (OSError, ValueError) as exc:
            for end in (parent_conn, child_conn):
                end.close()
            raise WorkerStartError(
                f"worker {self.index} failed to start: {exc!r}") from exc
        child_conn.close()
        self._process, self._connection = process, parent_conn
        self._spawned += 1
        return "started" if self._spawned == 1 else "restarted"

    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: Dict[str, Any],
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        deadline_seconds: float = 60.0,
        cancelled: Optional[Callable[[], bool]] = None,
        parent_span_id: int = 0,
        trace: Optional[str] = None,
        trace_id: Optional[str] = None,
        log_fields: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Run one job in the child; returns the job function's value.

        Before returning, the child's telemetry is folded into this
        process: its metrics delta is merged into the registry, its span
        snapshot (traced specs only) is ingested under
        ``parent_span_id`` and re-stamped with ``trace``/``trace_id``,
        and its captured run-log records are emitted with ``log_fields``
        added. The span id and label are explicit because span parenting
        is per thread and the caller may run this on a pool thread.

        Raises :class:`WorkerCrash` (child died / stalled / overran the
        hard deadline -- the child is already reaped),
        :class:`WorkerJobError` (the job raised in a healthy child) or
        :class:`WorkerCancelled` (``cancelled()`` went true; the child
        was killed to stop the job).
        """
        if not self.alive():
            raise WorkerCrash("crashed", self._exitcode(),
                              "worker not running at dispatch")
        connection = self._connection
        try:
            connection.send(("job", spec))
        except (BrokenPipeError, OSError):
            raise WorkerCrash("crashed", self._put_down(),
                              "pipe closed at dispatch") from None

        deadline = time.monotonic() + deadline_seconds
        last_beat = time.monotonic()
        while True:
            try:
                ready = connection.poll(0.05)
            except (BrokenPipeError, OSError):
                raise WorkerCrash("crashed", self._put_down(),
                                  "pipe error mid-job") from None
            if ready:
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise WorkerCrash("crashed", self._put_down(),
                                      "worker died mid-job") from None
                last_beat = time.monotonic()
                kind = message[0]
                if kind == "event":
                    if on_event is not None:
                        on_event(message[1])
                elif kind == "prof":
                    # folded-stack sample delta from the child's
                    # continuous profiler; fold into this process's
                    # merged aggregate (served by /v1/debug/profile)
                    merged = profiler.merge(message[1])
                    if merged:
                        metrics.inc("repro_profile_samples_total",
                                    float(merged))
                elif kind == "done":
                    _, value, snapshot, log_records, metric_dump = message
                    metrics.merge_dump(metric_dump)
                    obs_trace.ingest(snapshot, parent_span_id=parent_span_id,
                                     trace=trace, trace_id=trace_id)
                    for record in log_records:
                        logjson.emit(dict(record, **(log_fields or {})))
                    return value
                elif kind == "failed":
                    raise WorkerJobError(str(message[1]))
                # "hb" and anything unknown: liveness only
            elif not self.alive():
                if connection.poll(0):
                    continue  # final messages still buffered; drain them
                raise WorkerCrash("crashed", self._put_down(),
                                  "worker process died mid-job")
            if cancelled is not None and cancelled():
                self._put_down()
                raise WorkerCancelled()
            now = time.monotonic()
            if now > deadline:
                raise WorkerCrash(
                    "hard_timeout", self._put_down(),
                    f"exceeded the {deadline_seconds:.1f}s hard deadline")
            if now - last_beat > self.heartbeat_timeout:
                raise WorkerCrash(
                    "stalled", self._put_down(),
                    f"no heartbeat for {self.heartbeat_timeout:.1f}s")

    # ------------------------------------------------------------------ #
    def _exitcode(self) -> Optional[int]:
        return self._process.exitcode if self._process is not None else None

    def _put_down(self) -> Optional[int]:
        """Reap the child (terminate -> kill -> join) and drop the handle."""
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if process is None:
            return None
        return reap(process, connection)

    def stop(self) -> None:
        """Graceful shutdown: ask the child to exit, then make sure."""
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if process is None:
            return
        try:
            connection.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout=STOP_GRACE_SECONDS)
        reap(process, connection, grace=STOP_GRACE_SECONDS)
