"""Request model, job lifecycle and the worker pool of the compile service.

A request reaches the service as a JSON payload (see
:meth:`MapRequest.from_payload` for the schema) naming its kernel by one
of three sources -- frontend ``kernel`` source text, a serialized ``dfg``,
or a bundled ``benchmark`` name -- plus the mapping knobs every other
entry point in the project exposes (fabric, approach, opt level, seed,
budget). The SAT solver tier is not a request knob: workers run the C
kernel when it loads, else arena.

Submitting a request first derives its **store key**
(:meth:`MapRequest.store_record` -> :func:`repro.service.store.content_key`):
if the content-addressed store already holds a result for that exact
configuration, the job is born ``done`` with ``cache == "hit"`` and the
stored result -- no engine runs, no queue wait. Otherwise the job enters a
priority queue consumed by a pool of worker threads; each worker keeps a
*warm fabric cache* (constructed :class:`~repro.arch.cgra.CGRA` objects
keyed by fabric content) so repeated requests against the same fabric
skip re-construction.

Progress is a list of JSON events per job (``submitted``, ``started``,
``improvement`` best-so-far records from the heuristic engine's anytime
callback, ``done``/``failed``/``cancelled``), observable live through
:meth:`MappingService.stream_events` -- the backing iterator of the HTTP
layer's ``GET /v1/jobs/<id>/events``. Improvement events are persisted
with the result, so a cache hit replays the same stream the original
computation produced.

**Fault tolerance.** Each job runs in a crash-isolated worker *process*
(a :class:`repro.core.workers.ProcessWorker` running :func:`run_request`)
supervised by its worker thread: a worker that dies (signal, nonzero
exit, stalled heartbeat) is restarted and the job requeued with a
bounded retry budget and exponential backoff, the crash attributed in
the job's event stream (``worker_crashed``/``retrying``), counters and
the run log. A job whose SAT engine crashes the worker repeatedly on
the detected (native) tier is demoted to the ``arena`` kernel before
giving up; if worker processes cannot be started at all the service
*degrades*: the worker thread calls the same :func:`run_request` itself, and
``/healthz`` says so. Draining (:meth:`MappingService.drain`) rejects new
submissions with :class:`ServiceUnavailable`, finishes in-flight work,
and checkpoints still-queued payloads to a journal next to the store
that :meth:`MappingService.recover_journal` resubmits on restart.
"""

from __future__ import annotations

import json
import math
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.cgra import CGRA
from repro.arch.spec import ArchSpec, preset_names, resolve_arch
from repro.core import workers
from repro.core.engine import create_engine, normalize_engine
from repro.experiments.runner import parse_size
from repro.graphs.dfg import DFG
from repro.obs import logjson, metrics, profiler
from repro.obs import trace as obs_trace
from repro.service.store import ResultStore, content_key, scan_jsonl

#: statuses a job can be in; terminal ones never change again
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_JOURNALED = "journaled"  # checkpointed by a drain; resubmitted on restart
TERMINAL_STATUSES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_JOURNALED)

#: result statuses worth persisting: deterministic facts about the
#: configuration. Timeouts are *not* cached -- they describe the budget
#: and the machine load, not the kernel.
CACHEABLE_STATUSES = ("success", "no_solution", "infeasible")

#: supervised-retry policy: a crashed/stalled attempt is requeued at most
#: this many times (hard_timeout is never retried -- a second full budget
#: would be burned the same way), with exponentially growing backoff
DEFAULT_MAX_RETRIES = 2
RETRY_BACKOFF_BASE_SECONDS = 0.25
RETRY_BACKOFF_CAP_SECONDS = 5.0

#: graceful degradation: after this many crashes of one job on the native
#: solver tier, retry it on arena; the store key is unchanged because the
#: tiers are bit-identical
DEMOTE_AFTER_CRASHES = 2

#: slack on top of a job's budget before the supervisor declares the
#: engine's own budget enforcement failed and puts the worker down
DEFAULT_HARD_DEADLINE_GRACE_SECONDS = 30.0

#: frontend memo: the DFGs of this many recent kernel sources, keyed on
#: the exact source text, so a repeat submission (a store hit, or a
#: worker re-validating its job) skips the lexer and parser
FRONTEND_MEMO_SIZE = 64
_frontend_memo: "OrderedDict[str, DFG]" = OrderedDict()
_frontend_memo_lock = threading.Lock()


def _kernel_dfg(source: str) -> DFG:
    """The DFG of kernel source text: a fresh copy on every call.

    The memo keeps a DFG it never hands out, so a caller mutating its
    copy cannot change what the next identical request sees. Frontend
    errors propagate and are not memoized.
    """
    with _frontend_memo_lock:
        dfg = _frontend_memo.get(source)
        if dfg is not None:
            _frontend_memo.move_to_end(source)
    if dfg is None:
        from repro.frontend import extract_dfg

        dfg = extract_dfg(source, name="service_kernel").dfg
        with _frontend_memo_lock:
            _frontend_memo[source] = dfg
            while len(_frontend_memo) > FRONTEND_MEMO_SIZE:
                _frontend_memo.popitem(last=False)
    return dfg.copy()


class RequestError(ValueError):
    """A malformed or unserviceable request payload (HTTP 400)."""


class ServiceUnavailable(RuntimeError):
    """The service is draining or shut down and not accepting new jobs
    (HTTP 503)."""

    def __init__(self, message: str, retry_after: int = 5) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class MapRequest:
    """A validated mapping request, ready for a worker.

    ``fabric_record`` / ``dfg`` are canonical content (not spellings):
    two payloads that describe the same kernel and fabric produce equal
    :meth:`store_record` dicts and therefore the same store key.
    """

    dfg: DFG
    source_kind: str                      # "kernel" | "dfg" | "benchmark"
    cgra_size: str
    arch: Optional[str]                   # preset name, or None
    arch_spec: Optional[ArchSpec]         # inline spec, if one was sent
    approach: str                         # canonical engine name
    opt_level: int
    opt_passes: Optional[Tuple[str, ...]]
    seed: Optional[int]                   # resolved; exact engines: None
    budget_seconds: float
    priority: int
    strategy: str                         # heuristic II sweep direction

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, object],
        default_budget_seconds: float = 30.0,
        max_budget_seconds: float = 300.0,
    ) -> "MapRequest":
        """Validate a JSON payload into a request; raises RequestError.

        Payload schema (one source field is required, everything else is
        optional)::

            {"kernel": "<frontend source>",   # exactly one of these
             "dfg": {...},                    # DFG.to_dict() shape
             "benchmark": "crc32",
             "cgra": "4x4",
             "arch": "<preset name>",         # or:
             "arch_spec": {...},              # inline ArchSpec JSON
             "approach": "monomorphism",      # any engine alias
             "opt_level": "O2", "opt_passes": ["cse", ...],
             "seed": 7,
             "budget_seconds": 30.0,
             "priority": 0,
             "strategy": "ascend"}            # or "refine" (streaming)
        """
        if not isinstance(payload, dict):
            raise RequestError("payload must be a JSON object")
        sources = [k for k in ("kernel", "dfg", "benchmark") if k in payload]
        if len(sources) != 1:
            raise RequestError(
                "exactly one of 'kernel', 'dfg' or 'benchmark' is required")
        source_kind = sources[0]
        try:
            if source_kind == "kernel":
                dfg = _kernel_dfg(str(payload["kernel"]))
            elif source_kind == "dfg":
                if not isinstance(payload["dfg"], dict):
                    raise RequestError("'dfg' must be a JSON object")
                dfg = DFG.from_dict(payload["dfg"])
                dfg.validate()
            else:
                from repro.workloads.suite import load_benchmark

                dfg = load_benchmark(str(payload["benchmark"]))
        except RequestError:
            raise
        except KeyError as exc:
            raise RequestError(
                f"unknown benchmark {payload.get('benchmark')!r}") from exc
        except Exception as exc:  # lexer/parser/graph errors: bad payload
            raise RequestError(f"invalid {source_kind}: {exc}") from exc

        size = str(payload.get("cgra", "4x4"))
        try:
            parse_size(size)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc

        arch = payload.get("arch")
        arch_spec: Optional[ArchSpec] = None
        if arch is not None and "arch_spec" in payload:
            raise RequestError("'arch' and 'arch_spec' are exclusive")
        if arch is not None:
            arch = str(arch)
            if arch not in preset_names():
                raise RequestError(
                    f"unknown arch preset {arch!r}; inline fabrics go in "
                    "'arch_spec'")
        if "arch_spec" in payload:
            try:
                arch_spec = ArchSpec.from_json(json.dumps(payload["arch_spec"]))
            except Exception as exc:
                raise RequestError(f"invalid arch_spec: {exc}") from exc

        try:
            approach = normalize_engine(str(payload.get("approach",
                                                        "monomorphism")))
        except ValueError as exc:
            raise RequestError(str(exc)) from exc

        from repro.opt.pipeline import parse_opt_level

        try:
            opt_level = parse_opt_level(payload.get("opt_level", 0))
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        opt_passes = payload.get("opt_passes")
        if opt_passes is not None:
            if (not isinstance(opt_passes, (list, tuple))
                    or not all(isinstance(p, str) for p in opt_passes)):
                raise RequestError("'opt_passes' must be a list of names")
            from repro.opt.passes import make_pass

            try:
                for name in opt_passes:
                    make_pass(name)
            except ValueError as exc:
                raise RequestError(str(exc)) from exc
            opt_passes = tuple(opt_passes)

        if "solver_backend" in payload:
            raise RequestError(
                f"'solver_backend' is not accepted (got "
                f"{payload['solver_backend']!r}): the SAT solver tier is "
                "chosen automatically")

        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise RequestError("'seed' must be an integer")
        if approach in ("heuristic", "portfolio"):
            from repro.heuristic.engine import resolve_seed

            seed = resolve_seed(seed)
        else:
            seed = None  # exact engines are deterministic

        try:
            budget = float(payload.get("budget_seconds",
                                       default_budget_seconds))
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a JSON integer beyond the float range
            raise RequestError("'budget_seconds' must be a number") from exc
        # NaN would pass ``<= 0`` and void every deadline derived from it
        if not math.isfinite(budget) or budget <= 0:
            raise RequestError("'budget_seconds' must be finite and positive")
        budget = min(budget, max_budget_seconds)

        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise RequestError("'priority' must be an integer")

        strategy = str(payload.get("strategy", "ascend"))
        if strategy not in ("ascend", "refine"):
            raise RequestError(
                f"unknown strategy {strategy!r}; expected 'ascend' or "
                "'refine'")

        return cls(
            dfg=dfg, source_kind=source_kind, cgra_size=size,
            arch=arch, arch_spec=arch_spec, approach=approach,
            opt_level=opt_level, opt_passes=opt_passes, seed=seed,
            budget_seconds=budget, priority=priority, strategy=strategy,
        )

    # ------------------------------------------------------------------ #
    def resolved_spec(self) -> Optional[ArchSpec]:
        """The declarative fabric of this request (None = plain torus)."""
        if self.arch_spec is not None:
            return self.arch_spec
        if self.arch is not None:
            rows, cols = parse_size(self.cgra_size)
            return resolve_arch(self.arch, rows, cols)
        return None

    def fabric_record(self) -> Dict[str, object]:
        """Canonical fabric content for the store key and fabric cache."""
        spec = self.resolved_spec()
        if spec is None:
            return {"size": self.cgra_size, "topology": "torus"}
        return json.loads(spec.to_json())

    def build_cgra(self) -> CGRA:
        spec = self.resolved_spec()
        if spec is None:
            rows, cols = parse_size(self.cgra_size)
            return CGRA(rows, cols)
        return spec.build()

    def store_record(self) -> Dict[str, object]:
        """The configuration record whose content hash keys the store.

        Key derivation contract (see :mod:`repro.service.store`): the
        record holds canonical *content*, never spellings -- the DFG's
        serialized structure (so a kernel submitted as source and the
        same kernel submitted as a serialized DFG share a key), the
        resolved fabric, the canonical engine name, and exactly the
        knobs that can change the result (opt pipeline, resolved seed
        and budget for the stochastic engines, sweep strategy).
        Spellings, priorities and transport details stay out; so does the
        SAT tier, which never changes a result.
        """
        record: Dict[str, object] = {
            "dfg_sha": content_key(self.dfg.to_dict()),
            "fabric": self.fabric_record(),
            "approach": self.approach,
        }
        if self.opt_level:
            record["opt_level"] = self.opt_level
        if self.opt_passes:
            record["opt_passes"] = list(self.opt_passes)
        if self.seed is not None:
            record["seed"] = self.seed
        if self.approach in ("heuristic", "portfolio"):
            # budget and sweep direction shape the stochastic engines'
            # results; the exact engines' outcome is budget-independent
            # (timeouts are never cached)
            record["budget_seconds"] = self.budget_seconds
            record["strategy"] = self.strategy
        return record

    def describe(self) -> Dict[str, object]:
        """A JSON summary for job views and stored provenance."""
        return {
            "source": self.source_kind,
            "dfg_name": self.dfg.name,
            "nodes": self.dfg.num_nodes,
            "cgra": self.cgra_size,
            "arch": self.arch or ("inline" if self.arch_spec else None),
            "approach": self.approach,
            "opt_level": self.opt_level,
            "opt_passes": list(self.opt_passes) if self.opt_passes else None,
            "seed": self.seed,
            "budget_seconds": self.budget_seconds,
            "priority": self.priority,
            "strategy": self.strategy,
        }


@dataclass
class Job:
    """One submitted request and everything that happened to it."""

    id: str
    request: MapRequest
    key: str
    #: distributed trace context: minted at submission (or adopted from
    #: the client's ``traceparent`` header) and *stable across retries*,
    #: so a crash-restart-retry sequence stays one trace
    trace_id: str = ""
    parent_span_id: int = 0
    status: str = JOB_QUEUED
    cache: str = "miss"
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    events: List[Dict[str, object]] = field(default_factory=list)
    cancel_requested: bool = False
    #: the raw submitted payload, kept for the drain journal and so a
    #: retried attempt re-validates exactly what the client sent
    payload: Optional[Dict[str, object]] = None
    #: supervised execution bookkeeping (process mode)
    attempts: int = 0
    crashes: int = 0
    #: SAT backend the job runs on: the detected tier, or "arena" after
    #: a crash demotion (the kernels are bit-identical: same store key)
    effective_backend: str = "native"
    cond: threading.Condition = field(default_factory=threading.Condition,
                                      repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def view(self, include_result: bool = True) -> Dict[str, object]:
        view: Dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "trace_id": self.trace_id,
            "status": self.status,
            "cache": self.cache,
            "request": self.request.describe(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "num_events": len(self.events),
            "attempts": self.attempts,
        }
        if self.crashes or self.attempts > 1:
            view["crashes"] = self.crashes
        if self.effective_backend != "native":
            view["effective_backend"] = self.effective_backend
        if self.error is not None:
            view["error"] = self.error
        if include_result and self.result is not None:
            view["result"] = self.result
        return view


def result_record(result) -> Dict[str, object]:
    """Flatten a :class:`~repro.core.mapper.MappingResult` to JSON.

    ``engine_seconds`` is the engine's own clock of the computation, its
    ``total_seconds``, whose layer split is ``stats["seconds"]`` -- on a
    cache hit it is reported as stored, so a client can always see what
    the computation originally cost, while the job's own
    ``started``/``finished`` stamps show the (near-zero) serve time.
    """
    mapping = result.mapping
    return {
        "status": result.status.value,
        "ii": result.ii,
        "mii": result.mii,
        "res_ii": result.res_ii,
        "rec_ii": result.rec_ii,
        "time_phase_seconds": result.time_phase_seconds,
        "space_phase_seconds": result.space_phase_seconds,
        "total_seconds": result.total_seconds,
        "opt_seconds": result.opt_seconds,
        "schedules_tried": result.schedules_tried,
        "iis_tried": result.iis_tried,
        "message": result.message,
        "stats": result.stats,
        "mapping": mapping.to_dict() if mapping is not None else None,
        "engine_seconds": result.total_seconds,
        "events": [],
    }


#: warm fabric cache of the thread running :func:`run_request` (in a
#: worker process that is always its main thread)
_local = threading.local()


def run_request(spec: Dict[str, object],
                emit: Callable[[Dict[str, object]], object],
                ) -> Dict[str, object]:
    """The service's job function: map one job spec, return its record.

    Runs inside a :class:`~repro.core.workers.ProcessWorker` child, or
    in the worker thread itself while the pool is degraded. The spec
    carries the raw payload (re-validated here) plus the supervision-time
    overrides: the solver backend (``"arena"`` once repeated crashes
    demoted the job), and the seed and budget resolved once at submission.
    Fabrics are cached per thread by canonical content, so repeated
    requests against one fabric skip CGRA/MRRG construction. The record
    carries no improvement events: ``emit`` streamed them live and the
    supervisor re-attaches its timestamped copies.
    """
    request = MapRequest.from_payload(
        spec["payload"],
        default_budget_seconds=float(spec["default_budget_seconds"]),
        max_budget_seconds=float(spec["max_budget_seconds"]),
    )
    budget = float(spec["budget_seconds"])

    fabrics = getattr(_local, "fabrics", None)
    if fabrics is None:
        fabrics = _local.fabrics = {}
    fabric_key = content_key(request.fabric_record())
    cgra = fabrics.get(fabric_key)
    warm = cgra is not None
    if not warm:
        cgra = fabrics[fabric_key] = request.build_cgra()
    emit({
        "event": "started",
        "worker": spec["worker"],
        "mode": "process" if workers.in_worker_process() else "degraded",
        "pid": os.getpid(),
        "warm_fabric": warm,
        "attempt": spec["attempt"],
    })
    engine = create_engine(
        request.approach,
        cgra,
        budget_seconds=budget,
        seed=spec["seed"],
        opt_level=request.opt_level,
        opt_passes=request.opt_passes,
        solver_backend=spec["solver_backend"],
        strategy=request.strategy,
        on_event=emit,
        # a traced job's solver:<tier> spans carry each solve's
        # propagate/analyze/reduce seconds
        profile=bool(spec["traced"]),
    )
    return result_record(engine.map(request.dfg))


def _read_journal(path: str) -> List[Dict[str, object]]:
    """The entries of a drain journal, in file order.

    The one reader of the journal, shared by a drain merging an earlier
    journal and by recovery. A line that is not a JSON object with an
    object ``payload`` (torn, not UTF-8, another shape) is left out with
    a ``journal_skip`` record; blank lines are ignored.
    """
    entries = []
    for number, (line, entry) in enumerate(scan_jsonl(path), 1):
        if entry is not None and isinstance(entry.get("payload"), dict):
            entries.append(entry)
        elif line.strip():
            logjson.log("journal_skip", path=path, line=number,
                        entry=(entry or {}).get("id"),
                        error="not a JSON object with an object payload")
    return entries


class MappingService:
    """The compile service: store-first answers, then the worker pool.

    Thread-safe; the HTTP layer calls it from handler threads and the
    worker pool mutates jobs from worker threads. When ``store_path`` is
    ``None`` results are still content-addressed, but only in memory for
    the lifetime of the service.
    """

    def __init__(
        self,
        store_path: Optional[str] = None,
        workers: int = 2,
        default_budget_seconds: float = 30.0,
        max_budget_seconds: float = 300.0,
        trace_dir: Optional[str] = None,
        execution: str = "process",
        max_retries: int = DEFAULT_MAX_RETRIES,
        heartbeat_timeout_seconds: float =
            workers.DEFAULT_HEARTBEAT_TIMEOUT_SECONDS,
        hard_deadline_grace_seconds: float =
            DEFAULT_HARD_DEADLINE_GRACE_SECONDS,
        profile_interval_seconds: float =
            profiler.DEFAULT_INTERVAL_SECONDS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if execution != "process":
            # jobs always run in supervised worker processes; in-thread
            # execution is only the degraded fallback, never a mode
            raise ValueError(
                f"unknown execution mode {execution!r}; expected 'process'")
        self.store = (ResultStore(store_path, header={"writer": "repro-serve"})
                      if store_path else None)
        self._memory_cache: Dict[str, Dict[str, object]] = {}
        self.default_budget_seconds = default_budget_seconds
        self.max_budget_seconds = max_budget_seconds
        self.execution = execution
        self.max_retries = max(int(max_retries), 0)
        self.heartbeat_timeout_seconds = heartbeat_timeout_seconds
        self.hard_deadline_grace_seconds = hard_deadline_grace_seconds
        #: sampling period for the workers' continuous profiler
        #: (0 disables sampling entirely)
        self.profile_interval_seconds = max(profile_interval_seconds, 0.0)
        self._degraded = False
        self._draining = threading.Event()
        # per-job tracing: enabling the tracer here makes every worker's
        # spans recordable; each job's slice is exported (and removed from
        # the buffer) as <trace_dir>/<job_id>.json when the job finishes
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            obs_trace.enable()
        self.started_at = time.time()
        # event timestamps are anchored once to the wall clock and then
        # advanced by the monotonic clock, so streamed `ts` fields are
        # ordered even across NTP steps (see _now)
        self._mono_start = time.monotonic()
        self.jobs: Dict[str, Job] = {}
        self.counters = {
            "submitted": 0,
            "engine_runs": 0,
            "cache_hits": 0,
            "failed": 0,
            "cancelled": 0,
            "fabric_cache_hits": 0,
            "worker_crashes": 0,
            "worker_restarts": 0,
            "retries": 0,
            "demotions": 0,
            "journaled": 0,
            "recovered": 0,
        }
        self._lock = threading.Lock()
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = 0
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(index,),
                             name=f"repro-serve-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Submission / lookup
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        """Monotonic-anchored wall-clock time for event ``ts`` stamps.

        The wall clock is read once at service start; afterwards time
        advances by ``time.monotonic()`` deltas, so streamed event
        timestamps are strictly ordered even if the system clock steps.
        """
        return self.started_at + (time.monotonic() - self._mono_start)

    def _store_get(self, key: str) -> Optional[Dict[str, object]]:
        found = None
        with self._lock:
            if key in self._memory_cache:
                found = self._memory_cache[key]
            elif self.store is not None:
                record = self.store.get(key)
                if record is not None:
                    result = record.get("result")
                    found = result if isinstance(result, dict) else None
        if found is not None:
            metrics.inc("repro_store_hits_total")
        else:
            metrics.inc("repro_store_misses_total")
        return found

    def _store_put(self, key: str, request: MapRequest,
                   result: Dict[str, object]) -> None:
        with self._lock:
            self._memory_cache[key] = result
            if self.store is not None:
                self.store.put(key, {
                    "request": {**request.describe(),
                                "record": request.store_record()},
                    "result": result,
                })

    def _append_event(self, job: Job, payload: Dict[str, object]) -> None:
        # every streamed NDJSON event carries the job's trace id; replayed
        # cache-hit events are re-stamped with the *new* job's context
        with job.cond:
            job.events.append(dict(payload, ts=round(self._now(), 3),
                                   trace_id=job.trace_id))
            job.cond.notify_all()

    def _finish(self, job: Job, status: str,
                result: Optional[Dict[str, object]] = None,
                error: Optional[str] = None) -> None:
        final_event = {"event": status}
        if result is not None:
            final_event["ii"] = result.get("ii")
            final_event["status"] = result.get("status")
        if error is not None:
            final_event["error"] = error
        with job.cond:
            job.status = status
            job.result = result
            job.error = error
            job.finished = self._now()
            job.events.append(dict(final_event, ts=round(job.finished, 3),
                                   trace_id=job.trace_id))
            job.cond.notify_all()
        metrics.inc("repro_service_jobs_total",
                    status="hit" if job.cache == "hit" else status)
        logjson.log(
            "job",
            job=job.id,
            key=job.key,
            status=status,
            cache=job.cache,
            approach=job.request.approach,
            error=error,
            ii=result.get("ii") if result else None,
            trace=job.id if self.trace_dir is not None else None,
            trace_id=job.trace_id or None,
        )

    def submit(self, payload: Dict[str, object],
               traceparent: Optional[str] = None) -> Job:
        """Validate, answer from the store if possible, else enqueue.

        ``traceparent`` is the client's W3C-style trace context header,
        if one arrived: its trace id is adopted for the job (a malformed
        or absent header mints a fresh one), so client-side spans and
        everything the service records share one ``trace_id``.

        Raises :class:`ServiceUnavailable` while the service drains or
        once it is shut down (no worker would ever run the job) -- the
        HTTP layer answers 503 with a ``Retry-After`` so well-behaved
        clients come back after the restart.
        """
        if self._draining.is_set():
            raise ServiceUnavailable(
                "service is draining; not accepting new jobs")
        if self._stop.is_set():
            raise ServiceUnavailable(
                "service is shut down; not accepting new jobs")
        handler_started = time.monotonic()
        context = obs_trace.parse_traceparent(traceparent)
        trace_id, parent_span = context if context else \
            (obs_trace.new_trace_id(), 0)
        request = MapRequest.from_payload(
            payload,
            default_budget_seconds=self.default_budget_seconds,
            max_budget_seconds=self.max_budget_seconds,
        )
        key = content_key(request.store_record())
        with self._lock:
            self._seq += 1
            job = Job(id=f"j{self._seq:06d}", request=request, key=key,
                      trace_id=trace_id, parent_span_id=parent_span,
                      payload=dict(payload))
            self.jobs[job.id] = job
            self.counters["submitted"] += 1
        if self.trace_dir is not None:
            # the validation/submission slice of the HTTP handler, tagged
            # with the job id so the per-job export captures it (the span
            # is synthesized *before* the job can finish, so the export
            # never races it)
            obs_trace.push_trace(job.id, job.trace_id)
            obs_trace.add_complete(
                "http.handler", handler_started,
                time.monotonic() - handler_started,
                parent=0, route="POST /v1/jobs", job=job.id,
                **({"remote_parent": "%016x" % parent_span}
                   if parent_span else {}),
            )
            obs_trace.pop_trace()
        logjson.log(
            "request",
            job=job.id,
            key=key,
            trace_id=job.trace_id,
            approach=request.approach,
            source=request.source_kind,
            cgra=request.cgra_size,
            priority=request.priority,
        )
        self._append_event(job, {"event": "submitted", "key": key})

        stored = self._store_get(key)
        if stored is not None:
            with self._lock:
                self.counters["cache_hits"] += 1
            job.cache = "hit"
            job.started = self._now()
            self._append_event(job, {"event": "cache_hit"})
            # replay the improvement stream the original computation
            # produced, so streaming clients see the same shape
            for event in stored.get("events", ()):
                self._append_event(job, event)
            self._finish(job, JOB_DONE, result=dict(stored, cached=True))
            return job

        self._queue.put((-request.priority, self._seq, job.id))
        metrics.set_gauge("repro_service_queue_depth", self._queue.qsize())
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError as exc:
            raise KeyError(f"unknown job {job_id!r}") from exc

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs die before starting, running
        heuristic jobs abort at their next improvement callback."""
        job = self.get(job_id)
        with job.cond:
            job.cancel_requested = True
        if job.status == JOB_QUEUED:
            # the worker loop observes the flag when it pops the job;
            # nothing else to do -- the job is not running anywhere
            pass
        return job

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #
    def _worker_loop(self, index: int) -> None:
        # each worker thread owns one persistent child process (whose
        # warm fabric cache persists across jobs) and supervises it
        worker = workers.ProcessWorker(
            run_request, index=index,
            heartbeat_timeout=self.heartbeat_timeout_seconds,
            profile_interval=self.profile_interval_seconds)
        while not self._stop.is_set():
            if self._draining.is_set():
                # draining: leave queued jobs for the journal
                time.sleep(0.05)
                continue
            try:
                _, _, job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self.jobs[job_id]
            metrics.set_gauge("repro_service_queue_depth",
                              self._queue.qsize())
            if job.cancel_requested:
                with self._lock:
                    self.counters["cancelled"] += 1
                self._finish(job, JOB_CANCELLED)
                continue
            if job.terminal:
                continue  # journaled by a drain while still queued
            self._run_job(job, index, worker)
        worker.stop()

    def _export_trace(self, job: Job) -> None:
        """Write the job's merged span slice as Chrome trace JSON."""
        snap = obs_trace.snapshot(trace=job.id, clear=True)
        if not snap["events"]:
            return
        path = os.path.join(self.trace_dir, f"{job.id}.json")
        try:
            count = obs_trace.write_chrome_trace(path, snap=snap)
        except OSError as exc:
            logjson.log("trace_warning", job=job.id, error=repr(exc))
            return
        logjson.log("trace_export", job=job.id, path=path, spans=count)

    def _run_job(self, job: Job, worker_index: int,
                 worker: workers.ProcessWorker) -> None:
        tracing = self.trace_dir is not None
        # the label/trace-id frame is pushed even when span recording is
        # off: run-log records written anywhere under this job (engine
        # hooks on the degraded path, store warnings) pick up the job id
        # and trace id from the thread's context
        obs_trace.push_trace(job.id, job.trace_id)
        try:
            with obs_trace.span("worker.run", job=job.id,
                                worker=worker_index) as run_span:
                self._supervise(job, worker_index, worker,
                                parent_span_id=getattr(run_span, "span_id",
                                                       0))
        finally:
            obs_trace.pop_trace()
            if tracing:
                self._export_trace(job)

    # ------------------------------------------------------------------ #
    # Process execution: supervision, retries, demotion, degradation
    # ------------------------------------------------------------------ #
    def _enter_degraded(self, reason: str) -> None:
        """Mark the process pool unhealthy; jobs fall back in-thread."""
        if self._degraded:
            return
        self._degraded = True
        metrics.set_gauge("repro_service_degraded", 1)
        logjson.log("service_degraded", reason=reason)

    def _handle_crash(self, job: Job, crash: workers.WorkerCrash,
                      attempt: int) -> bool:
        """Account a worker death; True if the job should be retried."""
        metrics.inc("repro_worker_crashes_total", reason=crash.reason)
        with self._lock:
            self.counters["worker_crashes"] += 1
        job.crashes += 1
        self._append_event(job, {
            "event": "worker_crashed",
            "reason": crash.reason,
            "attempt": attempt,
            "exit": crash.describe(),
            "detail": crash.detail,
        })
        logjson.log("worker_crash", job=job.id, trace_id=job.trace_id or None,
                    reason=crash.reason, attempt=attempt,
                    exit=crash.describe(), detail=crash.detail)
        if crash.reason == "hard_timeout":
            # the engine's own budget enforcement failed; a retry would
            # burn another full budget the same way
            with self._lock:
                self.counters["failed"] += 1
            self._finish(job, JOB_FAILED,
                         error=f"worker exceeded hard deadline: "
                               f"{crash.detail}")
            return False
        backend = job.effective_backend
        if backend == "native" and job.request.approach != "heuristic" \
                and job.crashes >= DEMOTE_AFTER_CRASHES:
            job.effective_backend = "arena"
            job.crashes = 0  # arena gets a fresh crash budget
            metrics.inc("repro_backend_demotions_total")
            with self._lock:
                self.counters["demotions"] += 1
            self._append_event(job, {"event": "backend_demoted",
                                     "from": backend, "to": "arena"})
            logjson.log("backend_demoted", job=job.id,
                        from_backend=backend, to_backend="arena")
        if job.attempts > self.max_retries:
            with self._lock:
                self.counters["failed"] += 1
            self._finish(job, JOB_FAILED,
                         error=f"worker crashed ({crash.reason}) on all "
                               f"{job.attempts} attempt(s)")
            return False
        with self._lock:
            self.counters["retries"] += 1
        metrics.inc("repro_job_retries_total", reason=crash.reason)
        backoff = min(RETRY_BACKOFF_BASE_SECONDS * (2 ** (job.attempts - 1)),
                      RETRY_BACKOFF_CAP_SECONDS)
        self._append_event(job, {"event": "retrying",
                                 "attempt": job.attempts,
                                 "backoff_seconds": round(backoff, 3)})
        if self._stop.wait(timeout=backoff):
            with self._lock:
                self.counters["failed"] += 1
            self._finish(job, JOB_FAILED,
                         error="service stopped during retry backoff")
            return False
        return True

    def _supervise(self, job: Job, worker_index: int,
                   worker: workers.ProcessWorker,
                   parent_span_id: int = 0) -> None:
        """Run ``job`` in the supervised worker process, with retries."""
        request = job.request
        with job.cond:
            job.status = JOB_RUNNING
            job.started = self._now()
        # the time between submission and pickup, as a sibling span that
        # ends exactly where worker.run begins
        wait = max(job.started - job.created, 0.0)
        obs_trace.add_complete("queue.wait", time.monotonic() - wait, wait,
                               parent=0, job=job.id)

        def on_event(payload: Dict[str, object]) -> None:
            if payload.get("event") == "started" \
                    and payload.get("warm_fabric"):
                with self._lock:
                    self.counters["fabric_cache_hits"] += 1
                metrics.inc("repro_service_fabric_cache_hits_total")
            self._append_event(job, payload)

        while True:
            if not self._degraded:
                try:
                    state = worker.ensure()
                except workers.WorkerStartError as exc:
                    # the pool itself is unhealthy: degrade to the
                    # in-thread path for this and every following job
                    self._enter_degraded(repr(exc))
                    self._append_event(job, {"event": "degraded",
                                             "fallback": "thread"})
                else:
                    if state == "restarted":
                        metrics.inc("repro_worker_restarts_total")
                        with self._lock:
                            self.counters["worker_restarts"] += 1
            attempt = job.attempts
            job.attempts += 1
            spec = {
                "job": job.id,
                "worker": worker_index,
                "attempt": attempt,
                "payload": job.payload,
                "default_budget_seconds": self.default_budget_seconds,
                "max_budget_seconds": self.max_budget_seconds,
                "solver_backend": job.effective_backend,
                "seed": request.seed,
                "budget_seconds": request.budget_seconds,
                "traced": self.trace_dir is not None,
                # the same trace id rides every attempt, so a retry after
                # a crash re-parents under the job's one trace
                "trace_id": job.trace_id,
            }
            try:
                if self._degraded:
                    record = self._run_in_thread(job, spec, on_event)
                else:
                    record = worker.run(
                        spec,
                        on_event=on_event,
                        deadline_seconds=(request.budget_seconds
                                          + self.hard_deadline_grace_seconds),
                        cancelled=lambda: job.cancel_requested,
                        parent_span_id=parent_span_id,
                        trace=job.id,
                        trace_id=job.trace_id,
                        # the child never writes the run log (it would
                        # share the parent's file offset); its captured
                        # records land here, re-stamped with the job's ids
                        log_fields={"job": job.id, "trace": job.id,
                                    "trace_id": job.trace_id or None},
                    )
            except workers.WorkerCancelled:
                with self._lock:
                    self.counters["cancelled"] += 1
                self._finish(job, JOB_CANCELLED)
                return
            except workers.WorkerJobError as exc:
                # the engine raised on a healthy worker: a deterministic
                # job failure, not a fault -- no retry
                with self._lock:
                    self.counters["failed"] += 1
                self._finish(job, JOB_FAILED, error=str(exc))
                return
            except workers.WorkerCrash as crash:
                if not self._handle_crash(job, crash, attempt):
                    return
                continue
            with self._lock:
                self.counters["engine_runs"] += 1
            # only the surviving attempt's improvements belong to the
            # result (a crashed attempt may have streamed a few first)
            starts = [i for i, e in enumerate(job.events)
                      if e.get("event") == "started"]
            tail = job.events[starts[-1]:] if starts else job.events
            record = dict(record, events=[
                dict(e) for e in tail if e.get("event") == "improvement"])
            if record["status"] in CACHEABLE_STATUSES:
                self._store_put(job.key, request, record)
            self._finish(job, JOB_DONE, result=record)
            return

    @staticmethod
    def _run_in_thread(job: Job, spec: Dict[str, object],
                       on_event: Callable[[Dict[str, object]], None],
                       ) -> Dict[str, object]:
        """The degraded path: :func:`run_request` on this worker thread.

        Raises the same exceptions a worker process would: a cancelled
        job aborts at its next event, an engine error is a job error.
        """
        def emit(payload: Dict[str, object]) -> None:
            if job.cancel_requested:
                raise workers.WorkerCancelled()
            on_event(payload)

        try:
            return run_request(spec, emit)
        except workers.WorkerCancelled:
            raise
        except Exception as exc:
            raise workers.WorkerJobError(repr(exc)) from exc

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def stream_events(self, job_id: str, start: int = 0,
                      poll_seconds: float = 0.5) -> Iterator[Dict[str, object]]:
        """Yield a job's events from ``start``, blocking until terminal.

        The iterator ends once the job has reached a terminal status and
        every event has been delivered -- the last yielded event is
        always the terminal ``done``/``failed``/``cancelled`` record.
        """
        job = self.get(job_id)
        index = start
        while True:
            with job.cond:
                while index >= len(job.events) and not job.terminal:
                    job.cond.wait(timeout=poll_seconds)
                batch = list(job.events[index:])
                terminal = job.terminal
            yield from batch
            index += len(batch)
            if terminal and index >= len(job.events):
                return

    def health(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self.counters)
            by_status: Dict[str, int] = {}
            for job in self.jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
        status = "ok"
        if self._degraded:
            status = "degraded"
        elif self._draining.is_set():
            status = "draining"
        return {
            "status": status,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": len(self._workers),
            "execution": self.execution,
            "degraded": self._degraded,
            "draining": self._draining.is_set(),
            "queued": self._queue.qsize(),
            "jobs": by_status,
            "counters": counters,
            "observability": {
                "trace_dropped_spans": obs_trace.dropped(),
                "profile_sampling": profiler.running()
                or self.profile_interval_seconds > 0,
                "profile_stacks": len(profiler.cumulative()),
            },
            "store": self.store.stats() if self.store is not None else None,
        }

    # ------------------------------------------------------------------ #
    # Drain / journal / recover
    # ------------------------------------------------------------------ #
    def journal_path(self) -> Optional[str]:
        """Where drained-but-queued payloads are checkpointed.

        Next to the store: ``<root>/journal.jsonl`` for the sharded
        layout (the loader only reads ``shards/*.jsonl``, so the journal
        never pollutes the index), ``<path>.journal`` for the flat one.
        ``None`` without a store -- there is nowhere durable to put it.
        """
        if self.store is None:
            return None
        if self.store._sharded:
            return os.path.join(self.store.path, "journal.jsonl")
        return self.store.path + ".journal"

    def begin_drain(self) -> None:
        """Stop accepting submissions and stop dispatching queued jobs."""
        if not self._draining.is_set():
            logjson.log("drain_begin")
        self._draining.set()

    def drain(self, timeout: float = 30.0) -> Dict[str, object]:
        """Drain for shutdown: finish in-flight work, journal the queue.

        Blocks up to ``timeout`` seconds for running jobs to finish (the
        HTTP layer keeps answering, rejecting submissions with 503), then
        checkpoints every still-queued job to :meth:`journal_path` and
        marks it ``journaled``. Returns a summary; ``running`` lists
        jobs that outlived the timeout and will die with the process.
        """
        self.begin_drain()
        # a worker that popped a job in the instant before the flag went
        # up is about to mark it running; give it a beat so the job is
        # either in-flight (waited for) or still queued (journaled)
        time.sleep(0.25)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                busy = any(job.status == JOB_RUNNING
                           for job in self.jobs.values())
            if not busy:
                break
            time.sleep(0.05)
        journaled = self._journal_queued()
        with self._lock:
            running = [job.id for job in self.jobs.values()
                       if job.status == JOB_RUNNING]
        summary = {"journaled": journaled, "running": running}
        logjson.log("drain_done", **summary)
        return summary

    def _journal_queued(self) -> int:
        """Checkpoint every still-queued job; returns how many."""
        drained: List[Job] = []
        while True:
            try:
                _, _, job_id = self._queue.get_nowait()
            except queue.Empty:
                break
            job = self.jobs[job_id]
            if job.status == JOB_QUEUED and not job.terminal:
                drained.append(job)
        metrics.set_gauge("repro_service_queue_depth", 0)
        path = self.journal_path()
        if path is None:
            # no store, no journal: queued work cannot survive; cancel
            # it honestly rather than silently dropping it
            for job in drained:
                with self._lock:
                    self.counters["cancelled"] += 1
                self._finish(job, JOB_CANCELLED)
            return 0
        if not drained:
            return 0
        # merge a previous drain's journal instead of overwriting it
        entries = _read_journal(path) if os.path.exists(path) else []
        for job in drained:
            entries.append({
                "id": job.id,
                "payload": job.payload,
                "priority": job.request.priority,
                "journaled_at": round(self._now(), 3),
            })
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        for job in drained:
            with self._lock:
                self.counters["journaled"] += 1
            metrics.inc("repro_journal_jobs_total", op="journaled")
            self._finish(job, JOB_JOURNALED)
        return len(drained)

    def recover_journal(self) -> int:
        """Resubmit a previous drain's journaled payloads; returns count.

        Called once at startup (``repro-serve start``). The journal file
        is removed only after every entry has been resubmitted, so a
        crash mid-recovery re-runs entries rather than losing them (the
        content-addressed store absorbs the duplicates).
        """
        path = self.journal_path()
        if path is None or not os.path.exists(path):
            return 0
        recovered = 0
        for entry in _read_journal(path):
            try:
                self.submit(entry["payload"])
            except (RequestError, ServiceUnavailable) as exc:
                logjson.log("journal_skip", entry=entry.get("id"),
                            error=repr(exc))
                continue
            recovered += 1
            metrics.inc("repro_journal_jobs_total", op="recovered")
        with self._lock:
            self.counters["recovered"] += recovered
        os.remove(path)
        logjson.log("journal_recovered", path=path, jobs=recovered)
        return recovered

    def shutdown(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._workers:
            thread.join(timeout=timeout)
