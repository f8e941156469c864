"""Parallel batch execution of experiment cases.

The paper's evaluation is a large grid -- 17 benchmarks x 4 CGRA sizes x 2
approaches. This module provides :class:`BatchRunner`, the engine behind
``repro-map sweep`` and the ``--jobs`` / ``--cache`` options of the
Table III / Fig. 5 drivers:

* ``jobs`` dispatch threads, each owning one persistent
  :class:`~repro.core.workers.ProcessWorker` -- the same supervised
  worker-process runtime the compile daemon runs its jobs on -- so
  independent cases use all cores and share that runtime's crash
  handling: a worker that dies is attributed (``signal 9 (SIGKILL)``),
  its case recorded as ``"error"`` and the worker restarted for the next
  case; a wedged worker is caught by the heartbeat stall detector; and
  the child's metrics, run-log records and (when tracing) spans are
  folded into this process;
* a *hard* per-case wall-clock timeout: a worker that overruns (the
  mapper's own soft timeout covers solving, not pathological encoding) is
  put down and the case recorded with status ``"hard_timeout"`` and its
  real elapsed time;
* deterministic result ordering: results come back in the order the cases
  were submitted, whatever the completion order, so ``--jobs 4`` output is
  byte-identical to the serial run (the solver itself is deterministic;
  only cases racing their wall-clock timeout can differ between runs,
  which is true of any timeout-bounded experiment, serial or not);
* a JSONL result cache keyed by a hash of the case configuration
  (benchmark, size, approach, timeout, architecture, opt level / pass
  list, and -- for the stochastic engines -- the resolved RNG seed; the
  SAT tier is not in it, since every tier computes the same result;
  extend :meth:`BatchCase.cache_key` before plumbing any further
  mapper knob through a case, or stale entries will be served across
  configurations), so re-runs skip already-solved cases and interrupted
  sweeps resume for free;
* progress reporting through a pluggable callback.

The cache's key derivation and persistence live in
:mod:`repro.service.store` (they are the same content-addressed store the
compile service serves from); this module keeps the flat single-file
``.jsonl`` layout for compatibility with existing caches.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core import workers
from repro.experiments.runner import CaseResult, normalize_approach, run_case
from repro.obs import logjson, metrics
from repro.obs import trace as obs_trace
from repro.service.store import ResultStore, content_key, file_content_hash

#: extra wall-clock grace on top of a case's soft timeout before the worker
#: process is put down (encoding and validation time are part of a case).
KILL_GRACE_SECONDS = 30.0

HARD_TIMEOUT_STATUS = "hard_timeout"
ERROR_STATUS = "error"

@dataclass(frozen=True)
class BatchCase:
    """One (benchmark, CGRA size, approach, architecture, opt) work item."""

    benchmark: str
    size: str
    approach: str
    timeout_seconds: float = 60.0
    #: architecture preset name or arch-spec JSON path; ``None`` is the
    #: paper's homogeneous torus at ``size``
    arch: Optional[str] = None
    #: pre-mapping optimization level (0 = the paper's unoptimized flow)
    opt_level: int = 0
    #: explicit pass list overriding the level's schedule, if any
    opt_passes: Optional[Tuple[str, ...]] = None
    #: RNG seed of the stochastic engines; resolved eagerly (explicit >
    #: ``REPRO_PROPERTY_SEED`` > built-in default) for heuristic/portfolio
    #: cases so the effective seed -- not the spelling -- keys the cache
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "approach", normalize_approach(self.approach))
        # normalize eagerly so equal configurations always share a cache
        # key ("O2", "2" and 2 are one configuration, lists become tuples)
        from repro.opt.pipeline import parse_opt_level

        object.__setattr__(self, "opt_level", parse_opt_level(self.opt_level))
        if self.opt_passes is not None:
            object.__setattr__(self, "opt_passes", tuple(self.opt_passes))
        if self.approach in ("heuristic", "portfolio"):
            from repro.heuristic.engine import resolve_seed

            object.__setattr__(self, "seed", resolve_seed(self.seed))
        elif self.seed is not None:
            # the exact engines are deterministic; a seed is not part of
            # their configuration and must not fragment their cache keys
            object.__setattr__(self, "seed", None)

    def cache_key(self) -> str:
        """Stable digest of everything that determines the result.

        The digest is :func:`repro.service.store.content_key` of the
        configuration record below (see that module for the derivation
        contract). Mapper-affecting knobs (``arch``, ``opt_level``,
        ``opt_passes``) join the digest only when set, so caches written
        before each axis existed keep hitting -- but any non-default value
        content-hashes into the key, and a stale entry can never be
        replayed across configurations. A spec *file* is keyed by its
        content hash -- editing the fabric invalidates its entries. Extend
        this method before plumbing any further mapper knob through a
        case.
        """
        record: Dict[str, object] = {
            "benchmark": self.benchmark,
            "size": self.size,
            "approach": self.approach,
            "timeout_seconds": self.timeout_seconds,
        }
        if self.arch is not None:
            record["arch"] = self.arch
            if self.arch.endswith(".json") and os.path.exists(self.arch):
                record["arch_sha"] = file_content_hash(self.arch)
        if self.opt_level:
            record["opt_level"] = self.opt_level
        if self.opt_passes:
            record["opt_passes"] = list(self.opt_passes)
        if self.seed is not None:
            record["seed"] = self.seed
        return content_key(record)

    def label(self) -> str:
        base = f"{self.benchmark}/{self.size}/{self.approach}"
        if self.arch is not None:
            base = f"{base}/{self.arch}"
        if self.opt_passes:
            base = f"{base}/passes={','.join(self.opt_passes)}"
        elif self.opt_level:
            base = f"{base}/O{self.opt_level}"
        if self.seed is not None:
            base = f"{base}/seed={self.seed}"
        return base


@dataclass
class BatchReport:
    """Outcome of one :meth:`BatchRunner.run` call."""

    results: List[CaseResult]
    executed: int = 0
    cache_hits: int = 0
    hard_timeouts: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.results if r.succeeded)

    def summary(self) -> str:
        return (
            f"{len(self.results)} case(s): {self.succeeded} succeeded, "
            f"{self.executed} executed, {self.cache_hits} from cache, "
            f"{self.hard_timeouts} hard timeout(s), {self.errors} error(s) "
            f"in {self.elapsed_seconds:.1f}s"
        )


def _run_case_job(spec: Dict[str, Any], emit: Callable) -> Dict[str, Any]:
    """The sweep's job function: run one case in a worker process."""
    case = BatchCase(**spec["case"])
    result = run_case(
        case.benchmark, case.size, case.approach, case.timeout_seconds,
        arch=case.arch, opt_level=case.opt_level,
        opt_passes=case.opt_passes, seed=case.seed,
    )
    return dataclasses.asdict(result)


class BatchRunner:
    """Run a batch of cases across worker processes, cached and in order."""

    def __init__(
        self,
        jobs: int = 1,
        cache_path: Optional[str] = None,
        hard_timeout_seconds: Optional[float] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_path = cache_path
        self.hard_timeout_seconds = hard_timeout_seconds
        self.progress = progress

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #
    def _open_store(self, num_cases: int) -> Optional[ResultStore]:
        """The content-addressed store behind ``cache_path``, if any.

        The store's header (job-count provenance) is written lazily on
        the first actual append, so a run served entirely from cache --
        or a store opened by a read-only client -- leaves the file
        byte-identical.
        """
        if not self.cache_path:
            return None
        return ResultStore(self.cache_path, header={
            "jobs": self.jobs,
            "cases": num_cases,
            "hard_timeout_seconds": self.hard_timeout_seconds,
            "kill_grace_seconds": KILL_GRACE_SECONDS,
        })

    @staticmethod
    def _cached_result(store: Optional[ResultStore],
                       key: str) -> Optional[CaseResult]:
        if store is None:
            return None
        record = store.get(key)
        if record is None:
            return None
        try:
            fields = dict(record["result"])
            # records written while the SAT kernel was a sweep axis carry
            # it; their keys and results are the detected tier's
            fields.pop("solver_backend", None)
            return CaseResult(**fields)
        except (KeyError, TypeError):
            return None  # tolerate foreign/older record shapes

    @staticmethod
    def _append_cache(store: Optional[ResultStore], key: str,
                      case: BatchCase, result: CaseResult) -> None:
        if store is None:
            return
        store.put(key, {
            "case": dataclasses.asdict(case),
            "result": dataclasses.asdict(result),
        })

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _hard_deadline(self, case: BatchCase) -> float:
        if self.hard_timeout_seconds is not None:
            return self.hard_timeout_seconds
        return case.timeout_seconds + KILL_GRACE_SECONDS

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _execute(self, worker: workers.ProcessWorker, case: BatchCase,
                 traced: bool, parent_span_id: int,
                 trace: Optional[str]) -> CaseResult:
        """Run one case on ``worker``; a failure becomes a synthetic result."""
        started = time.monotonic()
        try:
            worker.ensure()
            payload = worker.run(
                {"case": dataclasses.asdict(case), "traced": traced},
                deadline_seconds=self._hard_deadline(case),
                parent_span_id=parent_span_id,
                trace=trace,
            )
            return CaseResult(**payload)
        except workers.WorkerCrash as crash:
            status = (HARD_TIMEOUT_STATUS if crash.reason == "hard_timeout"
                      else ERROR_STATUS)
            message = str(crash)
        except (workers.WorkerJobError, workers.WorkerStartError) as exc:
            status, message = ERROR_STATUS, str(exc)
        return self._synthetic_result(case, status,
                                      time.monotonic() - started, message)

    @staticmethod
    def _synthetic_result(case: BatchCase, status: str, elapsed: float,
                          message: str = "") -> CaseResult:
        return CaseResult(
            benchmark=case.benchmark,
            cgra_size=case.size,
            approach=case.approach,
            status=status,
            ii=None,
            mii=0,
            time_phase_seconds=None,
            space_phase_seconds=None,
            total_seconds=elapsed,
            message=message,
            arch=case.arch,
            opt_level=case.opt_level,
            opt_passes=",".join(case.opt_passes) if case.opt_passes else None,
            seed=case.seed,
        )

    def run(self, cases: Iterable[BatchCase]) -> BatchReport:
        """Execute ``cases``; results match the submission order exactly."""
        case_list = list(cases)
        start = time.monotonic()
        report = BatchReport(results=[None] * len(case_list))  # type: ignore[list-item]
        # Header record (job-count provenance) is configured here but only
        # written by the store when a result is actually appended; the
        # loader skips it (no "key"), so old readers and mixed-run caches
        # keep working.
        store = self._open_store(len(case_list))

        pending: deque = deque()
        for index, case in enumerate(case_list):
            key = case.cache_key()
            hit = self._cached_result(store, key)
            if hit is not None:
                report.results[index] = hit
                report.cache_hits += 1
                metrics.inc("repro_batch_cases_total", outcome="cache_hit")
                self._report(f"[cache] {case.label()}: {hit.status}")
            else:
                pending.append((index, case, key))

        # span parenting is per thread: the dispatch threads merge child
        # spans under the span and trace label that are current *here*
        tracing = (obs_trace.enabled(), obs_trace.current_span_id(),
                   obs_trace.current_trace() or None)
        lock = threading.Lock()
        failures: List[BaseException] = []

        def dispatch(slot: int) -> None:
            worker = workers.ProcessWorker(_run_case_job, index=slot)
            try:
                while not failures:
                    try:
                        index, case, key = pending.popleft()
                    except IndexError:
                        return
                    with lock:
                        self._report(f"[start] {case.label()}")
                    result = self._execute(worker, case, *tracing)
                    with lock:
                        self._record(report, store, index, case, key, result)
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                failures.append(exc)
            finally:
                worker.stop()

        threads = [
            threading.Thread(target=dispatch, args=(slot,),
                             name=f"repro-sweep-{slot}", daemon=True)
            for slot in range(min(self.jobs, len(pending)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

        report.elapsed_seconds = time.monotonic() - start
        return report

    def _record(self, report: BatchReport, store: Optional[ResultStore],
                index: int, case: BatchCase, key: str,
                result: CaseResult) -> None:
        """Account one executed case (called under the runner's lock)."""
        report.results[index] = result
        report.executed += 1
        metrics.inc("repro_batch_cases_total", outcome=result.status)
        logjson.log(
            "batch_case",
            case=case.label(),
            key=key,
            status=result.status,
            ii=result.ii,
            total_seconds=result.total_seconds,
        )
        if result.status == HARD_TIMEOUT_STATUS:
            report.hard_timeouts += 1
        elif result.status == ERROR_STATUS:
            report.errors += 1
        else:
            self._append_cache(store, key, case, result)
        self._report(
            f"[done]  {case.label()}: {result.status}"
            + (f" II={result.ii}" if result.ii is not None else "")
        )


def build_cases(
    benchmarks: Sequence[str],
    sizes: Sequence[str],
    approaches: Sequence[str],
    timeout_seconds: float,
    arch: Optional[str] = None,
    opt_level: int = 0,
    opt_passes: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> List[BatchCase]:
    """The standard sweep grid, ordered size -> benchmark -> approach."""
    passes = tuple(opt_passes) if opt_passes else None
    return [
        BatchCase(benchmark=benchmark, size=size, approach=approach,
                  timeout_seconds=timeout_seconds, arch=arch,
                  opt_level=opt_level, opt_passes=passes, seed=seed)
        for size in sizes
        for benchmark in benchmarks
        for approach in approaches
    ]


def results_by_case(
    cases: Sequence[BatchCase], report: BatchReport
) -> Dict[Tuple[str, str, str], CaseResult]:
    """Index a report by ``(benchmark, size, approach)`` for the drivers."""
    return {
        (case.benchmark, case.size, case.approach): result
        for case, result in zip(cases, report.results)
    }
