"""Fault injection for the chaos tests, from outside the program.

The service ships no fault hooks. This harness wraps
:func:`repro.service.jobs.run_request` -- the job function every worker
process runs -- with one that injects the faults of a plan. Arm it
before the :class:`~repro.service.jobs.MappingService` is built: each
worker thread hands the module's current ``run_request`` to its
:class:`~repro.core.workers.ProcessWorker`, whose forked children
inherit the wrapper. Faults fire only inside a worker process
(:func:`repro.core.workers.in_worker_process`), so the test process or
the daemon never kills itself and the degraded in-thread path runs
clean.

Plan (a JSON object; every key optional, an empty plan injects nothing)::

    {"kill_worker": {"phase": "start",     # start|engine|mid|result
                     "attempts": [0],      # job attempt numbers, or "all"
                     "signal": 9},         # or {"exit": 3} for exit codes
     "stall_worker": {"seconds": 30, "attempts": [0]},
     "slow_solver": {"seconds": 2.0}}

* ``kill_worker`` -- the worker kills itself (default ``SIGKILL``) at a
  phase of the job: ``start`` (before the job function runs), ``engine``
  (right after the ``started`` event is forwarded, before the engine
  runs), ``mid`` (at the first ``improvement`` event) or ``result``
  (after the job function returns, before the record is shipped).
  ``attempts`` keeps retries deterministic: "crash twice, then succeed"
  is ``"attempts": [0, 1]``.
* ``stall_worker`` -- after ``started``, the worker's main thread sleeps
  in libc ``sleep`` while holding the GIL, so its heartbeat thread
  cannot run: a real wedge, which only the supervisor's heartbeat
  timeout gets out of.
* ``slow_solver`` -- after ``started``, the worker sleeps in Python; its
  heartbeats keep flowing, so slowness alone is not a stall.

A torn store tail is made by :func:`tear`, which truncates a file.

Run as a script, the harness arms a plan and starts the daemon in the
same process (so a signal to its pid reaches the daemon)::

    PYTHONPATH=src python tests/fault_harness.py '<plan JSON>' \\
        start --port 8782 --store chaos-store --workers 1
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core import workers
from repro.service import jobs

#: kill phases a plan may name, in job-execution order
KILL_PHASES = ("start", "engine", "mid", "result")

#: the job function as shipped, restored by :func:`disarm`
UNARMED = jobs.run_request


class FaultError(ValueError):
    """A malformed fault plan (fail loudly, not silently)."""


def _check_attempts(spec: Dict[str, object], name: str) -> None:
    attempts = spec.get("attempts", [0])
    if attempts != "all" and (
            not isinstance(attempts, list)
            or not all(isinstance(a, int) for a in attempts)):
        raise FaultError(
            f"'{name}' attempts must be a list of ints or \"all\"")


def _matches(spec: Dict[str, object], attempt: int) -> bool:
    attempts = spec.get("attempts", [0])
    return attempts == "all" or attempt in attempts


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault plan."""

    kill_worker: Optional[Dict[str, object]] = None
    stall_worker: Optional[Dict[str, object]] = None
    slow_solver_seconds: float = 0.0

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        if not text:
            return cls()
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultError("a fault plan must be a JSON object")
        unknown = set(raw) - {"kill_worker", "stall_worker", "slow_solver"}
        if unknown:
            raise FaultError(f"unknown fault(s): {sorted(unknown)}")

        kill = raw.get("kill_worker")
        if kill is not None:
            if not isinstance(kill, dict):
                raise FaultError("'kill_worker' must be an object")
            if kill.get("phase", "start") not in KILL_PHASES:
                raise FaultError(
                    f"kill_worker phase {kill.get('phase')!r}; expected "
                    f"one of {KILL_PHASES}")
            _check_attempts(kill, "kill_worker")

        stall = raw.get("stall_worker")
        if stall is not None:
            if not isinstance(stall, dict) or \
                    not isinstance(stall.get("seconds", 30), (int, float)):
                raise FaultError("'stall_worker' needs numeric 'seconds'")
            _check_attempts(stall, "stall_worker")

        slow = raw.get("slow_solver", {"seconds": 0.0})
        if not isinstance(slow, dict) or \
                not isinstance(slow.get("seconds"), (int, float)):
            raise FaultError("'slow_solver' needs numeric 'seconds'")
        return cls(kill, stall, float(slow["seconds"]))

    @property
    def active(self) -> bool:
        return (self.kill_worker is not None or self.stall_worker is not None
                or self.slow_solver_seconds > 0)

    def kill_action(self, phase: str,
                    attempt: int) -> Optional[Tuple[str, int]]:
        """``("signal", n)`` / ``("exit", code)`` if armed here, else None."""
        spec = self.kill_worker
        if spec is None or spec.get("phase", "start") != phase \
                or not _matches(spec, attempt):
            return None
        if "exit" in spec:
            return ("exit", int(spec["exit"]))
        return ("signal", int(spec.get("signal", int(signal.SIGKILL))))

    def stall_seconds(self, attempt: int) -> float:
        spec = self.stall_worker
        if spec is None or not _matches(spec, attempt):
            return 0.0
        return float(spec.get("seconds", 30.0))


def _kill(plan: FaultPlan, phase: str, attempt: int) -> None:
    action = plan.kill_action(phase, attempt)
    if action is None:
        return
    kind, value = action
    if kind == "exit":
        os._exit(value)
    os.kill(os.getpid(), value)


def _wedge(seconds: float) -> None:
    """Block this process's Python threads for ``seconds``.

    ``PyDLL`` keeps the GIL across the foreign call, so the heartbeat
    thread starves exactly as it would behind a C loop that never
    releases it.
    """
    libc = ctypes.PyDLL(None)
    remaining = max(int(round(seconds)), 1)
    while remaining:  # a signal handler cuts sleep() short
        remaining = libc.sleep(remaining)


def inject(job, plan: FaultPlan):
    """``job`` (a ``run_request``) with ``plan``'s faults around it."""
    def faulty(spec, emit):
        if not workers.in_worker_process():
            return job(spec, emit)
        attempt = int(spec["attempt"])
        _kill(plan, "start", attempt)
        improved = []

        def forward(payload):
            emit(payload)
            event = payload.get("event")
            if event == "started":
                if plan.slow_solver_seconds:
                    time.sleep(plan.slow_solver_seconds)
                stall = plan.stall_seconds(attempt)
                if stall:
                    _wedge(stall)
                _kill(plan, "engine", attempt)
            elif event == "improvement" and not improved:
                improved.append(payload)
                _kill(plan, "mid", attempt)

        value = job(spec, forward)
        _kill(plan, "result", attempt)
        return value

    return faulty


def arm(monkeypatch, spec: Dict[str, object]) -> None:
    """Arm a fault plan for the services this test builds next."""
    plan = FaultPlan.parse(json.dumps(spec))
    monkeypatch.setattr(jobs, "run_request", inject(UNARMED, plan))


def disarm(monkeypatch) -> None:
    """Services built after this run the shipped job function."""
    monkeypatch.setattr(jobs, "run_request", UNARMED)


def tear(path: str, fraction: float) -> int:
    """Truncate ``path`` to ``fraction`` of its bytes: a torn tail.

    What a crash between ``write()`` and its completion leaves behind.
    Returns the new size.
    """
    size = max(1, int(os.path.getsize(path) * fraction))
    os.truncate(path, size)
    return size


def main(argv) -> int:
    """``fault_harness.py PLAN [repro-serve arguments...]``."""
    from repro.service import cli

    plan = FaultPlan.parse(argv[0])
    jobs.run_request = inject(UNARMED, plan)
    return cli.main(list(argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
