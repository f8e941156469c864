"""Deterministic fault injection for the service's chaos tests.

The harness is **off unless armed**: a fault plan is read from the
``REPRO_FAULTS`` environment variable (a JSON object), and almost every
fault only fires inside a *worker process* -- a
:class:`~repro.core.workers.ProcessWorker` child
(:func:`repro.core.workers.in_worker_process`).  The daemon (or a test
process) can therefore set ``REPRO_FAULTS`` and submit jobs without ever
killing itself, and the in-thread degraded path never fires them.

Plan schema (every key optional; an empty/unset plan injects nothing)::

    {"kill_worker": {"phase": "start",     # start|engine|mid|result
                     "attempts": [0],      # job attempt numbers, or "all"
                     "signal": 9},         # or {"exit": 3} for exit codes
     "stall_worker": {"seconds": 30, "attempts": [0]},
     "slow_solver": {"seconds": 2.0},
     "torn_write": {"times": 1, "fraction": 0.5}}

Injection points:

* ``kill_worker`` -- the worker kills itself (default ``SIGKILL``) at a
  named phase of job execution: ``start`` (job received), ``engine``
  (immediately before ``engine.map``), ``mid`` (first improvement
  event), ``result`` (after the engine, before the result is shipped).
  ``attempts`` makes the plan deterministic across supervised retries:
  the fault fires only on the listed attempt numbers, so "crash twice,
  then succeed" is ``"attempts": [0, 1]`` -- no shared counter files, no
  racy state.
* ``stall_worker`` -- the worker pauses its heartbeat thread
  (:func:`repro.core.workers.heartbeat_paused`) and sleeps, simulating
  a wedged C-level loop; the supervisor's heartbeat timeout is the
  detection path under test.
* ``slow_solver`` -- the worker sleeps *while heartbeating* before the
  engine runs, proving slowness alone never trips the stall detector.
* ``torn_write`` -- the next ``times`` result-store appends write only
  the leading ``fraction`` of the line and drop the rest (a simulated
  mid-``write()`` crash); this one fires in whichever process owns the
  store (the daemon), not just workers.

``repro.service.jobs`` (the service's job function) and
``repro.service.store`` consult this module at the injection points;
``docs/robustness.md`` documents the knobs.
"""

from __future__ import annotations

import json
import os
import signal as _signal
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.workers import in_worker_process

ENV_VAR = "REPRO_FAULTS"

#: kill phases a plan may name, in job-execution order
KILL_PHASES = ("start", "engine", "mid", "result")

_state_lock = threading.Lock()
_torn_remaining: Optional[int] = None
_plan_cache: Optional[Tuple[Optional[str], "FaultPlan"]] = None


class FaultError(ValueError):
    """A malformed ``REPRO_FAULTS`` plan (fail loudly, not silently)."""


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault plan (immutable; state lives module-side)."""

    kill_worker: Optional[Dict[str, object]] = None
    stall_worker: Optional[Dict[str, object]] = None
    slow_solver_delay: float = 0.0
    torn_write_times: int = 0
    torn_write_fraction: float = 0.5
    raw: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        if not text:
            return cls()
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"{ENV_VAR} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultError(f"{ENV_VAR} must be a JSON object")
        unknown = set(raw) - {"kill_worker", "stall_worker", "slow_solver",
                              "torn_write"}
        if unknown:
            raise FaultError(f"unknown fault(s): {sorted(unknown)}")

        kill = raw.get("kill_worker")
        if kill is not None:
            if not isinstance(kill, dict):
                raise FaultError("'kill_worker' must be an object")
            phase = kill.get("phase", "start")
            if phase not in KILL_PHASES:
                raise FaultError(
                    f"kill_worker phase {phase!r}; expected one of "
                    f"{KILL_PHASES}")
            cls._check_attempts(kill, "kill_worker")

        stall = raw.get("stall_worker")
        if stall is not None:
            if not isinstance(stall, dict) or \
                    not isinstance(stall.get("seconds", 30), (int, float)):
                raise FaultError("'stall_worker' needs numeric 'seconds'")
            cls._check_attempts(stall, "stall_worker")

        slow = 0.0
        if "slow_solver" in raw:
            spec = raw["slow_solver"]
            if not isinstance(spec, dict) or \
                    not isinstance(spec.get("seconds"), (int, float)):
                raise FaultError("'slow_solver' needs numeric 'seconds'")
            slow = float(spec["seconds"])

        torn_times, torn_fraction = 0, 0.5
        if "torn_write" in raw:
            spec = raw["torn_write"]
            if not isinstance(spec, dict):
                raise FaultError("'torn_write' must be an object")
            torn_times = int(spec.get("times", 1))
            torn_fraction = float(spec.get("fraction", 0.5))
            if not 0.0 < torn_fraction < 1.0:
                raise FaultError("'torn_write' fraction must be in (0, 1)")

        return cls(kill_worker=kill, stall_worker=stall,
                   slow_solver_delay=slow, torn_write_times=torn_times,
                   torn_write_fraction=torn_fraction, raw=raw)

    @staticmethod
    def _check_attempts(spec: Dict[str, object], name: str) -> None:
        attempts = spec.get("attempts", [0])
        if attempts == "all":
            return
        if (not isinstance(attempts, list)
                or not all(isinstance(a, int) for a in attempts)):
            raise FaultError(
                f"'{name}' attempts must be a list of ints or \"all\"")

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        return bool(self.raw)

    @staticmethod
    def _attempt_matches(spec: Dict[str, object], attempt: int) -> bool:
        attempts = spec.get("attempts", [0])
        return attempts == "all" or attempt in attempts

    def kill_action(self, phase: str,
                    attempt: int) -> Optional[Tuple[str, int]]:
        """``("signal", n)`` / ``("exit", code)`` if armed here, else None."""
        spec = self.kill_worker
        if spec is None or spec.get("phase", "start") != phase:
            return None
        if not self._attempt_matches(spec, attempt):
            return None
        if "exit" in spec:
            return ("exit", int(spec["exit"]))
        return ("signal", int(spec.get("signal", int(_signal.SIGKILL))))

    def maybe_kill(self, phase: str, attempt: int) -> None:
        """Kill the current process if the plan arms this (phase, attempt).

        Only ever fires inside a marked worker process -- the daemon and
        test processes are safe whatever the plan says.
        """
        if not in_worker_process():
            return
        action = self.kill_action(phase, attempt)
        if action is None:
            return
        kind, value = action
        if kind == "exit":
            os._exit(value)
        os.kill(os.getpid(), value)

    def slow_solver_seconds(self) -> float:
        return self.slow_solver_delay if in_worker_process() else 0.0

    def stall_seconds(self, attempt: int) -> float:
        spec = self.stall_worker
        if spec is None or not in_worker_process():
            return 0.0
        if not self._attempt_matches(spec, attempt):
            return 0.0
        return float(spec.get("seconds", 30.0))


# --------------------------------------------------------------------- #
# Module-level state (per-process)
# --------------------------------------------------------------------- #
def plan() -> FaultPlan:
    """The current plan from ``REPRO_FAULTS`` (parsed once per value)."""
    global _plan_cache
    text = os.environ.get(ENV_VAR)
    cached = _plan_cache
    if cached is not None and cached[0] == text:
        return cached[1]
    parsed = FaultPlan.parse(text)
    _plan_cache = (text, parsed)
    return parsed


def torn_write_cut(line_length: int) -> Optional[int]:
    """Byte index to cut the next store append at, or ``None``.

    Decrements the per-process ``torn_write`` budget; fires in whichever
    process performs the append (the daemon owns the store).
    """
    global _torn_remaining
    current = plan()
    if not current.torn_write_times:
        return None
    with _state_lock:
        if _torn_remaining is None:
            _torn_remaining = current.torn_write_times
        if _torn_remaining <= 0:
            return None
        _torn_remaining -= 1
    return max(1, int(line_length * current.torn_write_fraction))


def reset() -> None:
    """Clear cached plan and per-process fault state (tests)."""
    global _plan_cache, _torn_remaining
    with _state_lock:
        _plan_cache = None
        _torn_remaining = None
