"""Continuous sampling profiler: folded stacks from ``SIGPROF`` ticks.

A stdlib-only statistical profiler built from two primitives:
``signal.setitimer(signal.ITIMER_PROF, ...)`` delivers ``SIGPROF`` after
the process consumes a slice of CPU time (user + system), and
``sys._current_frames()`` exposes every thread's live Python frame.  On
each tick the handler walks each thread's frame chain and folds it into
a collapsed-stack key -- ``file:func;file:func;...;leaf`` -- counting
samples per unique stack.  That is exactly the input format of
flame-graph tooling (Brendan Gregg's ``flamegraph.pl``, speedscope,
inferno): pipe the rendered text straight in.

Design points:

* **CPU-time driven.** ``ITIMER_PROF`` only fires while the process is
  actually burning CPU, so an idle daemon takes zero samples and the
  overhead budget is spent where the data is.  At the default 100 Hz a
  tick costs a few microseconds of frame walking -- well under the 1%
  overhead ceiling :mod:`benchmarks.bench_obs` enforces.
* **No locks in the handler.** CPython runs signal handlers only in the
  main thread, so the sample table has a single writer; readers take
  atomic ``dict()`` copies under the GIL.  A lock shared with reader
  threads could deadlock the handler against its own thread.
* **Process-local + merged views.** Worker children run their own
  profiler and ship count *deltas* back over the worker-process
  (:mod:`repro.core.workers`) pipe; the daemon folds them into a merged aggregate via
  :func:`merge`, so ``GET /v1/debug/profile`` windows cover the whole
  process tree.

The profiler is POSIX-only (``SIGPROF``/``setitimer``) and must be
started from the main thread; :func:`start` returns ``False`` instead of
raising where the platform or calling thread cannot host it.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from typing import Dict, Optional

__all__ = [
    "start",
    "stop",
    "running",
    "interval",
    "local_counts",
    "cumulative",
    "window",
    "merge",
    "render",
    "reset",
    "DEFAULT_INTERVAL_SECONDS",
]

#: default sampling period -- 100 Hz of *CPU time*
DEFAULT_INTERVAL_SECONDS = 0.01

#: keep at most this many distinct stacks (drop-new past the cap, with a
#: counter, so a pathological workload cannot grow the table unbounded)
MAX_STACKS = 20_000

#: frames deeper than this are truncated from the stack root
MAX_DEPTH = 64

_running = False
_interval = DEFAULT_INTERVAL_SECONDS
_samples: Counter = Counter()          # written only by the signal handler
_overflow = 0
_merged: Counter = Counter()           # external (child) samples
_merged_lock = threading.Lock()
_prev_handler = None
_this_file = __file__


def _after_fork_in_child() -> None:
    # a forked child inherits the sample table and the armed itimer
    # disposition flag, but NOT the itimer itself (fork clears it); make
    # the child's state say so and start from an empty table
    global _running, _samples, _merged, _overflow, _merged_lock
    _running = False
    _samples = Counter()
    _merged = Counter()
    _overflow = 0
    _merged_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _fold(frame) -> str:
    """Collapse a frame chain into ``root;...;leaf`` (flamegraph input)."""
    parts = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH:
        code = frame.f_code
        filename = code.co_filename
        # the handler's own frames (and the signal trampoline) are noise
        if filename != _this_file:
            parts.append(
                f"{os.path.basename(filename)}:{code.co_name}")
            depth += 1
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


def _handler(signum, frame) -> None:  # noqa: ARG001 - signal signature
    global _overflow
    try:
        frames = sys._current_frames()
    except RuntimeError:  # pragma: no cover - interpreter shutdown
        return
    for thread_frame in frames.values():
        stack = _fold(thread_frame)
        if not stack:
            continue
        if stack not in _samples and len(_samples) >= MAX_STACKS:
            _overflow += 1
            continue
        _samples[stack] += 1


def start(interval_seconds: float = DEFAULT_INTERVAL_SECONDS) -> bool:
    """Arm the profiler; returns ``True`` iff sampling is now active.

    ``False`` means the platform lacks ``setitimer``/``SIGPROF``, the
    caller is not the main thread (CPython refuses the handler install),
    or ``interval_seconds`` is non-positive (the documented way to
    disable profiling from a config knob).
    """
    global _running, _interval, _prev_handler
    import signal

    if interval_seconds <= 0:
        return False
    if not hasattr(signal, "setitimer") or not hasattr(signal, "SIGPROF"):
        return False  # pragma: no cover - non-POSIX
    if threading.current_thread() is not threading.main_thread():
        return False
    if _running:
        return True
    try:
        _prev_handler = signal.signal(signal.SIGPROF, _handler)
        signal.setitimer(signal.ITIMER_PROF, interval_seconds,
                         interval_seconds)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        return False
    _interval = interval_seconds
    _running = True
    return True


def stop() -> None:
    """Disarm the itimer and restore the previous ``SIGPROF`` handler."""
    global _running, _prev_handler
    import signal

    if not _running:
        return
    try:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if _prev_handler is not None:
            signal.signal(signal.SIGPROF, _prev_handler)
    except (OSError, ValueError):  # pragma: no cover
        pass
    _prev_handler = None
    _running = False


def running() -> bool:
    return _running


def interval() -> float:
    """The active sampling period in seconds."""
    return _interval


def local_counts() -> Dict[str, int]:
    """This process's own cumulative ``{stack: samples}`` table."""
    # dict() of a dict is a single C-level copy: atomic under the GIL
    # against the handler's single-writer updates
    return dict(_samples)


def cumulative() -> Dict[str, int]:
    """Local samples plus everything :func:`merge`-d from children."""
    combined = Counter(_samples)
    with _merged_lock:
        combined.update(_merged)
    return dict(combined)


def window(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """``after - before`` for two counts snapshots.

    Used both by the child heartbeat shipper (delta vs. the last
    shipment) and by the ``/v1/debug/profile?seconds=N`` window (delta
    across the sleep).
    """
    out = Counter(after)
    for stack, count in before.items():
        out[stack] -= count
    return {stack: count for stack, count in out.items() if count > 0}


def merge(counts: Optional[Dict[str, int]]) -> int:
    """Fold a child's shipped sample delta into the merged aggregate."""
    if not counts:
        return 0
    added = 0
    with _merged_lock:
        for stack, count in counts.items():
            if not isinstance(stack, str):
                continue
            try:
                count = int(count)
            except (TypeError, ValueError):
                continue
            if count > 0:
                _merged[stack] += count
                added += count
    return added


def render(counts: Optional[Dict[str, int]] = None) -> str:
    """Collapsed-stack text: one ``stack count`` line, busiest first.

    The output is directly consumable by flamegraph.pl / speedscope;
    an empty table renders as ``""``.
    """
    if counts is None:
        counts = cumulative()
    lines = [f"{stack} {count}" for stack, count in
             sorted(counts.items(), key=lambda item: (-item[1], item[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def reset() -> None:
    """Clear all sample state (tests)."""
    global _samples, _merged, _overflow
    _samples = Counter()
    with _merged_lock:
        _merged = Counter()
    _overflow = 0
