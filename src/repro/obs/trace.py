"""In-process tracing: spans, trace buffers, Chrome trace-event export.

The tracer is a process-global, thread-aware span recorder designed to be
**zero-cost when disabled**: :func:`span` returns a shared null context
manager without allocating anything (no dict, no object) unless tracing
was explicitly enabled via :func:`enable` (typically from ``repro-map map
--trace out.json`` or ``repro-serve start --trace-dir DIR``).

Design points:

* **Monotonic clocks.** Span timestamps come from ``time.monotonic()``;
  each buffer also records a wall-clock *epoch anchor*
  (``time.time() - time.monotonic()``) so buffers captured in different
  processes -- whose monotonic bases are unrelated -- can be merged onto
  one timeline: on :func:`ingest`, child event timestamps are shifted by
  the difference between the child's and the parent's anchors.
* **Thread-local span stacks.** Nesting (parent ids) is tracked per
  thread, so the service daemon's worker threads each build their own
  subtree. A per-thread *trace label* (:func:`push_trace`) tags every
  span opened by that thread, letting the daemon export one job's spans
  without capturing a neighbour's.
* **Chrome trace-event JSON.** :func:`chrome_trace` renders the buffer as
  ``{"traceEvents": [...]}`` with ``ph:"X"`` complete events (ts/dur in
  microseconds) plus ``ph:"M"`` process/thread metadata -- loadable
  directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing.

Hot paths (the CDCL inner loop) are *never* spanned; a block that is
already timed (one SAT solve, a job's queue wait) is recorded with
:func:`add_complete`, which appends a pre-timed event.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "span",
    "add_complete",
    "instant",
    "push_trace",
    "pop_trace",
    "current_trace",
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
    "format_traceparent",
    "parse_traceparent",
    "snapshot",
    "ingest",
    "events",
    "chrome_trace",
    "write_chrome_trace",
]

# Module-level gate checked before anything is allocated.  Instrumented
# code does ``with trace.span("name", ii=4):`` -- when this is False the
# call returns the shared _NULL_SPAN immediately.
_ENABLED = False

# Keep the buffer bounded so a pathological run (or a long-lived daemon
# with per-job export) cannot grow without limit.
MAX_EVENTS = 200_000

_lock = threading.Lock()
_events: List[Dict[str, Any]] = []
_dropped = 0
_next_span_id = 1
_epoch = 0.0  # wall-clock anchor: time.time() - time.monotonic()

_tls = threading.local()


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _after_fork_in_child() -> None:
    # forked workers inherit the buffer lock in whatever state the
    # forking moment caught it; give the child a fresh one (children that
    # trace call reset() themselves before recording)
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _stack() -> List[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _labels() -> List[Tuple[str, str]]:
    """Per-thread stack of ``(trace label, trace_id)`` frames."""
    labels = getattr(_tls, "labels", None)
    if labels is None:
        labels = _tls.labels = []
    return labels


# ---------------------------------------------------------------------- #
# W3C-style trace context
# ---------------------------------------------------------------------- #
_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def new_trace_id() -> str:
    """Mint a fresh 32-hex (128-bit) trace id."""
    return os.urandom(16).hex()


def format_traceparent(trace_id: str, span_id: int = 0) -> str:
    """Render a ``traceparent`` header value (``00-<trace>-<span>-01``).

    ``span_id`` is the in-process integer span id of the caller's
    currently-open span; it becomes the 16-hex ``parent-id`` field.
    """
    return "00-%s-%016x-01" % (trace_id, span_id & 0xFFFFFFFFFFFFFFFF)


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, int]]:
    """Parse a ``traceparent`` header into ``(trace_id, parent_span_id)``.

    Returns ``None`` for a missing/malformed header or the all-zero
    trace id -- callers then mint a fresh context instead of failing
    the request over a bad correlation hint.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if not match:
        return None
    trace_id, span_hex = match.groups()
    if trace_id == "0" * 32:
        return None
    return trace_id, int(span_hex, 16)


def enabled() -> bool:
    """Whether tracing is currently recording."""
    return _ENABLED


def enable() -> None:
    """Start recording spans into the process-global buffer."""
    global _ENABLED, _epoch
    with _lock:
        if not _events:
            _epoch = time.time() - time.monotonic()
        _ENABLED = True


def disable() -> None:
    """Stop recording; the buffer is kept until :func:`reset`."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop all recorded events and span-id state (tests, per-job reuse).

    Also clears the *calling thread's* span stack and trace labels: a
    forked pool worker inherits both the parent's buffer and the forking
    thread's open-span stack, and must shed them so its own root spans
    re-parent cleanly on :func:`ingest`.
    """
    global _events, _dropped, _next_span_id, _epoch
    with _lock:
        _events = []
        _dropped = 0
        _next_span_id = 1
        _epoch = time.time() - time.monotonic()
    _stack().clear()
    _labels().clear()


def _record(event: Dict[str, Any]) -> None:
    global _dropped
    with _lock:
        if len(_events) >= MAX_EVENTS:
            # drop-oldest, in chunks of ~1% of the cap so sustained
            # overflow costs one list memmove per chunk, not per event
            evicted = min(len(_events), max(1, MAX_EVENTS // 100))
            del _events[:evicted]
            _dropped += evicted
        else:
            evicted = 0
        _events.append(event)
    if evicted:
        # Drop-oldest eviction used to be silent; the counter makes
        # buffer-full a visible signal (repro-serve status surfaces it).
        from . import metrics as _metrics

        _metrics.inc("repro_trace_dropped_spans_total", float(evicted))


class _Span:
    """A live span; records a complete event on ``__exit__``."""

    __slots__ = ("name", "args", "span_id", "parent_id", "trace", "trace_id",
                 "tid", "start")

    def __init__(self, name: str, args: Optional[Dict[str, Any]]) -> None:
        global _next_span_id
        self.name = name
        self.args = args
        with _lock:
            self.span_id = _next_span_id
            _next_span_id += 1
        stack = _stack()
        self.parent_id = stack[-1] if stack else 0
        labels = _labels()
        self.trace, self.trace_id = labels[-1] if labels else ("", "")
        self.tid = threading.get_ident()
        self.start = 0.0

    def __enter__(self) -> "_Span":
        _stack().append(self.span_id)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.monotonic()
        stack = _stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event: Dict[str, Any] = {
            "name": self.name,
            "ph": "X",
            "ts": self.start,
            "dur": end - self.start,
            "sid": self.span_id,
            "parent": self.parent_id,
            "tid": self.tid,
        }
        if self.trace:
            event["trace"] = self.trace
        if self.trace_id:
            event["trace_id"] = self.trace_id
        if self.args:
            event["args"] = self.args
        _record(event)


def span(name: str, **args: Any) -> Any:
    """Open a span: ``with span("ii_attempt", ii=4): ...``.

    Returns the shared null context manager when tracing is disabled --
    no allocation happens on the disabled path.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name, args or None)


def add_complete(
    name: str,
    start: float,
    duration: float,
    parent: Optional[int] = None,
    **args: Any,
) -> int:
    """Append a pre-timed complete event (monotonic ``start`` seconds).

    For a block its caller times anyway: the span reads the caller's
    clock, so its duration is the very value the caller records
    elsewhere. ``parent`` overrides the thread's current span as the
    parent; the new event's span id is returned.
    """
    if not _ENABLED:
        return 0
    global _next_span_id
    with _lock:
        span_id = _next_span_id
        _next_span_id += 1
    stack = _stack()
    labels = _labels()
    event: Dict[str, Any] = {
        "name": name,
        "ph": "X",
        "ts": start,
        "dur": max(duration, 0.0),
        "sid": span_id,
        "parent": parent if parent is not None else (stack[-1] if stack else 0),
        "tid": threading.get_ident(),
    }
    if labels:
        label, trace_id = labels[-1]
        if label:
            event["trace"] = label
        if trace_id:
            event["trace_id"] = trace_id
    if args:
        event["args"] = args
    _record(event)
    return span_id


def instant(name: str, **args: Any) -> None:
    """Record an instant event (e.g. a streamed improvement)."""
    if not _ENABLED:
        return
    stack = _stack()
    labels = _labels()
    event: Dict[str, Any] = {
        "name": name,
        "ph": "i",
        "ts": time.monotonic(),
        "parent": stack[-1] if stack else 0,
        "tid": threading.get_ident(),
    }
    if labels:
        label, trace_id = labels[-1]
        if label:
            event["trace"] = label
        if trace_id:
            event["trace_id"] = trace_id
    if args:
        event["args"] = args
    _record(event)


def push_trace(label: str, trace_id: str = "") -> None:
    """Tag subsequent spans on this thread with ``label`` (e.g. a job id).

    ``trace_id`` attaches a distributed trace context: every span, instant
    and synthesized event recorded under this frame carries it, and it
    survives :func:`snapshot`/:func:`ingest` across process boundaries.
    When omitted, the enclosing frame's trace id (if any) is inherited, so
    nested job labels stay inside the request's trace.
    """
    labels = _labels()
    if not trace_id and labels:
        trace_id = labels[-1][1]
    labels.append((label, trace_id))


def pop_trace() -> None:
    labels = _labels()
    if labels:
        labels.pop()


def current_trace() -> str:
    """The active per-thread trace label, or ``""``."""
    labels = _labels()
    return labels[-1][0] if labels else ""


def current_trace_id() -> str:
    """The active per-thread distributed trace id, or ``""``."""
    labels = _labels()
    return labels[-1][1] if labels else ""


def current_span_id() -> int:
    """The innermost open span id on this thread, or ``0``."""
    stack = _stack()
    return stack[-1] if stack else 0


def dropped() -> int:
    """Events evicted from the bounded buffer since the last reset."""
    with _lock:
        return _dropped


def snapshot(trace: Optional[str] = None, clear: bool = False) -> Dict[str, Any]:
    """Capture the buffer (optionally one trace's slice) for shipping.

    The snapshot carries the wall-clock epoch anchor so :func:`ingest`
    can align it with the receiving process's timeline.  Worker processes
    (:mod:`repro.core.workers`) send snapshots back with each job's
    result; ``clear=True`` removes the captured events from the buffer
    (used when a daemon exports one job's trace).
    """
    with _lock:
        if trace is None:
            captured = list(_events)
            if clear:
                _events.clear()
        else:
            captured = [e for e in _events if e.get("trace") == trace]
            if clear:
                _events[:] = [e for e in _events if e.get("trace") != trace]
        return {
            "epoch": _epoch,
            "events": captured,
            "dropped": _dropped,
            "pid": os.getpid(),
        }


def ingest(snap: Optional[Dict[str, Any]], parent_span_id: int = 0,
           trace: Optional[str] = None,
           trace_id: Optional[str] = None) -> int:
    """Merge a snapshot from another process into this buffer.

    Child timestamps are monotonic in the *child's* clock; shifting by
    the difference of wall-clock anchors places them on this process's
    monotonic timeline.  Root child events (parent 0) are re-parented
    under ``parent_span_id`` so the merged file nests child-process work
    under the span that spawned it.  ``trace``/``trace_id`` re-stamp the
    merged events' label and distributed trace id (events that already
    carry a trace id keep it unless overridden).  Returns the number of
    events merged.
    """
    if not snap:
        return 0
    child_events = snap.get("events") or []
    if not child_events:
        return 0
    shift = float(snap.get("epoch", _epoch)) - _epoch
    global _next_span_id
    with _lock:
        base = _next_span_id
        # Child span ids collide with ours; rebase them into fresh ids.
        max_sid = max((int(e.get("sid", 0)) for e in child_events), default=0)
        _next_span_id += max_sid + 1
    merged = 0
    for event in child_events:
        shifted = dict(event)
        shifted["ts"] = float(event["ts"]) + shift
        if event.get("sid"):
            shifted["sid"] = base + int(event["sid"])
        parent = int(event.get("parent", 0))
        shifted["parent"] = base + parent if parent else parent_span_id
        if trace is not None:
            shifted["trace"] = trace
        if trace_id is not None:
            shifted["trace_id"] = trace_id
        shifted["proc"] = int(snap.get("pid", 0)) or shifted.get("proc", 1)
        _record(shifted)
        merged += 1
    return merged


def events(trace: Optional[str] = None) -> List[Dict[str, Any]]:
    """A copy of the recorded events (optionally one trace's slice)."""
    with _lock:
        if trace is None:
            return list(_events)
        return [e for e in _events if e.get("trace") == trace]


def _iter_chrome(raw: List[Dict[str, Any]], pid: int) -> Iterator[Dict[str, Any]]:
    for event in raw:
        out: Dict[str, Any] = {
            "name": event["name"],
            "ph": event.get("ph", "X"),
            "ts": round(float(event["ts"]) * 1e6, 1),
            "pid": int(event.get("proc", 0)) or pid,
            "tid": int(event.get("tid", 0)),
            "args": dict(event.get("args") or {}),
        }
        if out["ph"] == "X":
            out["dur"] = round(float(event.get("dur", 0.0)) * 1e6, 1)
        if out["ph"] == "i":
            out["s"] = "t"  # thread-scoped instant
        out["args"]["span_id"] = event.get("sid", 0)
        out["args"]["parent_id"] = event.get("parent", 0)
        if event.get("trace"):
            out["args"]["trace"] = event["trace"]
        if event.get("trace_id"):
            out["args"]["trace_id"] = event["trace_id"]
        yield out


def chrome_trace(trace: Optional[str] = None,
                 snap: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Render the buffer (or an explicit snapshot) as Chrome trace JSON."""
    pid = os.getpid()
    if snap is not None:
        raw = snap.get("events") or []
    else:
        raw = events(trace)
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    trace_events.extend(_iter_chrome(raw, pid))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "span_count": len(raw)},
    }


def write_chrome_trace(path: str, trace: Optional[str] = None,
                       snap: Optional[Dict[str, Any]] = None) -> int:
    """Write Chrome trace JSON to ``path``; returns the span count."""
    doc = chrome_trace(trace=trace, snap=snap)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return int(doc["otherData"]["span_count"])
