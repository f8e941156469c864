"""Process-global metrics registry with Prometheus text exposition.

Counters, gauges, and histograms keyed by ``(name, sorted label items)``.
Unlike tracing, the registry is **always on**: incrementing a counter is
a dict update with a tuple key -- cheap enough for every call site here
(engine runs, store lookups, job transitions; never the CDCL loop).
What *is* gated is label-dict allocation on hot-ish paths: callers pass
labels as keyword arguments only when they have them.

:func:`render` produces the Prometheus text exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) served by
the daemon's ``GET /metrics``; :func:`snapshot` returns plain dicts for
tests and the ``repro-map map --metrics`` summary table.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "inc",
    "set_gauge",
    "observe",
    "describe",
    "render",
    "snapshot",
    "dump",
    "merge_dump",
    "reset",
]

_LabelKey = Tuple[Tuple[str, str], ...]

_lock = threading.Lock()
_counters: Dict[Tuple[str, _LabelKey], float] = {}
_gauges: Dict[Tuple[str, _LabelKey], float] = {}
_hist_sum: Dict[Tuple[str, _LabelKey], float] = {}
_hist_count: Dict[Tuple[str, _LabelKey], int] = {}
_hist_buckets: Dict[Tuple[str, _LabelKey], List[int]] = {}

# Shared latency bucket bounds (seconds) for every histogram; small-run
# mapping attempts live in the 1ms..60s band.
BUCKET_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0,
)

_HELP: Dict[str, str] = {}
_TYPE: Dict[str, str] = {}


def _after_fork_in_child() -> None:
    # a service worker can fork while another thread holds the registry
    # lock; the child must get a fresh, unlocked one or its first metric
    # call deadlocks (its copied series are private and harmless)
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


def describe(name: str, kind: str, help_text: str) -> None:
    """Register HELP/TYPE metadata for a metric name."""
    _HELP[name] = help_text
    _TYPE[name] = kind


def _key(name: str, labels: Dict[str, object]) -> Tuple[str, _LabelKey]:
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def inc(name: str, value: float = 1.0, **labels: object) -> None:
    """Add ``value`` to a counter."""
    key = _key(name, labels)
    with _lock:
        _counters[key] = _counters.get(key, 0.0) + value


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge to ``value``."""
    key = _key(name, labels)
    with _lock:
        _gauges[key] = float(value)


def observe(name: str, value: float, **labels: object) -> None:
    """Record ``value`` into a histogram (sum/count/cumulative buckets)."""
    key = _key(name, labels)
    with _lock:
        _hist_sum[key] = _hist_sum.get(key, 0.0) + value
        _hist_count[key] = _hist_count.get(key, 0) + 1
        buckets = _hist_buckets.get(key)
        if buckets is None:
            buckets = _hist_buckets[key] = [0] * (len(BUCKET_BOUNDS) + 1)
        for index, bound in enumerate(BUCKET_BOUNDS):
            if value <= bound:
                buckets[index] += 1
        buckets[-1] += 1  # +Inf


def reset() -> None:
    """Clear every series (tests)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _hist_sum.clear()
        _hist_count.clear()
        _hist_buckets.clear()


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    items: Iterable[Tuple[str, str]] = labels if extra is None else (*labels, extra)
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}" if body else ""


def _emit_header(lines: List[str], name: str, default_type: str) -> None:
    help_text = _HELP.get(name)
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {_TYPE.get(name, default_type)}")


def render() -> str:
    """The registry in Prometheus text exposition format."""
    with _lock:
        counters = dict(_counters)
        gauges = dict(_gauges)
        hist_sum = dict(_hist_sum)
        hist_count = dict(_hist_count)
        hist_buckets = {k: list(v) for k, v in _hist_buckets.items()}

    lines: List[str] = []
    emitted = set()
    for family, default_type in ((counters, "counter"), (gauges, "gauge")):
        seen = set()
        for (name, labels) in sorted(family):
            if name not in seen:
                seen.add(name)
                emitted.add(name)
                _emit_header(lines, name, default_type)
            value = family[(name, labels)]
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")

    seen = set()
    for (name, labels) in sorted(hist_sum):
        if name not in seen:
            seen.add(name)
            emitted.add(name)
            _emit_header(lines, name, "histogram")
        buckets = hist_buckets[(name, labels)]
        for index, bound in enumerate(BUCKET_BOUNDS):
            label = _format_labels(labels, ("le", _format_value(bound)))
            lines.append(f"{name}_bucket{label} {buckets[index]}")
        inf_label = _format_labels(labels, ("le", "+Inf"))
        lines.append(f"{name}_bucket{inf_label} {buckets[-1]}")
        lines.append(
            f"{name}_sum{_format_labels(labels)} "
            f"{_format_value(hist_sum[(name, labels)])}"
        )
        lines.append(
            f"{name}_count{_format_labels(labels)} {hist_count[(name, labels)]}"
        )

    # Described families with no samples yet still advertise HELP/TYPE,
    # so a fresh daemon's /metrics already exposes the full inventory.
    for name in sorted(set(_HELP) - emitted):
        _emit_header(lines, name, "untyped")
    return "\n".join(lines) + "\n"


def dump() -> Dict[str, object]:
    """Raw, picklable registry state for cross-process aggregation.

    Worker children call this at the end of a job (after a job-start
    :func:`reset`, so it is a per-job delta) and ship it over the result
    pipe; the parent folds it in with :func:`merge_dump`, making the
    daemon's ``/metrics`` reflect engine-side series (latency
    histograms, engine counters) that are otherwise trapped in the
    child's registry. Gauges are process-local and excluded.
    """
    with _lock:
        return {
            "counters": dict(_counters),
            "hist_sum": dict(_hist_sum),
            "hist_count": dict(_hist_count),
            "hist_buckets": {k: list(v) for k, v in _hist_buckets.items()},
        }


def merge_dump(data: Optional[Dict[str, object]]) -> None:
    """Fold another process's :func:`dump` into this registry."""
    if not data:
        return
    with _lock:
        for key, value in (data.get("counters") or {}).items():
            _counters[key] = _counters.get(key, 0.0) + float(value)
        for key, value in (data.get("hist_sum") or {}).items():
            _hist_sum[key] = _hist_sum.get(key, 0.0) + float(value)
        for key, value in (data.get("hist_count") or {}).items():
            _hist_count[key] = _hist_count.get(key, 0) + int(value)
        for key, buckets in (data.get("hist_buckets") or {}).items():
            mine = _hist_buckets.get(key)
            if mine is None:
                _hist_buckets[key] = list(buckets)
            else:
                for index in range(min(len(mine), len(buckets))):
                    mine[index] += buckets[index]


def snapshot() -> Dict[str, Dict[str, float]]:
    """Plain-dict view: ``{metric: {label_string_or "": value}}``.

    Histograms are folded to ``name_sum`` / ``name_count`` entries.
    """
    out: Dict[str, Dict[str, float]] = {}
    with _lock:
        for (name, labels), value in _counters.items():
            out.setdefault(name, {})[_format_labels(labels)] = value
        for (name, labels), value in _gauges.items():
            out.setdefault(name, {})[_format_labels(labels)] = value
        for (name, labels), value in _hist_sum.items():
            out.setdefault(name + "_sum", {})[_format_labels(labels)] = value
        for (name, labels), count in _hist_count.items():
            out.setdefault(name + "_count", {})[_format_labels(labels)] = count
    return out


# ------------------------------------------------------------------ #
# Metric name inventory (described up front so /metrics always carries
# HELP/TYPE headers; see docs/observability.md for the full table)
# ------------------------------------------------------------------ #
describe("repro_engine_runs_total", "counter",
         "Engine map() calls by engine and outcome status.")
describe("repro_engine_seconds_total", "counter",
         "Wall-clock seconds spent in engine map() calls, by engine and phase.")
describe("repro_ii_attempt_seconds", "histogram",
         "Latency of individual II attempts, by engine.")
describe("repro_solver_tier_selected_total", "counter",
         "SAT tier selections, one per SAT engine run, by tier.")
describe("repro_solver_tier_degradations_total", "counter",
         "SAT engine runs that fell back to arena: C kernel unavailable.")
describe("repro_store_hits_total", "counter",
         "Content-addressed store lookups that found a record.")
describe("repro_store_misses_total", "counter",
         "Content-addressed store lookups that found nothing.")
describe("repro_store_records", "gauge",
         "Records currently held by the result store.")
describe("repro_store_shards", "gauge",
         "Shard files backing the result store.")
describe("repro_store_skipped_lines_total", "counter",
         "Malformed or torn store lines skipped during load.")
describe("repro_service_jobs_total", "counter",
         "Service jobs by terminal status (hit/done/failed/cancelled).")
describe("repro_service_queue_depth", "gauge",
         "Jobs waiting in the service queue right now.")
describe("repro_service_fabric_cache_hits_total", "counter",
         "Worker-pool warm-fabric cache hits.")
describe("repro_http_requests_total", "counter",
         "HTTP requests served by the daemon, by method and route.")
describe("repro_batch_cases_total", "counter",
         "Batch-runner cases by outcome (ok/error/timeout/cache_hit).")
describe("repro_worker_crashes_total", "counter",
         "Service worker-process deaths by reason "
         "(crashed/stalled/hard_timeout).")
describe("repro_worker_restarts_total", "counter",
         "Service worker processes restarted by the supervisor.")
describe("repro_job_retries_total", "counter",
         "Service jobs requeued after a worker crash, by crash reason.")
describe("repro_backend_demotions_total", "counter",
         "Solver-backend demotions after repeated crashes on one job.")
describe("repro_service_degraded", "gauge",
         "1 when the process pool is unhealthy and jobs run in-thread.")
describe("repro_store_size_bytes", "gauge",
         "Total bytes held by the result store's files.")
describe("repro_journal_jobs_total", "counter",
         "Queued jobs checkpointed to / recovered from the drain journal.")
describe("repro_trace_dropped_spans_total", "counter",
         "Trace events evicted (drop-oldest) by the bounded span buffer.")
describe("repro_profile_samples_total", "counter",
         "Sampling-profiler stack samples aggregated by the daemon.")
