"""Shared instrumentation hooks for the mapping engines.

Every engine's ``map()`` funnels through the same three hooks so the
span taxonomy, metric labels, and log-record shape cannot drift between
engines. The three search engines reach them from one place, the engine
shell (:class:`repro.core.mapper.EngineShell` and
:meth:`repro.core.mapper.EngineRun.ii_attempt`); the portfolio calls
them from its own ``map()``. Callers look the hooks up as attributes of
this module at call time, so a wrapper installed here sees every call:

* :func:`engine_span` -- the root ``engine.map`` span;
* :func:`record_ii_attempt` -- the per-II latency histogram;
* :func:`finish_engine_run` -- terminal counters, the per-layer
  seconds (read from the result's one layer record,
  ``stats["seconds"]``), the structured ``engine_run`` log record, and
  (under ``--profile`` + ``--trace``)
  synthesized solver-tier child spans from the :mod:`repro.perf`
  propagate/analyze/reduce attribution -- the CDCL loop itself is never
  spanned.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.obs import logjson, metrics, trace
from repro.perf import LAYERS

__all__ = ["engine_span", "record_ii_attempt", "finish_engine_run"]


def engine_span(engine: str, **args: Any) -> Any:
    """The root span for one engine ``map()`` call."""
    return trace.span("engine.map", engine=engine, **args)


def record_ii_attempt(engine: str, seconds: float) -> None:
    """One II attempt finished; record its latency."""
    metrics.observe("repro_ii_attempt_seconds", seconds, engine=engine)


def _synthesize_solver_spans(perf: Any, end: float) -> None:
    """Turn profile-gated solver timings into child spans.

    The detailed propagate/analyze/reduce clocks are accumulated *inside*
    ``SATSolver.solve`` without any span machinery; here -- once per
    engine run, on the cold path -- they become complete events laid out
    sequentially inside a ``solver:<tier>`` parent so the exported trace
    shows CLI -> engine -> solver-tier nesting.  Timestamps are placed at
    the end of the run (total durations are faithful; interleaving within
    the solve window is not recorded and not claimed).
    """
    solve = getattr(perf, "solve_seconds", 0.0)
    if solve <= 0.0:
        return
    tier = perf.extra.get("solver_tier") or perf.extra.get("backend") or "sat"
    start = end - solve
    parent = trace.add_complete(
        f"solver:{tier}", start, solve,
        solve_calls=perf.solve_calls,
        conflicts=perf.conflicts,
        propagations=perf.propagations,
    )
    cursor = start
    for phase in ("propagate", "analyze", "reduce"):
        seconds = getattr(perf, f"{phase}_seconds", 0.0)
        if seconds <= 0.0:
            continue
        trace.add_complete(phase, cursor, seconds, parent=parent)
        cursor += seconds


def finish_engine_run(
    engine: str,
    result: Any,
    perf: Optional[Any] = None,
) -> None:
    """Terminal bookkeeping for one engine run (any outcome)."""
    status = str(result.status)
    stats = result.stats if isinstance(result.stats, dict) else {}
    seconds = {layer: value
               for layer, value in stats.get("seconds", {}).items()
               if layer in LAYERS}
    metrics.inc("repro_engine_runs_total", engine=engine, status=status)
    metrics.inc("repro_engine_seconds_total", result.total_seconds,
                engine=engine, phase="total")
    for layer, value in seconds.items():
        if value:
            metrics.inc("repro_engine_seconds_total", value,
                        engine=engine, phase=layer)
    if trace.enabled() and perf is not None and getattr(perf, "detailed", False):
        _synthesize_solver_spans(perf, time.monotonic())
    logjson.log(
        "engine_run",
        engine=engine,
        status=status,
        ii=result.ii,
        mii=result.mii,
        iis_tried=result.iis_tried,
        schedules_tried=result.schedules_tried,
        total_seconds=round(result.total_seconds, 6),
        seconds=seconds,
        tier=stats.get("solver_tier"),
        trace=trace.current_trace() or None,
        trace_id=trace.current_trace_id() or None,
    )
