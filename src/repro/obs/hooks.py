"""The terminal bookkeeping of every engine run.

Every engine's ``map()`` ends in :func:`finish_engine_run`, so the
metric labels and the log-record shape cannot drift between engines. The
three search engines reach it from one place, the engine shell
(:class:`repro.core.mapper.EngineShell`); the portfolio calls it from its
own ``map()``. It records the terminal counters, the per-layer seconds
(read from the result's one layer record, ``stats["seconds"]``) and the
structured ``engine_run`` log record. Spans are opened where the work
happens: ``engine.map`` by the engine, ``solver:<tier>`` by
:meth:`repro.smt.csp.FiniteDomainProblem.solve_detailed`.
"""

from __future__ import annotations

from typing import Any

from repro.obs import logjson, metrics, trace
from repro.perf import LAYERS

__all__ = ["finish_engine_run"]


def finish_engine_run(engine: str, result: Any) -> None:
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
