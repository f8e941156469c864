"""Performance observability for the solver stack and the mapping engines.

Every experiment in this repository bottoms out in SAT calls, so "where did
the time go" is a first-class question. This package provides the one object
the whole stack shares:

:class:`PerfCounters`
    A flat bag of per-phase counters and wall-clock accumulators. One
    instance is created per ``map()`` call by the engine shell
    (:class:`repro.core.mapper.EngineShell`), handed
    down through :class:`~repro.smt.csp.FiniteDomainProblem` into the
    :class:`~repro.smt.sat.SATSolver` kernel (and into the space phase),
    and surfaced as ``MappingResult.stats``.

Counter semantics:

* **counters** (conflicts, decisions, propagations, restarts, learnt-clause
  bookkeeping, space-search nodes) are *always* maintained -- they are
  integer additions on cold paths and cost nothing measurable;
* **layer wall clock** (:data:`LAYERS`, and ``encode`` inside ``time``)
  is always recorded, by :meth:`PerfCounters.layer` only; every channel
  that reports a phase's seconds reads that record;
* **wall-clock attribution** for the solver-internal phases (propagate /
  analyze / reduce) is only recorded when ``detailed=True``, because it
  inserts two clock reads per CDCL loop iteration into the hottest loop in
  the repository. Each SAT solve is timed once, into ``solve``.

``repro-map profile`` runs a mapping with ``detailed=True`` and emits the
result as JSON; see ``docs/performance.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.obs import trace as obs_trace

#: the disjoint layers of one ``map()`` call, in pipeline order
LAYERS = ("opt", "mii", "time", "space", "validation")


@dataclass
class PerfCounters:
    """Per-phase counters and wall-clock attribution for one mapping run."""

    #: record propagate/analyze/reduce wall clock inside the CDCL loop
    detailed: bool = False

    # -- wall clock (seconds) ------------------------------------------- #
    #: per layer, and ``encode`` / ``solve``: clause building and SAT
    #: solving inside ``time`` (``FiniteDomainProblem.solve_detailed``)
    seconds: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        LAYERS + ("encode", "solve"), 0.0))
    propagate_seconds: float = 0.0  # detailed only
    analyze_seconds: float = 0.0    # detailed only
    reduce_seconds: float = 0.0     # detailed only

    # -- solver counters ------------------------------------------------ #
    solve_calls: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnts: int = 0           # learnt clauses attached
    glue_learnts: int = 0      # learnt clauses with LBD <= 2 (kept forever)
    learnts_deleted: int = 0   # removed by clause-DB reduction
    reductions: int = 0        # reduce-DB passes

    # -- space phase ----------------------------------------------------- #
    space_calls: int = 0
    space_nodes_explored: int = 0
    space_backtracks: int = 0

    # -- free-form extras (engine name, backend, ...) -------------------- #
    extra: Dict[str, object] = field(default_factory=dict)

    @contextmanager
    def layer(self, name: str, **span_args: object) -> Iterator[None]:
        """Add the block's wall clock to ``seconds[name]``.

        With tracing on, a layer of :data:`LAYERS` also opens its span,
        ``<name>_phase``, with ``span_args``. A layer may be entered many
        times, but no layer's block encloses another's.
        """
        start = time.monotonic()
        try:
            if name in LAYERS:
                with obs_trace.span(f"{name}_phase", **span_args):
                    yield
            else:
                yield
        finally:
            self.seconds[name] += time.monotonic() - start

    def as_dict(self) -> Dict[str, object]:
        """The ``MappingResult.stats`` payload (JSON-ready)."""
        seconds = {name: round(value, 6)
                   for name, value in self.seconds.items()}
        if self.detailed:
            seconds["propagate"] = round(self.propagate_seconds, 6)
            seconds["analyze"] = round(self.analyze_seconds, 6)
            seconds["reduce"] = round(self.reduce_seconds, 6)
        payload: Dict[str, object] = {
            "detailed": self.detailed,
            "seconds": seconds,
            "solver": {
                "solve_calls": self.solve_calls,
                "conflicts": self.conflicts,
                "decisions": self.decisions,
                "propagations": self.propagations,
                "restarts": self.restarts,
                "learnts": self.learnts,
                "glue_learnts": self.glue_learnts,
                "learnts_deleted": self.learnts_deleted,
                "reductions": self.reductions,
            },
            "space": {
                "calls": self.space_calls,
                "nodes_explored": self.space_nodes_explored,
                "backtracks": self.space_backtracks,
            },
        }
        payload.update(self.extra)
        return payload
