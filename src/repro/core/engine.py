"""The shared mapping-engine protocol and registry.

Three first-class engines produce :class:`~repro.core.mapper.MappingResult`
objects from the same ``map(dfg)`` entry point:

* ``monomorphism`` -- the paper's decoupled space/time mapper
  (:class:`repro.core.mapper.MonomorphismMapper`), exact;
* ``satmapit`` -- the coupled SAT-MapIt-style baseline
  (:class:`repro.baseline.satmapit.SatMapItMapper`), exact;
* ``heuristic`` -- the stochastic anytime engine
  (:class:`repro.heuristic.engine.HeuristicMapper`): priority-based modulo
  list scheduling plus simulated-annealing placement, seeded and
  time-budgeted; and
* ``portfolio`` -- :class:`repro.heuristic.portfolio.PortfolioMapper`,
  which races the other three under per-engine budgets.

:class:`Engine` is the structural protocol all of them satisfy;
:func:`create_engine` builds any of them from one flat set of knobs (the
CLI's option surface). Engine construction is imported lazily so this
module stays importable from anywhere in :mod:`repro.core` without cycles.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.cgra import CGRA
    from repro.core.mapper import MappingResult
    from repro.graphs.dfg import DFG


class Engine(Protocol):
    """What every mapping engine looks like to the rest of the library.

    The protocol is deliberately a single method. An engine is
    constructed around a fixed :class:`~repro.arch.cgra.CGRA` and a
    config object carrying its knobs (budget, opt pipeline, seed, SAT
    backend); ``map()`` is then called once per DFG. The contract every
    engine honours:

    * ``map()`` **never raises for ordinary failures** -- infeasibility,
      timeouts and exhausted searches come back as the
      :class:`~repro.core.mapper.MappingResult` ``status``; exceptions
      are reserved for bugs (e.g. a mapping that fails validation) and
      for callbacks that raise (the service's cooperative cancellation).
    * a returned ``SUCCESS`` mapping has passed
      :func:`repro.core.validation.validate_mapping`;
    * ``MappingResult.stats`` is always populated -- see the
      :class:`~repro.core.mapper.MappingResult` docstring for the key
      inventory (``per_ii``, ``portfolio``, ``winner``, ...);
    * engines are **stateless across calls** as far as correctness goes:
      any warm state kept between ``map()`` calls (learnt clauses,
      VSIDS activities, cached fabrics) may only affect speed, never
      results.

    The three search engines share one ``map()``,
    :class:`repro.core.mapper.EngineShell`, and supply only their search.
    For each of them alike the shell guarantees:

    * one ``engine.map`` span per call and one ``ii_attempt`` span per
      attempted II, both closed even when the search raises;
    * the same prologue: DFG validation, the pre-mapping pipeline, the
      feasibility gate and mII; an INFEASIBLE result still carries
      ``stats``;
    * the SAT tier selected once per run (:mod:`repro.smt.native`);
    * ``stats`` stamped with ``engine`` (and ``backend`` /
      ``solver_tier`` / ``seed`` where they apply), with
      ``len(stats["per_ii"]) == iis_tried`` and
      ``stats["seconds"]["space"]`` equal to the rounded
      ``space_phase_seconds``;
    * ``total_seconds`` counted from the prologue to the end of the
      search.

    :class:`~repro.heuristic.portfolio.PortfolioMapper` has its own
    ``map()`` over the other engines and calls the same hooks.

    Engines register in :data:`ENGINE_NAMES` / :data:`ENGINE_ALIASES`
    and are built uniformly by :func:`create_engine`; the CLI, the batch
    runner (:func:`repro.experiments.runner.run_case`), the profiler and
    the compile service all construct engines exclusively through that
    factory.
    """

    def map(self, dfg: "DFG") -> "MappingResult":
        """Map ``dfg`` onto the engine's CGRA; never raises for ordinary
        failures (the result's status carries the outcome)."""
        ...


#: canonical engine names, in the order ``repro-map list`` presents them
ENGINE_NAMES: Tuple[str, ...] = (
    "monomorphism", "satmapit", "heuristic", "portfolio",
)

#: every accepted spelling -> canonical engine name
ENGINE_ALIASES: Dict[str, str] = {
    "monomorphism": "monomorphism",
    "mono": "monomorphism",
    "decoupled": "monomorphism",
    "satmapit": "satmapit",
    "baseline": "satmapit",
    "coupled": "satmapit",
    "heuristic": "heuristic",
    "anneal": "heuristic",
    "sa": "heuristic",
    "portfolio": "portfolio",
    "race": "portfolio",
}

ENGINE_DESCRIPTIONS: Dict[str, str] = {
    "monomorphism": "exact decoupled space/time mapper (the paper's)",
    "satmapit": "exact coupled SAT baseline (SAT-MapIt style)",
    "heuristic": "stochastic anytime list-scheduler + annealing placer",
    "portfolio": "races the three engines under per-engine budgets",
}


def normalize_engine(name: str) -> str:
    """Canonical engine name for any accepted alias."""
    try:
        return ENGINE_ALIASES[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{sorted(ENGINE_ALIASES)}"
        ) from exc


def engine_choices() -> List[str]:
    """Every accepted spelling, for argparse ``choices=``."""
    return sorted(ENGINE_ALIASES)


def create_engine(
    name: str,
    cgra: "CGRA",
    *,
    budget_seconds: float = 60.0,
    seed: Optional[int] = None,
    opt_level: Union[int, str] = 0,
    opt_passes: Optional[Sequence[str]] = None,
    solver_backend: str = "native",
    profile: bool = False,
    strategy: str = "ascend",
    on_event: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Engine:
    """Build any engine from the flat knob set the CLI exposes.

    ``budget_seconds`` is the one wall-clock budget of a ``map()`` call:
    the exact engines' soft timeout, the heuristic engine's anytime
    budget, and the *total* the portfolio divides between its engines.
    ``seed`` reaches every stochastic component (see
    :func:`repro.heuristic.engine.resolve_seed` for the precedence over
    ``REPRO_PROPERTY_SEED``); the exact engines ignore it -- they are
    deterministic. ``strategy`` and ``on_event`` are the heuristic
    engine's anytime knobs (II sweep direction and the best-so-far
    improvement callback the service streams from); the other engines
    ignore them. ``profile`` turns on the SAT engines' in-loop solver
    clocks; the heuristic engine has none. Every engine validates each
    mapping it returns.
    """
    from repro.core.config import (
        BaselineConfig,
        HeuristicConfig,
        MapperConfig,
        PortfolioConfig,
    )

    canonical = normalize_engine(name)
    passes = tuple(opt_passes) if opt_passes else None
    if canonical == "monomorphism":
        from repro.core.mapper import MonomorphismMapper

        return MonomorphismMapper(cgra, MapperConfig(
            budget_seconds=budget_seconds,
            opt_level=opt_level,
            opt_passes=passes,
            solver_backend=solver_backend,
            profile=profile,
        ))
    if canonical == "satmapit":
        from repro.baseline.satmapit import SatMapItMapper

        return SatMapItMapper(cgra, BaselineConfig(
            budget_seconds=budget_seconds,
            opt_level=opt_level,
            opt_passes=passes,
            solver_backend=solver_backend,
            profile=profile,
        ))
    if canonical == "heuristic":
        from repro.heuristic.engine import HeuristicMapper

        return HeuristicMapper(cgra, HeuristicConfig(
            budget_seconds=budget_seconds,
            seed=seed,
            opt_level=opt_level,
            opt_passes=passes,
            strategy=strategy,
            on_event=on_event,
        ))
    from repro.heuristic.portfolio import PortfolioMapper

    return PortfolioMapper(cgra, PortfolioConfig(
        budget_seconds=budget_seconds,
        seed=seed,
        opt_level=opt_level,
        opt_passes=passes,
        solver_backend=solver_backend,
        profile=profile,
    ))
