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
    config object carrying its knobs (budgets, opt pipeline, seed, SAT
    backend); ``map()`` is then called once per DFG. The contract every
    engine honours:

    * ``map()`` **never raises for ordinary failures** -- infeasibility,
      timeouts and exhausted searches come back as the
      :class:`~repro.core.mapper.MappingResult` ``status``; exceptions
      are reserved for bugs (e.g. a mapping that fails validation with
      ``config.validate`` set) and for callbacks that raise (the
      service's cooperative cancellation).
    * a returned ``SUCCESS`` mapping has passed
      :func:`repro.core.validation.validate_mapping` (unless validation
      was explicitly disabled);
    * ``MappingResult.stats`` is always populated -- see the
      :class:`~repro.core.mapper.MappingResult` docstring for the key
      inventory (``per_ii``, ``portfolio``, ``winner``, ...);
    * engines are **stateless across calls** as far as correctness goes:
      any warm state kept between ``map()`` calls (learnt clauses,
      VSIDS activities, cached fabrics) may only affect speed, never
      results.

    Engines register in :data:`ENGINE_NAMES` / :data:`ENGINE_ALIASES`
    and are built uniformly by :func:`create_engine`; the CLI, the batch
    runner, the profiler and the compile service all construct engines
    exclusively through that factory.
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
    timeout_seconds: float = 60.0,
    budget_seconds: Optional[float] = None,
    seed: Optional[int] = None,
    opt_level: Union[int, str] = 0,
    opt_passes: Optional[Sequence[str]] = None,
    solver_backend: str = "arena",
    profile: bool = False,
    validate: bool = True,
    strategy: str = "ascend",
    on_event: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Engine:
    """Build any engine from the flat knob set the CLI exposes.

    ``timeout_seconds`` is the per-``map()`` soft budget every engine
    honours; ``budget_seconds`` is the anytime budget of the heuristic
    engine and the *total* budget the portfolio divides between its
    engines (both default to ``timeout_seconds`` when omitted). ``seed``
    reaches every stochastic component (see
    :func:`repro.heuristic.engine.resolve_seed` for the precedence over
    ``REPRO_PROPERTY_SEED``); the exact engines ignore it -- they are
    deterministic. ``strategy`` and ``on_event`` are the heuristic
    engine's anytime knobs (II sweep direction and the best-so-far
    improvement callback the service streams from); the other engines
    ignore them.
    """
    from repro.core.config import (
        BaselineConfig,
        HeuristicConfig,
        MapperConfig,
        PortfolioConfig,
    )

    canonical = normalize_engine(name)
    passes = tuple(opt_passes) if opt_passes else None
    if budget_seconds is None:
        budget_seconds = timeout_seconds
    if canonical == "monomorphism":
        from repro.core.mapper import MonomorphismMapper

        return MonomorphismMapper(cgra, MapperConfig(
            time_timeout_seconds=timeout_seconds,
            space_timeout_seconds=timeout_seconds,
            total_timeout_seconds=timeout_seconds,
            opt_level=opt_level,
            opt_passes=passes,
            solver_backend=solver_backend,
            profile=profile,
            validate=validate,
        ))
    if canonical == "satmapit":
        from repro.baseline.satmapit import SatMapItMapper

        return SatMapItMapper(cgra, BaselineConfig(
            timeout_seconds=timeout_seconds,
            total_timeout_seconds=timeout_seconds,
            opt_level=opt_level,
            opt_passes=passes,
            solver_backend=solver_backend,
            profile=profile,
            validate=validate,
        ))
    if canonical == "heuristic":
        from repro.heuristic.engine import HeuristicMapper

        return HeuristicMapper(cgra, HeuristicConfig(
            budget_seconds=budget_seconds,
            seed=seed,
            opt_level=opt_level,
            opt_passes=passes,
            profile=profile,
            validate=validate,
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
        validate=validate,
    ))
