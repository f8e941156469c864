"""Configuration of the decoupled mapper and of the coupled baseline."""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.arch.mrrg import TimeAdjacency


def _finite_seconds(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # NaN compares false against every bound, so it would silently switch
    # a deadline or a cap off; reject it with the infinities
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds {bound}, got {text!r}")
    return value


def positive_seconds(text: str) -> float:
    """argparse type of the command-line budget and timeout flags.

    Accepts only finite values > 0. (The configs themselves still accept
    ``0.0``, which the tests use to force an immediate timeout.)
    """
    return _finite_seconds(text, positive=True)


def nonnegative_seconds(text: str) -> float:
    """argparse type of an interval flag where ``0`` turns a feature off."""
    return _finite_seconds(text, positive=False)


#: schedule-horizon extension ladder shared by every engine's retry loop
_SLACK_EXTRAS = (0, 1, 2, 4, 8, 16)


def _slack_candidates(slack: int, max_extra_slack: int) -> list:
    """Horizon extensions tried for one II, in order (all engines)."""
    return [slack + e for e in _SLACK_EXTRAS if e <= max_extra_slack]


def _normalize_opt(config) -> None:
    """Shared validation of the ``opt_level`` / ``opt_passes`` knobs.

    Imports :mod:`repro.opt` lazily (it pulls in the simulator for
    verification, which transitively imports this module).
    """
    if config.opt_passes is None and config.opt_level in (0, None):
        config.opt_level = 0
        return
    from repro.opt.passes import make_pass
    from repro.opt.pipeline import parse_opt_level

    config.opt_level = parse_opt_level(config.opt_level)
    if config.opt_passes is not None:
        config.opt_passes = tuple(config.opt_passes)
        for name in config.opt_passes:
            make_pass(name)  # fail fast on unknown pass names


@dataclass
class MapperConfig:
    """Knobs of :class:`repro.core.mapper.MonomorphismMapper`.

    The defaults reproduce the paper's setting; the ablation benches flip the
    ``enforce_*`` / ``time_adjacency`` / ``pin_first_placement`` flags.

    Attributes:
        max_ii: largest II to try; ``None`` means "critical path length plus
            slack" (a schedule of that length always exists time-wise).
        slack: extra schedule length added on top of the critical path when
            building the Mobility Schedule (0 reproduces the paper).
        max_extra_slack: if the time phase proves a given II infeasible, the
            mapper retries that II with a progressively longer schedule
            horizon (an extension over the paper, which never needs it on
            its benchmark set); this bounds the extra length tried.
        max_time_solutions_per_ii: how many distinct slot patterns to
            request from the time phase for one II before giving up and
            increasing II. The time phase blocks each rejected schedule
            on its ``t mod II`` projection, the only part of it the space
            phase reads, so no pattern is offered twice.
        time_timeout_seconds / space_timeout_seconds: per-phase budgets.
        total_timeout_seconds: overall budget for one ``map()`` call
            (the paper uses 4000 s; the benches here use a few seconds).
        enforce_capacity / enforce_connectivity: include the paper's
            Sec. IV-B2 / IV-B3 constraint families in the time phase.
        strict_connectivity: also count the node itself when it shares the
            slot of its neighbours (a slightly tighter variant than the
            paper's ``|S_v^i| <= D_M``; off by default).
        time_adjacency: MRRG time-adjacency model used by the space phase.
        pin_first_placement: exploit torus vertex-transitivity by pinning the
            first placed node to PE 0 of its slot.
        validate: run the full validator on every returned mapping.
        opt_level: pre-mapping DFG optimization level (``0``/``"O0"`` maps
            the frontend's graph untouched, the paper's flow; ``1``/``2``
            run the :mod:`repro.opt` pass pipelines). Every node removed
            shrinks both the SAT time encoding and the monomorphism space
            search; shortened recurrences lower RecII and with it mII,
            which is recomputed on the optimized graph.
        opt_passes: explicit pass list overriding the level's schedule
            (the CLI's ``--passes``); names from
            :func:`repro.opt.passes.pass_names`.
        solver_backend: SAT kernel behind the SMT layer, an internal knob:
            ``"native"`` (the default) runs the cffi-built C tier of the
            flat-arena kernel when it loads and the arena kernel of
            :mod:`repro.smt.sat` otherwise -- bit-identical results either
            way (see :mod:`repro.smt.native`); ``"arena"`` pins the
            pure-Python kernel; a solver class is used as given (see
            :func:`repro.smt.csp.resolve_solver_backend`).
        profile: record detailed per-phase wall-clock attribution
            (propagate / analyze / reduce) inside the CDCL loop on top of
            the always-on counters; ``MappingResult.stats`` carries the
            result either way. This is what ``repro-map profile`` flips on.
    """

    max_ii: Optional[int] = None
    slack: int = 0
    max_extra_slack: int = 16
    max_time_solutions_per_ii: int = 24
    time_timeout_seconds: float = 120.0
    space_timeout_seconds: float = 120.0
    total_timeout_seconds: Optional[float] = None
    enforce_capacity: bool = True
    enforce_connectivity: bool = True
    strict_connectivity: bool = False
    time_adjacency: TimeAdjacency = TimeAdjacency.ALL_PAIRS
    pin_first_placement: bool = True
    validate: bool = True
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    solver_backend: str = "native"
    profile: bool = False

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.max_extra_slack < 0:
            raise ValueError("max_extra_slack must be non-negative")
        if self.max_time_solutions_per_ii < 1:
            raise ValueError("max_time_solutions_per_ii must be >= 1")
        if self.max_ii is not None and self.max_ii < 1:
            raise ValueError("max_ii must be >= 1")
        _normalize_opt(self)

    def slack_candidates(self) -> list:
        """Schedule-horizon extensions tried for one II, in order."""
        return _slack_candidates(self.slack, self.max_extra_slack)


@dataclass
class HeuristicConfig:
    """Knobs of :class:`repro.heuristic.engine.HeuristicMapper`.

    The heuristic engine is *anytime*: it searches the II range under the
    wall-clock ``budget_seconds`` and always returns the best valid
    mapping found so far (validated like the exact engines'). It is
    stochastic but fully reproducible: every random draw flows from
    ``seed`` (resolved through
    :func:`repro.heuristic.engine.resolve_seed`, which honours the
    ``REPRO_PROPERTY_SEED`` environment variable when no explicit seed is
    given).

    Attributes:
        max_ii: largest II to try; ``None`` means "critical path plus
            slack", matching the exact engines.
        slack / max_extra_slack: schedule-horizon extension policy, same
            semantics as :class:`MapperConfig` (the list scheduler retries
            a failed II with progressively longer horizons before bumping
            II).
        budget_seconds: the anytime wall-clock budget of one ``map()``.
        seed: RNG seed; ``None`` resolves via ``REPRO_PROPERTY_SEED`` or
            the built-in default, so runs are reproducible by default.
        schedules_per_ii: list-scheduler restarts (with re-jittered
            priorities) attempted per (II, slack) before bumping II.
        placements_per_schedule: independent annealing runs per schedule.
        moves_per_node: simulated-annealing move budget, scaled by the
            DFG node count.
        validate: run the full validator on every candidate mapping (the
            engine refuses to return a mapping that fails it either way;
            this flag additionally raises instead of retrying).
        opt_level / opt_passes: the shared pre-mapping pipeline.
        profile: include detailed per-phase attribution in the stats.
        strategy: II search direction. ``"ascend"`` (the default) walks
            II up from mII and stops at the first success -- the first
            valid mapping is provably the best the engine can report, so
            there is exactly one result. ``"refine"`` walks II *down*
            from the critical-path horizon toward mII: high IIs succeed
            almost immediately, so a first (coarse) mapping lands fast
            and every further success strictly improves it -- the
            streaming shape the compile service's
            ``GET /v1/jobs/<id>/events`` exposes. Both directions draw
            from per-(II, attempt) RNG streams, so a given II's outcome
            is identical whichever strategy visits it.
        on_event: optional progress callback. The engine calls it with
            one dict per *improvement* -- ``{"event": "improvement",
            "ii": int, "mii": int, "elapsed": float}`` -- every time a
            new best valid mapping lands (once under ``"ascend"``,
            monotonically non-increasing IIs under ``"refine"``). The
            callback runs on the engine's thread; it must be cheap and
            must not raise (an exception aborts the search and
            propagates to the ``map()`` caller, which the service uses
            for cooperative cancellation).
    """

    max_ii: Optional[int] = None
    slack: int = 0
    max_extra_slack: int = 8
    budget_seconds: float = 30.0
    seed: Optional[int] = None
    schedules_per_ii: int = 8
    placements_per_schedule: int = 2
    moves_per_node: int = 400
    validate: bool = True
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    profile: bool = False
    strategy: str = "ascend"
    on_event: Optional[Callable[[Dict[str, object]], None]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.strategy not in ("ascend", "refine"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'ascend' or 'refine'")
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.max_extra_slack < 0:
            raise ValueError("max_extra_slack must be non-negative")
        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        if self.schedules_per_ii < 1:
            raise ValueError("schedules_per_ii must be >= 1")
        if self.placements_per_schedule < 1:
            raise ValueError("placements_per_schedule must be >= 1")
        if self.moves_per_node < 1:
            raise ValueError("moves_per_node must be >= 1")
        if self.max_ii is not None and self.max_ii < 1:
            raise ValueError("max_ii must be >= 1")
        _normalize_opt(self)

    def slack_candidates(self) -> list:
        """Schedule-horizon extensions tried for one II, in order."""
        return _slack_candidates(self.slack, self.max_extra_slack)


@dataclass
class PortfolioConfig:
    """Knobs of :class:`repro.heuristic.portfolio.PortfolioMapper`.

    Attributes:
        engines: engine names raced, in priority order (aliases accepted).
        budget_seconds: *total* budget of one ``map()`` call, divided
            evenly between the engines (they run back to back).
        seed / opt_level / opt_passes / solver_backend / validate /
            profile: forwarded to the member engines (the seed only
            matters to the heuristic one).
    """

    engines: Tuple[str, ...] = ("heuristic", "monomorphism", "satmapit")
    budget_seconds: float = 60.0
    seed: Optional[int] = None
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    solver_backend: str = "native"
    validate: bool = True
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.core.engine import normalize_engine

        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        if not self.engines:
            raise ValueError("a portfolio needs at least one engine")
        normalized = tuple(normalize_engine(name) for name in self.engines)
        if "portfolio" in normalized:
            raise ValueError("a portfolio cannot contain itself")
        if len(set(normalized)) != len(normalized):
            raise ValueError(f"duplicate engines in portfolio: {normalized}")
        self.engines = normalized
        _normalize_opt(self)

    def per_engine_budget(self) -> float:
        """Soft budget granted to each member engine."""
        return self.budget_seconds / len(self.engines)


@dataclass
class BaselineConfig:
    """Knobs of the SAT-MapIt-style coupled baseline.

    ``opt_level`` / ``opt_passes`` mirror :class:`MapperConfig`: both
    engines consume the same pre-mapping pipeline, so opt-level sweeps
    compare like against like.
    """

    max_ii: Optional[int] = None
    slack: int = 0
    max_extra_slack: int = 16
    timeout_seconds: float = 120.0
    total_timeout_seconds: Optional[float] = None
    enforce_capacity: bool = True
    validate: bool = True
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    #: SAT kernel, as on :class:`MapperConfig`: "native" (the C tier when
    #: it loads, else arena) or "arena"
    solver_backend: str = "native"
    #: detailed per-phase wall clock inside the solver (repro-map profile)
    profile: bool = False

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.max_extra_slack < 0:
            raise ValueError("max_extra_slack must be non-negative")
        _normalize_opt(self)

    def slack_candidates(self) -> list:
        """Schedule-horizon extensions tried for one II, in order."""
        return _slack_candidates(self.slack, self.max_extra_slack)
