"""Configuration of the decoupled mapper and of the coupled baseline."""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.arch.mrrg import TimeAdjacency


def _seconds_rule(positive: bool) -> str:
    return f"a finite number of seconds {'> 0' if positive else '>= 0'}"


def _check_budget(value: float, positive: bool) -> float:
    """Reject a non-finite or out-of-range budget with ``ValueError``.

    NaN compares false against every bound, so it would silently switch a
    deadline or a cap off; it is rejected with the infinities. The exact
    engines accept ``0.0`` (the tests use it to force a timeout), the
    anytime engines need ``positive``.
    """
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"budget_seconds must be {_seconds_rule(positive)}, "
                         f"got {value!r}")
    return value


def _finite_seconds(text: str, positive: bool) -> float:
    try:
        return _check_budget(float(text), positive)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be {_seconds_rule(positive)}, got {text!r}") from None


def positive_seconds(text: str) -> float:
    """argparse type of the command-line budget and timeout flags.

    Accepts only finite values > 0. (The exact engines' configs still
    accept ``0.0``, which the tests use to force an immediate timeout.)
    """
    return _finite_seconds(text, positive=True)


def nonnegative_seconds(text: str) -> float:
    """argparse type of an interval flag where ``0`` turns a feature off."""
    return _finite_seconds(text, positive=False)


#: schedule-horizon extensions the exact engines try for one II, in
#: order, when the time phase proves the II infeasible (an extension over
#: the paper, which never needs it on its benchmark set): a longer
#: schedule only lengthens the prologue/epilogue, not the steady-state
#: throughput
SLACK_LADDER = (0, 1, 2, 4, 8, 16)


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

    The defaults reproduce the paper's setting; ``repro-map ablation``
    flips the ``enforce_*`` / ``strict_connectivity`` / ``time_adjacency``
    / ``pin_first_placement`` flags.

    Attributes:
        max_ii: largest II to try; ``None`` means "critical path length"
            (a schedule of that length always exists time-wise).
        budget_seconds: the one wall-clock budget of a ``map()`` call;
            each time and space solve gets what is left of it (the paper
            uses 4000 s; the benches here use a few seconds).
        enforce_capacity / enforce_connectivity: include the paper's
            Sec. IV-B2 / IV-B3 constraint families in the time phase.
        strict_connectivity: also count the node itself when it shares the
            slot of its neighbours (a slightly tighter variant than the
            paper's ``|S_v^i| <= D_M``; off by default).
        time_adjacency: MRRG time-adjacency model used by the space phase.
        pin_first_placement: exploit torus vertex-transitivity by pinning the
            first placed node to PE 0 of its slot.
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

    Every returned mapping is validated, and a pre-mapping pipeline is
    always verified against the reference interpreter.
    """

    max_ii: Optional[int] = None
    budget_seconds: float = 120.0
    enforce_capacity: bool = True
    enforce_connectivity: bool = True
    strict_connectivity: bool = False
    time_adjacency: TimeAdjacency = TimeAdjacency.ALL_PAIRS
    pin_first_placement: bool = True
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    solver_backend: str = "native"
    profile: bool = False

    def __post_init__(self) -> None:
        _check_budget(self.budget_seconds, positive=False)
        if self.max_ii is not None and self.max_ii < 1:
            raise ValueError("max_ii must be >= 1")
        _normalize_opt(self)


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
        max_ii: largest II to try; ``None`` means "critical path length",
            matching the exact engines.
        budget_seconds: the anytime wall-clock budget of one ``map()``.
        seed: RNG seed; ``None`` resolves via ``REPRO_PROPERTY_SEED`` or
            the built-in default, so runs are reproducible by default.
        opt_level / opt_passes: the shared pre-mapping pipeline.
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
    budget_seconds: float = 30.0
    seed: Optional[int] = None
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    strategy: str = "ascend"
    on_event: Optional[Callable[[Dict[str, object]], None]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.strategy not in ("ascend", "refine"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'ascend' or 'refine'")
        _check_budget(self.budget_seconds, positive=True)
        if self.max_ii is not None and self.max_ii < 1:
            raise ValueError("max_ii must be >= 1")
        _normalize_opt(self)


@dataclass
class PortfolioConfig:
    """Knobs of :class:`repro.heuristic.portfolio.PortfolioMapper`.

    Attributes:
        engines: engine names raced, in priority order (aliases accepted).
        budget_seconds: *total* budget of one ``map()`` call, divided
            evenly between the engines (they run back to back).
        seed / opt_level / opt_passes / solver_backend / profile:
            forwarded to the member engines (the seed only matters to the
            heuristic one).
    """

    engines: Tuple[str, ...] = ("heuristic", "monomorphism", "satmapit")
    budget_seconds: float = 60.0
    seed: Optional[int] = None
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    solver_backend: str = "native"
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.core.engine import normalize_engine

        _check_budget(self.budget_seconds, positive=True)
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

    ``budget_seconds`` is the one budget of a ``map()`` call, formula
    construction included; ``opt_level`` / ``opt_passes`` mirror
    :class:`MapperConfig`: both engines consume the same pre-mapping
    pipeline, so opt-level sweeps compare like against like.
    """

    max_ii: Optional[int] = None
    budget_seconds: float = 120.0
    opt_level: Union[int, str] = 0
    opt_passes: Optional[Tuple[str, ...]] = None
    #: SAT kernel, as on :class:`MapperConfig`: "native" (the C tier when
    #: it loads, else arena) or "arena"
    solver_backend: str = "native"
    #: detailed per-phase wall clock inside the solver (repro-map profile)
    profile: bool = False

    def __post_init__(self) -> None:
        _check_budget(self.budget_seconds, positive=False)
        _normalize_opt(self)
