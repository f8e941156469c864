"""The engine-portfolio runner (`--approach portfolio`).

:class:`PortfolioMapper` races the three first-class engines --
monomorphism, satmapit, heuristic -- on one DFG under per-engine budgets
and returns the best result: success beats failure, then lower II, then
lower wall clock, then portfolio order. The engines run back to back,
each under ``budget_seconds / len(engines)``; the race short-circuits as
soon as an engine returns a *provably optimal* mapping (``II == mII`` --
no other engine can do better, only faster, and the time is already
spent).

Every engine's outcome (status, II, seconds, message) is recorded in
``MappingResult.stats["portfolio"]`` and the winner's name in
``stats["winner"]``, so experiments can attribute results per engine.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.arch.cgra import CGRA
from repro.core.config import PortfolioConfig
from repro.core.engine import create_engine
from repro.core.mapper import MappingResult, MappingStatus
from repro.graphs.dfg import DFG
from repro.obs import hooks as obs_hooks


def _outcome_record(name: str, result: MappingResult) -> Dict[str, object]:
    return {
        "engine": name,
        "status": result.status.value,
        "ii": result.ii,
        "total_seconds": round(result.total_seconds, 6),
        "message": result.message,
    }


def _better(current: Optional[MappingResult], challenger: MappingResult,
            ) -> MappingResult:
    """Portfolio preference order (first argument wins ties)."""
    if current is None:
        return challenger
    if current.success != challenger.success:
        return challenger if challenger.success else current
    if current.success and challenger.success and challenger.ii != current.ii:
        return challenger if challenger.ii < current.ii else current
    if challenger.success and challenger.total_seconds < current.total_seconds:
        return challenger
    return current


class PortfolioMapper:
    """Races the first-class engines on one DFG (`Engine` protocol)."""

    def __init__(self, cgra: CGRA,
                 config: Optional[PortfolioConfig] = None) -> None:
        self.cgra = cgra
        self.config = config if config is not None else PortfolioConfig()

    # ------------------------------------------------------------------ #
    def map(self, dfg: DFG) -> MappingResult:
        """Race the portfolio; never raises for ordinary failures."""
        dfg.validate()
        start = time.monotonic()
        with obs_hooks.engine_span("portfolio"):
            best, outcomes, winner = self._race(dfg, start)
            if best is None:
                best = MappingResult(
                    status=MappingStatus.NO_SOLUTION,
                    message="every portfolio engine failed",
                )
            stats = dict(best.stats) if best.stats else {}
            stats["engine"] = "portfolio"
            stats["winner"] = winner
            stats["portfolio"] = outcomes
            best.stats = stats
            best.total_seconds = time.monotonic() - start
            obs_hooks.finish_engine_run("portfolio", best, start)
        return best

    # ------------------------------------------------------------------ #
    def _race(self, dfg: DFG, start: float):
        config = self.config
        budget = config.per_engine_budget()
        outcomes: List[Dict[str, object]] = []
        best: Optional[MappingResult] = None
        winner: Optional[str] = None
        for name in config.engines:
            if time.monotonic() - start > config.budget_seconds:
                outcomes.append({
                    "engine": name, "status": "skipped", "ii": None,
                    "total_seconds": None,
                    "message": "portfolio budget exhausted",
                })
                continue
            engine = create_engine(
                name, self.cgra, budget_seconds=budget, seed=config.seed,
                opt_level=config.opt_level, opt_passes=config.opt_passes,
                solver_backend=config.solver_backend,
                profile=config.profile)
            result = engine.map(dfg)
            outcomes.append(_outcome_record(name, result))
            chosen = _better(best, result)
            if chosen is result:
                best, winner = result, name
            if result.success and result.ii == result.mii:
                # provably optimal: no engine can map at a lower II
                break
        return best, outcomes, winner
