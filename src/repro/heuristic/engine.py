"""The stochastic anytime mapping engine (`--approach heuristic`).

:class:`HeuristicMapper` is the third first-class backend next to the two
exact engines. One ``map()`` call runs, under a wall-clock budget:

1. the prologue every search engine shares through
   :class:`~repro.core.mapper.EngineShell` (optimization pipeline,
   feasibility gate, op-aware mII);
2. for each II starting at mII: up to :data:`RESTARTS_PER_II`
   list-scheduling attempts (:func:`repro.heuristic.scheduler.list_schedule`),
   each with a re-jittered priority order and an escalating schedule
   horizon (:data:`SLACK_LADDER`), and per schedule up to
   :data:`ANNEAL_RUNS_PER_SCHEDULE` simulated-annealing placement runs
   (:func:`repro.heuristic.anneal.anneal_placement`);
3. on placement success the mapping is validated with the same
   :func:`~repro.core.validation.validate_mapping` oracle the exact
   engines use, recorded as the best mapping found, and -- because the II
   sweep is ascending, so the first valid mapping is also the best one --
   returned.

The **anytime contract**: the engine never returns an invalid mapping, and
when the budget expires it returns the best valid mapping found so far
(``TOTAL_TIMEOUT`` with no mapping only when the budget expired before any
II succeeded). Failing an II entirely *restarts* the search at the next II
with a fresh deterministic RNG stream (restart-on-II-bump), so the
behaviour at one II never depends on how much work earlier IIs consumed.

Two II sweep **strategies** (``HeuristicConfig.strategy``): ``"ascend"``
(default) walks II up from mII and stops at the first success, which is
then the best result the engine can report; ``"refine"`` walks II *down*
from the critical-path horizon toward mII, so a coarse mapping lands
almost immediately and every further success strictly lowers the II --
each improvement is delivered through ``HeuristicConfig.on_event``, which
is how the compile service streams best-so-far results
(``GET /v1/jobs/<id>/events``). Because every II draws from its own
per-(II, attempt) RNG streams, the outcome at a given II is identical
under both strategies.

**Seeding.** Every random draw descends from one integer seed, resolved by
:func:`resolve_seed` with the precedence ``explicit argument >
REPRO_PROPERTY_SEED environment variable > DEFAULT_HEURISTIC_SEED``. Two
runs with the same seed, DFG, fabric and budget produce the same
mapping.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, Optional, Tuple

from repro.core.config import HeuristicConfig
from repro.core.exceptions import InvalidMappingError
from repro.core.mapper import EngineRun, EngineShell, MappingStatus
from repro.core.mapping import Mapping
from repro.core.validation import validate_mapping
from repro.graphs.analysis import (
    critical_path_length,
    mobility_schedule,
    res_ii,
)
from repro.heuristic.anneal import anneal_placement, hop_distances
from repro.heuristic.scheduler import capacity_groups, list_schedule
from repro.obs import trace as obs_trace

#: fallback seed when neither ``--seed`` nor ``REPRO_PROPERTY_SEED`` is set
DEFAULT_HEURISTIC_SEED = 20260730

#: priority-jitter step per restart, in priority units (mobility is worth
#: 1000 per step there, so late restarts reorder moderately, not wildly)
JITTER_STEP = 700.0

#: list-scheduler restarts (re-jittered priorities) per II before bumping II
RESTARTS_PER_II = 8

#: schedule-horizon extensions, cycled through by the restarts of one II
SLACK_LADDER = (0, 1, 2, 4, 8)

#: independent annealing runs per schedule
ANNEAL_RUNS_PER_SCHEDULE = 2

#: simulated-annealing move budget per DFG node
ANNEAL_MOVES_PER_NODE = 400


def resolve_seed(explicit: Optional[int] = None) -> int:
    """The engine-wide seed precedence, documented in docs/mapping-engines.md.

    An explicit seed (the CLI's ``--seed``) wins; otherwise the
    ``REPRO_PROPERTY_SEED`` environment variable (the same knob that pins
    the property-test generators, so one variable pins a whole CI run);
    otherwise :data:`DEFAULT_HEURISTIC_SEED` -- runs are reproducible by
    default, never wall-clock seeded.
    """
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("REPRO_PROPERTY_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_HEURISTIC_SEED


def _attempt_rng(seed: int, ii: int, attempt: int) -> random.Random:
    """Deterministic per-(II, attempt) RNG stream (restart-on-II-bump)."""
    return random.Random((seed * 1_000_003 + ii) * 8_191 + attempt)


class HeuristicMapper(EngineShell):
    """Anytime list-scheduling + annealing mapper (`Engine` protocol)."""

    name = "heuristic"
    config_class = HeuristicConfig

    def _seed(self) -> int:
        return resolve_seed(self.config.seed)

    def _emit(self, payload: Dict[str, object]) -> None:
        """Deliver a progress event to ``config.on_event``, if set."""
        if self.config.on_event is not None:
            self.config.on_event(payload)

    def _search(self, run: EngineRun) -> None:
        dfg, result, perf, start = run.dfg, run.result, run.perf, run.start
        mii, max_ii = run.mii, run.max_ii
        deadline = start + self.config.budget_seconds
        seed = perf.extra["seed"]
        distances = hop_distances(self.cgra)
        groups = capacity_groups(dfg, self.cgra)
        # like the exact time phase, the horizon must be long enough for
        # the array to absorb all operations at all
        needed_slack = max(
            0, res_ii(dfg, self.cgra.num_pes) - critical_path_length(dfg))
        mobs_cache: Dict[int, object] = {}
        moves_budget = ANNEAL_MOVES_PER_NODE * dfg.num_nodes

        counters = {
            "schedule_attempts": 0,
            "schedule_failures": 0,
            "sa_runs": 0,
            "sa_moves": 0,
            "sa_accepted": 0,
            "sa_ripups": 0,
            "ii_bumps": 0,
        }
        perf.extra["heuristic"] = counters
        budget_exhausted = False
        best_mapping: Optional[Mapping] = None
        best_ii: Optional[int] = None

        def attempt_ii(ii: int) -> Tuple[Optional[Mapping], bool]:
            """One full II attempt: ``(mapping_or_None, budget_out)``.

            Every random draw comes from per-(II, attempt) streams, so
            the outcome at a given II is a pure function of (seed, II)
            -- independent of the sweep direction and of how much work
            other IIs consumed (restart-on-II-bump).
            """
            for attempt in range(RESTARTS_PER_II):
                if time.monotonic() > deadline:
                    return None, True
                rng = _attempt_rng(seed, ii, attempt)
                eff_slack = max(
                    SLACK_LADDER[attempt % len(SLACK_LADDER)], needed_slack)
                mobs = mobs_cache.get(eff_slack)
                if mobs is None:
                    mobs = mobility_schedule(dfg, slack=eff_slack)
                    mobs_cache[eff_slack] = mobs
                jitter = JITTER_STEP * attempt
                phase_start = time.monotonic()
                schedule = list_schedule(
                    dfg, self.cgra, ii, rng=rng, jitter=jitter,
                    mobs=mobs, groups=groups,
                )
                result.time_phase_seconds += time.monotonic() - phase_start
                counters["schedule_attempts"] += 1
                if schedule is None:
                    counters["schedule_failures"] += 1
                    continue
                result.schedules_tried += 1
                for _ in range(ANNEAL_RUNS_PER_SCHEDULE):
                    if time.monotonic() > deadline:
                        return None, True
                    phase_start = time.monotonic()
                    outcome = anneal_placement(
                        schedule, self.cgra, rng, distances=distances,
                        max_moves=moves_budget, deadline=deadline,
                    )
                    result.space_phase_seconds += (time.monotonic()
                                                   - phase_start)
                    counters["sa_runs"] += 1
                    counters["sa_moves"] += outcome.moves
                    counters["sa_accepted"] += outcome.accepted
                    counters["sa_ripups"] += outcome.ripups
                    perf.space_calls += 1
                    if not outcome.found:
                        continue
                    mapping = Mapping(dfg=dfg, cgra=self.cgra,
                                      schedule=schedule,
                                      placement=outcome.placement)
                    violations = validate_mapping(mapping)
                    if violations:
                        # a zero-cost placement that fails the validator is
                        # a bug, not a search failure -- surface it loudly
                        raise InvalidMappingError(violations)
                    return mapping, False
            return None, False

        # "ascend" walks mII upward and stops at the first success (which
        # is the best II the engine can report); "refine" walks the
        # horizon *down* toward mII so a coarse mapping lands almost
        # immediately and every further success strictly improves it --
        # the anytime stream the service exposes per job.
        descending = self.config.strategy == "refine"
        if descending:
            ii_values = range(max_ii, mii - 1, -1)
        else:
            ii_values = range(mii, max_ii + 1)
        for ii in ii_values:
            with run.ii_attempt(ii):
                mapping, budget_exhausted = attempt_ii(ii)
            if mapping is not None:
                best_mapping = mapping
                best_ii = ii
                obs_trace.instant("improvement", ii=ii)
                self._emit({"event": "improvement", "ii": ii, "mii": mii,
                            "elapsed": time.monotonic() - start})
                if not descending or ii == mii:
                    break
            elif not budget_exhausted:
                counters["ii_bumps"] += 1
            if budget_exhausted:
                break

        if best_mapping is not None:
            result.status = MappingStatus.SUCCESS
            result.mapping = best_mapping
            result.ii = best_ii
        elif budget_exhausted:
            result.status = MappingStatus.TOTAL_TIMEOUT
            result.message = (
                f"anytime budget ({self.config.budget_seconds:.1f}s) "
                f"exhausted after {result.iis_tried} II(s); no valid "
                "mapping found yet"
            )
        else:
            result.message = (
                f"no heuristic mapping found for II in [{mii}, {max_ii}] "
                f"({counters['schedule_attempts']} schedule attempt(s), "
                f"{counters['sa_runs']} placement run(s))"
            )
