"""The decoupled space/time mapper (the paper's main contribution).

:class:`MonomorphismMapper` drives the two phases:

1. starting from ``mII = max(ResII, RecII)``, ask the time phase
   (:class:`~repro.core.time_solver.IncrementalTimeSolver`) for schedules
   satisfying the modulo-scheduling + capacity + connectivity constraints;
2. hand each schedule to the space phase
   (:class:`~repro.core.space_solver.SpaceSolver`), which searches a
   monomorphism of the slot-labelled DFG into the MRRG;
3. the first successful placement is validated and returned; if no schedule
   of the current ``II`` can be placed, ``II`` is increased.

Two pragmatic refinements over the paper's description are implemented (both
are needed only on workloads wider than the paper's):

* if the time phase proves an ``II`` infeasible, the schedule horizon is
  extended along :data:`repro.core.config.SLACK_LADDER` before giving up on
  that ``II`` -- a longer schedule only lengthens the prologue/epilogue, not
  the steady-state throughput;
* the space phase may reject several schedules of the same ``II``; the time
  phase then enumerates further schedules with distinct slot patterns (up
  to :data:`repro.core.time_solver.SLOT_PATTERNS_PER_II` of them). Each
  rejected schedule is blocked on its ``t mod II`` projection, the only
  part of it the space phase reads, so the same placement search never
  runs twice.

Every time and space solve gets what is left of the one
``MapperConfig.budget_seconds`` budget of the ``map()`` call.

The result records the wall-clock time spent in each phase separately,
matching the "Time / Space" columns of the paper's Table III.

:class:`EngineShell` is the ``map()`` all three search engines share (this
mapper, the coupled baseline and the heuristic engine): it runs the
prologue, the feasibility gate and the bookkeeping around each attempted
II, so each engine supplies only its search.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.opt.pipeline import OptResult

from repro.arch.cgra import CGRA
from repro.core.config import SLACK_LADDER, MapperConfig
from repro.core.exceptions import PhaseTimeoutError
from repro.core.feasibility import FeasibilityReport, analyze_feasibility
from repro.core.mapping import Mapping
from repro.core.space_solver import SpaceSolver
from repro.core.time_solver import IncrementalTimeSolver, Schedule
from repro.core.validation import assert_valid_mapping
from repro.graphs.analysis import critical_path_length, rec_ii, res_ii
from repro.graphs.dfg import DFG
from repro.obs import hooks as obs_hooks
from repro.obs import trace as obs_trace
from repro.perf import LAYERS, PerfCounters
from repro.smt.csp import resolve_solver_backend


class MappingStatus(enum.Enum):
    """Final status of a mapping attempt."""

    SUCCESS = "success"
    NO_SOLUTION = "no_solution"
    INFEASIBLE = "infeasible"  # an opcode of the DFG is supported by no PE
    TIME_TIMEOUT = "time_timeout"
    SPACE_TIMEOUT = "space_timeout"
    TOTAL_TIMEOUT = "total_timeout"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _Outcome(enum.Enum):
    """Internal outcome of one II attempt."""

    MAPPED = "mapped"
    FAILED = "failed"
    SPACE_TIMEOUT = "space_timeout"
    TIME_TIMEOUT = "time_timeout"
    TOTAL_TIMEOUT = "total_timeout"


@dataclass
class MappingResult:
    """Everything the experiments need to know about one mapping attempt.

    When a pre-mapping optimization pipeline ran (``MapperConfig.opt_level``
    / ``opt_passes``), ``opt`` holds its :class:`~repro.opt.pipeline.OptResult`
    -- including the node map callers need to translate per-node metadata
    (e.g. simulation initial values) onto the optimized graph the returned
    ``mapping`` refers to -- and ``opt_seconds`` the time it took (also part
    of ``total_seconds``: optimization is compilation time).

    ``opt_seconds``, ``time_phase_seconds`` and ``space_phase_seconds``
    read the run's one layer record, ``stats["seconds"]``; on both exact
    engines Time includes the base encoding of the time formula.

    ``stats`` is the :class:`repro.perf.PerfCounters` payload of the run
    (solver counters, per-layer wall clock, space-search counters); every
    engine populates it on every call. With ``config.profile`` set it also
    carries the detailed in-loop propagate/analyze/reduce attribution --
    that is what ``repro-map profile`` prints.

    The ``stats`` key inventory (all engines share the base shape, each
    adds its own section):

    * ``seconds`` -- per-layer wall clock (:data:`repro.perf.LAYERS`:
      ``opt``, ``mii``, ``time``, ``space``, ``validation``; disjoint,
      so they sum to at most ``total_seconds``), the ``time`` shares
      ``encode`` and ``solve``, and under profiling ``propagate`` /
      ``analyze`` / ``reduce``;
    * ``solver`` -- SAT kernel counters: ``conflicts``, ``decisions``,
      ``propagations``, ``learnts``, ``restarts``, ``reductions``, ...;
    * ``space`` -- space-phase counters: ``calls``, ``nodes_explored``,
      ``backtracks``;
    * ``engine`` -- which engine produced the result; ``backend`` -- the
      SAT kernel behind an exact engine; ``detailed`` -- whether the
      profiling attribution was on;
    * ``per_ii`` -- one entry per II attempted, in attempt order:
      ``{"ii", "time", "space", "schedules"}``, what that attempt added
      to the ``time`` and ``space`` layers and to ``schedules_tried``
      (so ``len(per_ii) == iis_tried``); the trace behind
      compile-time-vs-II plots;
    * ``seed`` -- the resolved RNG seed (stochastic engines only);
    * ``heuristic`` -- the anytime engine's search counters
      (``schedule_attempts``, ``schedule_failures``, ``sa_runs``,
      ``sa_moves``, ``sa_accepted``, ``sa_ripups``, ``ii_bumps``);
    * ``portfolio`` / ``winner`` -- the portfolio's per-engine outcome
      list (``engine``, ``status``, ``ii``, ``total_seconds`` each) and
      the name of the engine whose result was returned.

    The whole payload is JSON-clean; the compile service stores it
    verbatim in its result records (see ``docs/service.md``).
    """

    status: MappingStatus
    mapping: Optional[Mapping] = None
    ii: Optional[int] = None
    mii: int = 0
    res_ii: int = 0
    rec_ii: int = 0
    time_phase_seconds: float = 0.0
    space_phase_seconds: float = 0.0
    total_seconds: float = 0.0
    schedules_tried: int = 0
    iis_tried: int = 0
    message: str = ""
    opt: Optional["OptResult"] = None
    opt_seconds: float = 0.0
    stats: Optional[Dict[str, object]] = None

    @property
    def success(self) -> bool:
        return self.status is MappingStatus.SUCCESS

    @property
    def timed_out(self) -> bool:
        return self.status in (
            MappingStatus.TIME_TIMEOUT,
            MappingStatus.SPACE_TIMEOUT,
            MappingStatus.TOTAL_TIMEOUT,
        )

    def summary(self) -> str:
        opt_note = ""
        if self.opt is not None and self.opt.changed:
            opt_note = (f", opt {self.opt.nodes_before}->"
                        f"{self.opt.nodes_after} nodes")
        if self.success:
            return (
                f"II={self.ii} (mII={self.mii}) in {self.total_seconds:.3f}s "
                f"(time {self.time_phase_seconds:.3f}s, "
                f"space {self.space_phase_seconds:.3f}s, "
                f"{self.schedules_tried} schedule(s) tried{opt_note})"
            )
        return (f"{self.status}: {self.message or 'no mapping found'}"
                f"{opt_note}")


def run_pre_mapping_opt(
    dfg: DFG, cgra: CGRA, config
) -> Tuple[DFG, Optional["OptResult"]]:
    """Pre-mapping optimization prologue of the engine shell.

    Runs the configured :mod:`repro.opt` pipeline (no-op at O0 with no
    explicit pass list) against ``cgra`` as the strength-reduction target.
    The pipeline is differentially verified pass by pass against the
    reference interpreter, so an unsound rewrite fails loudly here rather
    than as a downstream mapping mystery. mII/ResII/RecII are computed
    afterwards on the returned graph, i.e. post-optimization.
    """
    opt_level = getattr(config, "opt_level", 0)
    opt_passes = getattr(config, "opt_passes", None)
    if not opt_level and not opt_passes:
        return dfg, None
    # imported lazily: repro.opt pulls in the simulator for verification,
    # which transitively imports this module
    from repro.opt.pipeline import optimize_dfg

    opt_result = optimize_dfg(
        dfg,
        opt_level=opt_level,
        passes=opt_passes,
        target=cgra,
        verify=True,
    )
    return opt_result.optimized, opt_result


def begin_mapping(dfg: DFG, cgra: CGRA) -> Tuple[FeasibilityReport, int,
                                                 int, int]:
    """Feasibility prologue of the engine shell.

    Runs the op-compatibility feasibility gate once and computes the
    op-aware ``(ResII, RecII, mII)`` triple. Returns ``(feasibility,
    res_ii, rec_ii, mii)``; the shell reports INFEASIBLE when the report
    is not feasible, and otherwise hands the report on to the search, so
    no later layer analyses the fabric again.
    """
    feasibility = analyze_feasibility(dfg, cgra)
    resource_ii = max(res_ii(dfg, cgra.num_pes), feasibility.op_res_ii)
    recurrence_ii = rec_ii(dfg)
    return (feasibility, resource_ii, recurrence_ii,
            max(resource_ii, recurrence_ii))


class EngineRun:
    """One ``map()`` call as the engine shell hands it to a search.

    ``dfg`` is the graph after the pre-mapping pipeline; ``result`` is the
    NO_SOLUTION :class:`MappingResult` the search fills in (status,
    mapping, II, message, schedules tried); ``perf`` holds the run's
    counters and layers; ``start`` is the monotonic time every budget of
    the run counts from; ``[mii, max_ii]`` is the II range to sweep;
    ``solver_cls`` is the SAT solver class the shell selected for the
    run (``None`` for an engine without a SAT kernel); ``feasibility``
    is the prologue's report on ``dfg`` and the fabric, and
    ``critical_path`` the length of ``dfg``'s longest data chain.
    """

    def __init__(self, engine: str, dfg: DFG, result: MappingResult,
                 perf: PerfCounters, start: float, max_ii: int,
                 solver_cls: Optional[type],
                 feasibility: FeasibilityReport, critical_path: int) -> None:
        self.engine = engine
        self.dfg = dfg
        self.feasibility = feasibility
        self.critical_path = critical_path
        self.result = result
        self.perf = perf
        self.start = start
        self.mii = result.mii
        self.max_ii = max_ii
        self.solver_cls = solver_cls

    @contextmanager
    def ii_attempt(self, ii: int) -> Iterator[None]:
        """One attempted II: its span, latency sample and ``per_ii`` entry.

        Both record what the block added to the run's layers (the entry
        its ``time`` and ``space`` and its schedule count); one entry per
        call keeps ``len(per_ii) == iis_tried``.
        """
        result, seconds = self.result, self.perf.seconds
        result.iis_tried += 1
        before = dict(seconds)
        schedules_before = result.schedules_tried
        with obs_trace.span("ii_attempt", ii=ii):
            yield
        added = {name: seconds[name] - before[name] for name in LAYERS}
        obs_hooks.record_ii_attempt(self.engine, sum(added.values()))
        self.perf.extra["per_ii"].append({
            "ii": ii,
            "time": round(added["time"], 6),
            "space": round(added["space"], 6),
            "schedules": result.schedules_tried - schedules_before,
        })


class EngineShell:
    """The ``map()`` of the search engines; a subclass supplies ``_search``.

    The shell owns everything that is not search: the ``engine.map`` span
    and terminal hooks, the run's :class:`~repro.perf.PerfCounters` and
    their stamps, DFG validation, the ``opt`` and ``mii`` layers, the
    INFEASIBLE early return, the II range, and the final clock and
    ``stats``. ``_search`` sweeps the II range of its :class:`EngineRun`,
    wrapping each attempted II in :meth:`EngineRun.ii_attempt` and its
    work in the ``time``, ``space`` and ``validation`` layers.
    """

    #: engine name stamped on stats, spans, metrics and log records
    name = ""
    #: config class instantiated when the constructor gets none
    config_class: type = MapperConfig

    def __init__(self, cgra: CGRA, config=None) -> None:
        self.cgra = cgra
        self.config = config if config is not None else self.config_class()

    def _max_ii(self, mii: int, critical_path: int) -> int:
        if self.config.max_ii is not None:
            return max(self.config.max_ii, mii)
        # A schedule of length equal to the critical path always exists; an
        # II of that length leaves every node its full window.
        return max(mii, critical_path)

    def _seed(self) -> Optional[int]:
        """The resolved RNG seed of a stochastic engine; ``None`` if exact."""
        return None

    def _search(self, run: EngineRun) -> None:
        raise NotImplementedError

    def map(self, dfg: DFG) -> MappingResult:
        """Map ``dfg`` onto the CGRA; never raises for ordinary failures."""
        with obs_hooks.engine_span(self.name):
            result, perf = self._run(dfg)
            obs_hooks.finish_engine_run(self.name, result, perf=perf)
        return result

    def _run(self, dfg: DFG) -> Tuple[MappingResult, PerfCounters]:
        config = self.config
        dfg.validate()
        perf = PerfCounters(detailed=config.profile)
        perf.extra["engine"] = self.name
        backend = getattr(config, "solver_backend", None)
        solver_cls = None
        if backend is not None:
            # the one tier selection of this run; the search builds every
            # formula on this class
            solver_cls = resolve_solver_backend(backend)
            if isinstance(backend, str):
                perf.extra["backend"] = backend
            if backend == "native":
                perf.extra["solver_tier"] = solver_cls.tier
        seed = self._seed()
        if seed is not None:
            perf.extra["seed"] = seed
        perf.extra["per_ii"] = []
        # the clock starts after the stamps: the first tier selection of
        # a process loads (or builds) the C kernel, which is no part of
        # this mapping and would show in no layer
        start = time.monotonic()
        with perf.layer("opt"):
            dfg, opt_result = run_pre_mapping_opt(dfg, self.cgra, config)
        with perf.layer("mii"):
            feasibility, resource_ii, recurrence_ii, mii = begin_mapping(
                dfg, self.cgra)
            if feasibility.feasible:
                critical_path = critical_path_length(dfg)
        result = MappingResult(
            status=MappingStatus.NO_SOLUTION,
            mii=mii,
            res_ii=resource_ii,
            rec_ii=recurrence_ii,
            opt=opt_result,
        )
        if feasibility.feasible:
            self._search(EngineRun(self.name, dfg, result, perf, start,
                                   self._max_ii(mii, critical_path),
                                   solver_cls, feasibility, critical_path))
        else:
            result.status = MappingStatus.INFEASIBLE
            result.message = feasibility.message()
        result.total_seconds = time.monotonic() - start
        seconds = perf.seconds
        result.opt_seconds = seconds["opt"]
        result.time_phase_seconds = seconds["time"]
        result.space_phase_seconds = seconds["space"]
        result.stats = perf.as_dict()
        return result, perf


class MonomorphismMapper(EngineShell):
    """Maps DFGs onto a CGRA by decoupling the time and space dimensions."""

    name = "monomorphism"

    def __init__(self, cgra: CGRA, config: Optional[MapperConfig] = None) -> None:
        super().__init__(cgra, config)
        self.space_solver = SpaceSolver(cgra, self.config)

    def _search(self, run: EngineRun) -> None:
        result = run.result
        space_timed_out = False
        time_timed_out = False
        time_timeout_message = ""
        # One incremental time solver serves the whole mII -> II sweep: the
        # base encoding is built once and every (II, slack) attempt is a
        # retractable clause scope, carrying activities and phases across.
        with run.perf.layer("time"):
            time_solver = IncrementalTimeSolver(
                run.dfg, self.cgra, self.config, perf=run.perf,
                solver_cls=run.solver_cls, feasibility=run.feasibility,
                critical_path=run.critical_path)

        for ii in range(run.mii, run.max_ii + 1):
            if self._total_budget_exhausted(run.start):
                result.status = MappingStatus.TOTAL_TIMEOUT
                result.message = f"total budget exhausted before II={ii}"
                break
            with run.ii_attempt(ii):
                outcome, mapping, message = self._attempt_ii(
                    run, ii, time_solver
                )
            if outcome is _Outcome.MAPPED:
                result.status = MappingStatus.SUCCESS
                result.mapping = mapping
                result.ii = ii
                break
            if outcome is _Outcome.TIME_TIMEOUT:
                # Give up on this II but keep trying larger ones while the
                # total budget allows it (larger IIs are easier to schedule).
                time_timed_out = True
                time_timeout_message = message
                continue
            if outcome is _Outcome.TOTAL_TIMEOUT:
                result.status = MappingStatus.TOTAL_TIMEOUT
                result.message = message
                break
            if outcome is _Outcome.SPACE_TIMEOUT:
                space_timed_out = True

        if result.status is MappingStatus.NO_SOLUTION and time_timed_out:
            result.status = MappingStatus.TIME_TIMEOUT
            result.message = time_timeout_message
        elif result.status is MappingStatus.NO_SOLUTION and space_timed_out:
            result.status = MappingStatus.SPACE_TIMEOUT
            result.message = "space phase timed out for every attempted II"
        if not result.message and result.status is MappingStatus.NO_SOLUTION:
            result.message = (
                f"no mapping found for II in [{run.mii}, {run.max_ii}] "
                f"(tried {result.schedules_tried} schedule(s))"
            )

    # ------------------------------------------------------------------ #
    def _phase_budget(self, start: float) -> float:
        """Per-call solver budget: what is left of the ``map()`` budget."""
        remaining = self.config.budget_seconds - (time.monotonic() - start)
        return max(0.01, remaining)

    def _attempt_ii(
        self,
        run: EngineRun,
        ii: int,
        time_solver: IncrementalTimeSolver,
    ) -> Tuple[_Outcome, Optional[Mapping], str]:
        """Try one II, extending the schedule horizon on time infeasibility."""
        dfg, result, perf, start = run.dfg, run.result, run.perf, run.start
        space_timed_out = False
        attempted_slacks = set()
        for slack in SLACK_LADDER:
            # Several slack candidates can collapse to one effective
            # horizon (the dense-DFG auto-extension); re-solving the
            # identical instance would be wasted work.
            effective = time_solver.effective_slack(slack)
            if effective in attempted_slacks:
                continue
            attempted_slacks.add(effective)
            if self._total_budget_exhausted(start):
                return (
                    _Outcome.TOTAL_TIMEOUT,
                    None,
                    f"total budget exhausted during II={ii}",
                )
            try:
                with perf.layer("time", ii=ii, slack=slack):
                    schedule_iter = time_solver.iter_schedules(
                        ii, slack=slack,
                        timeout_seconds=self._phase_budget(start),
                    )
                    schedule = self._next_schedule(schedule_iter)
            except PhaseTimeoutError as exc:
                return _Outcome.TIME_TIMEOUT, None, str(exc)

            if schedule is None:
                # II infeasible for this horizon; retry with a longer one.
                continue

            while schedule is not None:
                result.schedules_tried += 1
                with perf.layer("space", ii=ii):
                    space_result = self.space_solver.solve(
                        schedule,
                        timeout_seconds=self._phase_budget(start),
                    )
                perf.space_calls += 1
                perf.space_nodes_explored += space_result.stats.nodes_explored
                perf.space_backtracks += space_result.stats.backtracks
                if space_result.found:
                    mapping = Mapping(
                        dfg=dfg,
                        cgra=self.cgra,
                        schedule=schedule,
                        placement=space_result.placement,
                    )
                    with perf.layer("validation"):
                        assert_valid_mapping(mapping)
                    return _Outcome.MAPPED, mapping, ""
                if space_result.timed_out:
                    space_timed_out = True
                    break
                if self._total_budget_exhausted(start):
                    return (
                        _Outcome.TOTAL_TIMEOUT,
                        None,
                        "total budget exhausted during space search",
                    )
                try:
                    with perf.layer("time", ii=ii):
                        schedule = self._next_schedule(schedule_iter)
                except PhaseTimeoutError as exc:
                    return _Outcome.TIME_TIMEOUT, None, str(exc)

            # Schedules existed for this II but none could be placed (or the
            # space search timed out): a longer horizon is unlikely to help,
            # so move on to the next II.
            break
        if space_timed_out:
            return _Outcome.SPACE_TIMEOUT, None, "space phase timed out"
        return _Outcome.FAILED, None, ""

    # ------------------------------------------------------------------ #
    @staticmethod
    def _next_schedule(iterator) -> Optional[Schedule]:
        try:
            return next(iterator)
        except StopIteration:
            return None

    def _total_budget_exhausted(self, start: float) -> bool:
        return time.monotonic() - start > self.config.budget_seconds
