"""Coupled space-time mapping (SAT-MapIt-style baseline).

For every candidate ``II`` (starting at ``mII``), a *single* SAT formula
simultaneously decides

* the start time of every DFG node (same mobility windows and precedence
  constraints as the decoupled time phase), and
* the PE executing every node,

with two families of coupling constraints:

* **exclusivity** -- at most one operation per (kernel slot, PE) pair, and
* **routability** -- the endpoints of every dependence are placed on
  identical or adjacent PEs.

The formula size therefore grows with ``nodes x II x PEs`` (the size of the
MRRG), which is exactly the scalability bottleneck the paper attributes to
SAT-MapIt: on large CGRAs the coupled encoding becomes huge and slow, while
the decoupled mapper's formulas stay small.

The encoding is *incremental*: the II-independent part (variables over the
full schedule horizon, data-dependence precedence, routability) is built
once per ``map()`` call; each (II, slack) attempt then opens a clause
scope (:meth:`repro.smt.csp.FiniteDomainProblem.push`), adds the
II-specific loop-carried precedence, capacity, and exclusivity clauses plus
the horizon restriction, solves, and pops the scope. Variable activities
and saved phases survive across attempts, so the mII -> II sweep does not
restart the search from scratch. The baseline honours a per-``map()``
budget, mirroring the paper's 4000 s experimental budget; the budget also
covers formula construction, which is part of the baseline's compilation
time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.arch.cgra import CGRA
from repro.core.config import SLACK_LADDER, BaselineConfig
from repro.core.mapper import (
    EngineRun,
    EngineShell,
    MappingResult,
    MappingStatus,
)
from repro.core.mapping import Mapping
from repro.core.time_solver import Schedule
from repro.core.validation import assert_valid_mapping
from repro.graphs.analysis import (
    critical_path_length,
    mobility_schedule,
    res_ii,
)
from repro.graphs.dfg import DFG
from repro.perf import PerfCounters, timed
from repro.smt.cnf import negate
from repro.smt.csp import FiniteDomainProblem, IntVar
from repro.smt.sat import SolveResult, SolveStatus


class _EncodingTimeout(Exception):
    """Internal: the timeout fired while the formula was being built."""


class _CoupledEncoding:
    """One coupled space-time instance, re-scoped per (II, slack) attempt."""

    def __init__(
        self,
        dfg: DFG,
        cgra: CGRA,
        max_slack: int,
        deadline: Optional[float] = None,
        perf: Optional[PerfCounters] = None,
        solver_cls: Optional[type] = None,
    ) -> None:
        self.dfg = dfg
        self.cgra = cgra
        self.deadline = deadline
        self.perf = perf
        self._needed_slack = max(
            0, res_ii(dfg, cgra.num_pes) - critical_path_length(dfg)
        )
        self.max_slack = max(max_slack, self._needed_slack)
        self.mobs = mobility_schedule(dfg, slack=self.max_slack)
        self.problem = FiniteDomainProblem(solver_cls=solver_cls, perf=perf)
        self.time_vars: Dict[int, IntVar] = {}
        self.place_vars: Dict[int, IntVar] = {}
        self._base_latest: Dict[int, int] = {}
        with timed(perf, "encode_seconds"):
            self._build_base()

    # ------------------------------------------------------------------ #
    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _EncodingTimeout()

    def effective_slack(self, slack: int) -> int:
        return min(max(slack, self._needed_slack), self.max_slack)

    def _build_base(self) -> None:
        """II-independent encoding: variables, data precedence, routability,
        and per-node operation-support placement restrictions."""
        problem = self.problem
        num_pes = self.cgra.num_pes
        for node_id in self.dfg.node_ids():
            self.time_vars[node_id] = problem.new_int(
                f"t{node_id}", self.mobs.earliest(node_id), self.mobs.latest(node_id)
            )
            self._base_latest[node_id] = self.mobs.latest(node_id) - self.max_slack
            self.place_vars[node_id] = problem.new_int(f"p{node_id}", 0, num_pes - 1)
        self._check_deadline()
        self._add_op_support()
        for edge in self.dfg.edges():
            if edge.distance == 0:
                problem.add_ge(
                    self.time_vars[edge.dst],
                    self.time_vars[edge.src],
                    self.dfg.node(edge.src).latency,
                )
        self._check_deadline()
        self._add_routability()

    def _add_op_support(self) -> None:
        """Forbid placing a node on a PE that cannot execute its opcode."""
        for node in self.dfg.nodes():
            supporting = self.cgra.supporting_pes(node.opcode)
            if len(supporting) == self.cgra.num_pes:
                continue
            self.problem.restrict_domain(self.place_vars[node.id], supporting)

    def _add_routability(self) -> None:
        """Endpoints of every dependence on identical or adjacent PEs."""
        problem = self.problem
        add_clean = problem.cnf.add_clause_clean
        for a, b in sorted(self.dfg.undirected_edges()):
            self._check_deadline()
            place_a = self.place_vars[a]
            place_b = self.place_vars[b]
            for pe in range(self.cgra.num_pes):
                reachable = self.cgra.neighbors_or_self(pe)
                # placement literals of two distinct nodes: clean clause
                clause = [-problem.value_literal(place_a, pe)]
                clause.extend(
                    problem.value_literal(place_b, q) for q in sorted(reachable)
                )
                add_clean(clause)

    # ------------------------------------------------------------------ #
    # Scoped (II, slack) constraints
    # ------------------------------------------------------------------ #
    def _slot_literal(self, node_id: int, ii: int, slot: int):
        return self.problem.mod_indicator(self.time_vars[node_id], ii, slot)

    def _candidate_slots(self, node_id: int, ii: int, eff_slack: int) -> List[int]:
        earliest = self.mobs.earliest(node_id)
        latest = self._base_latest[node_id] + eff_slack
        return sorted({t % ii for t in range(earliest, latest + 1)})

    def _add_loop_carried(self, ii: int) -> None:
        for edge in self.dfg.edges():
            if edge.distance == 0:
                continue
            self.problem.add_ge(
                self.time_vars[edge.dst],
                self.time_vars[edge.src],
                self.dfg.node(edge.src).latency - edge.distance * ii,
            )

    def _add_capacity(self, ii: int) -> None:
        """Redundant per-slot capacity bound (prunes the coupled search)."""
        if self.dfg.num_nodes <= self.cgra.num_pes:
            return
        for slot in range(ii):
            literals = [
                self._slot_literal(node_id, ii, slot)
                for node_id in self.dfg.node_ids()
            ]
            self.problem.at_most(literals, self.cgra.num_pes)

    def _add_exclusivity(self, ii: int, eff_slack: int) -> None:
        """At most one operation per (kernel slot, PE) resource of the MRRG."""
        problem = self.problem
        add_clean = problem.cnf.add_clause_clean
        reserve = problem.cnf.pool.reserve
        num_pes = self.cgra.num_pes
        occupancy: List[List[List[int]]] = [
            [[] for _ in range(num_pes)] for _ in range(ii)
        ]
        for node_id in self.dfg.node_ids():
            self._check_deadline()
            place_var = self.place_vars[node_id]
            pe_literals = [problem.value_literal(place_var, pe)
                           for pe in range(num_pes)]
            for slot in self._candidate_slots(node_id, ii, eff_slack):
                slot_literal = self._slot_literal(node_id, ii, slot)
                clean = type(slot_literal) is int
                slot_occupancy = occupancy[slot]
                z = reserve(num_pes)  # one occupancy indicator per PE
                for pe in range(num_pes):
                    pe_literal = pe_literals[pe]
                    if clean and type(pe_literal) is int:
                        add_clean([-slot_literal, -pe_literal, z])
                    else:
                        problem.add_clause(
                            [negate(slot_literal), negate(pe_literal), z])
                    slot_occupancy[pe].append(z)
                    z += 1
        for slot_occupancy in occupancy:
            self._check_deadline()
            for literals in slot_occupancy:
                if len(literals) > 1:
                    problem.at_most(literals, 1)

    def _add_horizon(self, eff_slack: int) -> None:
        for node_id, var in self.time_vars.items():
            self.problem.add_clause([
                self.problem.le_literal(var, self._base_latest[node_id] + eff_slack)
            ])

    def attempt(
        self, ii: int, slack: int, timeout_seconds: Optional[float]
    ) -> SolveResult:
        """Solve one (II, slack) attempt inside a retractable clause scope."""
        eff_slack = self.effective_slack(slack)
        self.problem.push()
        try:
            with timed(self.perf, "encode_seconds"):
                self._add_horizon(eff_slack)
                self._add_loop_carried(ii)
                self._add_capacity(ii)
                self._check_deadline()
                self._add_exclusivity(ii, eff_slack)
            return self.problem.solve_detailed(timeout_seconds=timeout_seconds)
        finally:
            self.problem.pop()

    # ------------------------------------------------------------------ #
    def extract(self, ii: int, result: SolveResult) -> Mapping:
        solution = self.problem._extract(result)
        start_times = {
            node_id: solution.value(var) for node_id, var in self.time_vars.items()
        }
        placement = {
            node_id: solution.value(var) for node_id, var in self.place_vars.items()
        }
        schedule = Schedule(dfg=self.dfg, ii=ii, start_times=start_times)
        return Mapping(dfg=self.dfg, cgra=self.cgra, schedule=schedule,
                       placement=placement)


class SatMapItMapper(EngineShell):
    """Coupled baseline with the same ``map()`` interface as the mapper."""

    name = "satmapit"
    config_class = BaselineConfig

    def _search(self, run: EngineRun) -> None:
        result = run.result
        deadline = run.start + self.config.budget_seconds
        # the whole coupled search is "time phase" from the paper's
        # viewpoint: building the base encoding and every attempt count
        encode_started = time.monotonic()
        try:
            encoding = _CoupledEncoding(
                run.dfg, self.cgra, max(SLACK_LADDER), deadline=deadline,
                perf=run.perf, solver_cls=run.solver_cls,
            )
        except _EncodingTimeout:
            result.status = MappingStatus.TIME_TIMEOUT
            result.message = "timed out while building the base encoding"
            return
        finally:
            result.time_phase_seconds += time.monotonic() - encode_started

        for ii in range(run.mii, run.max_ii + 1):
            with run.ii_attempt(ii):
                done = self._attempt_ii(encoding, ii, deadline, result)
            if done:
                break
        if result.status is MappingStatus.NO_SOLUTION and not result.message:
            result.message = (f"no coupled mapping found for II in "
                              f"[{run.mii}, {run.max_ii}]")

    def _attempt_ii(self, encoding: _CoupledEncoding, ii: int,
                    deadline: float, result: MappingResult) -> bool:
        """Try one II over the slack candidates; ``True`` ends the sweep
        (mapped or timed out)."""
        attempted_slacks = set()
        for slack in SLACK_LADDER:
            eff_slack = encoding.effective_slack(slack)
            if eff_slack in attempted_slacks:
                continue
            attempted_slacks.add(eff_slack)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                result.status = MappingStatus.TIME_TIMEOUT
                result.message = f"timed out before II={ii}"
                return True
            attempt_started = time.monotonic()
            try:
                solve_result = encoding.attempt(ii, slack, remaining)
            except _EncodingTimeout:
                result.status = MappingStatus.TIME_TIMEOUT
                result.message = f"timed out while encoding II={ii}"
                return True
            finally:
                result.time_phase_seconds += time.monotonic() - attempt_started
            result.schedules_tried += 1
            if solve_result.status is SolveStatus.UNKNOWN:
                result.status = MappingStatus.TIME_TIMEOUT
                result.message = f"SAT solver timed out on II={ii}"
                return True
            if solve_result.status is SolveStatus.UNSAT:
                continue  # retry the same II with a longer horizon
            mapping = encoding.extract(ii, solve_result)
            assert_valid_mapping(mapping)
            result.status = MappingStatus.SUCCESS
            result.mapping = mapping
            result.ii = ii
            return True
        return False
