"""Time phase: modulo scheduling via the SAT/SMT substrate.

For a candidate ``II`` the solver assigns every DFG node an absolute start
time within its Mobility Schedule window; the node's kernel slot is the time
modulo ``II`` (this is exactly the folding performed by the Kernel Mobility
Schedule of paper Sec. IV-B). Three constraint families are encoded:

* **modulo scheduling** (Sec. IV-B1): data dependence ``u -> v`` requires
  ``T_v >= T_u + lat(u)``; a loop-carried dependence with distance ``d``
  requires ``T_v + d*II >= T_u + lat(u)``. These are the unfolded equivalents
  of the paper's folded (slot / iteration-subscript) constraints.
* **capacity** (Sec. IV-B2): at most ``|V_Mi|`` nodes per kernel slot.
* **connectivity** (Sec. IV-B3): for every node, at most ``D_M`` of its
  neighbours per kernel slot.

Capacity and connectivity are the additions that make a subsequent space
solution possible (paper Sec. IV-D); they can be disabled for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.arch.cgra import CGRA
from repro.core.config import MapperConfig
from repro.core.exceptions import PhaseTimeoutError
from repro.core.feasibility import analyze_feasibility
from repro.perf import PerfCounters, timed
from repro.graphs.analysis import (
    MobilitySchedule,
    critical_path_length,
    mobility_schedule,
    res_ii,
)
from repro.graphs.dfg import DFG
from repro.smt.csp import FiniteDomainProblem, IntVar, resolve_solver_backend

#: distinct slot patterns the mapper requests from the time phase for one
#: II before it increases II
SLOT_PATTERNS_PER_II = 24


@dataclass
class Schedule:
    """A valid time solution: absolute start time for every DFG node."""

    dfg: DFG
    ii: int
    start_times: Dict[int, int]

    def time(self, node_id: int) -> int:
        """Absolute start time of a node."""
        return self.start_times[node_id]

    def slot(self, node_id: int) -> int:
        """Kernel slot (``time mod II``) -- the paper's label ``l_G``."""
        return self.start_times[node_id] % self.ii

    def iteration(self, node_id: int) -> int:
        """KMS folding subscript (``time div II``)."""
        return self.start_times[node_id] // self.ii

    @property
    def length(self) -> int:
        """Schedule length in cycles (prologue + one kernel iteration)."""
        return max(
            self.start_times[n] + self.dfg.node(n).latency for n in self.start_times
        )

    @property
    def num_stages(self) -> int:
        """Number of interleaved loop iterations in the kernel."""
        return max(self.iteration(n) for n in self.start_times) + 1

    def labels(self) -> Dict[int, int]:
        """Node -> kernel slot, the labelling used by the space phase."""
        return {n: self.slot(n) for n in self.start_times}

    def slot_population(self) -> Tuple[FrozenSet[int], ...]:
        """Nodes per kernel slot (``C_i`` of the capacity constraint).

        Memoized: a schedule is immutable once produced by the time phase,
        so the populations never change and callers that read them
        repeatedly (the validator checks every slot of every mapping, and
        ``max_slot_population`` is recomputed throughout the test suite)
        share one computation. The cached value is a tuple of frozensets
        so no caller can corrupt it in place; the cache needs no
        invalidation because nothing mutates ``start_times``.
        """
        cached = getattr(self, "_slot_population_cache", None)
        if cached is None:
            population: List[Set[int]] = [set() for _ in range(self.ii)]
            for node_id, start in self.start_times.items():
                population[start % self.ii].add(node_id)
            cached = tuple(frozenset(s) for s in population)
            object.__setattr__(self, "_slot_population_cache", cached)
        return cached

    def max_slot_population(self) -> int:
        cached = getattr(self, "_max_slot_population_cache", None)
        if cached is None:
            cached = max(len(s) for s in self.slot_population())
            object.__setattr__(self, "_max_slot_population_cache", cached)
        return cached

    def neighbor_slot_count(self, node_id: int, slot: int) -> int:
        """``|S_v^i|``: neighbours of a node scheduled in a given slot."""
        return sum(
            1 for u in self.dfg.neighbor_ids(node_id) if self.slot(u) == slot
        )

    def validate_dependences(self) -> List[str]:
        """Check every dependence; returns human-readable violations."""
        violations: List[str] = []
        for edge in self.dfg.edges():
            produced = self.start_times[edge.src] + self.dfg.node(edge.src).latency
            consumed = self.start_times[edge.dst] + edge.distance * self.ii
            if consumed < produced:
                violations.append(
                    f"dependence {edge.src}->{edge.dst} (kind={edge.kind}, "
                    f"distance={edge.distance}) violated: produced at {produced}, "
                    f"consumed at {consumed}"
                )
        return violations

    def as_rows(self) -> List[List[int]]:
        """Nodes per absolute time step (for pretty-printing)."""
        rows: List[List[int]] = [[] for _ in range(self.length)]
        for node_id, t in self.start_times.items():
            rows[t].append(node_id)
        return [sorted(r) for r in rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(ii={self.ii}, length={self.length}, nodes={len(self.start_times)})"


def _restricted_capacity_groups(dfg: DFG, cgra: CGRA) -> List[tuple]:
    """Support classes that can overflow a kernel slot on this fabric.

    Nodes are grouped by the exact set of PEs able to execute their opcode;
    a group competing for ``k < num_pes`` PEs admits at most ``k`` of its
    nodes per slot. Groups that cannot violate that bound (or span the
    whole array, which the global capacity constraint already covers) are
    dropped. Empty on homogeneous fabrics.
    """
    report = analyze_feasibility(dfg, cgra)
    return [
        (sorted(nodes), len(supporting))
        for supporting, nodes in report.restricted_classes.items()
        if len(nodes) > len(supporting)
    ]


class IncrementalTimeSolver:
    """Time phase encoded once per DFG, re-solved per (II, slack) attempt.

    One persistent formula serves every attempt of a DFG/CGRA pair:

    * time variables are created once over the widest schedule horizon the
      mapper may request, together with the II-independent constraints
      (domain channeling plus dependences with distance 0);
    * each (II, slack) attempt opens a clause scope
      (:meth:`repro.smt.csp.FiniteDomainProblem.push`) holding the
      loop-carried precedence, capacity, and connectivity clauses of that
      II and the ``T_v <= ALAP + slack`` horizon restriction; the scope is
      retracted when the next attempt begins;
    * schedule enumeration walks distinct *slot patterns* (the
      ``t mod II`` labelling the space phase sees), blocking each yielded
      schedule on its slot projection inside the scope, so clauses *learnt
      while enumerating one II* persist across the repeated ``solve()``
      calls -- the hot loop when the space phase rejects schedules -- and
      the blocking clauses vanish with the scope;
    * VSIDS activities and saved phases live in the underlying
      :class:`~repro.smt.sat.SATSolver` and survive every pop, warming each
      new II with the search order learnt on the previous ones.

    The horizon is never shorter than ResII time steps: a DFG with more
    nodes than ``num_pes * critical_path`` fits no packing of the plain
    critical-path horizon, so the requested slack is raised to cover it
    (:meth:`effective_slack`).

    If the mapper requests a slack beyond the encoded horizon (a rare
    hard-instance retry), the formula is rebuilt for the larger horizon --
    deliberately, rather than encoding headroom upfront: a wider horizon
    widens every mobility window, which both inflates the domain encoding
    and activates capacity counters that narrow windows satisfy trivially,
    so headroom would tax every ordinary attempt to subsidise a rare one.

    One instance serves one sequential sweep: starting a new ``solve`` /
    ``iter_schedules`` retracts the scope of the previous one, so
    interleaving two live enumerations of different IIs is not supported
    (the mapper never does).
    """

    def __init__(
        self,
        dfg: DFG,
        cgra: CGRA,
        config: Optional[MapperConfig] = None,
        perf: Optional[PerfCounters] = None,
        solver_cls: Optional[type] = None,
    ) -> None:
        self.dfg = dfg
        self.cgra = cgra
        self.config = config if config is not None else MapperConfig()
        self.perf = perf
        # the engine shell passes the class it selected for the run; a
        # standalone solver selects once here, never per rebuild
        self.solver_cls = solver_cls or resolve_solver_backend(
            self.config.solver_backend)
        self._needed_slack = max(
            0, res_ii(dfg, cgra.num_pes) - critical_path_length(dfg)
        )
        self._capacity_groups = _restricted_capacity_groups(dfg, cgra)
        self._rebuilds = 0
        with timed(self.perf, "encode_seconds"):
            self._encode(self._needed_slack)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _encode(self, max_slack: int) -> None:
        """(Re)build the base formula for horizon ``critical path + max_slack``."""
        self.max_slack = max_slack
        self.mobs: MobilitySchedule = mobility_schedule(self.dfg, slack=max_slack)
        self.problem = FiniteDomainProblem(
            solver_cls=self.solver_cls, perf=self.perf
        )
        self._time_vars: Dict[int, IntVar] = {}
        self._base_latest: Dict[int, int] = {}
        self._scope_open = False
        for node_id in self.dfg.node_ids():
            variable = self.problem.new_int(
                f"t{node_id}", self.mobs.earliest(node_id), self.mobs.latest(node_id)
            )
            self._time_vars[node_id] = variable
            self._base_latest[node_id] = self.mobs.latest(node_id) - max_slack
            mobility = self.mobs.mobility(node_id)
            self.problem.prioritize(variable, weight=2.0 / (1.0 + mobility))
        # II-independent precedence: dependences without a loop-carried
        # distance constrain start times identically for every II.
        for edge in self.dfg.edges():
            if edge.distance == 0:
                self.problem.add_ge(
                    self._time_vars[edge.dst],
                    self._time_vars[edge.src],
                    self.dfg.node(edge.src).latency,
                )

    def effective_slack(self, slack: int) -> int:
        """The horizon extension actually applied for a requested slack."""
        return max(slack, self._needed_slack)

    def _ensure_horizon(self, eff_slack: int) -> None:
        if eff_slack > self.max_slack:
            self._rebuilds += 1
            with timed(self.perf, "encode_seconds"):
                self._encode(eff_slack)

    def _begin_attempt(self, ii: int, eff_slack: int) -> None:
        """Open the clause scope of one (II, slack) attempt."""
        if self._scope_open:
            self.problem.pop()
            self._scope_open = False
        with timed(self.perf, "encode_seconds"):
            self.problem.push()
            self._scope_open = True
            for node_id, var in self._time_vars.items():
                self.problem.add_clause([
                    self.problem.le_literal(
                        var, self._base_latest[node_id] + eff_slack)
                ])
            for edge in self.dfg.edges():
                if edge.distance:
                    self.problem.add_ge(
                        self._time_vars[edge.dst],
                        self._time_vars[edge.src],
                        self.dfg.node(edge.src).latency - edge.distance * ii,
                    )
            if self.config.enforce_capacity:
                self._add_capacity(ii)
            if self.config.enforce_connectivity:
                self._add_connectivity(ii)

    def _add_capacity(self, ii: int) -> None:
        """Sec. IV-B2 plus per-support-class bounds, inside the II scope."""
        capacity = self.cgra.num_pes
        if self.dfg.num_nodes > capacity:
            for slot in range(ii):
                indicators = [
                    self.problem.mod_indicator(var, ii, slot)
                    for var in self._time_vars.values()
                ]
                self.problem.at_most(indicators, capacity)
        for nodes, bound in self._capacity_groups:
            for slot in range(ii):
                indicators = [
                    self.problem.mod_indicator(self._time_vars[n], ii, slot)
                    for n in nodes
                ]
                self.problem.at_most(indicators, bound)

    def _add_connectivity(self, ii: int) -> None:
        """Sec. IV-B3, inside the II scope."""
        degree = self.cgra.connectivity_degree
        for node_id, var in self._time_vars.items():
            neighbors = sorted(self.dfg.neighbor_ids(node_id))
            if len(neighbors) <= degree and not self.config.strict_connectivity:
                continue
            for slot in range(ii):
                literals = [
                    self.problem.mod_indicator(self._time_vars[u], ii, slot)
                    for u in neighbors
                ]
                if self.config.strict_connectivity:
                    literals.append(self.problem.mod_indicator(var, ii, slot))
                if len(literals) <= degree:
                    continue
                self.problem.at_most(literals, degree)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def _prepare(self, ii: int, slack: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        eff = self.effective_slack(slack)
        self._ensure_horizon(eff)
        self._begin_attempt(ii, eff)

    def _to_schedule(self, ii: int, solution) -> Schedule:
        start_times = {
            node_id: solution.value(var)
            for node_id, var in self._time_vars.items()
        }
        return Schedule(dfg=self.dfg, ii=ii, start_times=start_times)

    def solve(
        self,
        ii: int,
        slack: int = 0,
        timeout_seconds: Optional[float] = None,
    ) -> Optional[Schedule]:
        """Find one schedule for ``(ii, slack)``; ``None`` if none exists."""
        budget = (
            timeout_seconds
            if timeout_seconds is not None
            else self.config.budget_seconds
        )
        self._prepare(ii, slack)
        try:
            solution = self.problem.solve(timeout_seconds=budget)
        except TimeoutError as exc:
            raise PhaseTimeoutError("time", budget) from exc
        if solution is None:
            return None
        return self._to_schedule(ii, solution)

    def iter_schedules(
        self,
        ii: int,
        slack: int = 0,
        limit: Optional[int] = SLOT_PATTERNS_PER_II,
        timeout_seconds: Optional[float] = None,
    ) -> Iterator[Schedule]:
        """Enumerate schedules with distinct slot patterns for ``(ii, slack)``.

        Each yielded schedule is blocked on its slot projection
        (:meth:`_slot_clause`), not on its start times: the space phase
        sees only the ``t mod II`` labels, so a schedule that differs from
        a rejected one by whole multiples of II could never be placed
        where its twin failed. ``limit`` thus counts distinct slot
        patterns (``None`` enumerates them all).

        Blocking clauses live inside the attempt's clause scope, so they
        are retracted when the next ``solve``/``iter_schedules`` call opens
        its own scope -- later enumerations of the same II see the full
        solution space again, while clauses learnt *during* this
        enumeration keep accelerating its successive solves.
        """
        budget = (
            timeout_seconds
            if timeout_seconds is not None
            else self.config.budget_seconds
        )
        self._prepare(ii, slack)
        try:
            for solution in self.problem.enumerate_solutions(
                limit=limit,
                timeout_seconds=budget,
                block=lambda solution: self._slot_clause(ii, solution),
            ):
                yield self._to_schedule(ii, solution)
        except TimeoutError as exc:
            raise PhaseTimeoutError("time", budget) from exc

    def _slot_clause(self, ii: int, solution) -> List[int]:
        """``OR_v not [t_v mod II == slot_v]``: forbid this slot pattern.

        The indicators are the one-directional literals the capacity
        constraint uses (``[t_v == t] -> indicator`` for every ``t`` in the
        slot's residue class): a schedule with the same slots forces every
        one of them true and violates the clause, while any other schedule
        leaves the indicator of a moved node free to be false. Indicators
        created here belong to the attempt's scope and are retracted by
        its ``pop()``.
        """
        return [
            -self.problem.mod_indicator(var, ii, solution.value(var) % ii)
            for var in self._time_vars.values()
        ]
