"""The pre-rewrite CDCL solver, kept as a differential-testing oracle.

This is the object/dict-shaped CDCL kernel that powered the SMT layer before
the flat-arena rewrite (:mod:`repro.smt.sat`). It is retained verbatim --
same constraint semantics, same public contract (incremental solving,
assumptions with failed cores, clause-footprint push/pop with variable
rollback) -- so that

* the differential property suite (``tests/test_solver_differential.py``)
  can prove the rewritten kernel returns identical statuses on random CNF
  and on real time-phase instances, and
* ``benchmarks/bench_solver.py`` can measure the end-to-end speedup of the
  flat-arena kernel against this exact code (the recorded
  ``BENCH_solver.json`` baseline).

Inject it by passing the class itself: ``solver_backend=ReferenceSATSolver``
on :class:`~repro.core.config.MapperConfig` /
:class:`~repro.core.config.BaselineConfig`, or
``FiniteDomainProblem(solver_cls=ReferenceSATSolver)``.

Do not grow this module: performance work happens in :mod:`repro.smt.sat`;
this file only shrinks (and eventually disappears once enough released
versions have validated the arena kernel).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.cnf import CNF
from repro.smt.sat import SolveResult, SolveStatus, _luby


class ReferenceSATSolver:
    """CDCL solver over clauses added incrementally (pre-arena kernel).

    Typical usage::

        solver = ReferenceSATSolver()
        solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        result = solver.solve(timeout_seconds=10.0)

    Blocking clauses may be added between ``solve`` calls to enumerate models.
    """

    tier = "reference"

    def __init__(self, perf=None) -> None:
        # ``perf`` mirrors the arena kernel's constructor so either class
        # can back a FiniteDomainProblem; counters are folded in once per
        # solve call (cold path), the hot loop is untouched pre-rewrite code.
        self.perf = perf
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[int]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._unit_clauses: List[int] = []
        self._push_stack: List[Tuple[int, int, int, bool, int]] = []
        # VSIDS order heap with lazy (possibly stale) entries; rebuilt on
        # activity rescale. Keeps branching O(log n) instead of a linear
        # scan, which matters once one incremental solver carries the
        # formula of a whole II sweep.
        self._order_heap: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        var = self.num_vars
        self.watches.setdefault(var, [])
        self.watches.setdefault(-var, [])
        heapq.heappush(self._order_heap, (0.0, var))
        return var

    def boost_activity(self, var: int, activity: float) -> None:
        """Raise a variable's activity to at least ``activity``."""
        if activity > self.activity[var]:
            self.activity[var] = activity
            heapq.heappush(self._order_heap, (-activity, var))

    def prefer_true(self, variables: Sequence[int]) -> None:
        """Set the saved phase of each variable to true."""
        for var in variables:
            self.phase[var] = True

    def ensure_vars(self, count: int) -> None:
        """Make sure variables ``1..count`` exist."""
        while self.num_vars < count:
            self.new_var()

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; duplicates removed, tautologies dropped."""
        clause: List[int] = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
            self.ensure_vars(abs(lit))
        if not clause:
            self.ok = False
            return
        index = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 1:
            self._unit_clauses.append(clause[0])
        else:
            self.watches[clause[0]].append(index)
            self.watches[clause[1]].append(index)

    def add_clauses(self, lits: Sequence[int], sizes: Sequence[int]) -> None:
        """Bulk entry point (API parity with the arena kernel).

        Takes the CNF layer's flat pair: ``lits`` back to back, ``sizes``
        per clause. The pre-rewrite kernel has no fast path; each clause
        takes the ordinary re-validating :meth:`add_clause` route, exactly
        as every sync did before the rewrite.
        """
        if sum(sizes) != len(lits):
            raise ValueError("clause sizes do not cover the literals")
        offset = 0
        for size in sizes:
            self.add_clause(lits[offset:offset + size])
            offset += size

    @classmethod
    def from_cnf(cls, cnf: CNF) -> "ReferenceSATSolver":
        solver = cls()
        solver.ensure_vars(cnf.num_vars)
        if cnf.contradiction:
            solver.ok = False
        for clause in cnf.clauses:
            solver.add_clause(clause)
        return solver

    # ------------------------------------------------------------------ #
    # Clause-footprint push/pop
    # ------------------------------------------------------------------ #
    @property
    def scope_depth(self) -> int:
        return len(self._push_stack)

    def push(self) -> None:
        """Mark the clause database and root trail for a later :meth:`pop`.

        Scopes nest. Everything added after the mark -- problem clauses,
        blocking clauses, learnt clauses, *variables*, and root-level
        assignments derived from them -- is retracted by ``pop``; the
        activities and saved phases of surviving variables persist, which
        is what makes scoped re-solving cheap.
        """
        self._cancel_until(0)
        self._push_stack.append(
            (len(self.clauses), len(self._unit_clauses), len(self.trail),
             self.ok, self.num_vars)
        )

    def pop(self) -> None:
        """Retract every clause, variable, and root assignment since push."""
        if not self._push_stack:
            raise RuntimeError("pop() without matching push()")
        num_clauses, num_units, trail_len, ok, num_vars = self._push_stack.pop()
        self._cancel_until(0)
        for lit in self.trail[trail_len:]:
            var = abs(lit)
            self.phase[var] = self.assign[var]
            self.assign[var] = None
            self.reason[var] = None
            self.level[var] = 0
        del self.trail[trail_len:]
        del self.clauses[num_clauses:]
        del self._unit_clauses[num_units:]
        if self.num_vars > num_vars:
            # scope-local variables die with the scope; without this the
            # solver would keep deciding thousands of unconstrained
            # leftovers on every later solve
            del self.assign[num_vars + 1:]
            del self.level[num_vars + 1:]
            del self.reason[num_vars + 1:]
            del self.activity[num_vars + 1:]
            del self.phase[num_vars + 1:]
            self.num_vars = num_vars
        self.ok = ok
        self.qhead = 0
        self._rebuild_watches()
        self._rebuild_order_heap()

    def _rebuild_watches(self) -> None:
        self.watches = {}
        for var in range(1, self.num_vars + 1):
            self.watches[var] = []
            self.watches[-var] = []
        for index, clause in enumerate(self.clauses):
            if len(clause) >= 2:
                self.watches[clause[0]].append(index)
                self.watches[clause[1]].append(index)

    # ------------------------------------------------------------------ #
    # Assignment helpers
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> Optional[bool]:
        val = self.assign[abs(lit)]
        if val is None:
            return None
        return val if lit > 0 else not val

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        limit = self.trail_lim[target_level]
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            self.phase[var] = self.assign[var]  # phase saving
            self.assign[var] = None
            self.reason[var] = None
            heapq.heappush(self._order_heap, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            neg = -lit
            watchlist = self.watches[neg]
            kept: List[int] = []
            i = 0
            n = len(watchlist)
            while i < n:
                ci = watchlist[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_val = self._value(first)
                if first_val is True:
                    kept.append(ci)
                    continue
                found = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) is not False:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches[clause[1]].append(ci)
                        found = True
                        break
                if found:
                    continue
                kept.append(ci)
                if first_val is False:
                    kept.extend(watchlist[i:])
                    self.watches[neg] = kept
                    return ci
                self._enqueue(first, ci)
            self.watches[neg] = kept
        return None

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order_heap()
        else:
            heapq.heappush(self._order_heap, (-self.activity[var], var))

    def _rebuild_order_heap(self) -> None:
        self._order_heap = [
            (-self.activity[v], v)
            for v in range(1, self.num_vars + 1)
            if self.assign[v] is None
        ]
        heapq.heapify(self._order_heap)

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        current_level = self._decision_level()
        learnt: List[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None
        index = len(self.trail) - 1
        clause_index = conflict_index
        while True:
            clause = self.clauses[clause_index]
            start = 0 if p is None else 1
            for j in range(start, len(clause)):
                q = clause[j]
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            var = abs(p)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            clause_index = self.reason[var]
        learnt_clause = [-p] + learnt
        if len(learnt_clause) == 1:
            backtrack = 0
        else:
            backtrack = max(self.level[abs(q)] for q in learnt_clause[1:])
        return learnt_clause, backtrack

    def _attach_learnt(self, learnt: List[int]) -> None:
        """Record a learnt clause and enqueue its asserting literal."""
        if len(learnt) == 1:
            self._cancel_until(0)
            if self._value(learnt[0]) is False:
                self.ok = False
                return
            if self._value(learnt[0]) is None:
                self._enqueue(learnt[0], None)
            self.clauses.append(learnt)
            return
        # position 1 must hold a literal of the backtrack level for watching
        max_index = 1
        for j in range(2, len(learnt)):
            if self.level[abs(learnt[j])] > self.level[abs(learnt[max_index])]:
                max_index = j
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        index = len(self.clauses)
        self.clauses.append(learnt)
        self.watches[learnt[0]].append(index)
        self.watches[learnt[1]].append(index)
        self._enqueue(learnt[0], index)

    def _analyze_final(self, failed: int) -> List[int]:
        """Failed-assumption core: assumptions implying ``not failed``.

        ``failed`` is an assumption literal found false while placing the
        assumption prefix. Walking the trail top-down through the reasons
        collects the (subset of) assumption decisions responsible, exactly
        like MiniSat's ``analyzeFinal``.
        """
        core = [failed]
        if self._decision_level() == 0 or not self.trail_lim:
            return core
        seen = [False] * (self.num_vars + 1)
        seen[abs(failed)] = True
        for lit in reversed(self.trail[self.trail_lim[0]:]):
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self.reason[var]
            if reason is None:
                core.append(lit)  # an assumption decision
            else:
                for q in self.clauses[reason][1:]:
                    if self.level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[var] = False
        return core

    # ------------------------------------------------------------------ #
    # Branching
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        heap = self._order_heap
        while heap:
            neg_activity, var = heapq.heappop(heap)
            if self.assign[var] is not None:
                continue  # stale entry of an assigned variable
            if -neg_activity < self.activity[var]:
                # stale priority (bumped since push): requeue correctly
                heapq.heappush(heap, (-self.activity[var], var))
                continue
            return var
        # Safety net -- the lazy heap should never run dry while unassigned
        # variables remain, but a linear scan keeps the solver complete.
        for var in range(1, self.num_vars + 1):
            if self.assign[var] is None:
                return var
        return None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(
        self,
        timeout_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        assumptions: Optional[Sequence[int]] = None,
    ) -> SolveResult:
        """Run the CDCL search (see :meth:`_solve_inner` for the loop)."""
        result = self._solve_inner(timeout_seconds, max_conflicts, assumptions)
        perf = self.perf
        if perf is not None:
            perf.solve_calls += 1
            perf.conflicts += result.conflicts
            perf.decisions += result.decisions
            perf.propagations += result.propagations
        return result

    def _solve_inner(
        self,
        timeout_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        assumptions: Optional[Sequence[int]] = None,
    ) -> SolveResult:
        """Run the CDCL search, optionally under assumption literals.

        Assumptions are placed as the first decisions (one decision level
        each) and hold for this call only; clauses learnt while they are in
        force mention their negations where needed, so the clause database
        stays valid for later calls with different assumptions. If the
        assumptions are inconsistent with the formula the result is UNSAT
        with :attr:`SolveResult.core` set, and the solver remains usable.

        Returns a :class:`SolveResult` whose status is ``UNKNOWN`` if the
        timeout or conflict budget was exhausted before a decision was made.
        """
        start = time.monotonic()
        assumption_list = list(assumptions) if assumptions else []
        for lit in assumption_list:
            if lit == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.ensure_vars(abs(lit))
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        if not self.ok:
            return SolveResult(SolveStatus.UNSAT, elapsed_seconds=0.0)
        self._cancel_until(0)
        # assert root-level units
        for lit in self._unit_clauses:
            val = self._value(lit)
            if val is False:
                return SolveResult(SolveStatus.UNSAT,
                                   elapsed_seconds=time.monotonic() - start)
            if val is None:
                self._enqueue(lit, None)
        # Re-propagate the whole root-level trail so that clauses added since
        # the previous solve call (e.g. blocking clauses) are taken into
        # account even when their literals were already assigned at level 0.
        self.qhead = 0
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count)
        conflicts_in_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_in_restart += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return SolveResult(
                        SolveStatus.UNSAT,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                        elapsed_seconds=time.monotonic() - start,
                    )
                learnt, backtrack_level = self._analyze(conflict)
                self._cancel_until(backtrack_level)
                self._attach_learnt(learnt)
                if not self.ok:
                    return SolveResult(
                        SolveStatus.UNSAT,
                        conflicts=self.conflicts,
                        elapsed_seconds=time.monotonic() - start,
                    )
                self.var_inc *= self.var_decay
                continue
            # no conflict
            if timeout_seconds is not None and self.conflicts % 64 == 0:
                if time.monotonic() - start > timeout_seconds:
                    return SolveResult(
                        SolveStatus.UNKNOWN,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                        elapsed_seconds=time.monotonic() - start,
                    )
            if max_conflicts is not None and self.conflicts >= max_conflicts:
                return SolveResult(
                    SolveStatus.UNKNOWN,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=time.monotonic() - start,
                )
            if conflicts_in_restart >= conflicts_until_restart:
                restart_count += 1
                conflicts_in_restart = 0
                conflicts_until_restart = 100 * _luby(restart_count)
                self._cancel_until(0)
                continue
            # Place the next assumption (restarts and backjumps may have
            # removed earlier ones; they are simply re-placed here).
            next_assumption = None
            assumption_failed = None
            while (
                self._decision_level() < len(assumption_list)
                and next_assumption is None
            ):
                candidate = assumption_list[self._decision_level()]
                value = self._value(candidate)
                if value is True:
                    self.trail_lim.append(len(self.trail))  # dummy level
                elif value is False:
                    assumption_failed = candidate
                    break
                else:
                    next_assumption = candidate
            if assumption_failed is not None:
                core = self._analyze_final(assumption_failed)
                self._cancel_until(0)
                return SolveResult(
                    SolveStatus.UNSAT,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=time.monotonic() - start,
                    core=core,
                )
            if next_assumption is not None:
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(next_assumption, None)
                continue
            var = self._pick_branch_variable()
            if var is None:
                model = {
                    v: bool(self.assign[v])
                    for v in range(1, self.num_vars + 1)
                    if self.assign[v] is not None
                }
                # unassigned variables (none should remain) default to False
                for v in range(1, self.num_vars + 1):
                    model.setdefault(v, False)
                return SolveResult(
                    SolveStatus.SAT,
                    model=model,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=time.monotonic() - start,
                )
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)
