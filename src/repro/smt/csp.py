"""Finite-domain integer layer on top of the SAT solver ("mini SMT").

The paper expresses the time phase as an SMT formula over integer start
times. This module provides the fragment actually needed:

* bounded integer variables (:class:`IntVar`),
* difference constraints ``y >= x + delta`` (the modulo-scheduling
  precedence constraints of Sec. IV-B1),
* arbitrary clauses over *indicator literals* such as ``[x == v]`` or
  ``[x mod m == r]`` (used for the capacity and connectivity cardinality
  constraints of Sec. IV-B2/3),
* model enumeration through blocking clauses (the mapper asks for the next
  schedule when the space phase rejects one).

Each integer variable gets the classic *regular encoding*: one direct
(one-hot) literal per value plus order literals ``[x <= v]``, with channeling
clauses between them. Difference constraints are encoded over order literals
(linear in the domain size), cardinalities over direct literals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.perf import PerfCounters
from repro.smt.cardinality import at_most_k, exactly_k, exactly_one
from repro.smt.cnf import CNF, FALSE_LIT, TRUE_LIT, VariablePool, negate
from repro.smt.model import FDSolution
from repro.smt.sat import SATSolver, SolveResult, SolveStatus


@dataclass(frozen=True)
class IntVar:
    """A bounded integer decision variable ``lo <= x <= hi``."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty domain for {self.name}: [{self.lo}, {self.hi}]")

    @property
    def domain(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def domain_size(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{self.lo}..{self.hi}]"


def resolve_solver_backend(backend) -> type:
    """Map an engine config's ``solver_backend`` to a solver class.

    ``"native"`` (the engines' default) selects the cffi-compiled C tier
    of the flat-arena kernel when it loads and the arena solver
    otherwise, counting the selection (see :mod:`repro.smt.native`).
    ``"arena"`` (or ``None``) pins the pure-Python kernel of
    :mod:`repro.smt.sat`: the daemon's crash demotion and the solver
    benchmark's arena leg need it. A class is passed through unchanged;
    that is how tests and benchmarks inject a kernel such as the
    differential oracle ``ReferenceSATSolver`` of
    ``tests/oracles/sat_reference.py``.
    """
    if backend is None or backend == "arena":
        return SATSolver
    if isinstance(backend, type):
        return backend
    if backend == "native":
        from repro.smt.native import native_solver_class

        return native_solver_class()
    raise ValueError(
        f"unknown solver backend {backend!r}; expected one of arena, native"
    )


class FiniteDomainProblem:
    """A conjunction of constraints over integer and Boolean variables."""

    def __init__(self, solver_cls: Optional[type] = None,
                 perf: Optional[PerfCounters] = None) -> None:
        self.cnf = CNF(VariablePool())
        self._solver_cls = resolve_solver_backend(solver_cls)
        self.perf = perf
        self._vars: Dict[str, IntVar] = {}
        self._direct: Dict[Tuple[str, int], int] = {}
        self._order: Dict[Tuple[str, int], int] = {}
        # dense per-variable literal tables; the hot accessors
        # (value_literal / le_literal) index these instead of hashing a
        # (name, value) tuple per call
        self._direct_list: Dict[str, List[int]] = {}
        self._order_list: Dict[str, List[int]] = {}
        self._mod_indicator: Dict[Tuple[str, int, int], int] = {}
        self._solver: Optional[SATSolver] = None
        self._solver_clause_count = 0
        self._preferred_true: List[int] = []
        self._initial_activity: List[Tuple[int, float]] = []
        # sync watermarks: how much of _preferred_true / _initial_activity
        # the solver has already seen. Phases are sticky and boost_activity
        # is raise-to-at-least (idempotent), so only the tails need syncing.
        self._pref_synced = 0
        self._activity_synced = 0
        # _initial_activity entries normally arrive in ascending literal
        # order (prioritize() at variable creation), which lets pop()
        # retract a scope's entries by tail truncation; an out-of-order
        # prioritize() clears this flag and pop() falls back to filtering
        self._activity_ordered = True
        self._phases_dirty = False
        self._push_stack: List[
            Tuple[int, bool, Tuple[int, int, int, int, int], int]
        ] = []

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    def new_int(self, name: str, lo: int, hi: int) -> IntVar:
        """Create an integer variable with inclusive bounds."""
        if name in self._vars:
            raise ValueError(f"variable {name!r} already exists")
        var = IntVar(name, lo, hi)
        self._vars[name] = var
        direct_list = []
        for value in var.domain:
            direct = self.cnf.new_var(("d", name, value))
            self._direct[(name, value)] = direct
            direct_list.append(direct)
            # Branching on a direct literal with positive phase makes the CDCL
            # search behave like CSP value labelling (pick a start time) rather
            # than value elimination, which is dramatically faster on the
            # tightly packed scheduling instances.
            self._preferred_true.append(direct)
        order_list = []
        for value in range(lo, hi):  # order literal for hi is constant TRUE
            order = self.cnf.new_var(("o", name, value))
            self._order[(name, value)] = order
            order_list.append(order)
        self._direct_list[name] = direct_list
        self._order_list[name] = order_list
        self._encode_domain(var)
        return var

    def prioritize(self, var: IntVar, weight: float) -> None:
        """Bias the SAT branching order towards ``var``.

        Variables with larger weights are decided earlier; within one
        variable, smaller values are preferred. Used by the time solver to
        label low-mobility (most critical) nodes first, which mimics the
        value-ordering of classic modulo-scheduling heuristics and speeds up
        tightly packed instances considerably. Weights only seed the VSIDS
        activities, so conflict-driven learning still takes over afterwards.
        """
        span = max(1, var.domain_size)
        items = self._initial_activity
        if items and items[-1][0] > self._direct[(var.name, var.lo)]:
            self._activity_ordered = False  # re-prioritizing an older var
        for rank, value in enumerate(var.domain):
            literal = self._direct[(var.name, value)]
            items.append(
                (literal, weight + 0.5 * (span - rank) / span)
            )

    def variables(self) -> List[IntVar]:
        return list(self._vars.values())

    def _encode_domain(self, var: IntVar) -> None:
        name = var.name
        add_clean = self.cnf.add_clause_clean
        order_list = self._order_list[name]
        # order consistency: [x <= v] -> [x <= v+1]
        for index in range(len(order_list) - 1):
            add_clean([-order_list[index], order_list[index + 1]])
        # channeling direct <-> order; the boundary literals are constant
        # (le(hi) is TRUE, le(lo-1) is FALSE), so those clauses simplify
        direct_list = self._direct_list[name]
        for rank, direct in enumerate(direct_list):
            le_v = order_list[rank] if rank < len(order_list) else TRUE_LIT
            le_prev = order_list[rank - 1] if rank > 0 else FALSE_LIT
            # direct -> (x <= v) and direct -> not (x <= v-1)
            if le_v is not TRUE_LIT:
                add_clean([-direct, le_v])
            if le_prev is not FALSE_LIT:
                add_clean([-direct, -le_prev])
            # (x <= v) and not (x <= v-1) -> direct
            if le_v is TRUE_LIT:
                if le_prev is FALSE_LIT:
                    self.cnf.add_clause([direct])
                else:
                    add_clean([le_prev, direct])
            elif le_prev is FALSE_LIT:
                add_clean([-le_v, direct])
            else:
                add_clean([-le_v, le_prev, direct])
        exactly_one(self.cnf, direct_list)

    # ------------------------------------------------------------------ #
    # Literal accessors
    # ------------------------------------------------------------------ #
    def value_literal(self, var: IntVar, value: int):
        """The literal ``[var == value]`` (FALSE if outside the domain)."""
        if value < var.lo or value > var.hi:
            return FALSE_LIT
        return self._direct_list[var.name][value - var.lo]

    def le_literal(self, var: IntVar, value: int):
        """The literal ``[var <= value]`` (constant outside the domain)."""
        if value < var.lo:
            return FALSE_LIT
        if value >= var.hi:
            return TRUE_LIT
        return self._order_list[var.name][value - var.lo]

    def ge_literal(self, var: IntVar, value: int):
        """The literal ``[var >= value]``."""
        return negate(self.le_literal(var, value - 1))

    def mod_indicator(self, var: IntVar, modulus: int, residue: int):
        """A literal implied by ``var mod modulus == residue``.

        The indicator is one-directional (``[var == t] -> indicator`` for
        every ``t`` in the residue class), which is sufficient -- and sound --
        for use in *upper-bound* cardinality constraints: the solver is free
        to set a spurious indicator false, and forced to set real ones true.
        """
        if modulus < 1:
            raise ValueError("modulus must be positive")
        residue %= modulus
        values = [t for t in var.domain if t % modulus == residue]
        if not values:
            return FALSE_LIT
        key = (var.name, modulus, residue)
        existing = self._mod_indicator.get(key)
        if existing is not None:
            return existing
        # ``pool.var`` (get-or-create) so a pop()-truncated indicator can be
        # re-created under the same SAT variable
        indicator = self.cnf.pool.var(("mod", var.name, modulus, residue))
        for t in values:
            self.cnf.add_clause([negate(self.value_literal(var, t)), indicator])
        self._mod_indicator[key] = indicator
        return indicator

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def add_clause(self, literals: Iterable) -> None:
        self.cnf.add_clause(literals)

    def add_ge(self, y: IntVar, x: IntVar, delta: int = 0) -> None:
        """Enforce ``y >= x + delta`` (a difference constraint).

        Encoded over order literals: for every value ``t`` of ``y``,
        ``[y <= t] -> [x <= t - delta]``.
        """
        add_clean = self.cnf.add_clause_clean
        for t in range(y.lo, y.hi + 1):
            lhs = self.le_literal(y, t)
            rhs = self.le_literal(x, t - delta)
            if rhs is TRUE_LIT:
                continue
            if type(lhs) is int and type(rhs) is int and lhs != rhs:
                add_clean([-lhs, rhs])
            else:
                self.cnf.add_clause([negate(lhs), rhs])

    def add_le(self, x: IntVar, y: IntVar, delta: int = 0) -> None:
        """Enforce ``x + delta <= y``."""
        self.add_ge(y, x, delta)

    def add_ne_const(self, x: IntVar, value: int) -> None:
        """Enforce ``x != value``."""
        lit = self.value_literal(x, value)
        if lit != FALSE_LIT:
            self.cnf.add_clause([negate(lit)])

    def add_eq_const(self, x: IntVar, value: int) -> None:
        """Enforce ``x == value``."""
        lit = self.value_literal(x, value)
        self.cnf.add_clause([lit])

    def restrict_domain(self, x: IntVar, allowed: Iterable[int]) -> None:
        """Forbid every value of ``x`` outside ``allowed``.

        Used for structural domain restrictions known up front -- e.g. a
        placement variable on a heterogeneous CGRA may only take PEs that
        implement the node's opcode. An empty intersection with the domain
        makes the problem unsatisfiable (one unit clause per value).
        """
        keep = set(allowed)
        for value in x.domain:
            if value not in keep:
                self.add_ne_const(x, value)

    def at_most(self, literals: Sequence, bound: int) -> None:
        at_most_k(self.cnf, list(literals), bound)

    def exactly(self, literals: Sequence, bound: int) -> None:
        exactly_k(self.cnf, list(literals), bound)

    def forbid_assignment(self, assignment: Dict[IntVar, int]) -> None:
        """Add a blocking clause excluding one specific assignment."""
        clause = []
        for var, value in assignment.items():
            clause.append(negate(self.value_literal(var, value)))
        self.cnf.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    @property
    def num_sat_variables(self) -> int:
        return self.cnf.num_vars

    @property
    def num_sat_clauses(self) -> int:
        return self.cnf.num_clauses

    def _sync_solver(self) -> SATSolver:
        """Create or incrementally update the underlying SAT solver."""
        if self._solver is None:
            self._solver = self._solver_cls(perf=self.perf)
            self._solver_clause_count = 0
            self._pref_synced = 0
            self._activity_synced = 0
        self._solver.ensure_vars(self.cnf.num_vars)
        # Direct literals branch positive so the search labels values (see
        # new_int). The initial phase is re-asserted on purpose: saved
        # phases from a previous solve would otherwise steer enumeration,
        # and the value-labelling bias is the faster regime on scheduling
        # instances. The full sweep only runs when a solve (or pop) has
        # actually flipped phases since the last sync; otherwise just the
        # literals created since then are initialised.
        phase = self._solver.phase
        if self._phases_dirty:
            for literal in self._preferred_true:
                phase[literal] = True
            self._phases_dirty = False
        else:
            for literal in self._preferred_true[self._pref_synced:]:
                phase[literal] = True
        self._pref_synced = len(self._preferred_true)
        activity_items = self._initial_activity
        if self._activity_synced < len(activity_items):
            boost = self._solver.boost_activity
            for literal, activity in activity_items[self._activity_synced:]:
                boost(literal, activity)
            self._activity_synced = len(activity_items)
        backlog = self.cnf.clauses[self._solver_clause_count:]
        if backlog:
            # CNF clauses are already deduplicated, tautology-free and
            # variable-allocated: take the solver's bulk path.
            self._solver.add_clauses(backlog)
        self._solver_clause_count = len(self.cnf.clauses)
        if self.cnf.contradiction:
            self._solver.ok = False
        return self._solver

    # ------------------------------------------------------------------ #
    # Scoped constraint groups
    # ------------------------------------------------------------------ #
    def push(self) -> None:
        """Open a retractable scope (clauses, indicators, variables)."""
        self._sync_solver().push()
        self._push_stack.append((
            len(self.cnf.clauses),
            self.cnf.contradiction,
            (
                len(self._vars),
                len(self._direct),
                len(self._order),
                len(self._mod_indicator),
                len(self._preferred_true),
            ),
            self.cnf.num_vars,
        ))

    def pop(self) -> None:
        """Retract everything added since the matching :meth:`push`."""
        if not self._push_stack:
            raise RuntimeError("pop() without matching push()")
        num_clauses, contradiction, sizes, num_vars = self._push_stack.pop()
        if self._solver is not None:
            self._solver.pop()
            self._phases_dirty = True  # the trail unwind saved phases
        del self.cnf.clauses[num_clauses:]
        self.cnf.contradiction = contradiction
        self._solver_clause_count = num_clauses
        # keys are only ever appended, so a scope's entries are the dict
        # tail: popitem() retracts them in O(scope) instead of listing
        # every key
        while len(self._vars) > sizes[0]:
            name, _ = self._vars.popitem()
            del self._direct_list[name]
            del self._order_list[name]
        for mapping, size in zip(
            (self._direct, self._order, self._mod_indicator), sizes[1:]
        ):
            while len(mapping) > size:
                mapping.popitem()
        del self._preferred_true[sizes[4]:]
        self._pref_synced = min(self._pref_synced, len(self._preferred_true))
        activity = self._initial_activity
        if self._activity_ordered:
            while activity and activity[-1][0] > num_vars:
                activity.pop()
        else:
            # an out-of-order prioritize() broke the ascending-literal
            # invariant: filter instead of truncating (rare, cold path)
            activity[:] = [
                entry for entry in activity if entry[0] <= num_vars
            ]
            self._activity_ordered = True
            self._activity_synced = 0  # conservatively re-sync everything
        self._activity_synced = min(self._activity_synced, len(activity))
        self.cnf.pool.rollback(num_vars)

    @staticmethod
    def _resolve_assumptions(
        assumptions: Optional[Iterable],
    ) -> Tuple[List[int], bool]:
        """Normalise assumption literals; second item flags a constant FALSE."""
        resolved: List[int] = []
        for lit in assumptions or ():
            if lit == TRUE_LIT:
                continue
            if lit == FALSE_LIT:
                return [], True
            resolved.append(lit)
        return resolved, False

    def solve(
        self,
        timeout_seconds: Optional[float] = None,
        assumptions: Optional[Iterable] = None,
    ) -> Optional[FDSolution]:
        """Find one solution, or ``None`` (UNSAT), or raise on timeout."""
        result = self.solve_detailed(timeout_seconds, assumptions=assumptions)
        if result.status is SolveStatus.UNKNOWN:
            raise TimeoutError("finite-domain solve timed out")
        if result.status is SolveStatus.UNSAT:
            return None
        return self._extract(result)

    def solve_detailed(
        self,
        timeout_seconds: Optional[float] = None,
        assumptions: Optional[Iterable] = None,
    ) -> SolveResult:
        literals, impossible = self._resolve_assumptions(assumptions)
        if impossible:
            return SolveResult(SolveStatus.UNSAT)
        solver = self._sync_solver()
        result = solver.solve(
            timeout_seconds=timeout_seconds, assumptions=literals
        )
        # the search saves phases as it goes; the next sync must restore
        # the value-labelling bias over the whole direct-literal set
        self._phases_dirty = True
        return result

    def _extract(self, result: SolveResult) -> FDSolution:
        values: Dict[str, int] = {}
        model = result.model if result.model is not None else {}
        # the arena kernel hands back a snapshot-backed model whose value
        # vector can be indexed directly (C speed); fall back to mapping
        # lookups for plain dict models (reference kernel, brute force)
        snapshot = getattr(model, "vals", None)
        get = model.get
        for var in self._vars.values():
            lits = self._direct_list[var.name]
            if snapshot is not None:
                assigned = [
                    v for v, lit in zip(var.domain, lits) if snapshot[lit] > 0
                ]
            else:
                assigned = [
                    v for v, lit in zip(var.domain, lits) if get(lit, False)
                ]
            if len(assigned) != 1:
                raise RuntimeError(
                    f"inconsistent model for {var.name}: values {assigned}"
                )
            values[var.name] = assigned[0]
        return FDSolution(values=values,
                          solve_seconds=result.elapsed_seconds,
                          conflicts=result.conflicts)

    def enumerate_solutions(
        self,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        assumptions: Optional[Iterable] = None,
        block: Optional[Callable[[FDSolution], Iterable]] = None,
    ):
        """Yield solutions, adding the clause ``block(solution)`` after each.

        ``block`` maps a solution to the clause that excludes it from the
        rest of the enumeration; the default forbids its full assignment
        of every integer variable. A coarser clause excludes a whole class
        of solutions at once (the time phase blocks a schedule on its slot
        projection). Enumeration stops on UNSAT, on the ``limit``, or on a
        timeout (which raises ``TimeoutError`` only if no solution was
        produced in that call). With ``assumptions`` each solve happens
        under the given literals.
        """
        if block is None:
            block = self._assignment_clause
        produced = 0
        deadline = (
            time.monotonic() + timeout_seconds if timeout_seconds is not None else None
        )
        while limit is None or produced < limit:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
            result = self.solve_detailed(
                timeout_seconds=remaining, assumptions=assumptions
            )
            if result.status is SolveStatus.UNKNOWN:
                if produced == 0:
                    raise TimeoutError("finite-domain enumeration timed out")
                return
            if result.status is SolveStatus.UNSAT:
                return
            solution = self._extract(result)
            produced += 1
            yield solution
            self.cnf.add_clause(block(solution))

    def _assignment_clause(self, solution: FDSolution) -> List:
        """The clause forbidding ``solution``'s value of every variable."""
        return [
            negate(self.value_literal(var, solution.value(var)))
            for var in self._vars.values()
        ]
