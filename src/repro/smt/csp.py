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

The clause shapes are fixed index arithmetic over each variable's two
literal blocks, so every encoder here emits in bulk: it computes a block's
literals column by column (one ``range`` per literal position of its
clause pattern) and appends the block and its clause sizes to the flat
:class:`~repro.smt.cnf.CNF` buffer in one call. Clause order, literal order
and variable numbering are those of the clause-at-a-time formulation
(``tests/oracles/encoders.py``), so every formula is unchanged.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.perf import PerfCounters
from repro.smt.cardinality import at_most_k, at_most_one
from repro.smt.cnf import (
    CNF, FALSE_LIT, SIZE_1, SIZE_2, TRUE_LIT, VariablePool, negate,
)
from repro.smt.model import FDSolution
from repro.smt.sat import SATSolver, SolveResult, SolveStatus


class IntVar:
    """A bounded integer decision variable ``lo <= x <= hi``.

    Its literals are two blocks of consecutive SAT variables: ``[x == v]``
    is ``direct + (v - lo)`` for every value, and ``[x <= v]`` is
    ``order + (v - lo)`` for ``lo <= v < hi`` (``[x <= hi]`` is constant
    TRUE). :meth:`FiniteDomainProblem.new_int` reserves both blocks.

    A slotted class rather than a frozen dataclass: the time encoding
    builds one per node and per horizon, and this builds about three
    times faster. Variables compare by identity; the encoder keys its
    caches on :attr:`name`.
    """

    __slots__ = ("name", "lo", "hi", "direct", "order")

    def __init__(self, name: str, lo: int, hi: int, direct: int = 0,
                 order: int = 0) -> None:
        if lo > hi:
            raise ValueError(f"empty domain for {name}: [{lo}, {hi}]")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.direct = direct
        self.order = order

    @property
    def domain(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def domain_size(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{self.lo}..{self.hi}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IntVar({self.name!r}, {self.lo}, {self.hi}, "
                f"direct={self.direct}, order={self.order})")


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


#: the solver-internal clocks of a profiled run (``PerfCounters``)
_PHASES = ("propagate", "analyze", "reduce")


def _phase_seconds(perf: PerfCounters) -> Tuple[float, ...]:
    return tuple(getattr(perf, f"{phase}_seconds") for phase in _PHASES)


_DOMAIN_SIZES: Dict[int, array] = {}


def _domain_sizes(n: int) -> array:
    """Clause sizes of :meth:`FiniteDomainProblem._encode_domain`'s block
    for a domain of ``n + 1 >= 2`` values (the at-most-one excluded)."""
    sizes = _DOMAIN_SIZES.get(n)
    if sizes is None:
        sizes = _DOMAIN_SIZES[n] = (
            SIZE_2 * (n - 1) + SIZE_2 * 2 + array("i", [2, 2, 3]) * (n - 1)
            + SIZE_2 * 2 + array("i", [n + 1]))
    return sizes


class FiniteDomainProblem:
    """A conjunction of constraints over integer and Boolean variables.

    The SAT solver is the only clause store (the MiniSat incremental
    model). The flat clause buffer ``cnf`` (``lits`` and ``sizes``) and
    the pending activity seeds are send buffers: :meth:`_sync_solver`
    drains them into the solver before every solve and every :meth:`push`.
    """

    def __init__(self, solver_cls: Optional[type] = None,
                 perf: Optional[PerfCounters] = None) -> None:
        self.cnf = CNF(VariablePool())
        self._solver: SATSolver = resolve_solver_backend(solver_cls)(perf=perf)
        self._vars: Dict[str, IntVar] = {}
        self._mod_indicator: Dict[Tuple[str, int, int], int] = {}
        # (literal, activity) seeds not yet handed to the solver
        self._seeds: List[Tuple[int, float]] = []
        # every direct literal, flat: each sync after a solve re-asserts
        # their positive phase in one solver call (the C tier reads this
        # typed array in place); the solver has seen the first
        # _pref_synced of them
        self._preferred_true = array("i")
        self._pref_synced = 0
        self._phases_dirty = False
        self._push_stack: List[Tuple[bool, int, int, int, int]] = []

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    def new_int(self, name: str, lo: int, hi: int) -> IntVar:
        """Create an integer variable with inclusive bounds."""
        if name in self._vars:
            raise ValueError(f"variable {name!r} already exists")
        # an empty domain reserves nothing before IntVar rejects it
        size = max(0, hi - lo + 1)
        reserve = self.cnf.pool.reserve
        var = IntVar(name, lo, hi, direct=reserve(size),
                     order=reserve(max(0, size - 1)))
        self._vars[name] = var
        self._preferred_true.extend(range(var.direct, var.direct + size))
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
        span = var.domain_size
        direct = var.direct
        self._seeds += [
            (direct + rank, weight + 0.5 * (span - rank) / span)
            for rank in range(span)
        ]

    def _encode_domain(self, var: IntVar) -> None:
        """The regular encoding of ``var``: one block, then the at-most-one.

        With ``n = hi - lo``, ``D = direct`` and ``O = order`` the clauses
        are, in order:

        * order ladder ``[-(O+r), O+r+1]`` for ``0 <= r < n-1``;
        * channeling ``[x == v] <-> [x <= v] and not [x <= v-1]`` per rank,
          where the constant boundary literals (``[x <= hi]`` TRUE,
          ``[x <= lo-1]`` FALSE) have simplified the first and last rank;
        * exactly-one over the direct literals.
        """
        direct = var.direct
        order = var.order
        n = var.hi - var.lo
        cnf = self.cnf
        if n == 0:
            # a constant: the channeling unit and the at-least-one unit
            cnf.add_block([direct, direct], SIZE_1 * 2)
            return
        rungs = n - 1
        ladder = [0] * (2 * rungs)
        ladder[0::2] = range(-order, -(order + rungs), -1)
        ladder[1::2] = range(order + 1, order + n)
        # middle ranks r = 1 .. n-1: [-(D+r), O+r], [-(D+r), -(O+r-1)],
        # [-(O+r), O+r-1, D+r]
        middle = [0] * (7 * rungs)
        middle[0::7] = middle[2::7] = range(-(direct + 1), -(direct + n), -1)
        middle[1::7] = range(order + 1, order + n)
        middle[3::7] = range(-order, -(order + rungs), -1)
        middle[4::7] = range(-(order + 1), -(order + n), -1)
        middle[5::7] = range(order, order + rungs)
        middle[6::7] = range(direct + 1, direct + n)
        block = ladder
        block += (-direct, order, -order, direct)
        block += middle
        block += (-(direct + n), -(order + rungs), order + rungs, direct + n)
        block += range(direct, direct + n + 1)
        cnf.add_block(block, _domain_sizes(n))
        at_most_one(cnf, range(direct, direct + n + 1))

    # ------------------------------------------------------------------ #
    # Literal accessors
    # ------------------------------------------------------------------ #
    def value_literal(self, var: IntVar, value: int):
        """The literal ``[var == value]`` (FALSE if outside the domain)."""
        if value < var.lo or value > var.hi:
            return FALSE_LIT
        return var.direct + value - var.lo

    def le_literal(self, var: IntVar, value: int):
        """The literal ``[var <= value]`` (constant outside the domain)."""
        if value < var.lo:
            return FALSE_LIT
        if value >= var.hi:
            return TRUE_LIT
        return var.order + value - var.lo

    def mod_indicator(self, var: IntVar, modulus: int, residue: int):
        """A literal implied by ``var mod modulus == residue``.

        The indicator is one-directional (``[var == t] -> indicator`` for
        every ``t`` in the residue class), which is sufficient -- and sound --
        for use in *upper-bound* cardinality constraints: the solver is free
        to set a spurious indicator false, and forced to set real ones true.
        """
        return self.mod_indicators((var,), modulus, residue)[0]

    def mod_indicators(self, variables: Iterable[IntVar], modulus: int,
                       residue: int) -> List:
        """:meth:`mod_indicator` of each of ``variables``, in order.

        Indicators not cached yet get consecutive fresh variables, and
        their clauses ``[-(var == t), indicator]`` go out as one block.
        An empty residue class is ``FALSE`` and never cached.
        """
        if modulus < 1:
            raise ValueError("modulus must be positive")
        residue %= modulus
        cache = self._mod_indicator
        get = cache.get
        fresh = self.cnf.num_vars + 1
        indicators = []
        append = indicators.append
        block: List[int] = []
        for var in variables:
            key = (var.name, modulus, residue)
            indicator = get(key)
            if indicator is None:
                lo = var.lo
                hi = var.hi
                # the smallest value of the class
                first = lo + (residue - lo) % modulus
                if first > hi:
                    append(FALSE_LIT)
                    continue
                indicator = cache[key] = fresh
                fresh += 1
                offset = var.direct - lo
                clauses = [indicator] * (2 * ((hi - first) // modulus + 1))
                clauses[0::2] = range(-(offset + first), -(offset + hi) - 1,
                                      -modulus)
                block += clauses
            append(indicator)
        if block:
            self.cnf.pool.reserve(fresh - self.cnf.num_vars - 1)
            self.cnf.add_block(block, SIZE_2 * (len(block) // 2))
        return indicators

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def add_clause(self, literals: Iterable) -> None:
        self.cnf.add_clause(literals)

    def add_units(self, literals: Sequence) -> None:
        """One unit clause per literal, in one block: a TRUE literal is
        dropped and a FALSE one makes the problem unsatisfiable."""
        units = [lit for lit in literals if type(lit) is int]
        if any(lit == FALSE_LIT for lit in literals if type(lit) is not int):
            self.cnf.contradiction = True
        self.cnf.add_block(units, SIZE_1 * len(units))

    def add_ge(self, y: IntVar, x: IntVar, delta: int = 0) -> None:
        """Enforce ``y >= x + delta`` (a difference constraint).

        Encoded over order literals: for every value ``t`` of ``y``,
        ``[y <= t] -> [x <= t - delta]``. By ``t`` that is a unit
        ``[-(y <= t)]`` while ``[x <= t - delta]`` is FALSE, then a binary
        clause while both literals are proper, and nothing once the right
        side is TRUE; at ``t = hi`` the left side is TRUE, leaving the unit
        ``[x <= hi - delta]`` (or a contradiction when it is FALSE).
        """
        y_off = y.order - y.lo              # [y <= t] is y_off + t
        x_off = x.order - x.lo - delta      # [x <= t - delta] is x_off + t
        false_below = x.lo + delta          # t below: [x <= t - delta] FALSE
        true_from = x.hi + delta            # t from: [x <= t - delta] TRUE
        units = range(-(y_off + y.lo), -(y_off + min(y.hi, false_below)), -1)
        start = max(y.lo, false_below)
        stop = min(y.hi, true_from)
        block = list(units)
        pairs = 0
        # the same variable with delta 0 gives tautologies [-l, l] only
        if stop > start and y_off != x_off:
            pairs = stop - start
            clauses = [0] * (2 * pairs)
            clauses[0::2] = range(-(y_off + start), -(y_off + stop), -1)
            clauses[1::2] = range(x_off + start, x_off + stop)
            block += clauses
        sizes = SIZE_1 * len(units) + SIZE_2 * pairs
        if y.hi < true_from:
            if y.hi < false_below:
                self.cnf.contradiction = True
            else:
                block.append(x_off + y.hi)
                sizes += SIZE_1
        if block:
            self.cnf.add_block(block, sizes)

    def add_ne_const(self, x: IntVar, value: int) -> None:
        """Enforce ``x != value``."""
        lit = self.value_literal(x, value)
        if lit != FALSE_LIT:
            self.cnf.add_clause([negate(lit)])

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

    def _sync_solver(self) -> SATSolver:
        """Drain the variable, phase, seed and clause buffers into the solver."""
        solver = self._solver
        solver.ensure_vars(self.cnf.num_vars)
        # Direct literals branch positive so the search labels values
        # rather than eliminating them, which is dramatically faster on
        # the tightly packed scheduling instances. The initial phase is
        # re-asserted on purpose: saved phases from a previous solve would
        # otherwise steer enumeration. The full sweep only runs when a
        # solve (or pop) has actually flipped phases since the last sync;
        # otherwise just the literals created since then are initialised.
        preferred = self._preferred_true
        if not self._phases_dirty:
            preferred = preferred[self._pref_synced:]
        solver.prefer_true(preferred)
        self._pref_synced = len(self._preferred_true)
        self._phases_dirty = False
        if self._seeds:
            boost = solver.boost_activity
            for literal, activity in self._seeds:
                boost(literal, activity)
            self._seeds.clear()
        if self.cnf.sizes:
            # CNF clauses are already deduplicated, tautology-free and
            # variable-allocated: the flat pair is the solver's bulk input
            solver.add_clauses(self.cnf.lits, self.cnf.sizes)
            self.cnf.clear()
        if self.cnf.contradiction:
            solver.add_clause(())
        return solver

    # ------------------------------------------------------------------ #
    # Scoped constraint groups
    # ------------------------------------------------------------------ #
    def push(self) -> None:
        """Open a retractable scope (clauses, indicators, variables)."""
        self._sync_solver().push()
        self._push_stack.append((
            self.cnf.contradiction,
            len(self._vars),
            len(self._mod_indicator),
            len(self._preferred_true),
            self.cnf.num_vars,
        ))

    def pop(self) -> None:
        """Retract everything added since the matching :meth:`push`."""
        if not self._push_stack:
            raise RuntimeError("pop() without matching push()")
        (contradiction, num_int_vars, num_indicators, num_preferred,
         num_vars) = self._push_stack.pop()
        self._solver.pop()
        self._phases_dirty = True  # the trail unwind saved phases
        # push() synced, so every clause still buffered is scope-local
        self.cnf.clear()
        self.cnf.contradiction = contradiction
        # keys are only ever appended, so a scope's entries are the dict
        # tail: popitem() retracts them in O(scope)
        for table, size in ((self._vars, num_int_vars),
                            (self._mod_indicator, num_indicators)):
            while len(table) > size:
                table.popitem()
        del self._preferred_true[num_preferred:]
        # a seed for a variable older than the scope survives it
        self._seeds = [seed for seed in self._seeds if seed[0] <= num_vars]
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
        """One SAT solve, timed once.

        The block around the solver call is ``perf.seconds["solve"]`` and,
        with tracing on, the ``solver:<tier>`` span: the same start and
        duration, with the call's status and search counters as args
        (and its propagate/analyze/reduce seconds on a profiled run).
        """
        literals, impossible = self._resolve_assumptions(assumptions)
        if impossible:
            return SolveResult(SolveStatus.UNSAT)
        solver = self._sync_solver()
        perf = solver.perf
        detailed = perf is not None and perf.detailed
        if detailed:
            phases = _phase_seconds(perf)
        start = time.monotonic()
        result = solver.solve(
            timeout_seconds=timeout_seconds, assumptions=literals
        )
        seconds = time.monotonic() - start
        if perf is not None:
            perf.seconds["solve"] += seconds
        if obs_trace.enabled():
            args = {"status": result.status.value,
                    "conflicts": result.conflicts,
                    "decisions": result.decisions,
                    "propagations": result.propagations}
            if detailed:
                for phase, before, after in zip(
                        _PHASES, phases, _phase_seconds(perf)):
                    args[phase] = after - before
            obs_trace.add_complete(f"solver:{solver.tier}", start, seconds,
                                   **args)
        # the search saves phases as it goes; the next sync must restore
        # the value-labelling bias over the whole direct-literal set
        self._phases_dirty = True
        return result

    def _extract(self, result: SolveResult) -> FDSolution:
        values: Dict[str, int] = {}
        model = result.model if result.model is not None else {}
        # the arena kernel hands back a snapshot-backed model whose value
        # vector can be sliced directly (C speed); fall back to mapping
        # lookups for plain dict models (reference kernel, brute force)
        snapshot = getattr(model, "vals", None)
        get = model.get
        for var in self._vars.values():
            first = var.direct
            stop = first + var.hi - var.lo + 1
            if snapshot is not None:
                truth = [val > 0 for val in snapshot[first:stop]]
            else:
                truth = [get(lit, False) for lit in range(first, stop)]
            if truth.count(True) != 1:
                assigned = [v for v, t in zip(var.domain, truth) if t]
                raise RuntimeError(
                    f"inconsistent model for {var.name}: values {assigned}"
                )
            values[var.name] = var.lo + truth.index(True)
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
            if remaining is not None and remaining <= 0:
                # a spent budget is a timeout, never an empty enumeration
                result = SolveResult(SolveStatus.UNKNOWN)
            else:
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
