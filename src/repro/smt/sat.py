"""A CDCL SAT solver with a flat-arena kernel.

This is the solving engine behind the "SMT" layer used by the time phase
(:mod:`repro.core.time_solver`) and by the SAT-MapIt-style coupled baseline
(:mod:`repro.baseline`). It implements the standard conflict-driven clause
learning loop:

* two-watched-literal unit propagation with a binary-clause fast path,
* first-UIP conflict analysis with clause learning,
* VSIDS variable activities with phase saving,
* learnt-clause database reduction driven by LBD (glue) scores with clause
  activity decay,
* Luby restarts,
* wall-clock timeout support (the experiments impose per-case timeouts
  exactly like the paper's 4000 s limit),
* **incremental solving**: the clause database, learnt clauses, variable
  activities and saved phases all persist across ``solve`` calls,
* **assumptions**: ``solve(assumptions=[...])`` solves under a set of
  literals fixed for this call only (MiniSat-style assumption decision
  levels); an UNSAT answer under assumptions does not poison the solver and
  reports the subset of assumptions responsible (``SolveResult.core``),
* **clause-footprint push/pop**: ``push()`` marks the clause database and
  root trail; ``pop()`` retracts every clause (including learnt ones) and
  root-level assignment added since, so blocking clauses and scoped
  constraints can be undone while activities and phases survive.

The hot path is array-shaped rather than object-shaped (this is what the
``BENCH_solver.json`` speedup over the pre-rewrite kernel, kept as a test
oracle in ``tests/oracles/sat_reference.py``, comes from):

* all clause literals live in one flat **arena** with typed-array
  ``(offset, size)`` headers and per-clause flag/score sidecars, so there
  is no per-clause list object to chase in propagation (the literal arena
  itself is a plain list: CPython list reads hand back the cached int
  object where ``array('i')`` would box a fresh one per access);
* watch lists are indexed *by literal* using Python's negative indexing
  (``watches[lit]`` works for ``lit < 0`` without any key hashing);
  binary clauses live in separate ``(other_lit, clause)`` pair lists
  and propagate without touching the arena at all;
* the assignment is a literal-indexed trit vector (``vals[lit]`` is ``1``
  true / ``-1`` false / ``0`` unassigned, with ``vals[-lit] == -vals[lit]``),
  so evaluating a literal is one list index instead of a sign branch;
* propagation and branching are inlined into the solve loop (locals bound
  once per call, not once per propagation), and conflict analysis reuses
  one persistent ``seen`` scratch bytearray (cleared via an undo list)
  instead of allocating an O(vars) list per conflict;
* ``solve`` resumes from a root-propagation watermark: clauses added since
  the last call are normalised against the root assignment instead of
  re-propagating the whole formula, and -- when neither call involves
  assumptions -- a new clause is integrated into the still-standing deep
  trail with a *minimal* backtrack, which turns blocking-clause model
  enumeration from relabel-everything into resume-next-door;
* learnt clauses carry an LBD score and an activity; every few thousand
  conflicts the worst half of the non-glue learnt database is tombstoned
  (indices stay stable, so clause-footprint push/pop and reason pointers
  survive) and the watch lists are purged; Glucose-style restart blocking
  keeps deep, nearly-complete labellings from being thrown away.

The instance sizes produced by the mapper are a few thousand variables for
the decoupled time phase, up to a few hundred thousand for the coupled
baseline on large CGRAs -- where it is *expected* to hit the timeout, which
is the scalability effect the paper measures.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf import PerfCounters
from repro.smt.cnf import CNF


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # timeout or conflict budget exhausted

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _SnapshotModel:
    """A SAT model backed by the solver's literal-value snapshot.

    Quacks like the ``Dict[int, bool]`` mapping the solver historically
    returned (lookup, ``get``, iteration, length) but is created with one
    C-level list copy instead of building a dict entry per variable --
    models of coupled instances have tens of thousands of variables and
    enumeration asks for many of them. ``vals`` holds the positive-literal
    half of the solver's trit vector (index = variable, value > 0 = true).
    """

    __slots__ = ("vals", "num_vars")

    def __init__(self, vals: List[int], num_vars: int) -> None:
        self.vals = vals
        self.num_vars = num_vars

    def __getitem__(self, var: int) -> bool:
        if 1 <= var <= self.num_vars:
            return self.vals[var] > 0
        raise KeyError(var)

    def get(self, var: int, default: bool = False) -> bool:
        if 1 <= var <= self.num_vars:
            return self.vals[var] > 0
        return default

    def __contains__(self, var: object) -> bool:
        return isinstance(var, int) and 1 <= var <= self.num_vars

    def __len__(self) -> int:
        return self.num_vars

    def __iter__(self):
        return iter(range(1, self.num_vars + 1))

    def keys(self):
        return range(1, self.num_vars + 1)

    def items(self):
        vals = self.vals
        return ((var, vals[var] > 0) for var in range(1, self.num_vars + 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_SnapshotModel({self.num_vars} vars)"


@dataclass
class SolveResult:
    """Outcome of a SAT call.

    ``core`` is only set for UNSAT answers obtained *under assumptions*: it
    holds a subset of the assumption literals that is already inconsistent
    with the clause database (a "failed core" in MiniSat terminology). A
    plain UNSAT (no assumptions involved) leaves it ``None``.
    """

    status: SolveStatus
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    elapsed_seconds: float = 0.0
    core: Optional[List[int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status is SolveStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolveStatus.UNSAT

    def value(self, literal: int) -> bool:
        """Truth value of a literal under the model (SAT results only)."""
        if self.model is None:
            raise ValueError("no model available")
        var = abs(literal)
        val = self.model.get(var, False)
        return val if literal > 0 else not val


def _luby(index: int) -> int:
    """The ``index``-th element (0-based) of the Luby sequence 1,1,2,1,1,2,4,..."""
    size = 1
    sequence = 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index = index % size
    return 1 << sequence


#: first clause-DB reduction after this many conflicts ...
REDUCE_BASE_CONFLICTS = 2000
#: ... and each later one after this many more than the previous interval
REDUCE_INCREMENT_CONFLICTS = 300
#: learnt clauses with an LBD at or below this are "glue" and never deleted
GLUE_LBD = 2


class SATSolver:
    """CDCL solver over clauses added incrementally (flat-arena kernel).

    Typical usage::

        solver = SATSolver()
        solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        result = solver.solve(timeout_seconds=10.0)

    Blocking clauses may be added between ``solve`` calls to enumerate
    models. Pass a :class:`~repro.perf.PerfCounters` to accumulate
    cross-call statistics (and, with ``detailed=True``, per-phase wall
    clock) for the profiling layer.
    """

    #: the solver tier this class implements (``stats["solver_tier"]``)
    tier = "arena"

    def __init__(self, perf: Optional[PerfCounters] = None) -> None:
        self.num_vars = 0
        self.perf = perf
        # Clause arena: clause ``i`` is arena[c_off[i] : c_off[i]+c_size[i]].
        # The literal arena itself is a plain list -- in CPython a list
        # read hands back the cached int object, while ``array('i')`` boxes
        # a fresh one on every access of the hot loop. The per-clause
        # header/sidecar vectors stay as compact typed arrays.
        self.arena: List[int] = []
        self.c_off = array("i")
        self.c_size = array("i")
        self.c_learnt = bytearray()
        self.c_dead = bytearray()
        self.c_lbd = array("i")
        self.c_act: List[float] = []
        # literal-indexed structures (index -lit via Python negative
        # indexing); slot 0 is unused, capacity doubles on growth
        self._cap = 0
        self.vals: List[int] = [0]
        self.watches: List[List[int]] = [[]]   # clauses of size >= 3
        self.bwatch: List[List[Tuple[int, int]]] = [[]]  # (other_lit, clause)
        # variable-indexed state
        self.level: List[int] = [0]
        self.reason: List[int] = [-1]          # clause index, -1 = decision
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self._seen = bytearray(1)              # analysis scratch
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.cla_inc = 1.0
        self.cla_decay = 1.0 / 0.999
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.num_learnts = 0                   # live (non-dead) learnt clauses
        self._conflicts_since_reduce = 0
        self._reduce_interval = REDUCE_BASE_CONFLICTS
        self._unit_clauses: List[int] = []
        # Literals whose watch (or binary-watch) lists received an append
        # while a scope was open. pop() only has to filter these lists --
        # every other list still holds pre-scope clauses exclusively -- so
        # retracting a scope costs O(touched lists), not O(all literals).
        self._watch_log: List[int] = []
        self._push_stack: List[
            Tuple[int, int, int, int, int, bool, int, int, int, int]
        ] = []
        # per open scope: learnt clauses below that scope's clause mark that
        # reduce-DB tombstoned while the scope was open (pop subtracts them
        # when restoring the push-time learnt count)
        self._scope_dead: List[int] = []
        # VSIDS order heap with lazy (possibly stale) entries. A pop() only
        # marks it dirty; the rebuild happens on the next solve(), so tight
        # push/pop loops (one per blocked schedule in the incremental time
        # solver) do not pay O(V log V) per scope. The membership bitmap
        # keeps backtracking from flooding the heap with duplicates.
        self._order_heap: List[Tuple[float, int]] = []
        self._heap_member = bytearray(1)
        self._heap_dirty = False
        # Root-propagation watermark: clauses below _propagated_clauses have
        # been propagated against the root trail prefix of length
        # _propagated_trail, so a later solve only needs to normalise the
        # clauses added since instead of re-propagating the whole formula.
        self._propagated_clauses = 0
        self._propagated_trail = 0
        # Minimal-backtrack solve entry (model enumeration): set when the
        # previous solve ran without assumptions and every unit clause is
        # already integrated, so a follow-up solve may keep the deep trail
        # and only backtrack as far as the newly added clauses demand.
        self._had_assumptions = False
        self._units_integrated = 0

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def _grow(self, min_cap: int) -> None:
        """Re-lay the literal-indexed vectors for at least ``min_cap`` vars.

        Growth overshoots by half the requested size: the expensive part is
        allocating the per-literal watch lists, and the typical caller (a
        scoped re-encode) follows its base allocation with a second, smaller
        wave of auxiliary variables that should land inside the same lay-out.
        """
        cap = max(self._cap * 2, min_cap * 2, 16)
        vals = [0] * (2 * cap + 1)
        watches: List[List[int]] = [[] for _ in range(2 * cap + 1)]
        bwatch: List[List[int]] = [[] for _ in range(2 * cap + 1)]
        for lit in range(1, self.num_vars + 1):
            vals[lit] = self.vals[lit]
            vals[-lit] = self.vals[-lit]
            watches[lit] = self.watches[lit]
            watches[-lit] = self.watches[-lit]
            bwatch[lit] = self.bwatch[lit]
            bwatch[-lit] = self.bwatch[-lit]
        self._cap = cap
        self.vals = vals
        self.watches = watches
        self.bwatch = bwatch

    def new_var(self) -> int:
        var = self.num_vars + 1
        if var > self._cap:
            self._grow(var)
        self.num_vars = var
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(False)
        self._seen.append(0)
        self._heap_member.append(1)
        heapq.heappush(self._order_heap, (0.0, var))
        return var

    def boost_activity(self, var: int, activity: float) -> None:
        """Raise a variable's activity to at least ``activity``."""
        if activity > self.activity[var]:
            self.activity[var] = activity
            self._heap_member[var] = 1
            heapq.heappush(self._order_heap, (-activity, var))

    def prefer_true(self, variables: Sequence[int]) -> None:
        """Set the saved phase of each variable to true."""
        phase = self.phase
        for var in variables:
            phase[var] = True

    def ensure_vars(self, count: int) -> None:
        """Make sure variables ``1..count`` exist (bulk allocation)."""
        fresh = count - self.num_vars
        if fresh <= 0:
            return
        if count > self._cap:
            self._grow(count)
        self.level.extend([0] * fresh)
        self.reason.extend([-1] * fresh)
        self.activity.extend([0.0] * fresh)
        self.phase.extend([False] * fresh)
        self._seen.extend(bytes(fresh))
        if fresh > 8:
            # bulk allocation: defer the heap to the lazy rebuild at the
            # start of the next solve instead of re-heapifying now
            self._heap_member.extend(bytes(fresh))
            self._heap_dirty = True
        else:
            self._heap_member.extend(b"\x01" * fresh)
            heap = self._order_heap
            for var in range(self.num_vars + 1, count + 1):
                heapq.heappush(heap, (0.0, var))
        self.num_vars = count

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
        self._attach(clause, learnt=False)
        if self._push_stack and len(clause) > 1:
            self._watch_log.extend(clause[:2])

    def add_clauses(self, lits: Sequence[int], sizes: Sequence[int]) -> None:
        """Bulk-load *clean* clauses (the CNF-layer fast path).

        The clauses come as the flat pair of :class:`repro.smt.cnf.CNF`:
        ``lits`` holds their literals back to back and ``sizes`` the
        length of each. The caller guarantees what :meth:`add_clause`
        normally establishes: no duplicate or complementary literals
        inside a clause, no zero literals, no empty clauses, and every
        variable already allocated (:meth:`ensure_vars`). The CNF buffer
        enforces exactly these invariants, so
        :meth:`FiniteDomainProblem._sync_solver
        <repro.smt.csp.FiniteDomainProblem._sync_solver>` drains it through
        here without re-validating every literal.
        """
        offset = len(self.arena)
        offsets = list(itertools.accumulate(sizes, initial=offset))
        if offsets[-1] - offset != len(lits):
            raise ValueError("clause sizes do not cover the literals")
        watches = self.watches
        bwatch = self.bwatch
        units = self._unit_clauses
        log = self._watch_log if self._push_stack else None
        index = len(self.c_off)
        arena = self.arena
        self.c_off.extend(offsets[:-1])
        self.c_size.extend(sizes)
        arena.extend(lits)
        for off, size in zip(offsets, sizes):
            if size == 2:
                a = arena[off]
                b = arena[off + 1]
                bwatch[a].append((b, index))
                bwatch[b].append((a, index))
                if log is not None:
                    log.append(a)
                    log.append(b)
            elif size == 1:
                units.append(arena[off])
            else:
                a = arena[off]
                b = arena[off + 1]
                watches[a].append(index)
                watches[b].append(index)
                if log is not None:
                    log.append(a)
                    log.append(b)
            index += 1
        count = len(sizes)
        self.c_learnt.extend(bytes(count))
        self.c_dead.extend(bytes(count))
        self.c_lbd.frombytes(bytes(count * self.c_lbd.itemsize))
        self.c_act.extend([0.0] * count)

    def _attach(self, clause: List[int], learnt: bool, lbd: int = 0) -> int:
        """Append a clause to the arena and hook up its watches.

        The caller logs the watched literals for :meth:`pop`.
        """
        index = len(self.c_off)
        self.c_off.append(len(self.arena))
        self.c_size.append(len(clause))
        self.c_learnt.append(1 if learnt else 0)
        self.c_dead.append(0)
        self.c_lbd.append(lbd)
        self.c_act.append(0.0)
        self.arena.extend(clause)
        size = len(clause)
        if size == 1:
            if not learnt:
                self._unit_clauses.append(clause[0])
        elif size == 2:
            a, b = clause
            self.bwatch[a].append((b, index))
            self.bwatch[b].append((a, index))
        else:
            self.watches[clause[0]].append(index)
            self.watches[clause[1]].append(index)
        if learnt:
            self.num_learnts += 1
            if self.perf is not None:
                self.perf.learnts += 1
                if lbd <= GLUE_LBD:
                    self.perf.glue_learnts += 1
        return index

    def _clause_literals(self, index: int) -> List[int]:
        off = self.c_off[index]
        return list(self.arena[off:off + self.c_size[index]])

    @property
    def clauses(self) -> List[List[int]]:
        """Live clauses (problem + learnt) as literal lists.

        A *view* materialised from the arena -- inspection and tests only;
        the solver itself never touches it.
        """
        return [
            self._clause_literals(index)
            for index in range(len(self.c_off))
            if not self.c_dead[index]
        ]

    def watch_log(self) -> List[int]:
        """The literals whose watch lists were appended to while scoped."""
        return list(self._watch_log)

    @classmethod
    def from_cnf(cls, cnf: CNF) -> "SATSolver":
        solver = cls()
        solver.ensure_vars(cnf.num_vars)
        if cnf.contradiction:
            solver.add_clause(())
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
            (len(self.c_off), len(self.arena), len(self._unit_clauses),
             len(self.trail), len(self._watch_log), self.ok, self.num_vars,
             self._propagated_clauses, self._propagated_trail,
             self.num_learnts)
        )
        self._scope_dead.append(0)

    def pop(self) -> None:
        """Retract every clause, variable, and root assignment since push."""
        if not self._push_stack:
            raise RuntimeError("pop() without matching push()")
        (num_clauses, arena_len, num_units, trail_len, log_len, ok,
         num_vars, propagated_clauses, propagated_trail,
         num_learnts) = self._push_stack.pop()
        # The watermark stored at push() described a clause set and root
        # trail prefix that this pop restores *exactly* (footprint
        # truncation), so the root-propagation completeness it certified
        # still holds and the next solve only normalises genuinely new
        # clauses (docs/performance.md sketches the argument).
        self._propagated_clauses = propagated_clauses
        self._propagated_trail = propagated_trail
        self._cancel_until(0)
        vals = self.vals
        for lit in self.trail[trail_len:]:
            var = lit if lit > 0 else -lit
            self.phase[var] = lit > 0
            vals[lit] = 0
            vals[-lit] = 0
            self.reason[var] = -1
            self.level[var] = 0
        del self.trail[trail_len:]
        # push-time learnt count, minus any pre-mark learnt clauses that a
        # reduce-DB pass tombstoned while this scope was open
        self.num_learnts = num_learnts - self._scope_dead.pop()
        del self.arena[arena_len:]
        del self.c_off[num_clauses:]
        del self.c_size[num_clauses:]
        del self.c_learnt[num_clauses:]
        del self.c_dead[num_clauses:]
        del self.c_lbd[num_clauses:]
        del self.c_act[num_clauses:]
        del self._unit_clauses[num_units:]
        if self.num_vars > num_vars:
            # scope-local variables die with the scope; without this the
            # solver would keep deciding thousands of unconstrained
            # leftovers on every later solve
            for var in range(num_vars + 1, self.num_vars + 1):
                vals[var] = 0
                vals[-var] = 0
                self.watches[var] = []
                self.watches[-var] = []
                self.bwatch[var] = []
                self.bwatch[-var] = []
            del self.level[num_vars + 1:]
            del self.reason[num_vars + 1:]
            del self.activity[num_vars + 1:]
            del self.phase[num_vars + 1:]
            del self._seen[num_vars + 1:]
            del self._heap_member[num_vars + 1:]
            self.num_vars = num_vars
        self.ok = ok
        self.qhead = 0
        self._repair_watches(num_clauses, log_len, num_vars)
        self._heap_dirty = True  # rebuilt lazily on the next solve

    def _repair_watches(self, num_clauses: int, log_len: int,
                        num_vars: int) -> None:
        """Drop watchers of clauses retracted by :meth:`pop`.

        Surviving watch entries stay as they are: the two-watched-literal
        invariant is maintained in place by propagation (an entry for a
        live clause always sits under one of its two arena-front literals),
        so a pop only filters lists instead of re-deriving them from the
        arena -- and only the lists the scope actually appended to, which
        the watch log recorded. Tombstones are swept out on the way.

        A list repaired here may still hold a clause of the enclosing
        scope (a watch moved onto it while this scope was open), so its
        literal stays in the log for that scope's own pop.
        """
        c_dead = self.c_dead
        touched = set(self._watch_log[log_len:])
        del self._watch_log[log_len:]
        if self._push_stack:
            self._watch_log.extend(
                lit for lit in touched if abs(lit) <= num_vars)
        for lit in touched:
            var = lit if lit > 0 else -lit
            if var > num_vars:
                continue  # the scope-local variable died with the scope
            watchlist = self.watches[lit]
            if watchlist:
                watchlist[:] = [
                    ci for ci in watchlist
                    if ci < num_clauses and not c_dead[ci]
                ]
            bw = self.bwatch[lit]  # binary clauses are never tombstoned
            if bw:
                bw[:] = [entry for entry in bw if entry[1] < num_clauses]

    # ------------------------------------------------------------------ #
    # Assignment helpers
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> Optional[bool]:
        val = self.vals[lit]
        if val == 0:
            return None
        return val > 0

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: int) -> None:
        """Cold-path enqueue (units, assumptions, decisions)."""
        var = lit if lit > 0 else -lit
        self.vals[lit] = 1
        self.vals[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        vals = self.vals
        heap = self._order_heap
        heappush = heapq.heappush
        activity = self.activity
        phase = self.phase
        reason = self.reason
        member = self._heap_member
        for lit in reversed(self.trail[limit:]):
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0  # phase saving
            vals[lit] = 0
            vals[-lit] = 0
            reason[var] = -1
            if not member[var]:
                member[var] = 1
                heappush(heap, (-activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    def _normalize_new_clauses(self, start: int) -> bool:
        """Bring clauses added since the root watermark up to date.

        Called at the start of :meth:`solve` with the trail cancelled to the
        root. For each clause added since the last propagation-complete
        root state this either detects a root conflict (returns ``False``),
        enqueues the clause's unit implication, or repairs the watches so
        both sit on non-false literals. Clauses already satisfied by a root
        literal are skipped: the satisfying assignment can only disappear
        through a ``pop``, which rolls the watermark back past this clause
        (or kills the clause outright), so the skipped watches can never be
        missed. This clause-local sweep is what lets ``solve`` resume
        propagation from the watermark instead of re-propagating the whole
        formula on every call.
        """
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        c_dead = self.c_dead
        vals = self.vals
        watches = self.watches
        log = self._watch_log if self._push_stack else None
        for ci in range(start, len(c_off)):
            if c_dead[ci]:
                continue
            off = c_off[ci]
            size = c_size[ci]
            if size == 2:
                a = arena[off]
                b = arena[off + 1]
                va = vals[a]
                vb = vals[b]
                if va > 0 or vb > 0:
                    continue
                if va < 0:
                    if vb < 0:
                        return False
                    if vb == 0:
                        self._enqueue(b, ci)
                elif vb < 0:
                    self._enqueue(a, ci)
                continue
            if size == 1:
                lit = arena[off]
                val = vals[lit]
                if val < 0:
                    return False
                if val == 0:
                    self._enqueue(lit, -1)
                continue
            w0 = arena[off]
            w1 = arena[off + 1]
            if vals[w0] >= 0 and vals[w1] >= 0:
                continue  # both watches non-false: nothing pending
            satisfied = False
            k0 = -1
            k1 = -1
            for k in range(off, off + size):
                val = vals[arena[k]]
                if val > 0:
                    satisfied = True
                    break
                if val == 0:
                    if k0 < 0:
                        k0 = k
                    else:
                        k1 = k
                        break
            if satisfied:
                continue
            if k0 < 0:
                return False  # every literal false at the root
            if k1 < 0:
                self._enqueue(arena[k0], ci)
                continue
            # two unassigned literals: rotate them into the watch slots
            la = arena[k0]
            lb = arena[k1]
            if k0 != off:
                arena[k0] = w0
                arena[off] = la
                if k1 == off:
                    k1 = k0
            if k1 != off + 1:
                arena[k1] = arena[off + 1]
                arena[off + 1] = lb
            for old in (w0, w1):
                if old != la and old != lb:
                    watches[old].remove(ci)
            for new in (la, lb):
                if new != w0 and new != w1:
                    watches[new].append(ci)
                    if log is not None:
                        log.append(new)
        return True

    # ------------------------------------------------------------------ #
    # Minimal-backtrack solve entry (model enumeration)
    # ------------------------------------------------------------------ #
    def _entry_backtrack_level(self, start: int) -> int:
        """Deepest level at which the clauses in ``[start:]`` can be
        integrated into the *current* (possibly deep) trail.

        Only a clause falsified by the current assignment forces a
        backtrack: to one level above its deepest literals when several
        share the maximum level (freeing at least two literals to watch),
        or to the second-deepest level (where the clause is unit)
        otherwise. A currently-unit clause needs no backtrack -- its
        implication is enqueued at the present decision level, which is
        sound (the reason's false literals all sit at lower levels).
        Returns ``0`` to request the ordinary root-level entry (also for
        the odd cases this path does not handle, e.g. a new unit clause
        hiding among learnt clauses).
        """
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        c_dead = self.c_dead
        vals = self.vals
        level = self.level
        bt = len(self.trail_lim)
        for ci in range(start, len(c_off)):
            if c_dead[ci]:
                continue
            off = c_off[ci]
            size = c_size[ci]
            if size == 1:
                if vals[arena[off]] <= 0:
                    return 0  # un-satisfied unit: take the root path
                continue
            cands = 0
            lmax = 0
            l2 = 0
            nmax = 0
            for k in range(off, off + size):
                q = arena[k]
                if vals[q] >= 0:
                    cands += 1
                    if cands >= 2:
                        break
                else:
                    lev = level[q if q > 0 else -q]
                    if lev > lmax:
                        l2 = lmax
                        lmax = lev
                        nmax = 1
                    elif lev == lmax:
                        nmax += 1
                    elif lev > l2:
                        l2 = lev
            if cands:
                continue
            need = lmax - 1 if nmax >= 2 else l2
            if need < bt:
                bt = need
            if bt <= 0:
                return 0
        return bt

    def _integrate_new_clauses(self, start: int) -> None:
        """Hook the clauses in ``[start:]`` into the current deep trail.

        Called after :meth:`_entry_backtrack_level` backtracked far enough
        that every clause has at least one non-false literal. Watches are
        moved onto the best literals (non-false ones preferred, the
        deepest false one as the second choice) and currently-unit clauses
        enqueue their implication at the present decision level. Anything
        this pass leaves merely *unit-unenqueued* (e.g. a satisfied clause
        whose support is deeper than its false literals) is discovered
        through the ordinary watch/conflict machinery later -- soundness
        and completeness do not depend on eager enqueueing here.

        The implications are enqueued only after every clause is watched:
        one new clause's implication may falsify the last non-false
        literal of another (a clause over a fresh indicator next to the
        clauses defining it). Watched first, that clause sits on the
        literal the implication falsifies, so propagation reports the
        conflict; an implication whose literal an earlier one already
        falsified is left to that same conflict.
        """
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        c_dead = self.c_dead
        vals = self.vals
        level = self.level
        watches = self.watches
        log = self._watch_log if self._push_stack else None
        implied: List[Tuple[int, int]] = []
        for ci in range(start, len(c_off)):
            if c_dead[ci]:
                continue
            off = c_off[ci]
            size = c_size[ci]
            if size < 2:
                continue
            if size == 2:
                a = arena[off]
                b = arena[off + 1]
                va = vals[a]
                vb = vals[b]
                if va == 0 and vb < 0:
                    implied.append((a, ci))
                elif vb == 0 and va < 0:
                    implied.append((b, ci))
                continue
            w0 = arena[off]
            w1 = arena[off + 1]
            if vals[w0] >= 0 and vals[w1] >= 0:
                continue
            # pick the two best watch positions: non-false first, then the
            # deepest false literal
            k0 = -1
            k1 = -1
            deep_k = off
            deep_level = -1
            for k in range(off, off + size):
                q = arena[k]
                val = vals[q]
                if val >= 0:
                    if k0 < 0:
                        k0 = k
                    elif k1 < 0:
                        k1 = k
                        break
                else:
                    lev = level[q if q > 0 else -q]
                    if lev > deep_level:
                        deep_level = lev
                        deep_k = k
            if k0 < 0:
                continue  # cannot happen after _entry_backtrack_level
            unit = k1 < 0
            if unit:
                k1 = deep_k if deep_k != k0 else off
            la = arena[k0]
            lb = arena[k1]
            if k0 != off:
                arena[k0] = w0
                arena[off] = la
                if k1 == off:
                    k1 = k0
            if k1 != off + 1:
                arena[k1] = arena[off + 1]
                arena[off + 1] = lb
            for old in (w0, w1):
                if old != la and old != lb:
                    watches[old].remove(ci)
            for new in (la, lb):
                if new != w0 and new != w1:
                    watches[new].append(ci)
                    if log is not None:
                        log.append(new)
            if unit and vals[la] == 0:
                implied.append((la, ci))
        for lit, ci in implied:
            if vals[lit] == 0:
                self._enqueue(lit, ci)

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #
    def _bump(self, var: int) -> None:
        activity = self.activity[var] + self.var_inc
        self.activity[var] = activity
        if activity > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order_heap()
        else:
            # always push the refreshed priority (VSIDS must percolate
            # immediately); the membership bitmap only spares the far more
            # numerous _cancel_until re-insertions
            self._heap_member[var] = 1
            heapq.heappush(self._order_heap, (-activity, var))

    def _bump_clause(self, index: int) -> None:
        act = self.c_act[index] + self.cla_inc
        self.c_act[index] = act
        if act > 1e20:
            scale = 1e-20
            c_act = self.c_act
            for ci in range(len(c_act)):
                c_act[ci] *= scale
            self.cla_inc *= scale

    def _rebuild_order_heap(self) -> None:
        vals = self.vals
        activity = self.activity
        heap = [
            (-activity[v], v)
            for v in range(1, self.num_vars + 1)
            if vals[v] == 0
        ]
        heapq.heapify(heap)
        # assigned variables are exactly the trail, so build the bitmap as
        # all-members and knock those out instead of re-walking the heap
        member = bytearray(b"\x01" * (self.num_vars + 1))
        for lit in self.trail:
            member[lit if lit > 0 else -lit] = 0
        self._order_heap = heap
        self._heap_member = member

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self._seen
        current_level = len(self.trail_lim)
        learnt: List[int] = []
        to_clear: List[int] = []
        counter = 0
        p = 0
        index = len(trail) - 1
        clause_index = conflict_index
        while True:
            if self.c_learnt[clause_index]:
                self._bump_clause(clause_index)
            off = c_off[clause_index]
            for j in range(off, off + c_size[clause_index]):
                q = arena[j]
                if q == p:
                    # skip the asserted literal of a reason clause (p is 0
                    # for the conflict clause, matching no literal); binary
                    # reasons enqueue without normalising arena positions,
                    # so the skip is by value, not by position
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[index]
                var = p if p > 0 else -p
                if seen[var]:
                    break
                index -= 1
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
            clause_index = reason[var]
        for var in to_clear:
            seen[var] = 0
        learnt_clause = [-p] + learnt
        if len(learnt_clause) == 1:
            backtrack = 0
        else:
            backtrack = max(level[abs(q)] for q in learnt_clause[1:])
        return learnt_clause, backtrack

    def _learnt_lbd(self, learnt: List[int]) -> int:
        """Literal-blocks-distance: distinct decision levels in the clause."""
        level = self.level
        return len({level[q if q > 0 else -q] for q in learnt})

    def _attach_learnt(self, learnt: List[int], logged: set) -> None:
        """Record a learnt clause and enqueue its asserting literal.

        While a scope is open the two watched literals go to the watch
        log, unless ``logged`` (what this solve() call logged) has them.
        """
        if len(learnt) == 1:
            self._cancel_until(0)
            val = self.vals[learnt[0]]
            if val < 0:
                self.ok = False
                return
            if val == 0:
                self._enqueue(learnt[0], -1)
            self._attach(learnt, learnt=True, lbd=1)
            return
        # position 1 must hold a literal of the backtrack level for watching
        level = self.level
        max_index = 1
        max_level = level[abs(learnt[1])]
        for j in range(2, len(learnt)):
            lj = level[abs(learnt[j])]
            if lj > max_level:
                max_level = lj
                max_index = j
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        index = self._attach(learnt, learnt=True, lbd=self._learnt_lbd(learnt))
        if self._push_stack:
            for lit in learnt[:2]:
                if lit not in logged:
                    logged.add(lit)
                    self._watch_log.append(lit)
        self._enqueue(learnt[0], index)

    # ------------------------------------------------------------------ #
    # Learnt-database reduction
    # ------------------------------------------------------------------ #
    def _reduce_db(self) -> None:
        """Tombstone the worst half of the deletable learnt clauses.

        Deletable means learnt, live, longer than binary, not glue
        (LBD > :data:`GLUE_LBD`) and not locked (the reason of a current
        assignment). Worst-first order is (high LBD, low activity) -- the
        Glucose policy -- then low clause index from the stable sort; that
        total order is part of the bit-identity contract with the C tier.
        Tombstoning keeps clause indices stable, which is what lets reason
        pointers and the clause-footprint push/pop marks survive a
        reduction; the arena slots are reclaimed when a ``pop`` truncates
        past them.
        """
        arena = self.arena
        c_off = self.c_off
        c_lbd = self.c_lbd
        c_act = self.c_act
        vals = self.vals
        reason = self.reason
        candidates = [
            ci
            for ci in range(len(c_off))
            if self.c_learnt[ci]
            and not self.c_dead[ci]
            and self.c_size[ci] > 2
            and c_lbd[ci] > GLUE_LBD
        ]
        # drop locked clauses (reason of the first literal's assignment)
        unlocked = []
        for ci in candidates:
            lit0 = arena[c_off[ci]]
            var = lit0 if lit0 > 0 else -lit0
            if vals[lit0] > 0 and reason[var] == ci:
                continue
            unlocked.append(ci)
        unlocked.sort(key=lambda ci: (-c_lbd[ci], c_act[ci]))
        doomed = unlocked[: len(unlocked) // 2]
        if not doomed:
            return
        for ci in doomed:
            self.c_dead[ci] = 1
        self.num_learnts -= len(doomed)
        if self._scope_dead:
            # charge each tombstone to every open scope whose clause mark
            # lies above it, so pop() can restore exact learnt counts
            marks = [entry[0] for entry in self._push_stack]
            for ci in doomed:
                for depth, mark in enumerate(marks):
                    if ci < mark:
                        self._scope_dead[depth] += 1
        # purge the long-clause watch lists (binaries are never reduced)
        c_dead = self.c_dead
        for lit in range(1, self.num_vars + 1):
            for watchlist in (self.watches[lit], self.watches[-lit]):
                if any(c_dead[ci] for ci in watchlist):
                    watchlist[:] = [ci for ci in watchlist if not c_dead[ci]]
        if self.perf is not None:
            self.perf.learnts_deleted += len(doomed)
            self.perf.reductions += 1

    # ------------------------------------------------------------------ #
    # Failed-assumption cores
    # ------------------------------------------------------------------ #
    def _analyze_final(self, failed: int) -> List[int]:
        """Failed-assumption core: assumptions implying ``not failed``.

        ``failed`` is an assumption literal found false while placing the
        assumption prefix. Walking the trail top-down through the reasons
        collects the (subset of) assumption decisions responsible, exactly
        like MiniSat's ``analyzeFinal``.
        """
        core = [failed]
        if not self.trail_lim:
            return core
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        level = self.level
        seen = self._seen
        to_clear = [abs(failed)]
        seen[abs(failed)] = 1
        for lit in reversed(self.trail[self.trail_lim[0]:]):
            var = lit if lit > 0 else -lit
            if not seen[var]:
                continue
            reason = self.reason[var]
            if reason < 0:
                core.append(lit)  # an assumption decision
            else:
                off = c_off[reason]
                for j in range(off, off + c_size[reason]):
                    q = arena[j]
                    if q == lit:  # the asserted literal (see _analyze)
                        continue
                    qvar = q if q > 0 else -q
                    if level[qvar] > 0 and not seen[qvar]:
                        seen[qvar] = 1
                        to_clear.append(qvar)
            seen[var] = 0
        for var in to_clear:
            seen[var] = 0
        return core

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(
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
            return self._finish(SolveResult(SolveStatus.UNSAT))
        if self._heap_dirty:
            self._rebuild_order_heap()
            self._heap_dirty = False
        vals = self.vals
        # Minimal-backtrack entry: when neither this call nor the previous
        # one uses assumptions and no new unit clause arrived, the deep
        # trail of the previous (typically SAT) call can be kept and only
        # unwound as far as the new clauses -- usually one blocking clause
        # -- demand. This is what makes model enumeration resume next to
        # the previous model instead of relabelling every variable.
        partial_bt = 0
        if (
            self.trail_lim
            and not assumption_list
            and not self._had_assumptions
            and len(self._unit_clauses) == self._units_integrated
        ):
            partial_bt = self._entry_backtrack_level(self._propagated_clauses)
        self._had_assumptions = bool(assumption_list)
        if partial_bt > 0:
            if partial_bt < len(self.trail_lim):
                self._cancel_until(partial_bt)
            self._integrate_new_clauses(self._propagated_clauses)
            self._propagated_clauses = len(self.c_off)
        else:
            self._cancel_until(0)
            # assert root-level units
            for lit in self._unit_clauses:
                val = vals[lit]
                if val < 0:
                    return self._finish(
                        SolveResult(SolveStatus.UNSAT,
                                    elapsed_seconds=time.monotonic() - start))
                if val == 0:
                    self._enqueue(lit, -1)
            self._units_integrated = len(self._unit_clauses)
            # Clauses added since the previous solve call (e.g. blocking
            # clauses) must bite even when their literals were already
            # assigned at level 0. Instead of re-propagating the whole root
            # trail, the new clauses are normalised against the root
            # assignment and propagation resumes from the watermark.
            if self._propagated_clauses < len(self.c_off):
                if not self._normalize_new_clauses(self._propagated_clauses):
                    self.ok = False
                    return self._finish(
                        SolveResult(SolveStatus.UNSAT,
                                    elapsed_seconds=time.monotonic() - start))
            self.qhead = min(self._propagated_trail, len(self.trail))
        return self._search(start, timeout_seconds, max_conflicts,
                            assumption_list)

    def _search(
        self,
        start: float,
        timeout_seconds: Optional[float],
        max_conflicts: Optional[int],
        assumption_list: List[int],
    ) -> SolveResult:
        """The CDCL hot loop (propagate / analyze / backjump / reduce).

        Runs after :meth:`solve` has prepared the trail, the root
        watermark and the assumption list. The C tier
        (:mod:`repro.smt.native.ckernel`) transcribes this method with the
        rest of the solver; every observable -- statuses,
        failed-assumption cores, model sets, even the VSIDS branching
        order -- must match this implementation bit for bit.
        """
        vals = self.vals
        perf = self.perf
        detailed = perf is not None and perf.detailed
        monotonic = time.monotonic
        # Hot-loop locals. The CDCL loop below runs once per decision or
        # conflict, and the two-watched-literal propagation is inlined into
        # it rather than living in a method of its own: on the labelling-
        # style instances the mapper produces, most propagation calls
        # process a single literal, so a per-call prologue (argument
        # passing plus rebinding a dozen attributes) would cost more than
        # the propagation itself. Bind everything once instead.
        trail = self.trail
        trail_lim = self.trail_lim
        watches = self.watches
        bwatch = self.bwatch
        arena = self.arena
        c_off = self.c_off
        c_size = self.c_size
        c_dead = self.c_dead
        level = self.level
        reason = self.reason
        phase = self.phase
        activity = self.activity
        heap = self._order_heap
        member = self._heap_member
        heappop = heapq.heappop
        heappush = heapq.heappush
        # pop() reads the watch log as a set: log each literal once per call
        log = self._watch_log if self._push_stack else None
        logged: set = set()
        trail_append = trail.append
        trail_len = len(trail)
        qhead = self.qhead
        props = 0
        num_assumptions = len(assumption_list)
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count)
        conflicts_in_restart = 0
        trail_ema = 0.0  # moving average of trail depth at conflicts
        t0 = 0.0
        expired = False  # the budget ran out at a conflict
        while True:
            # ---------------- unit propagation (inlined) ----------------
            if detailed:
                t0 = monotonic()
            confl = -1
            dl = len(trail_lim)
            while qhead < trail_len:
                lit = trail[qhead]
                qhead += 1
                props += 1
                neg = -lit
                # binary fast path: the other literal is the unit directly
                bw = bwatch[neg]
                if bw:
                    for other, bci in bw:
                        val = vals[other]
                        if val < 0:
                            confl = bci
                            break
                        if val == 0:
                            vals[other] = 1
                            vals[-other] = -1
                            var = other if other > 0 else -other
                            level[var] = dl
                            reason[var] = bci
                            trail_append(other)
                            trail_len += 1
                    if confl >= 0:
                        break
                watchlist = watches[neg]
                i = 0
                j = 0
                n = len(watchlist)
                if not n:
                    continue
                while i < n:
                    ci = watchlist[i]
                    i += 1
                    if c_dead[ci]:
                        continue  # tombstoned by reduce-DB: drop the watcher
                    off = c_off[ci]
                    first = arena[off]
                    if first == neg:
                        first = arena[off + 1]
                        arena[off] = first
                        arena[off + 1] = neg
                    if vals[first] > 0:
                        watchlist[j] = ci
                        j += 1
                        continue
                    end = off + c_size[ci]
                    found = False
                    for k in range(off + 2, end):
                        lk = arena[k]
                        if vals[lk] >= 0:
                            arena[off + 1] = lk
                            arena[k] = neg
                            watches[lk].append(ci)
                            if log is not None and lk not in logged:
                                logged.add(lk)
                                log.append(lk)
                            found = True
                            break
                    if found:
                        continue
                    watchlist[j] = ci
                    j += 1
                    if vals[first] < 0:
                        # conflict: keep the unvisited tail of the list
                        while i < n:
                            watchlist[j] = watchlist[i]
                            j += 1
                            i += 1
                        confl = ci
                        break
                    vals[first] = 1
                    vals[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = dl
                    reason[var] = ci
                    trail_append(first)
                    trail_len += 1
                if j != n:
                    del watchlist[j:]
                if confl >= 0:
                    break
            if detailed:
                perf.propagate_seconds += monotonic() - t0
            # -------------------------------------------------------------
            if confl >= 0:
                self.conflicts += 1
                conflicts_in_restart += 1
                self._conflicts_since_reduce += 1
                trail_ema += (trail_len - trail_ema) * 0.05
                self.qhead = qhead
                self.propagations += props
                props = 0
                if not trail_lim:
                    self.ok = False
                    return self._finish(
                        SolveResult(
                            SolveStatus.UNSAT,
                            conflicts=self.conflicts,
                            decisions=self.decisions,
                            propagations=self.propagations,
                            elapsed_seconds=monotonic() - start,
                        ))
                if detailed:
                    t0 = monotonic()
                    learnt, backtrack_level = self._analyze(confl)
                    perf.analyze_seconds += monotonic() - t0
                else:
                    learnt, backtrack_level = self._analyze(confl)
                self._cancel_until(backtrack_level)
                self._attach_learnt(learnt, logged)
                qhead = self.qhead
                trail_len = len(trail)
                if not self.ok:
                    return self._finish(
                        SolveResult(
                            SolveStatus.UNSAT,
                            conflicts=self.conflicts,
                            elapsed_seconds=monotonic() - start,
                        ))
                self.var_inc *= self.var_decay
                self.cla_inc *= self.cla_decay
                if self._conflicts_since_reduce >= self._reduce_interval:
                    self._conflicts_since_reduce = 0
                    self._reduce_interval += REDUCE_INCREMENT_CONFLICTS
                    if detailed:
                        t0 = monotonic()
                        self._reduce_db()
                        perf.reduce_seconds += monotonic() - t0
                    else:
                        self._reduce_db()
                # back-to-back conflicts can step over the poll below:
                # read the clock at every 64th conflict too
                if (timeout_seconds is not None and self.conflicts % 64 == 0
                        and monotonic() - start > timeout_seconds):
                    expired = True
                # activity bumps may have rescaled and rebuilt the heap
                heap = self._order_heap
                member = self._heap_member
                continue
            # no conflict; a conflict-free visit to the root records the
            # propagation watermark (everything current is now propagated
            # against the whole root trail)
            if not trail_lim:
                self._propagated_clauses = len(c_off)
                self._propagated_trail = trail_len
            if (expired
                    or (max_conflicts is not None
                        and self.conflicts >= max_conflicts)
                    or (timeout_seconds is not None
                        and self.conflicts % 64 == 0
                        and monotonic() - start > timeout_seconds)):
                self.qhead = qhead
                self.propagations += props
                return self._finish(
                    SolveResult(
                        SolveStatus.UNKNOWN,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                        elapsed_seconds=monotonic() - start,
                    ))
            if conflicts_in_restart >= conflicts_until_restart:
                if trail_len > 1.4 * trail_ema:
                    # Glucose-style restart blocking: the trail is much
                    # deeper than the recent conflict average, i.e. the
                    # search is closing in on a model -- a restart would
                    # throw that labelling work away. Postpone instead.
                    conflicts_in_restart = 0
                else:
                    restart_count += 1
                    conflicts_in_restart = 0
                    conflicts_until_restart = 100 * _luby(restart_count)
                    if perf is not None:
                        perf.restarts += 1
                    self.qhead = qhead
                    self._cancel_until(0)
                    qhead = self.qhead
                    trail_len = len(trail)
                    continue
            # Place the next assumption (restarts and backjumps may have
            # removed earlier ones; they are simply re-placed here).
            if len(trail_lim) < num_assumptions:
                next_assumption = None
                assumption_failed = None
                while (
                    len(trail_lim) < num_assumptions
                    and next_assumption is None
                ):
                    candidate = assumption_list[len(trail_lim)]
                    value = vals[candidate]
                    if value > 0:
                        trail_lim.append(trail_len)  # dummy level
                    elif value < 0:
                        assumption_failed = candidate
                        break
                    else:
                        next_assumption = candidate
                if assumption_failed is not None:
                    self.qhead = qhead
                    self.propagations += props
                    core = self._analyze_final(assumption_failed)
                    self._cancel_until(0)
                    return self._finish(
                        SolveResult(
                            SolveStatus.UNSAT,
                            conflicts=self.conflicts,
                            decisions=self.decisions,
                            propagations=self.propagations,
                            elapsed_seconds=monotonic() - start,
                            core=core,
                        ))
                if next_assumption is not None:
                    self.decisions += 1
                    trail_lim.append(trail_len)
                    vals[next_assumption] = 1
                    vals[-next_assumption] = -1
                    var = (next_assumption if next_assumption > 0
                           else -next_assumption)
                    level[var] = len(trail_lim)
                    reason[var] = -1
                    trail_append(next_assumption)
                    trail_len += 1
                    continue
            # ---------------- branching (inlined VSIDS pick) -------------
            var = 0
            while heap:
                neg_activity, cand = heappop(heap)
                member[cand] = 0
                if vals[cand] != 0:
                    continue  # stale entry of an assigned variable
                if -neg_activity < activity[cand]:
                    # stale priority (bumped since push): requeue correctly
                    member[cand] = 1
                    heappush(heap, (-activity[cand], cand))
                    continue
                var = cand
                break
            if not var:
                # Safety net -- the lazy heap should never run dry while
                # unassigned variables remain, but a linear scan keeps the
                # solver complete.
                for cand in range(1, self.num_vars + 1):
                    if vals[cand] == 0:
                        var = cand
                        break
            if not var:
                self.qhead = qhead
                self.propagations += props
                n = self.num_vars
                model = _SnapshotModel(vals[:n + 1], n)
                return self._finish(
                    SolveResult(
                        SolveStatus.SAT,
                        model=model,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                        elapsed_seconds=monotonic() - start,
                    ))
            self.decisions += 1
            trail_lim.append(trail_len)
            lit = var if phase[var] else -var
            vals[lit] = 1
            vals[-lit] = -1
            level[var] = len(trail_lim)
            reason[var] = -1
            trail_append(lit)
            trail_len += 1

    def _finish(self, result: SolveResult) -> SolveResult:
        """Fold the call's counters into the shared perf object."""
        perf = self.perf
        if perf is not None:
            perf.solve_calls += 1
            perf.conflicts += result.conflicts
            perf.decisions += result.decisions
            perf.propagations += result.propagations
        return result
