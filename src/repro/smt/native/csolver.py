"""The native-C solver tier: a thin wrapper around one C solver handle.

:class:`CSATSolver` offers the public surface of
:class:`~repro.smt.sat.SATSolver` -- variables, clauses, activity
boosts, phase preferences, push/pop and solve -- and each method is one
call into the compiled kernel of :mod:`.ckernel`. The kernel object is
created with the wrapper, owns the whole solver state for the wrapper's
life, and is freed by ``ffi.gc`` when the wrapper goes away. Between
calls nothing crosses the boundary: a solve passes only its assumptions
and budgets, and reads back the model, the failed core and the counters
from the handle's public fields. A forked process gets its own copy of
the handle's memory with the rest of the heap, so parent and child never
share a live solver.

Bit-identity of every observable with the arena tier (statuses, models,
core literal order, conflict/decision/propagation counts, the clause
view) is asserted by ``tests/test_solver_differential.py`` and
``tests/test_solver_properties.py``.
"""

from __future__ import annotations

import time
from array import array
from itertools import chain
from typing import List, Optional, Sequence

from ..sat import SATSolver, SolveResult, SolveStatus, _SnapshotModel
from . import ckernel

_ffi, _lib = ckernel.load_kernel()

# repro_solve results (see the C source)
_ST_SAT = 0
_ST_UNSAT_ROOT = 1
_ST_UNSAT_ATTACH = 2
_ST_UNSAT_PROLOGUE = 4
_ST_ASSUMPTION_FAILED = 5
_ST_NOT_OK = 6
_ST_OOM = -1
_ST_BAD_INPUT = -2
_ST_NO_SCOPE = -3


def _check(status: int) -> int:
    if status == _ST_OOM:
        raise MemoryError(
            "native SAT kernel ran out of memory; solver state undefined")
    if status == _ST_BAD_INPUT:
        raise ValueError("literal or variable out of range")
    if status == _ST_NO_SCOPE:
        raise RuntimeError("pop() without matching push()")
    return status


class CSATSolver:
    """The flat-arena CDCL solver, state and search compiled via cffi."""

    tier = "native-c"

    def __init__(self, perf=None) -> None:
        self.perf = perf
        handle = _lib.repro_new()
        if handle == _ffi.NULL:
            raise MemoryError("cannot allocate a native SAT solver")
        self._h = _ffi.gc(handle, _lib.repro_free)

    from_cnf = classmethod(SATSolver.from_cnf.__func__)

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        return self._h.num_vars

    @property
    def ok(self) -> bool:
        """``False`` once the formula is known to be UNSAT."""
        return bool(self._h.ok)

    def new_var(self) -> int:
        var = self._h.num_vars + 1
        _check(_lib.repro_ensure_vars(self._h, var))
        return var

    def ensure_vars(self, count: int) -> None:
        """Make sure variables ``1..count`` exist (bulk allocation)."""
        if count > self._h.num_vars:
            _check(_lib.repro_ensure_vars(self._h, count))

    def boost_activity(self, var: int, activity: float) -> None:
        """Raise a variable's activity to at least ``activity``."""
        _check(_lib.repro_boost(self._h, var, activity))

    def prefer_true(self, variables: Sequence[int]) -> None:
        """Set the saved phase of each variable to true."""
        if not len(variables):
            return
        if not isinstance(variables, array):
            variables = array("i", variables)
        # released at once: the caller may resize its array afterwards
        with _ffi.from_buffer("int[]", variables) as buf:
            _check(_lib.repro_prefer_true(self._h, buf, len(variables)))

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
            self._h.ok = 0
            return
        self.add_clauses((clause,))

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Bulk-load *clean* clauses (see :meth:`SATSolver.add_clauses`)."""
        if not clauses:
            return
        lits = array("i", chain.from_iterable(clauses))
        sizes = array("i", map(len, clauses))
        _check(_lib.repro_add_clauses(
            self._h, _ffi.from_buffer("int[]", lits),
            _ffi.from_buffer("int[]", sizes), len(sizes)))

    @property
    def clauses(self) -> List[List[int]]:
        """Live clauses (problem + learnt) as literal lists (a view)."""
        h = self._h
        count = h.nclauses
        if not count:
            return []
        offsets = _ffi.unpack(h.c_off, count)
        sizes = _ffi.unpack(h.c_size, count)
        dead = _ffi.unpack(h.c_dead, count)
        arena = _ffi.unpack(h.arena, h.arena_len)
        return [
            arena[off:off + size]
            for off, size, gone in zip(offsets, sizes, dead)
            if not gone
        ]

    def watch_log(self) -> List[int]:
        """The literals whose watch lists were appended to while scoped."""
        log = self._h.log
        return _ffi.unpack(log.d, log.n) if log.n else []

    # ------------------------------------------------------------------ #
    # Clause-footprint push/pop
    # ------------------------------------------------------------------ #
    @property
    def scope_depth(self) -> int:
        return self._h.nscopes

    def push(self) -> None:
        """Mark the clause database and root trail for a later :meth:`pop`."""
        _check(_lib.repro_push(self._h))

    def pop(self) -> None:
        """Retract every clause, variable, and root assignment since push."""
        _check(_lib.repro_pop(self._h))

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        timeout_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        assumptions: Optional[Sequence[int]] = None,
    ) -> SolveResult:
        """Run the CDCL search (see :meth:`SATSolver.solve`)."""
        start = time.monotonic()
        h = self._h
        perf = self.perf
        if assumptions:
            assumps = array("i", assumptions)
            assumps_buf = _ffi.from_buffer("int[]", assumps)
        else:
            assumps = ()
            assumps_buf = _ffi.NULL
        status = _check(_lib.repro_solve(
            h, assumps_buf, len(assumps),
            -1.0 if timeout_seconds is None else max(0.0, timeout_seconds),
            -1 if max_conflicts is None else max_conflicts,
            perf is not None and perf.detailed))
        if status == _ST_NOT_OK:
            return self._finish(SolveResult(SolveStatus.UNSAT), start,
                                timed=False)
        if status == _ST_UNSAT_PROLOGUE:
            result = SolveResult(SolveStatus.UNSAT)
        elif status == _ST_UNSAT_ATTACH:
            result = SolveResult(SolveStatus.UNSAT, conflicts=h.conflicts)
        else:
            result = SolveResult(
                SolveStatus.UNKNOWN,
                conflicts=h.conflicts,
                decisions=h.decisions,
                propagations=h.propagations,
            )
            if status == _ST_SAT:
                result.status = SolveStatus.SAT
                num_vars = h.num_vars
                vals = array("i")
                vals.frombytes(
                    _ffi.buffer(h.vals, vals.itemsize * (num_vars + 1)))
                result.model = _SnapshotModel(vals, num_vars)
            elif status == _ST_UNSAT_ROOT:
                result.status = SolveStatus.UNSAT
            elif status == _ST_ASSUMPTION_FAILED:
                result.status = SolveStatus.UNSAT
                result.core = _ffi.unpack(h.core.d, h.core.n)
        result.elapsed_seconds = time.monotonic() - start
        return self._finish(result, start, timed=True)

    def _finish(self, result: SolveResult, start: float,
                timed: bool) -> SolveResult:
        """Fold the call's counters into the shared perf object."""
        perf = self.perf
        if perf is not None:
            h = self._h
            perf.solve_calls += 1
            perf.conflicts += result.conflicts
            perf.decisions += result.decisions
            perf.propagations += result.propagations
            perf.solve_seconds += (
                result.elapsed_seconds if timed else time.monotonic() - start
            )
            perf.learnts += h.learnts
            perf.glue_learnts += h.glue_learnts
            perf.learnts_deleted += h.learnts_deleted
            perf.reductions += h.reductions
            perf.restarts += h.restarts
            if perf.detailed:
                perf.propagate_seconds += h.propagate_seconds
                perf.analyze_seconds += h.analyze_seconds
                perf.reduce_seconds += h.reduce_seconds
        return result
