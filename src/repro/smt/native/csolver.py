"""The native-C solver tier: a :class:`SATSolver` whose hot loop runs in C.

:class:`CSATSolver` subclasses the arena solver and overrides exactly two
things:

* the container layout -- every flat vector the C kernel reads or writes
  (literal arena, clause sidecars, trit assignment vector, trail,
  activities, phases) becomes a typed ``array``/``bytearray`` so the
  marshal step is a zero-copy ``ffi.from_buffer`` instead of a
  per-element conversion;
* :meth:`SATSolver._search` -- the propagate/analyze/backjump/reduce hot
  loop is delegated to the compiled kernel, which operates on the same
  buffers in place, and only the state the search *extended* (new learnt
  clauses, the trail, touched watch lists) is marshalled back.

The watch lists are the one structure the kernel cannot share zero-copy
(they are per-literal Python lists), so they cross the boundary as flat
CSR arrays. Flattening ~100k watch entries per call would dominate the
cheap incremental solves model enumeration issues, so the second
consecutive search over an unchanged variable layout mirrors the lists
into a persistent CSR with explicit per-slot starts and, from then on,
only re-copies the slots that changed between calls. Changes are
observed, not inferred: the outer containers become
:class:`_TrackedSlots`, which conservatively marks a slot dirty on every
indexed access (each of the parent solver's mutation sites re-fetches
``self.watches[lit]`` right before mutating), so no watch list is ever
individually wrapped and no parent mutation site is hooked.

Everything else -- the solve prologue, push/pop, failed-core extraction,
model enumeration entry -- is inherited from the Python implementation
and operates on the same containers. Bit-identity of every observable
with the pure-Python tier is asserted by
``tests/test_solver_differential.py``.
"""

from __future__ import annotations

import time
from array import array
from itertools import accumulate, chain
from typing import List, Optional

from ..sat import SATSolver, SolveResult, SolveStatus, _SnapshotModel
from . import ckernel

_ST_SAT = 0
_ST_UNSAT_ROOT = 1
_ST_UNSAT_ATTACH = 2
_ST_TIMEOUT = 3
_ST_CONFLICT_BUDGET = 4
_ST_ASSUMPTION_FAILED = 5

# sentinel dirty-set entry: the container changed structurally (a slice
# was assigned or slots were added/removed) -- rebuild the whole cache
_REBUILD = -1


class _TrackedSlots(list):
    """The outer literal-indexed watch container, with read marking.

    Every mutation site in the parent solver re-fetches its watch list
    through ``self.watches[lit]`` immediately before mutating it (none
    holds an inner-list reference across a search call), so marking the
    slot dirty on *read* catches every possible in-place mutation without
    wrapping the ~2|V| inner lists individually. A false positive -- a
    read that never mutates -- merely re-copies one short list into its
    CSR segment at the next sync. Slot replacement is caught by
    ``__setitem__``; structural changes (slices, appends, deletes) force
    a full cache rebuild.
    """

    __slots__ = ("_dirty",)

    def __init__(self, iterable, dirty):
        list.__init__(self, iterable)
        self._dirty = dirty

    def __getitem__(self, index):
        if type(index) is int:
            self._dirty.add(
                index if index >= 0 else index + list.__len__(self))
        return list.__getitem__(self, index)

    def __setitem__(self, index, value):
        if type(index) is int:
            self._dirty.add(
                index if index >= 0 else index + list.__len__(self))
        else:
            self._dirty.add(_REBUILD)
        list.__setitem__(self, index, value)

    def __delitem__(self, index):
        self._dirty.add(_REBUILD)
        list.__delitem__(self, index)

    def append(self, item):
        self._dirty.add(_REBUILD)
        list.append(self, item)

    def extend(self, iterable):
        self._dirty.add(_REBUILD)
        list.extend(self, iterable)

    def insert(self, index, item):
        self._dirty.add(_REBUILD)
        list.insert(self, index, item)


class CSATSolver(SATSolver):
    """Flat-arena CDCL solver with the search loop compiled via cffi."""

    tier = "native-c"

    def __init__(self, perf=None) -> None:
        super().__init__(perf)
        # retype the flat state for zero-copy buffer sharing with C
        self.arena = array("i")
        self.c_act = array("d")
        self.vals = array("i", (0,))
        self.level = array("i", (0,))
        self.reason = array("i", (-1,))
        self.activity = array("d", (0.0,))
        self.phase = bytearray(1)
        self.trail = array("i")
        self.trail_lim = array("i")
        # incremental watch-CSR cache (see the module docstring): built
        # on the second consecutive search over one variable layout
        self._csr = None
        self._csr_shape = None          # (num_vars, layout gen) last searched
        self._layout_gen = 0            # bumped when _grow re-lays the slots
        self._w_dirty: set = set()
        self._b_dirty: set = set()
        # the compiled kernel derives its own VSIDS heap from activity[],
        # so the Python-side order heap is dead weight on this tier; the
        # flag flips only if the kernel vanishes and the Python search
        # (which does consume the heap) has to take over
        self._use_python_heap = False

    def _grow(self, min_cap: int) -> None:
        # identical to the parent except vals stays a typed array; the
        # re-lay moves every watch list, so the CSR cache dies with it
        self._layout_gen += 1
        self._csr = None
        cap = max(self._cap * 2, min_cap * 2, 16)
        vals = array("i", (0,)) * (2 * cap + 1)
        watches: List[List[int]] = [[] for _ in range(2 * cap + 1)]
        bwatch: List[List] = [[] for _ in range(2 * cap + 1)]
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

    def _rebuild_order_heap(self) -> None:
        # never consumed by the compiled search; building a ~|V| heap per
        # incremental solve would dominate cheap enumeration calls
        if self._use_python_heap:  # pragma: no cover - kernel-loss fallback
            super()._rebuild_order_heap()
            return
        self._order_heap = []
        self._heap_member = bytearray(self.num_vars + 1)

    def _cancel_until(self, target_level: int) -> None:
        # the parent's unwind minus the order-heap percolation (the heap
        # is rebuilt from scratch by whoever actually needs it; the
        # compiled kernel keeps its own)
        if self._use_python_heap:  # pragma: no cover - kernel-loss fallback
            super()._cancel_until(target_level)
            return
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        vals = self.vals
        phase = self.phase
        reason = self.reason
        for lit in reversed(self.trail[limit:]):
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0  # phase saving
            vals[lit] = 0
            vals[-lit] = 0
            reason[var] = -1
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    def pop(self) -> None:
        # index 6 of the push footprint is num_vars at push() time: when
        # scope-local variables are about to die the slot layout changes
        # underneath the CSR cache, so unwire the tracked containers first
        # and let the teardown run at plain-list speed
        if (self._csr is not None and self._push_stack
                and self._push_stack[-1][6] != self.num_vars):
            self._csr = None
            self.watches = list(self.watches)
            self.bwatch = list(self.bwatch)
        super().pop()

    # ------------------------------------------------------------------ #
    # Incremental watch-CSR cache
    # ------------------------------------------------------------------ #
    def _build_watch_cache(self) -> dict:
        """Mirror the watch lists into slack-capable flat CSR arrays.

        Swaps both outer containers for :class:`_TrackedSlots`, then
        flattens in CSR slot order (+1..+V, -1..-V). Initial per-slot
        capacity equals the length: slots that later outgrow it relocate
        to the tail of the flat array.
        """
        num_vars = self.num_vars
        w_dirty: set = set()
        b_dirty: set = set()
        watches = list(self.watches)   # raw refs: flatten without marking
        bwatch = list(self.bwatch)
        self.watches = _TrackedSlots(watches, w_dirty)
        self.bwatch = _TrackedSlots(bwatch, b_dirty)
        self._w_dirty = w_dirty
        self._b_dirty = b_dirty
        w_lists = [()]
        w_lists.extend(watches[v] for v in range(1, num_vars + 1))
        w_lists.extend(watches[-v] for v in range(1, num_vars + 1))
        w_len = array("i", map(len, w_lists))
        w_start = array("i", accumulate(w_len[:-1], initial=0))
        w_flat = array("i", chain.from_iterable(w_lists))
        b_lists = [()]
        b_lists.extend(bwatch[v] for v in range(1, num_vars + 1))
        b_lists.extend(bwatch[-v] for v in range(1, num_vars + 1))
        b_len = array("i", map(len, b_lists))
        b_start = array("i",
                        accumulate((2 * n for n in b_len[:-1]), initial=0))
        b_flat = array("i", chain.from_iterable(chain.from_iterable(b_lists)))
        self._csr = {
            "shape": (num_vars, self._layout_gen),
            "w_len": w_len, "w_start": w_start,
            "w_cap": array("i", w_len), "w_flat": w_flat,
            "w_limit": 2 * len(w_flat) + 65536,
            "b_len": b_len, "b_start": b_start,
            "b_cap": array("i", (2 * n for n in b_len)), "b_flat": b_flat,
            "b_limit": 2 * len(b_flat) + 65536,
        }
        return self._csr

    def _sync_watch_cache(self, csr: dict) -> None:
        """Re-copy every dirty slot's list into its flat CSR segment."""
        num_vars = self.num_vars
        outer_len = len(self.watches)
        half = (outer_len - 1) // 2
        w_dirty = self._w_dirty
        if w_dirty:
            w_len = csr["w_len"]
            w_start = csr["w_start"]
            w_cap = csr["w_cap"]
            w_flat = csr["w_flat"]
            watches = self.watches
            raw = list.__getitem__   # read without re-marking the slot
            for idx in w_dirty:
                if 0 < idx <= half:
                    if idx > num_vars:
                        continue   # above the live range: no CSR slot
                    cslot = idx
                else:
                    var = outer_len - idx   # variable of a negative literal
                    if not 0 < var <= num_vars:
                        continue
                    cslot = num_vars + var
                lst = raw(watches, idx)
                count = len(lst)
                if count <= w_cap[cslot]:
                    at = w_start[cslot]
                    w_flat[at:at + count] = array("i", lst)
                else:
                    w_start[cslot] = len(w_flat)
                    w_cap[cslot] = count + (count >> 1) + 4
                    w_flat.extend(lst)
                    w_flat.frombytes(
                        bytes(w_flat.itemsize * (w_cap[cslot] - count)))
                w_len[cslot] = count
            w_dirty.clear()
        b_dirty = self._b_dirty
        if b_dirty:
            b_len = csr["b_len"]
            b_start = csr["b_start"]
            b_cap = csr["b_cap"]
            b_flat = csr["b_flat"]
            bwatch = self.bwatch
            raw = list.__getitem__
            for idx in b_dirty:
                if 0 < idx <= half:
                    if idx > num_vars:
                        continue
                    cslot = idx
                else:
                    var = outer_len - idx
                    if not 0 < var <= num_vars:
                        continue
                    cslot = num_vars + var
                lst = raw(bwatch, idx)
                pairs = len(lst)
                ints = 2 * pairs
                if ints <= b_cap[cslot]:
                    at = b_start[cslot]
                    b_flat[at:at + ints] = array(
                        "i", chain.from_iterable(lst))
                else:
                    b_start[cslot] = len(b_flat)
                    b_cap[cslot] = ints + (ints >> 1) + 8
                    b_flat.extend(chain.from_iterable(lst))
                    b_flat.frombytes(
                        bytes(b_flat.itemsize * (b_cap[cslot] - ints)))
                b_len[cslot] = pairs
            b_dirty.clear()

    def _search(
        self,
        start: float,
        timeout_seconds: Optional[float],
        max_conflicts: Optional[int],
        assumption_list: List[int],
    ) -> SolveResult:
        kernel = ckernel.load_kernel()
        if kernel is None:  # pragma: no cover - tier selection prevents this
            # hand the search to the Python loop for good: it consumes
            # the order heap this class otherwise leaves unmaintained
            self._use_python_heap = True
            SATSolver._rebuild_order_heap(self)
            self._heap_dirty = False
            return super()._search(
                start, timeout_seconds, max_conflicts, assumption_list
            )
        ffi, lib = kernel
        num_vars = self.num_vars

        # ---- watch CSR: the incremental cache, or a one-shot flatten ----
        shape = (num_vars, self._layout_gen)
        csr = self._csr
        if csr is not None and (
            csr["shape"] != shape
            or _REBUILD in self._w_dirty
            or _REBUILD in self._b_dirty
            or len(csr["w_flat"]) > csr["w_limit"]
            or len(csr["b_flat"]) > csr["b_limit"]
        ):
            csr = self._csr = None
        if csr is None and self._csr_shape == shape:
            # second consecutive search over an unchanged variable
            # layout: this solver is being re-solved incrementally
            # (model enumeration, assumption ladders) -- mirror the
            # watch lists once, patch only dirty slots from now on
            csr = self._build_watch_cache()
        else:
            self._csr_shape = shape
        if csr is not None:
            self._sync_watch_cache(csr)
            w_counts = csr["w_len"]
            w_flat = csr["w_flat"]
            b_counts = csr["b_len"]
            b_flat = csr["b_flat"]
        else:
            # slot order: +1..+V, -1..-V, contiguous (no explicit starts)
            watches = self.watches
            bwatch = self.bwatch
            w_lists = [()]
            w_lists.extend(watches[v] for v in range(1, num_vars + 1))
            w_lists.extend(watches[-v] for v in range(1, num_vars + 1))
            w_counts = array("i", map(len, w_lists))
            w_flat = array("i", chain.from_iterable(w_lists))
            b_lists = [()]
            b_lists.extend(bwatch[v] for v in range(1, num_vars + 1))
            b_lists.extend(bwatch[-v] for v in range(1, num_vars + 1))
            b_counts = array("i", map(len, b_lists))
            b_flat = array(
                "i", chain.from_iterable(chain.from_iterable(b_lists)))
        watches = self.watches
        bwatch = self.bwatch
        marks = array("i", (entry[0] for entry in self._push_stack))
        assumps = array("i", assumption_list)

        keepalive = []

        def buf(ctype, obj, writable=False):
            if not len(obj):
                return ffi.NULL
            view = ffi.from_buffer(ctype, obj, require_writable=writable)
            keepalive.append(view)
            return view

        inp = ffi.new("repro_in_t *")
        inp.num_vars = num_vars
        inp.nclauses = len(self.c_off)
        inp.c_off = buf("int[]", self.c_off)
        inp.c_size = buf("int[]", self.c_size)
        inp.c_learnt = buf("unsigned char[]", self.c_learnt)
        inp.c_dead = buf("unsigned char[]", self.c_dead, writable=True)
        inp.c_lbd = buf("int[]", self.c_lbd)
        inp.c_act = buf("double[]", self.c_act, writable=True)
        inp.arena_len = len(self.arena)
        inp.arena = buf("int[]", self.arena, writable=True)
        inp.vals_len = len(self.vals)
        inp.vals = buf("int[]", self.vals, writable=True)
        inp.w_counts = buf("int[]", w_counts)
        inp.w_flat = buf("int[]", w_flat)
        inp.b_counts = buf("int[]", b_counts)
        inp.b_flat = buf("int[]", b_flat)
        if csr is not None:
            # cached CSR segments are not contiguous: ship explicit starts
            inp.w_starts = buf("int[]", csr["w_start"])
            inp.b_starts = buf("int[]", csr["b_start"])
        inp.level = buf("int[]", self.level, writable=True)
        inp.reason = buf("int[]", self.reason, writable=True)
        inp.activity = buf("double[]", self.activity, writable=True)
        inp.phase = buf("unsigned char[]", self.phase, writable=True)
        inp.trail_len = len(self.trail)
        inp.trail = buf("int[]", self.trail)
        inp.ntrail_lim = len(self.trail_lim)
        inp.trail_lim = buf("int[]", self.trail_lim)
        inp.qhead = self.qhead
        inp.var_inc = self.var_inc
        inp.cla_inc = self.cla_inc
        inp.num_learnts = self.num_learnts
        inp.conflicts_since_reduce = self._conflicts_since_reduce
        inp.reduce_interval = self._reduce_interval
        inp.nassumps = len(assumps)
        inp.assumps = buf("int[]", assumps)
        inp.nscopes = len(marks)
        inp.scope_marks = buf("int[]", marks)
        inp.log_enabled = 1 if self._push_stack else 0
        if timeout_seconds is None:
            inp.time_budget = -1.0
        else:
            inp.time_budget = max(
                0.0, timeout_seconds - (time.monotonic() - start)
            )
        inp.max_conflicts = -1 if max_conflicts is None else max_conflicts
        perf = self.perf
        inp.detailed = 1 if (perf is not None and perf.detailed) else 0
        inp.propagated_clauses = self._propagated_clauses
        inp.propagated_trail = self._propagated_trail

        out = ffi.new("repro_out_t *")
        status = lib.repro_search(inp, out)
        # release the zero-copy views before any Python-side array
        # resizing (CPython refuses to resize an array with exported
        # buffers). Dropping the references is not enough: a SIGPROF
        # handler that sampled this thread can keep a view alive.
        del inp
        for view in keepalive:
            ffi.release(view)
        keepalive.clear()
        if status < 0:
            raise MemoryError(
                "native SAT kernel ran out of memory; solver state undefined"
            )
        try:
            # ---- scalars (the C loop mirrors the Python accounting) ----
            self.var_inc = out.var_inc
            self.cla_inc = out.cla_inc
            self.num_learnts = out.num_learnts
            self._conflicts_since_reduce = out.conflicts_since_reduce
            self._reduce_interval = out.reduce_interval
            self._propagated_clauses = out.propagated_clauses
            self._propagated_trail = out.propagated_trail
            self.qhead = out.qhead
            self.conflicts += out.conflicts
            self.decisions += out.decisions
            self.propagations += out.propagations
            # ---- clauses learnt during the search ----
            n_new = out.new_clauses
            if n_new:
                isz = self.c_off.itemsize
                self.c_off.frombytes(ffi.buffer(out.new_c_off, isz * n_new))
                self.c_size.frombytes(ffi.buffer(out.new_c_size, isz * n_new))
                self.c_lbd.frombytes(ffi.buffer(out.new_c_lbd, isz * n_new))
                self.c_learnt += ffi.buffer(out.new_c_learnt, n_new)
                self.c_dead += ffi.buffer(out.new_c_dead, n_new)
                self.c_act.frombytes(ffi.buffer(out.new_c_act, 8 * n_new))
                self.arena.frombytes(
                    ffi.buffer(out.new_arena, isz * out.new_arena_len)
                )
            # ---- the trail ----
            isz = self.trail.itemsize
            trail = array("i")
            trail.frombytes(ffi.buffer(out.trail, isz * out.trail_len))
            self.trail = trail
            trail_lim = array("i")
            trail_lim.frombytes(
                ffi.buffer(out.trail_lim, isz * out.ntrail_lim)
            )
            self.trail_lim = trail_lim
            # ---- watch lists the search touched ----
            nd = out.n_dirty
            if nd:
                dirty = ffi.unpack(out.dirty_lits, nd)
                w_start = ffi.unpack(out.w_start, nd + 1)
                b_start = ffi.unpack(out.b_start, nd + 1)
                w_flat_out = out.w_flat
                b_flat_out = out.b_flat
                for i, lit in enumerate(dirty):
                    a = w_start[i]
                    watches[lit] = ffi.unpack(w_flat_out + a, w_start[i + 1] - a)
                    a = b_start[i]
                    pairs = ffi.unpack(b_flat_out + a, b_start[i + 1] - a)
                    bwatch[lit] = list(zip(pairs[0::2], pairs[1::2]))
            # ---- scoped bookkeeping ----
            if out.log_len:
                self._watch_log.extend(ffi.unpack(out.log, out.log_len))
            if self._scope_dead and out.scope_dead != ffi.NULL:
                deltas = ffi.unpack(out.scope_dead, len(self._scope_dead))
                for i, delta in enumerate(deltas):
                    if delta:
                        self._scope_dead[i] += delta
            # ---- perf counters ----
            if perf is not None:
                perf.learnts += out.learnts
                perf.glue_learnts += out.glue_learnts
                perf.learnts_deleted += out.learnts_deleted
                perf.reductions += out.reductions
                perf.restarts += out.restarts
                if perf.detailed:
                    perf.propagate_seconds += out.propagate_seconds
                    perf.analyze_seconds += out.analyze_seconds
                    perf.reduce_seconds += out.reduce_seconds
            failed_lit = out.failed_lit
        finally:
            lib.repro_release(out)
        # the C kernel kept its own lazy heap; rebuild ours on next entry
        self._heap_dirty = True

        monotonic = time.monotonic
        if status == _ST_SAT:
            model = _SnapshotModel(self.vals[:num_vars + 1], num_vars)
            return self._finish(
                SolveResult(
                    SolveStatus.SAT,
                    model=model,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=monotonic() - start,
                ),
                start, timed=True,
            )
        if status == _ST_UNSAT_ROOT:
            self.ok = False
            return self._finish(
                SolveResult(
                    SolveStatus.UNSAT,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=monotonic() - start,
                ),
                start, timed=True,
            )
        if status == _ST_UNSAT_ATTACH:
            self.ok = False
            return self._finish(
                SolveResult(
                    SolveStatus.UNSAT,
                    conflicts=self.conflicts,
                    elapsed_seconds=monotonic() - start,
                ),
                start, timed=True,
            )
        if status == _ST_ASSUMPTION_FAILED:
            core = self._analyze_final(failed_lit)
            self._cancel_until(0)
            return self._finish(
                SolveResult(
                    SolveStatus.UNSAT,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    elapsed_seconds=monotonic() - start,
                    core=core,
                ),
                start, timed=True,
            )
        # _ST_TIMEOUT / _ST_CONFLICT_BUDGET
        return self._finish(
            SolveResult(
                SolveStatus.UNKNOWN,
                conflicts=self.conflicts,
                decisions=self.decisions,
                propagations=self.propagations,
                elapsed_seconds=monotonic() - start,
            ),
            start, timed=True,
        )
