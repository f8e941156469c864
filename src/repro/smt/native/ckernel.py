"""The compiled CDCL solver: an opaque C object behind a cffi handle.

The C source below owns every piece of the flat-arena solver's state --
the clause arena and its per-clause headers, the literal-indexed watch
lists, the trail with its levels and reasons, the activities and saved
phases, the VSIDS heap, the scope stack with its watch log, and the
root-propagation watermark -- for the whole life of one
:class:`~repro.smt.native.csolver.CSATSolver`. Python reaches it through
a handful of entry points (allocate variables, add clauses, boost an
activity, prefer phases, push, pop, solve) and reads the model, the
failed core, the counters and the clause view straight out of the
handle's public fields. Nothing is copied into C or back per call.

Every algorithm is a transcription of :class:`repro.smt.sat.SATSolver`:
the solve prologue (root units, new-clause normalisation, the
minimal-backtrack entry), the propagate / analyze / backjump / reduce
loop, failed-assumption analysis, and push/pop with the watch-log
repair. Bit-identity with the Python solver is a hard requirement
(failed cores and enumeration orders are search-order dependent), so
the kernel replicates everything observable: watch-list order, the
first-UIP literal discovery order, VSIDS float arithmetic (IEEE-754
doubles on both sides), the Glucose reduce-DB sort order, and Luby
restarts with trail-depth blocking.

The extension module is compiled lazily on first use with ``cffi`` in
API mode, keyed by a hash of the source so stale caches are never
loaded, and cached under (in order) ``$REPRO_NATIVE_BUILD_DIR``,
``~/.cache/repro/native``, or a per-user temp directory. Every failure
mode -- no cffi, no C compiler, unwritable cache -- degrades by
returning ``None`` from :func:`load_kernel`; the SAT engines then fall
back to the pure-Python arena solver, and :func:`kernel_error` names the
reason.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
import threading
from typing import Any, Optional, Tuple

CDEF = """
typedef struct { int *d; int n; int cap; } veci;

typedef struct {
    int num_vars;
    int ok;
    int nscopes;
    int nclauses;
    int arena_len;
    int *vals;
    int *c_off;
    int *c_size;
    unsigned char *c_dead;
    int *arena;
    veci core;
    veci log;
    long long conflicts;
    long long decisions;
    long long propagations;
    long long learnts;
    long long glue_learnts;
    long long learnts_deleted;
    long long reductions;
    long long restarts;
    double propagate_seconds;
    double analyze_seconds;
    double reduce_seconds;
    ...;
} repro_solver;

repro_solver *repro_new(void);
void repro_free(repro_solver *s);
int repro_ensure_vars(repro_solver *s, int count);
int repro_add_clauses(repro_solver *s, const int *lits, const int *sizes,
                      int n);
int repro_boost(repro_solver *s, int var, double activity);
int repro_prefer_true(repro_solver *s, const int *vars, int n);
int repro_push(repro_solver *s);
int repro_pop(repro_solver *s);
int repro_solve(repro_solver *s, const int *assumps, int nassumps,
                double time_budget, long long max_conflicts, int detailed);
"""

SOURCE = r"""
#include <stdlib.h>
#include <string.h>
#include <setjmp.h>
#include <time.h>

/* repro_solve results */
#define ST_SAT 0
#define ST_UNSAT_ROOT 1         /* a conflict at the root during the search */
#define ST_UNSAT_ATTACH 2       /* a learnt unit is false at the root */
#define ST_BUDGET 3             /* the time or the conflict budget ran out */
#define ST_UNSAT_PROLOGUE 4     /* a unit or a new clause is false at the root */
#define ST_ASSUMPTION_FAILED 5  /* the failed core is in s->core */
#define ST_NOT_OK 6             /* the formula was UNSAT before the call */
/* every entry point */
#define ST_DONE 0
#define ST_OOM (-1)             /* out of memory: the handle is unusable */
#define ST_BAD_INPUT (-2)       /* a literal or variable out of range */
#define ST_NO_SCOPE (-3)        /* pop() without push() */

#define GLUE_LBD 2
#define REDUCE_BASE 2000
#define REDUCE_INCREMENT 300
#define VAR_DECAY (1.0 / 0.95)
#define CLA_DECAY (1.0 / 0.999)

typedef struct { int *d; int n; int cap; } veci;

/* one push(): the footprint pop() truncates back to */
typedef struct {
    int nclauses, arena_len, nunits, trail_len, log_len, ok, num_vars;
    int propagated_clauses, propagated_trail, num_learnts;
    long long dead;  /* pre-mark learnt clauses reduce-DB tombstoned since */
} scope_t;

typedef struct {
    /* ---- public: read by the Python wrapper (see the cdef) ---- */
    int num_vars;
    int ok;
    int nscopes;
    int nclauses;
    int arena_len;
    int *vals;               /* literal-indexed trit vector: vals[-v] valid */
    int *c_off;
    int *c_size;
    unsigned char *c_dead;
    int *arena;
    veci core;               /* failed core of the last solve */
    veci log;                /* watch lists appended to while scoped */
    long long conflicts, decisions, propagations;     /* last solve only */
    long long learnts, glue_learnts, learnts_deleted, reductions, restarts;
    double propagate_seconds, analyze_seconds, reduce_seconds;
    /* ---- private ---- */
    jmp_buf env;
    int broken;              /* an allocation failed: state undefined */
    int cap;                 /* variables 1..cap fit the literal vectors */
    int *vals_base;
    veci *watches, *w_base;  /* clauses of size >= 3, literal-indexed */
    veci *bwatch, *b_base;   /* binary clauses as (other, ci) pairs */
    unsigned char *mark, *mark_base;  /* per-literal scratch, zero between calls */
    int *level, *reason;
    double *activity;
    unsigned char *phase, *seen, *member;
    int *learnt, *to_clear;
    int *c_lbd;
    unsigned char *c_learnt;
    double *c_act;
    int c_cap, arena_cap;
    veci units;
    veci implied;            /* (literal, clause) pairs, integrate scratch */
    int *trail; int trail_len;
    int *trail_lim; int ntrail_lim;
    int *lbd_stamp; int lim_cap; int lbd_counter;
    int qhead;
    double *h_act; int *h_var; int h_n, h_cap; int heap_dirty;
    scope_t *scopes; int scope_cap;
    double var_inc, cla_inc;
    int num_learnts;
    long long conflicts_since_reduce, reduce_interval;
    int propagated_clauses, propagated_trail;
    int had_assumptions, units_integrated;
    int detailed;
} repro_solver;

typedef repro_solver S;

void repro_free(repro_solver *s);

/* every entry point that may allocate: an allocation failure longjmps
   here, marks the handle broken and answers ST_OOM from then on */
#define ENTER(s) do { \
        if ((s)->broken) return ST_OOM; \
        if (setjmp((s)->env)) { (s)->broken = 1; return ST_OOM; } \
    } while (0)

static double now_sec(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static long long luby(long long index) {
    long long size = 1;
    int seq = 0;
    while (size < index + 1) { seq++; size = 2 * size + 1; }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        seq--;
        index = index % size;
    }
    return 1LL << seq;
}

static void *xrealloc(S *s, void *p, size_t n) {
    void *q = realloc(p, n ? n : 1);
    if (!q) longjmp(s->env, 1);
    return q;
}

static void veci_push(S *s, veci *v, int x) {
    if (v->n == v->cap) {
        int nc = v->cap ? v->cap * 2 : 4;
        v->d = (int *)xrealloc(s, v->d, (size_t)nc * sizeof(int));
        v->cap = nc;
    }
    v->d[v->n++] = x;
}

/* drop the first occurrence of x, keeping the order (python list.remove) */
static void veci_remove(veci *v, int x) {
    for (int i = 0; i < v->n; i++) {
        if (v->d[i] == x) {
            memmove(v->d + i, v->d + i + 1,
                    (size_t)(v->n - i - 1) * sizeof(int));
            v->n--;
            return;
        }
    }
}

/* ------------------------------------------------------------------ */
/* VSIDS heap: max-heap on (activity, smaller var wins ties), exactly  */
/* the order of python's min-heap of (-activity, var) tuples.          */
/* ------------------------------------------------------------------ */
static int heap_before(double aa, int av, double ba, int bv) {
    return aa > ba || (aa == ba && av < bv);
}

static void heap_push(S *s, double act, int var) {
    if (s->h_n == s->h_cap) {
        int nc = s->h_cap ? s->h_cap * 2 : 16;
        s->h_act = (double *)xrealloc(s, s->h_act, (size_t)nc * sizeof(double));
        s->h_var = (int *)xrealloc(s, s->h_var, (size_t)nc * sizeof(int));
        s->h_cap = nc;
    }
    int i = s->h_n++;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (heap_before(act, var, s->h_act[parent], s->h_var[parent])) {
            s->h_act[i] = s->h_act[parent];
            s->h_var[i] = s->h_var[parent];
            i = parent;
        } else {
            break;
        }
    }
    s->h_act[i] = act;
    s->h_var[i] = var;
}

static int heap_pop(S *s, double *act_out) {
    /* caller guarantees h_n > 0 */
    double act = s->h_act[0];
    int var = s->h_var[0];
    s->h_n--;
    if (s->h_n) {
        double la = s->h_act[s->h_n];
        int lv = s->h_var[s->h_n];
        int i = 0;
        for (;;) {
            int l = 2 * i + 1, r = l + 1, best = i;
            double ba = la; int bv = lv;
            if (l < s->h_n && heap_before(s->h_act[l], s->h_var[l], ba, bv)) {
                best = l; ba = s->h_act[l]; bv = s->h_var[l];
            }
            if (r < s->h_n && heap_before(s->h_act[r], s->h_var[r], ba, bv)) {
                best = r; ba = s->h_act[r]; bv = s->h_var[r];
            }
            if (best == i) break;
            s->h_act[i] = s->h_act[best];
            s->h_var[i] = s->h_var[best];
            i = best;
        }
        s->h_act[i] = la;
        s->h_var[i] = lv;
    }
    *act_out = act;
    return var;
}

static void rebuild_heap(S *s) {
    s->h_n = 0;
    for (int v = 1; v <= s->num_vars; v++) {
        if (s->vals[v] == 0) heap_push(s, s->activity[v], v);
    }
    memset(s->member + 1, 1, (size_t)s->num_vars);
    for (int i = 0; i < s->trail_len; i++) {
        int lit = s->trail[i];
        s->member[lit > 0 ? lit : -lit] = 0;
    }
}

/* ------------------------------------------------------------------ */
/* Variables                                                           */
/* ------------------------------------------------------------------ */
/* re-lay the literal vectors for at least min_cap variables (the same
   overshoot as SATSolver._grow) */
static void grow(S *s, int min_cap) {
    int old = s->cap;
    int cap = old * 2;
    if (min_cap * 2 > cap) cap = min_cap * 2;
    if (cap < 16) cap = 16;
    size_t slots = 2 * (size_t)cap + 1;
    int *vb = (int *)calloc(slots, sizeof(int));
    veci *wb = (veci *)calloc(slots, sizeof(veci));
    veci *bb = (veci *)calloc(slots, sizeof(veci));
    unsigned char *mb = (unsigned char *)calloc(slots, 1);
    if (!vb || !wb || !bb || !mb) {
        free(vb); free(wb); free(bb); free(mb);
        longjmp(s->env, 1);
    }
    if (s->vals_base) {
        size_t shift = (size_t)(cap - old);
        size_t n = 2 * (size_t)old + 1;
        memcpy(vb + shift, s->vals_base, n * sizeof(int));
        memcpy(wb + shift, s->w_base, n * sizeof(veci));
        memcpy(bb + shift, s->b_base, n * sizeof(veci));
        memcpy(mb + shift, s->mark_base, n);
        free(s->vals_base); free(s->w_base); free(s->b_base);
        free(s->mark_base);
    }
    s->vals_base = vb; s->vals = vb + cap;
    s->w_base = wb; s->watches = wb + cap;
    s->b_base = bb; s->bwatch = bb + cap;
    s->mark_base = mb; s->mark = mb + cap;
    s->cap = cap;
    size_t vn = (size_t)cap + 2;
    s->level = (int *)xrealloc(s, s->level, vn * sizeof(int));
    s->reason = (int *)xrealloc(s, s->reason, vn * sizeof(int));
    s->activity = (double *)xrealloc(s, s->activity, vn * sizeof(double));
    s->phase = (unsigned char *)xrealloc(s, s->phase, vn);
    s->seen = (unsigned char *)xrealloc(s, s->seen, vn);
    s->member = (unsigned char *)xrealloc(s, s->member, vn);
    s->learnt = (int *)xrealloc(s, s->learnt, vn * sizeof(int));
    s->to_clear = (int *)xrealloc(s, s->to_clear, vn * sizeof(int));
    s->trail = (int *)xrealloc(s, s->trail, vn * sizeof(int));
}

static void ensure_vars(S *s, int count) {
    int fresh = count - s->num_vars;
    if (fresh <= 0) return;
    if (count > s->cap) grow(s, count);
    for (int v = s->num_vars + 1; v <= count; v++) {
        s->level[v] = 0;
        s->reason[v] = -1;
        s->activity[v] = 0.0;
        s->phase[v] = 0;
        s->seen[v] = 0;
        s->member[v] = fresh > 8 ? 0 : 1;
    }
    if (fresh > 8) {
        /* bulk allocation: the heap is rebuilt at the next solve */
        s->heap_dirty = 1;
    } else {
        for (int v = s->num_vars + 1; v <= count; v++) heap_push(s, 0.0, v);
    }
    s->num_vars = count;
}

/* trail_lim and the LBD stamps hold one entry per decision level */
static void reserve_levels(S *s, int need) {
    if (need <= s->lim_cap) return;
    int cap = need + need / 2;
    s->trail_lim = (int *)xrealloc(s, s->trail_lim, (size_t)cap * sizeof(int));
    s->lbd_stamp = (int *)xrealloc(s, s->lbd_stamp,
                                   ((size_t)cap + 1) * sizeof(int));
    memset(s->lbd_stamp + s->lim_cap, 0,
           ((size_t)(cap - s->lim_cap) + 1) * sizeof(int));
    s->lim_cap = cap;
}

/* ------------------------------------------------------------------ */
/* Assignment management                                               */
/* ------------------------------------------------------------------ */
static void enqueue_cold(S *s, int lit, int reason_ci) {
    int var = lit > 0 ? lit : -lit;
    s->vals[lit] = 1;
    s->vals[-lit] = -1;
    s->level[var] = s->ntrail_lim;
    s->reason[var] = reason_ci;
    s->trail[s->trail_len++] = lit;
}

static void cancel_until(S *s, int target) {
    if (s->ntrail_lim <= target) return;
    int limit = s->trail_lim[target];
    for (int i = s->trail_len - 1; i >= limit; i--) {
        int lit = s->trail[i];
        int var = lit > 0 ? lit : -lit;
        s->phase[var] = lit > 0;
        s->vals[lit] = 0;
        s->vals[-lit] = 0;
        s->reason[var] = -1;
        if (!s->member[var]) {
            s->member[var] = 1;
            heap_push(s, s->activity[var], var);
        }
    }
    s->trail_len = limit;
    s->ntrail_lim = target;
    s->qhead = limit;
}

/* ------------------------------------------------------------------ */
/* Activities                                                          */
/* ------------------------------------------------------------------ */
static void bump(S *s, int var) {
    double act = s->activity[var] + s->var_inc;
    s->activity[var] = act;
    if (act > 1e100) {
        for (int v = 1; v <= s->num_vars; v++) s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
        rebuild_heap(s);
    } else {
        s->member[var] = 1;
        heap_push(s, act, var);
    }
}

static void bump_clause(S *s, int ci) {
    double act = s->c_act[ci] + s->cla_inc;
    s->c_act[ci] = act;
    if (act > 1e20) {
        for (int k = 0; k < s->nclauses; k++) s->c_act[k] *= 1e-20;
        s->cla_inc *= 1e-20;
    }
}

/* ------------------------------------------------------------------ */
/* Clause storage                                                      */
/* ------------------------------------------------------------------ */
static void reserve_clauses(S *s, int nclauses, int nlits) {
    if (s->nclauses + nclauses > s->c_cap) {
        size_t nc = (size_t)s->c_cap + (size_t)s->c_cap / 2 + 1024;
        if (nc < (size_t)s->nclauses + (size_t)nclauses)
            nc = (size_t)s->nclauses + (size_t)nclauses;
        s->c_off = (int *)xrealloc(s, s->c_off, nc * sizeof(int));
        s->c_size = (int *)xrealloc(s, s->c_size, nc * sizeof(int));
        s->c_lbd = (int *)xrealloc(s, s->c_lbd, nc * sizeof(int));
        s->c_learnt = (unsigned char *)xrealloc(s, s->c_learnt, nc);
        s->c_dead = (unsigned char *)xrealloc(s, s->c_dead, nc);
        s->c_act = (double *)xrealloc(s, s->c_act, nc * sizeof(double));
        s->c_cap = (int)nc;
    }
    if (s->arena_len + nlits > s->arena_cap) {
        size_t nc = (size_t)s->arena_cap + (size_t)s->arena_cap / 2 + 65536;
        if (nc < (size_t)s->arena_len + (size_t)nlits)
            nc = (size_t)s->arena_len + (size_t)nlits;
        s->arena = (int *)xrealloc(s, s->arena, nc * sizeof(int));
        s->arena_cap = (int)nc;
    }
}

static void bw_push(S *s, int lit, int other, int ci) {
    veci *v = &s->bwatch[lit];
    veci_push(s, v, other);
    veci_push(s, v, ci);
}

/* the search logs each literal once per call: pop() reads the log as a
   set, and logging every watch move handed back tens of millions of
   entries on long solves */
static void log_once(S *s, int lit) {
    if (s->nscopes && !s->mark[lit]) {
        s->mark[lit] = 1;
        veci_push(s, &s->log, lit);
    }
}

/* append one clause; the caller owns watch logging and unit handling */
static int attach(S *s, const int *lits, int n, int learnt, int lbd) {
    reserve_clauses(s, 1, n);
    int idx = s->nclauses++;
    s->c_off[idx] = s->arena_len;
    s->c_size[idx] = n;
    s->c_learnt[idx] = (unsigned char)learnt;
    s->c_dead[idx] = 0;
    s->c_lbd[idx] = lbd;
    s->c_act[idx] = 0.0;
    memcpy(s->arena + s->arena_len, lits, (size_t)n * sizeof(int));
    s->arena_len += n;
    if (n == 2) {
        bw_push(s, lits[0], lits[1], idx);
        bw_push(s, lits[1], lits[0], idx);
    } else if (n >= 3) {
        veci_push(s, &s->watches[lits[0]], idx);
        veci_push(s, &s->watches[lits[1]], idx);
    }
    return idx;
}

static int attach_learnt_clause(S *s, const int *lits, int n, int lbd) {
    int idx = attach(s, lits, n, 1, lbd);
    if (n >= 2) {
        log_once(s, lits[0]);
        log_once(s, lits[1]);
    }
    s->num_learnts++;
    s->learnts++;
    if (lbd <= GLUE_LBD) s->glue_learnts++;
    return idx;
}

static int learnt_lbd(S *s, const int *lits, int n) {
    s->lbd_counter++;
    int count = 0;
    for (int i = 0; i < n; i++) {
        int q = lits[i];
        int lv = s->level[q > 0 ? q : -q];
        if (s->lbd_stamp[lv] != s->lbd_counter) {
            s->lbd_stamp[lv] = s->lbd_counter;
            count++;
        }
    }
    return count;
}

static void attach_learnt(S *s, int *lits, int n) {
    if (n == 1) {
        cancel_until(s, 0);
        int val = s->vals[lits[0]];
        if (val < 0) {
            s->ok = 0;
            return;
        }
        if (val == 0) enqueue_cold(s, lits[0], -1);
        attach_learnt_clause(s, lits, 1, 1);
        return;
    }
    /* position 1 must hold a literal of the backtrack level */
    int max_index = 1;
    int q1 = lits[1];
    int max_level = s->level[q1 > 0 ? q1 : -q1];
    for (int j = 2; j < n; j++) {
        int q = lits[j];
        int lj = s->level[q > 0 ? q : -q];
        if (lj > max_level) {
            max_level = lj;
            max_index = j;
        }
    }
    int tmp = lits[1];
    lits[1] = lits[max_index];
    lits[max_index] = tmp;
    int idx = attach_learnt_clause(s, lits, n, learnt_lbd(s, lits, n));
    enqueue_cold(s, lits[0], idx);
}

/* ------------------------------------------------------------------ */
/* Solve prologue: new clauses against the root or the deep trail      */
/* ------------------------------------------------------------------ */
/* move a long clause's watches from (w0, w1) onto (la, lb) */
static void rewatch(S *s, int ci, int w0, int w1, int la, int lb) {
    if (w0 != la && w0 != lb) veci_remove(&s->watches[w0], ci);
    if (w1 != la && w1 != lb) veci_remove(&s->watches[w1], ci);
    if (la != w0 && la != w1) {
        veci_push(s, &s->watches[la], ci);
        if (s->nscopes) veci_push(s, &s->log, la);
    }
    if (lb != w0 && lb != w1) {
        veci_push(s, &s->watches[lb], ci);
        if (s->nscopes) veci_push(s, &s->log, lb);
    }
}

/* rotate arena[k0], arena[k1] into the watch positions off, off + 1 */
static void rotate_watches(S *s, int off, int k0, int k1) {
    int *arena = s->arena;
    int w0 = arena[off];
    int la = arena[k0];
    int lb = arena[k1];
    if (k0 != off) {
        arena[k0] = w0;
        arena[off] = la;
        if (k1 == off) k1 = k0;
    }
    if (k1 != off + 1) {
        arena[k1] = arena[off + 1];
        arena[off + 1] = lb;
    }
}

/* SATSolver._normalize_new_clauses: 0 on a root conflict */
static int normalize_new_clauses(S *s, int start) {
    int *arena = s->arena;
    int *vals = s->vals;
    for (int ci = start; ci < s->nclauses; ci++) {
        if (s->c_dead[ci]) continue;
        int off = s->c_off[ci];
        int size = s->c_size[ci];
        if (size == 2) {
            int a = arena[off], b = arena[off + 1];
            int va = vals[a], vb = vals[b];
            if (va > 0 || vb > 0) continue;
            if (va < 0) {
                if (vb < 0) return 0;
                if (vb == 0) enqueue_cold(s, b, ci);
            } else if (vb < 0) {
                enqueue_cold(s, a, ci);
            }
            continue;
        }
        if (size == 1) {
            int lit = arena[off];
            int val = vals[lit];
            if (val < 0) return 0;
            if (val == 0) enqueue_cold(s, lit, -1);
            continue;
        }
        int w0 = arena[off], w1 = arena[off + 1];
        if (vals[w0] >= 0 && vals[w1] >= 0) continue;
        int satisfied = 0, k0 = -1, k1 = -1;
        for (int k = off; k < off + size; k++) {
            int val = vals[arena[k]];
            if (val > 0) { satisfied = 1; break; }
            if (val == 0) {
                if (k0 < 0) {
                    k0 = k;
                } else {
                    k1 = k;
                    break;
                }
            }
        }
        if (satisfied) continue;
        if (k0 < 0) return 0;  /* every literal false at the root */
        if (k1 < 0) {
            enqueue_cold(s, arena[k0], ci);
            continue;
        }
        int la = arena[k0], lb = arena[k1];
        rotate_watches(s, off, k0, k1);
        rewatch(s, ci, w0, w1, la, lb);
    }
    return 1;
}

/* SATSolver._entry_backtrack_level */
static int entry_backtrack_level(S *s, int start) {
    int *arena = s->arena;
    int *vals = s->vals;
    int bt = s->ntrail_lim;
    for (int ci = start; ci < s->nclauses; ci++) {
        if (s->c_dead[ci]) continue;
        int off = s->c_off[ci];
        int size = s->c_size[ci];
        if (size == 1) {
            if (vals[arena[off]] <= 0) return 0;
            continue;
        }
        int cands = 0, lmax = 0, l2 = 0, nmax = 0;
        for (int k = off; k < off + size; k++) {
            int q = arena[k];
            if (vals[q] >= 0) {
                cands++;
                if (cands >= 2) break;
            } else {
                int lev = s->level[q > 0 ? q : -q];
                if (lev > lmax) {
                    l2 = lmax;
                    lmax = lev;
                    nmax = 1;
                } else if (lev == lmax) {
                    nmax++;
                } else if (lev > l2) {
                    l2 = lev;
                }
            }
        }
        if (cands) continue;
        int need = nmax >= 2 ? lmax - 1 : l2;
        if (need < bt) bt = need;
        if (bt <= 0) return 0;
    }
    return bt;
}

/* SATSolver._integrate_new_clauses */
static void integrate_new_clauses(S *s, int start) {
    int *vals = s->vals;
    s->implied.n = 0;
    for (int ci = start; ci < s->nclauses; ci++) {
        if (s->c_dead[ci]) continue;
        int *arena = s->arena;
        int off = s->c_off[ci];
        int size = s->c_size[ci];
        if (size < 2) continue;
        if (size == 2) {
            int a = arena[off], b = arena[off + 1];
            int va = vals[a], vb = vals[b];
            if (va == 0 && vb < 0) {
                veci_push(s, &s->implied, a);
                veci_push(s, &s->implied, ci);
            } else if (vb == 0 && va < 0) {
                veci_push(s, &s->implied, b);
                veci_push(s, &s->implied, ci);
            }
            continue;
        }
        int w0 = arena[off], w1 = arena[off + 1];
        if (vals[w0] >= 0 && vals[w1] >= 0) continue;
        /* the two best watch positions: non-false first, then the
           deepest false literal */
        int k0 = -1, k1 = -1, deep_k = off, deep_level = -1;
        for (int k = off; k < off + size; k++) {
            int q = arena[k];
            if (vals[q] >= 0) {
                if (k0 < 0) {
                    k0 = k;
                } else if (k1 < 0) {
                    k1 = k;
                    break;
                }
            } else {
                int lev = s->level[q > 0 ? q : -q];
                if (lev > deep_level) {
                    deep_level = lev;
                    deep_k = k;
                }
            }
        }
        if (k0 < 0) continue;  /* cannot happen after entry_backtrack_level */
        int unit = k1 < 0;
        if (unit) k1 = deep_k != k0 ? deep_k : off;
        int la = arena[k0], lb = arena[k1];
        rotate_watches(s, off, k0, k1);
        rewatch(s, ci, w0, w1, la, lb);
        if (unit && vals[la] == 0) {
            veci_push(s, &s->implied, la);
            veci_push(s, &s->implied, ci);
        }
    }
    for (int i = 0; i < s->implied.n; i += 2) {
        int lit = s->implied.d[i];
        if (vals[lit] == 0) enqueue_cold(s, lit, s->implied.d[i + 1]);
    }
}

/* ------------------------------------------------------------------ */
/* First-UIP conflict analysis                                         */
/* ------------------------------------------------------------------ */
static int analyze(S *s, int conflict, int *learnt_len_out) {
    int current_level = s->ntrail_lim;
    int nlearnt = 0;     /* slots 1.. of s->learnt; slot 0 is the UIP */
    int ntoclear = 0;
    int counter = 0;
    int p = 0;
    int index = s->trail_len - 1;
    int ci = conflict;
    int var = 0;
    for (;;) {
        if (s->c_learnt[ci]) bump_clause(s, ci);
        int off = s->c_off[ci];
        int end = off + s->c_size[ci];
        for (int j = off; j < end; j++) {
            int q = s->arena[j];
            if (q == p) continue;
            int v = q > 0 ? q : -q;
            if (!s->seen[v] && s->level[v] > 0) {
                s->seen[v] = 1;
                s->to_clear[ntoclear++] = v;
                bump(s, v);
                if (s->level[v] >= current_level) counter++;
                else s->learnt[++nlearnt] = q;
            }
        }
        for (;;) {
            p = s->trail[index];
            var = p > 0 ? p : -p;
            if (s->seen[var]) break;
            index--;
        }
        s->seen[var] = 0;
        counter--;
        index--;
        if (counter == 0) break;
        ci = s->reason[var];
    }
    for (int i = 0; i < ntoclear; i++) s->seen[s->to_clear[i]] = 0;
    s->learnt[0] = -p;
    int backtrack = 0;
    for (int j = 1; j <= nlearnt; j++) {
        int q = s->learnt[j];
        int lv = s->level[q > 0 ? q : -q];
        if (lv > backtrack) backtrack = lv;
    }
    *learnt_len_out = nlearnt + 1;
    return backtrack;
}

/* SATSolver._analyze_final: the assumptions that imply not failed */
static void analyze_final(S *s, int failed) {
    s->core.n = 0;
    veci_push(s, &s->core, failed);
    if (!s->ntrail_lim) return;
    int fv = failed > 0 ? failed : -failed;
    int ntoclear = 0;
    s->seen[fv] = 1;
    s->to_clear[ntoclear++] = fv;
    for (int i = s->trail_len - 1; i >= s->trail_lim[0]; i--) {
        int lit = s->trail[i];
        int var = lit > 0 ? lit : -lit;
        if (!s->seen[var]) continue;
        int r = s->reason[var];
        if (r < 0) {
            veci_push(s, &s->core, lit);  /* an assumption decision */
        } else {
            int off = s->c_off[r];
            for (int j = off; j < off + s->c_size[r]; j++) {
                int q = s->arena[j];
                if (q == lit) continue;  /* the asserted literal */
                int qv = q > 0 ? q : -q;
                if (s->level[qv] > 0 && !s->seen[qv]) {
                    s->seen[qv] = 1;
                    s->to_clear[ntoclear++] = qv;
                }
            }
        }
        s->seen[var] = 0;
    }
    for (int i = 0; i < ntoclear; i++) s->seen[s->to_clear[i]] = 0;
}

/* ------------------------------------------------------------------ */
/* Glucose-style reduce-DB: tombstone the worst half                   */
/* ------------------------------------------------------------------ */
typedef struct { int lbd; double act; int ci; } reduce_cand_t;

static int reduce_cmp(const void *pa, const void *pb) {
    const reduce_cand_t *a = (const reduce_cand_t *)pa;
    const reduce_cand_t *b = (const reduce_cand_t *)pb;
    /* python: stable sort over ascending ci with key (-lbd, act) */
    if (a->lbd != b->lbd) return a->lbd > b->lbd ? -1 : 1;
    if (a->act != b->act) return a->act < b->act ? -1 : 1;
    return a->ci < b->ci ? -1 : 1;
}

static void reduce_db(S *s) {
    reduce_cand_t *cand = (reduce_cand_t *)
        malloc((size_t)(s->nclauses ? s->nclauses : 1) * sizeof(reduce_cand_t));
    if (!cand) longjmp(s->env, 1);
    int ncand = 0;
    for (int ci = 0; ci < s->nclauses; ci++) {
        if (!s->c_learnt[ci] || s->c_dead[ci] || s->c_size[ci] <= 2
                || s->c_lbd[ci] <= GLUE_LBD)
            continue;
        int lit0 = s->arena[s->c_off[ci]];
        int var = lit0 > 0 ? lit0 : -lit0;
        if (s->vals[lit0] > 0 && s->reason[var] == ci)
            continue;  /* locked: the reason of a current assignment */
        cand[ncand].lbd = s->c_lbd[ci];
        cand[ncand].act = s->c_act[ci];
        cand[ncand].ci = ci;
        ncand++;
    }
    int ndoomed = ncand / 2;
    if (!ndoomed) { free(cand); return; }
    qsort(cand, (size_t)ncand, sizeof(reduce_cand_t), reduce_cmp);
    for (int i = 0; i < ndoomed; i++) s->c_dead[cand[i].ci] = 1;
    s->num_learnts -= ndoomed;
    /* charge each tombstone to every open scope whose clause mark lies
       above it, so pop() can restore exact learnt counts */
    for (int i = 0; i < ndoomed; i++) {
        for (int depth = 0; depth < s->nscopes; depth++) {
            if (cand[i].ci < s->scopes[depth].nclauses)
                s->scopes[depth].dead++;
        }
    }
    free(cand);
    /* purge the long-clause watch lists (binaries are never reduced) */
    for (int lit = -s->num_vars; lit <= s->num_vars; lit++) {
        veci *wl = &s->watches[lit];
        int j = 0;
        for (int i = 0; i < wl->n; i++) {
            if (!s->c_dead[wl->d[i]]) wl->d[j++] = wl->d[i];
        }
        wl->n = j;
    }
    s->learnts_deleted += ndoomed;
    s->reductions++;
}

/* ------------------------------------------------------------------ */
/* The search loop (mirrors SATSolver._search statement for statement) */
/* ------------------------------------------------------------------ */
static int search(S *s, const int *assumps, int nassumps, double t_start,
                  double time_budget, long long max_conflicts) {
    long long restart_count = 0;
    long long conflicts_until_restart = 100 * luby(restart_count);
    long long conflicts_in_restart = 0;
    double trail_ema = 0.0;
    long long props = 0;
    double t0 = 0.0;
    int expired = 0;  /* the budget ran out at a conflict */
    int *vals = s->vals;
    for (;;) {
        /* ---------------- unit propagation (inlined) ---------------- */
        if (s->detailed) t0 = now_sec();
        int confl = -1;
        int dl = s->ntrail_lim;
        while (s->qhead < s->trail_len) {
            int lit = s->trail[s->qhead++];
            props++;
            int neg = -lit;
            veci *bw = &s->bwatch[neg];
            if (bw->n) {
                int bn = bw->n;
                int *bd = bw->d;
                for (int k = 0; k < bn; k += 2) {
                    int other = bd[k];
                    int bci = bd[k + 1];
                    int val = vals[other];
                    if (val < 0) {
                        confl = bci;
                        break;
                    }
                    if (val == 0) {
                        vals[other] = 1;
                        vals[-other] = -1;
                        int var = other > 0 ? other : -other;
                        s->level[var] = dl;
                        s->reason[var] = bci;
                        s->trail[s->trail_len++] = other;
                    }
                }
                if (confl >= 0) break;
            }
            veci *wl = &s->watches[neg];
            int i = 0, j = 0;
            int n = wl->n;
            if (!n) continue;
            while (i < n) {
                int ci = wl->d[i++];
                if (s->c_dead[ci]) continue;
                int off = s->c_off[ci];
                int first = s->arena[off];
                if (first == neg) {
                    first = s->arena[off + 1];
                    s->arena[off] = first;
                    s->arena[off + 1] = neg;
                }
                if (vals[first] > 0) {
                    wl->d[j++] = ci;
                    continue;
                }
                int end = off + s->c_size[ci];
                int found = 0;
                for (int k = off + 2; k < end; k++) {
                    int lk = s->arena[k];
                    if (vals[lk] >= 0) {
                        s->arena[off + 1] = lk;
                        s->arena[k] = neg;
                        veci_push(s, &s->watches[lk], ci);
                        log_once(s, lk);
                        found = 1;
                        break;
                    }
                }
                if (found) continue;
                wl->d[j++] = ci;
                if (vals[first] < 0) {
                    while (i < n) wl->d[j++] = wl->d[i++];
                    confl = ci;
                    break;
                }
                vals[first] = 1;
                vals[-first] = -1;
                int var = first > 0 ? first : -first;
                s->level[var] = dl;
                s->reason[var] = ci;
                s->trail[s->trail_len++] = first;
            }
            wl->n = j;
            if (confl >= 0) break;
        }
        if (s->detailed) s->propagate_seconds += now_sec() - t0;
        /* ------------------------------------------------------------ */
        if (confl >= 0) {
            s->conflicts++;
            conflicts_in_restart++;
            s->conflicts_since_reduce++;
            trail_ema += ((double)s->trail_len - trail_ema) * 0.05;
            s->propagations += props;
            props = 0;
            if (s->ntrail_lim == 0) {
                s->ok = 0;
                return ST_UNSAT_ROOT;
            }
            int learnt_len;
            int backtrack_level;
            if (s->detailed) {
                t0 = now_sec();
                backtrack_level = analyze(s, confl, &learnt_len);
                s->analyze_seconds += now_sec() - t0;
            } else {
                backtrack_level = analyze(s, confl, &learnt_len);
            }
            cancel_until(s, backtrack_level);
            attach_learnt(s, s->learnt, learnt_len);
            if (!s->ok) return ST_UNSAT_ATTACH;
            s->var_inc *= VAR_DECAY;
            s->cla_inc *= CLA_DECAY;
            if (s->conflicts_since_reduce >= s->reduce_interval) {
                s->conflicts_since_reduce = 0;
                s->reduce_interval += REDUCE_INCREMENT;
                if (s->detailed) {
                    t0 = now_sec();
                    reduce_db(s);
                    s->reduce_seconds += now_sec() - t0;
                } else {
                    reduce_db(s);
                }
            }
            /* back-to-back conflicts can step over the poll below */
            if (time_budget >= 0.0 && s->conflicts % 64 == 0
                    && now_sec() - t_start > time_budget)
                expired = 1;
            continue;
        }
        /* a conflict-free visit to the root records the watermark */
        if (s->ntrail_lim == 0) {
            s->propagated_clauses = s->nclauses;
            s->propagated_trail = s->trail_len;
        }
        if (expired || (max_conflicts >= 0 && s->conflicts >= max_conflicts)
                || (time_budget >= 0.0 && s->conflicts % 64 == 0
                    && now_sec() - t_start > time_budget)) {
            s->propagations += props;
            return ST_BUDGET;
        }
        if (conflicts_in_restart >= conflicts_until_restart) {
            if ((double)s->trail_len > 1.4 * trail_ema) {
                conflicts_in_restart = 0;  /* blocked: close to a model */
            } else {
                restart_count++;
                conflicts_in_restart = 0;
                conflicts_until_restart = 100 * luby(restart_count);
                s->restarts++;
                cancel_until(s, 0);
                continue;
            }
        }
        if (s->ntrail_lim < nassumps) {
            int next_assumption = 0;
            int assumption_failed = 0;
            while (s->ntrail_lim < nassumps && !next_assumption) {
                int candidate = assumps[s->ntrail_lim];
                int value = vals[candidate];
                if (value > 0) {
                    s->trail_lim[s->ntrail_lim++] = s->trail_len;  /* dummy */
                } else if (value < 0) {
                    assumption_failed = candidate;
                    break;
                } else {
                    next_assumption = candidate;
                }
            }
            if (assumption_failed) {
                s->propagations += props;
                analyze_final(s, assumption_failed);
                cancel_until(s, 0);
                return ST_ASSUMPTION_FAILED;
            }
            if (next_assumption) {
                s->decisions++;
                s->trail_lim[s->ntrail_lim++] = s->trail_len;
                vals[next_assumption] = 1;
                vals[-next_assumption] = -1;
                int var = next_assumption > 0
                    ? next_assumption : -next_assumption;
                s->level[var] = s->ntrail_lim;
                s->reason[var] = -1;
                s->trail[s->trail_len++] = next_assumption;
                continue;
            }
        }
        /* ---------------- branching (lazy VSIDS pick) ---------------- */
        int var = 0;
        while (s->h_n) {
            double act;
            int cand = heap_pop(s, &act);
            s->member[cand] = 0;
            if (vals[cand] != 0) continue;          /* stale: assigned */
            if (act < s->activity[cand]) {          /* stale priority */
                s->member[cand] = 1;
                heap_push(s, s->activity[cand], cand);
                continue;
            }
            var = cand;
            break;
        }
        if (!var) {
            for (int cand = 1; cand <= s->num_vars; cand++) {
                if (vals[cand] == 0) { var = cand; break; }
            }
        }
        if (!var) {
            s->propagations += props;
            return ST_SAT;
        }
        s->decisions++;
        s->trail_lim[s->ntrail_lim++] = s->trail_len;
        int lit = s->phase[var] ? var : -var;
        vals[lit] = 1;
        vals[-lit] = -1;
        s->level[var] = s->ntrail_lim;
        s->reason[var] = -1;
        s->trail[s->trail_len++] = lit;
    }
}

/* ------------------------------------------------------------------ */
/* Entry points                                                        */
/* ------------------------------------------------------------------ */
repro_solver *repro_new(void) {
    S *s = (S *)calloc(1, sizeof(S));
    if (!s) return NULL;
    s->ok = 1;
    s->var_inc = 1.0;
    s->cla_inc = 1.0;
    s->reduce_interval = REDUCE_BASE;
    if (setjmp(s->env)) {
        repro_free(s);
        return NULL;
    }
    grow(s, 0);
    return s;
}

void repro_free(repro_solver *s) {
    if (!s) return;
    if (s->w_base) {
        size_t slots = 2 * (size_t)s->cap + 1;
        for (size_t i = 0; i < slots; i++) {
            free(s->w_base[i].d);
            free(s->b_base[i].d);
        }
    }
    free(s->vals_base); free(s->w_base); free(s->b_base); free(s->mark_base);
    free(s->level); free(s->reason); free(s->activity);
    free(s->phase); free(s->seen); free(s->member);
    free(s->learnt); free(s->to_clear);
    free(s->c_off); free(s->c_size); free(s->c_lbd);
    free(s->c_learnt); free(s->c_dead); free(s->c_act); free(s->arena);
    free(s->units.d); free(s->implied.d); free(s->core.d); free(s->log.d);
    free(s->trail); free(s->trail_lim); free(s->lbd_stamp);
    free(s->h_act); free(s->h_var);
    free(s->scopes);
    free(s);
}

int repro_ensure_vars(repro_solver *s, int count) {
    ENTER(s);
    ensure_vars(s, count);
    return ST_DONE;
}

/* SATSolver.add_clauses: clean clauses over allocated variables */
int repro_add_clauses(repro_solver *s, const int *lits, const int *sizes,
                      int n) {
    ENTER(s);
    long long total = 0;
    for (int k = 0; k < n; k++) {
        if (sizes[k] < 1) return ST_BAD_INPUT;
        total += sizes[k];
    }
    for (long long p = 0; p < total; p++) {
        int lit = lits[p];
        if (lit == 0 || lit > s->num_vars || lit < -s->num_vars)
            return ST_BAD_INPUT;
    }
    reserve_clauses(s, n, (int)total);
    const int *clause = lits;
    for (int k = 0; k < n; k++) {
        int size = sizes[k];
        attach(s, clause, size, 0, 0);
        if (size == 1) {
            veci_push(s, &s->units, clause[0]);
        } else if (s->nscopes) {
            veci_push(s, &s->log, clause[0]);
            veci_push(s, &s->log, clause[1]);
        }
        clause += size;
    }
    return ST_DONE;
}

int repro_boost(repro_solver *s, int var, double activity) {
    ENTER(s);
    if (var < 1 || var > s->num_vars) return ST_BAD_INPUT;
    if (activity > s->activity[var]) {
        s->activity[var] = activity;
        s->member[var] = 1;
        heap_push(s, activity, var);
    }
    return ST_DONE;
}

int repro_prefer_true(repro_solver *s, const int *vars, int n) {
    for (int i = 0; i < n; i++) {
        if (vars[i] < 1 || vars[i] > s->num_vars) return ST_BAD_INPUT;
    }
    for (int i = 0; i < n; i++) s->phase[vars[i]] = 1;
    return ST_DONE;
}

int repro_push(repro_solver *s) {
    ENTER(s);
    cancel_until(s, 0);
    if (s->nscopes == s->scope_cap) {
        int nc = s->scope_cap ? s->scope_cap * 2 : 8;
        s->scopes = (scope_t *)xrealloc(s, s->scopes,
                                        (size_t)nc * sizeof(scope_t));
        s->scope_cap = nc;
    }
    scope_t *sc = &s->scopes[s->nscopes++];
    sc->nclauses = s->nclauses;
    sc->arena_len = s->arena_len;
    sc->nunits = s->units.n;
    sc->trail_len = s->trail_len;
    sc->log_len = s->log.n;
    sc->ok = s->ok;
    sc->num_vars = s->num_vars;
    sc->propagated_clauses = s->propagated_clauses;
    sc->propagated_trail = s->propagated_trail;
    sc->num_learnts = s->num_learnts;
    sc->dead = 0;
    return ST_DONE;
}

/* SATSolver._repair_watches: filter the lists the scope appended to */
static void repair_watches(S *s, int num_clauses, int log_len, int num_vars) {
    /* the touched set, deduplicated in first-seen order into the log's
       own tail */
    int ntouched = 0;
    int *log = s->log.d;
    for (int i = log_len; i < s->log.n; i++) {
        int lit = log[i];
        if (!s->mark[lit]) {
            s->mark[lit] = 1;
            log[log_len + ntouched++] = lit;
        }
    }
    int kept = log_len;
    for (int i = log_len; i < log_len + ntouched; i++) {
        int lit = log[i];
        s->mark[lit] = 0;
        int var = lit > 0 ? lit : -lit;
        if (var > num_vars) continue;  /* died with the scope */
        veci *wl = &s->watches[lit];
        int j = 0;
        for (int k = 0; k < wl->n; k++) {
            int ci = wl->d[k];
            if (ci < num_clauses && !s->c_dead[ci]) wl->d[j++] = ci;
        }
        wl->n = j;
        veci *bw = &s->bwatch[lit];  /* binary clauses are never tombstoned */
        j = 0;
        for (int k = 0; k < bw->n; k += 2) {
            if (bw->d[k + 1] < num_clauses) {
                bw->d[j++] = bw->d[k];
                bw->d[j++] = bw->d[k + 1];
            }
        }
        bw->n = j;
        /* a repaired list may still hold a clause of the enclosing scope,
           so its literal stays in the log for that scope's own pop */
        log[kept++] = lit;
    }
    s->log.n = s->nscopes ? kept : log_len;
}

int repro_pop(repro_solver *s) {
    ENTER(s);
    if (!s->nscopes) return ST_NO_SCOPE;
    scope_t sc = s->scopes[--s->nscopes];
    /* the watermark stored at push() still certifies the restored
       clause set and root trail prefix */
    s->propagated_clauses = sc.propagated_clauses;
    s->propagated_trail = sc.propagated_trail;
    cancel_until(s, 0);
    for (int i = sc.trail_len; i < s->trail_len; i++) {
        int lit = s->trail[i];
        int var = lit > 0 ? lit : -lit;
        s->phase[var] = lit > 0;
        s->vals[lit] = 0;
        s->vals[-lit] = 0;
        s->reason[var] = -1;
        s->level[var] = 0;
    }
    s->trail_len = sc.trail_len;
    s->num_learnts = sc.num_learnts - (int)sc.dead;
    s->arena_len = sc.arena_len;
    s->nclauses = sc.nclauses;
    s->units.n = sc.nunits;
    if (s->num_vars > sc.num_vars) {
        /* scope-local variables die with the scope */
        for (int var = sc.num_vars + 1; var <= s->num_vars; var++) {
            s->vals[var] = 0;
            s->vals[-var] = 0;
            s->watches[var].n = 0;
            s->watches[-var].n = 0;
            s->bwatch[var].n = 0;
            s->bwatch[-var].n = 0;
        }
        s->num_vars = sc.num_vars;
    }
    s->ok = sc.ok;
    s->qhead = 0;
    repair_watches(s, sc.nclauses, sc.log_len, sc.num_vars);
    s->heap_dirty = 1;  /* rebuilt at the next solve */
    return ST_DONE;
}

/* SATSolver.solve: the prologue, then the search */
int repro_solve(repro_solver *s, const int *assumps, int nassumps,
                double time_budget, long long max_conflicts, int detailed) {
    ENTER(s);
    double t_start = now_sec();
    for (int i = 0; i < nassumps; i++) {
        int lit = assumps[i];
        if (lit == 0) return ST_BAD_INPUT;
        ensure_vars(s, lit > 0 ? lit : -lit);
    }
    s->conflicts = s->decisions = s->propagations = 0;
    s->learnts = s->glue_learnts = s->learnts_deleted = 0;
    s->reductions = s->restarts = 0;
    s->propagate_seconds = s->analyze_seconds = s->reduce_seconds = 0.0;
    s->detailed = detailed;
    s->core.n = 0;
    if (!s->ok) return ST_NOT_OK;
    reserve_levels(s, s->num_vars + nassumps + 2);
    if (s->heap_dirty) {
        rebuild_heap(s);
        s->heap_dirty = 0;
    }
    /* minimal-backtrack entry: with no assumptions now or last time and
       no new unit clause, keep the deep trail of the previous call and
       unwind only as far as the new clauses demand */
    int partial_bt = 0;
    if (s->ntrail_lim && !nassumps && !s->had_assumptions
            && s->units.n == s->units_integrated)
        partial_bt = entry_backtrack_level(s, s->propagated_clauses);
    s->had_assumptions = nassumps > 0;
    if (partial_bt > 0) {
        if (partial_bt < s->ntrail_lim) cancel_until(s, partial_bt);
        integrate_new_clauses(s, s->propagated_clauses);
        s->propagated_clauses = s->nclauses;
    } else {
        cancel_until(s, 0);
        for (int i = 0; i < s->units.n; i++) {
            int lit = s->units.d[i];
            int val = s->vals[lit];
            if (val < 0) return ST_UNSAT_PROLOGUE;
            if (val == 0) enqueue_cold(s, lit, -1);
        }
        s->units_integrated = s->units.n;
        if (s->propagated_clauses < s->nclauses
                && !normalize_new_clauses(s, s->propagated_clauses)) {
            s->ok = 0;
            return ST_UNSAT_PROLOGUE;
        }
        s->qhead = s->propagated_trail < s->trail_len
            ? s->propagated_trail : s->trail_len;
    }
    int log_start = s->log.n;
    int status = search(s, assumps, nassumps, t_start, time_budget,
                        max_conflicts);
    for (int i = log_start; i < s->log.n; i++) s->mark[s->log.d[i]] = 0;
    return status;
}
"""

_SOURCE_HASH = hashlib.sha256(
    (CDEF + SOURCE).encode("utf-8")
).hexdigest()[:16]
_MODULE_NAME = f"_repro_native_{_SOURCE_HASH}"

_lock = threading.Lock()
_kernel: Optional[Tuple[Any, Any]] = None
_kernel_error: Optional[str] = None


def build_dir_candidates() -> list:
    """Cache directories to try, best first."""
    candidates = []
    env = os.environ.get("REPRO_NATIVE_BUILD_DIR")
    if env:
        candidates.append(env)
    candidates.append(
        os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")
    )
    candidates.append(
        os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
    )
    return candidates


def _ext_suffix() -> str:
    import importlib.machinery

    return importlib.machinery.EXTENSION_SUFFIXES[0]


def _load_extension(path: str) -> Tuple[Any, Any]:
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load native kernel from {path}")
    module = importlib.util.module_from_spec(spec)
    # keep the module importable by name (cffi's ffi object expects it)
    sys.modules.setdefault(_MODULE_NAME, module)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _compile_into(cache_dir: str) -> str:
    """Compile the extension and install it under ``cache_dir``; returns
    the installed path. Builds in a private temp dir and moves the result
    into place atomically so concurrent processes never observe a partial
    artifact."""
    from cffi import FFI

    os.makedirs(cache_dir, exist_ok=True)
    target = os.path.join(cache_dir, _MODULE_NAME + _ext_suffix())
    if os.path.exists(target):
        return target
    builder = FFI()
    builder.cdef(CDEF)
    builder.set_source(
        _MODULE_NAME,
        SOURCE,
        extra_compile_args=["-O2", "-fno-strict-aliasing"],
    )
    tmpdir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = builder.compile(tmpdir=tmpdir, verbose=False)
        os.replace(built, target)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return target


def load_kernel() -> Optional[Tuple[Any, Any]]:
    """Build (if needed) and load the compiled kernel.

    Returns ``(ffi, lib)`` or ``None`` when the C tier is unavailable for
    any reason; the failure reason is kept in :func:`kernel_error` for
    diagnostics but never raised.
    """
    global _kernel, _kernel_error
    if _kernel is not None:
        return _kernel
    if _kernel_error is not None:
        return None
    with _lock:
        if _kernel is not None:
            return _kernel
        if _kernel_error is not None:
            return None
        last_error = "no writable build directory"
        for cache_dir in build_dir_candidates():
            try:
                path = _compile_into(cache_dir)
                _kernel = _load_extension(path)
                return _kernel
            except Exception as exc:  # noqa: BLE001 - degrade, never raise
                last_error = f"{type(exc).__name__}: {exc}"
        _kernel_error = last_error
        return None


def kernel_error() -> Optional[str]:
    """Why the C tier is unavailable (``None`` when it loaded fine)."""
    return _kernel_error
