"""cffi build/load machinery for the compiled CDCL search kernel.

The C source below is a literal transcription of
:meth:`repro.smt.sat.SATSolver._search` -- the propagate / analyze /
backjump / reduce hot loop -- over the *same* flat-arena state layout.
Bit-identity with the Python loop is a hard requirement (failed
assumption cores and enumeration orders are search-order dependent), so
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
typedef struct {
    int num_vars;
    int nclauses;
    const int *c_off;
    const int *c_size;
    const unsigned char *c_learnt;
    const unsigned char *c_dead;
    const int *c_lbd;
    const double *c_act;
    int arena_len;
    const int *arena;
    int vals_len;
    int *vals;
    const int *w_counts;
    const int *w_flat;
    const int *b_counts;
    const int *b_flat;
    const int *w_starts;
    const int *b_starts;
    int *level;
    int *reason;
    double *activity;
    unsigned char *phase;
    int trail_len;
    const int *trail;
    int ntrail_lim;
    const int *trail_lim;
    int qhead;
    double var_inc;
    double cla_inc;
    int num_learnts;
    long long conflicts_since_reduce;
    long long reduce_interval;
    int nassumps;
    const int *assumps;
    int nscopes;
    const int *scope_marks;
    int log_enabled;
    double time_budget;
    long long max_conflicts;
    int detailed;
    int propagated_clauses;
    int propagated_trail;
} repro_in_t;

typedef struct {
    int status;
    int failed_lit;
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
    double var_inc;
    double cla_inc;
    int num_learnts;
    long long conflicts_since_reduce;
    long long reduce_interval;
    int qhead;
    int trail_len;
    int ntrail_lim;
    int propagated_clauses;
    int propagated_trail;
    int new_clauses;
    int new_arena_len;
    const int *new_c_off;
    const int *new_c_size;
    const int *new_c_lbd;
    const unsigned char *new_c_learnt;
    const unsigned char *new_c_dead;
    const double *new_c_act;
    const int *new_arena;
    const int *trail;
    const int *trail_lim;
    int n_dirty;
    const int *dirty_lits;
    const int *w_start;
    const int *w_flat;
    const int *b_start;
    const int *b_flat;
    int log_len;
    const int *log;
    const long long *scope_dead;
    void *own[24];
    int nown;
} repro_out_t;

int repro_search(const repro_in_t *in, repro_out_t *out);
void repro_release(repro_out_t *out);
"""

SOURCE = r"""
#include <stdlib.h>
#include <string.h>
#include <setjmp.h>
#include <time.h>

""" + CDEF + r"""

#define ST_SAT 0
#define ST_UNSAT_ROOT 1
#define ST_UNSAT_ATTACH 2
#define ST_BUDGET 3  /* the time or the conflict budget ran out */
#define ST_ASSUMPTION_FAILED 5
#define ST_OOM (-1)

#define GLUE_LBD 2
#define REDUCE_INCREMENT 300
#define VAR_DECAY (1.0 / 0.95)
#define CLA_DECAY (1.0 / 0.999)

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

typedef struct { int *d; int n; int cap; } veci;

typedef struct {
    jmp_buf env;
    /* ---- python-owned buffers, mutated in place ---- */
    int *vals; int vals_len;
    int *level; int *reason;
    double *activity; unsigned char *phase;
    /* ---- clause store: copy of the base plus growth room ---- */
    int *c_off; int *c_size; int *c_lbd;
    unsigned char *c_learnt; unsigned char *c_dead;
    double *c_act;
    int nclauses; int c_cap;
    int *arena; int arena_len; int arena_cap;
    /* ---- watches: one vector per literal slot ---- */
    veci *watches; veci *bwatch;              /* bwatch holds (other, ci) */
    unsigned char *wdirty; unsigned char *bdirty;
    int nslots;
    /* ---- trail ---- */
    int *trail; int trail_len;
    int *trail_lim; int ntrail_lim;
    int qhead;
    /* ---- VSIDS heap (lazy, possibly stale entries) ---- */
    double *h_act; int *h_var; int h_n; int h_cap;
    unsigned char *member;
    /* ---- analysis scratch ---- */
    unsigned char *seen;
    int *learnt; int *to_clear;
    int *lbd_stamp; int lbd_counter;
    /* ---- watch log / scopes ---- */
    veci log; int log_enabled;
    unsigned char *logged;  /* slots already in this call's log */
    int nscopes; const int *scope_marks; long long *scope_dead;
    /* ---- numeric search state ---- */
    double var_inc, cla_inc;
    int num_vars, num_learnts;
    long long conflicts_since_reduce, reduce_interval;
    int okflag;
    int failed_lit;
    int propagated_clauses, propagated_trail;
    /* ---- counters ---- */
    long long conflicts, decisions, propagations;
    long long learnts_c, glue_c, deleted_c, reductions_c, restarts_c;
    double propagate_seconds, analyze_seconds, reduce_seconds;
    int detailed;
} S;

#define VAL(s, l) ((s)->vals[(l) >= 0 ? (l) : (s)->vals_len + (l)])
#define SLOT(s, l) ((l) > 0 ? (l) : (s)->num_vars - (l))

static void *xmalloc(S *s, size_t n) {
    void *p = malloc(n ? n : 1);
    if (!p) longjmp(s->env, 1);
    return p;
}

static void *xcalloc(S *s, size_t n, size_t sz) {
    void *p = calloc(n ? n : 1, sz);
    if (!p) longjmp(s->env, 1);
    return p;
}

static void veci_push(S *s, veci *v, int x) {
    if (v->n == v->cap) {
        int nc = v->cap ? v->cap * 2 : 4;
        int *nd = (int *)realloc(v->d, (size_t)nc * sizeof(int));
        if (!nd) longjmp(s->env, 1);
        v->d = nd;
        v->cap = nc;
    }
    v->d[v->n++] = x;
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
        double *na = (double *)realloc(s->h_act, (size_t)nc * sizeof(double));
        int *nv = (int *)realloc(s->h_var, (size_t)nc * sizeof(int));
        if (!na || !nv) { free(na); longjmp(s->env, 1); }
        s->h_act = na;
        s->h_var = nv;
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
/* Assignment management                                               */
/* ------------------------------------------------------------------ */
static void enqueue_cold(S *s, int lit, int reason_ci) {
    int var = lit > 0 ? lit : -lit;
    VAL(s, lit) = 1;
    VAL(s, -lit) = -1;
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
        VAL(s, lit) = 0;
        VAL(s, -lit) = 0;
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
/* Clause attachment                                                   */
/* ------------------------------------------------------------------ */
static void w_push(S *s, int lit, int ci) {
    int slot = SLOT(s, lit);
    veci_push(s, &s->watches[slot], ci);
    s->wdirty[slot] = 1;
}

/* pop() reads the watch log as a set: log each literal once per call,
   not once per watch move (copying those out cost seconds past the
   time budget on long solves) */
static void log_lit(S *s, int lit) {
    int slot = SLOT(s, lit);
    if (s->log_enabled && !s->logged[slot]) {
        s->logged[slot] = 1;
        veci_push(s, &s->log, lit);
    }
}

static int attach_clause(S *s, const int *lits, int n, int lbd) {
    /* learnt clauses only: the search never creates problem clauses */
    if (s->nclauses == s->c_cap) {
        int nc = s->c_cap + s->c_cap / 2 + 1024;
        s->c_off = (int *)realloc(s->c_off, (size_t)nc * sizeof(int));
        s->c_size = (int *)realloc(s->c_size, (size_t)nc * sizeof(int));
        s->c_lbd = (int *)realloc(s->c_lbd, (size_t)nc * sizeof(int));
        s->c_learnt = (unsigned char *)realloc(s->c_learnt, (size_t)nc);
        s->c_dead = (unsigned char *)realloc(s->c_dead, (size_t)nc);
        s->c_act = (double *)realloc(s->c_act, (size_t)nc * sizeof(double));
        if (!s->c_off || !s->c_size || !s->c_lbd || !s->c_learnt
                || !s->c_dead || !s->c_act)
            longjmp(s->env, 1);
        s->c_cap = nc;
    }
    if (s->arena_len + n > s->arena_cap) {
        int nc = s->arena_cap + s->arena_cap / 2 + 65536;
        int *na = (int *)realloc(s->arena, (size_t)nc * sizeof(int));
        if (!na) longjmp(s->env, 1);
        s->arena = na;
        s->arena_cap = nc;
    }
    int idx = s->nclauses++;
    s->c_off[idx] = s->arena_len;
    s->c_size[idx] = n;
    s->c_learnt[idx] = 1;
    s->c_dead[idx] = 0;
    s->c_lbd[idx] = lbd;
    s->c_act[idx] = 0.0;
    memcpy(s->arena + s->arena_len, lits, (size_t)n * sizeof(int));
    s->arena_len += n;
    if (n == 2) {
        int a = lits[0], b = lits[1];
        int sa = SLOT(s, a), sb = SLOT(s, b);
        veci_push(s, &s->bwatch[sa], b);
        veci_push(s, &s->bwatch[sa], idx);
        veci_push(s, &s->bwatch[sb], a);
        veci_push(s, &s->bwatch[sb], idx);
        s->bdirty[sa] = 1;
        s->bdirty[sb] = 1;
        log_lit(s, a);
        log_lit(s, b);
    } else if (n >= 3) {
        w_push(s, lits[0], idx);
        w_push(s, lits[1], idx);
        log_lit(s, lits[0]);
        log_lit(s, lits[1]);
    }
    s->num_learnts++;
    s->learnts_c++;
    if (lbd <= GLUE_LBD) s->glue_c++;
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
        int val = VAL(s, lits[0]);
        if (val < 0) {
            s->okflag = 0;
            return;
        }
        if (val == 0) enqueue_cold(s, lits[0], -1);
        attach_clause(s, lits, 1, 1);
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
    int idx = attach_clause(s, lits, n, learnt_lbd(s, lits, n));
    enqueue_cold(s, lits[0], idx);
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
        if (VAL(s, lit0) > 0 && s->reason[var] == ci)
            continue;  /* locked: the reason of a current assignment */
        cand[ncand].lbd = s->c_lbd[ci];
        cand[ncand].act = s->c_act[ci];
        cand[ncand].ci = ci;
        ncand++;
    }
    if (!ncand) { free(cand); return; }
    qsort(cand, (size_t)ncand, sizeof(reduce_cand_t), reduce_cmp);
    int ndoomed = ncand / 2;
    if (!ndoomed) { free(cand); return; }
    for (int i = 0; i < ndoomed; i++) s->c_dead[cand[i].ci] = 1;
    s->num_learnts -= ndoomed;
    if (s->nscopes) {
        for (int i = 0; i < ndoomed; i++) {
            for (int depth = 0; depth < s->nscopes; depth++) {
                if (cand[i].ci < s->scope_marks[depth])
                    s->scope_dead[depth]++;
            }
        }
    }
    free(cand);
    /* purge the long-clause watch lists (binaries are never reduced) */
    for (int slot = 1; slot < s->nslots; slot++) {
        veci *wl = &s->watches[slot];
        int j = 0;
        for (int i = 0; i < wl->n; i++) {
            if (!s->c_dead[wl->d[i]]) wl->d[j++] = wl->d[i];
        }
        if (j != wl->n) {
            wl->n = j;
            s->wdirty[slot] = 1;
        }
    }
    s->deleted_c += ndoomed;
    s->reductions_c++;
}

/* ------------------------------------------------------------------ */
/* The search loop (mirrors SATSolver._search statement for statement) */
/* ------------------------------------------------------------------ */
static int run_search(S *s, const repro_in_t *in) {
    double t_start = now_sec();
    double time_budget = in->time_budget;
    long long max_conflicts = in->max_conflicts;
    int nassumps = in->nassumps;
    const int *assumps = in->assumps;
    long long restart_count = 0;
    long long conflicts_until_restart = 100 * luby(restart_count);
    long long conflicts_in_restart = 0;
    double trail_ema = 0.0;
    long long props = 0;
    double t0 = 0.0;
    int expired = 0;  /* the budget ran out at a conflict */
    for (;;) {
        /* ---------------- unit propagation (inlined) ---------------- */
        if (s->detailed) t0 = now_sec();
        int confl = -1;
        int dl = s->ntrail_lim;
        while (s->qhead < s->trail_len) {
            int lit = s->trail[s->qhead++];
            props++;
            int neg = -lit;
            veci *bw = &s->bwatch[SLOT(s, neg)];
            if (bw->n) {
                int bn = bw->n;
                int *bd = bw->d;
                for (int k = 0; k < bn; k += 2) {
                    int other = bd[k];
                    int bci = bd[k + 1];
                    int val = VAL(s, other);
                    if (val < 0) {
                        confl = bci;
                        break;
                    }
                    if (val == 0) {
                        VAL(s, other) = 1;
                        VAL(s, -other) = -1;
                        int var = other > 0 ? other : -other;
                        s->level[var] = dl;
                        s->reason[var] = bci;
                        s->trail[s->trail_len++] = other;
                    }
                }
                if (confl >= 0) break;
            }
            veci *wl = &s->watches[SLOT(s, neg)];
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
                if (VAL(s, first) > 0) {
                    wl->d[j++] = ci;
                    continue;
                }
                int end = off + s->c_size[ci];
                int found = 0;
                for (int k = off + 2; k < end; k++) {
                    int lk = s->arena[k];
                    if (VAL(s, lk) >= 0) {
                        s->arena[off + 1] = lk;
                        s->arena[k] = neg;
                        w_push(s, lk, ci);
                        log_lit(s, lk);
                        found = 1;
                        break;
                    }
                }
                if (found) continue;
                wl->d[j++] = ci;
                if (VAL(s, first) < 0) {
                    while (i < n) wl->d[j++] = wl->d[i++];
                    confl = ci;
                    break;
                }
                VAL(s, first) = 1;
                VAL(s, -first) = -1;
                int var = first > 0 ? first : -first;
                s->level[var] = dl;
                s->reason[var] = ci;
                s->trail[s->trail_len++] = first;
            }
            if (j != n) {
                wl->n = j;
                s->wdirty[SLOT(s, neg)] = 1;
            }
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
                s->okflag = 0;
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
            if (!s->okflag) return ST_UNSAT_ATTACH;
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
                s->restarts_c++;
                cancel_until(s, 0);
                continue;
            }
        }
        if (s->ntrail_lim < nassumps) {
            int next_assumption = 0;
            int assumption_failed = 0;
            while (s->ntrail_lim < nassumps && !next_assumption) {
                int candidate = assumps[s->ntrail_lim];
                int value = VAL(s, candidate);
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
                s->failed_lit = assumption_failed;
                return ST_ASSUMPTION_FAILED;
            }
            if (next_assumption) {
                s->decisions++;
                s->trail_lim[s->ntrail_lim++] = s->trail_len;
                VAL(s, next_assumption) = 1;
                VAL(s, -next_assumption) = -1;
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
            if (s->vals[cand] != 0) continue;       /* stale: assigned */
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
                if (s->vals[cand] == 0) { var = cand; break; }
            }
        }
        if (!var) {
            s->propagations += props;
            return ST_SAT;
        }
        s->decisions++;
        s->trail_lim[s->ntrail_lim++] = s->trail_len;
        int lit = s->phase[var] ? var : -var;
        VAL(s, lit) = 1;
        VAL(s, -lit) = -1;
        s->level[var] = s->ntrail_lim;
        s->reason[var] = -1;
        s->trail[s->trail_len++] = lit;
    }
}

/* ------------------------------------------------------------------ */
/* Marshal in / out                                                    */
/* ------------------------------------------------------------------ */
static void own(repro_out_t *out, void *p) {
    out->own[out->nown++] = p;
}

static void free_state(S *s) {
    free(s->c_off); free(s->c_size); free(s->c_lbd);
    free(s->c_learnt); free(s->c_dead); free(s->c_act);
    free(s->arena);
    if (s->watches) {
        for (int i = 0; i < s->nslots; i++) free(s->watches[i].d);
        free(s->watches);
    }
    if (s->bwatch) {
        for (int i = 0; i < s->nslots; i++) free(s->bwatch[i].d);
        free(s->bwatch);
    }
    free(s->wdirty); free(s->bdirty);
    free(s->trail); free(s->trail_lim);
    free(s->h_act); free(s->h_var); free(s->member);
    free(s->seen); free(s->learnt); free(s->to_clear); free(s->lbd_stamp);
    free(s->log.d); free(s->logged);
    free(s->scope_dead);
}

void repro_release(repro_out_t *out) {
    for (int i = 0; i < out->nown; i++) free(out->own[i]);
    out->nown = 0;
}

int repro_search(const repro_in_t *in, repro_out_t *out) {
    S s;
    memset(&s, 0, sizeof(S));
    memset(out, 0, sizeof(repro_out_t));
    if (setjmp(s.env)) {
        free_state(&s);
        repro_release(out);
        return ST_OOM;
    }
    s.num_vars = in->num_vars;
    s.vals = in->vals;
    s.vals_len = in->vals_len;
    s.level = in->level;
    s.reason = in->reason;
    s.activity = in->activity;
    s.phase = in->phase;
    s.detailed = in->detailed;
    s.log_enabled = in->log_enabled;
    s.nscopes = in->nscopes;
    s.scope_marks = in->scope_marks;
    s.var_inc = in->var_inc;
    s.cla_inc = in->cla_inc;
    s.num_learnts = in->num_learnts;
    s.conflicts_since_reduce = in->conflicts_since_reduce;
    s.reduce_interval = in->reduce_interval;
    s.propagated_clauses = in->propagated_clauses;
    s.propagated_trail = in->propagated_trail;
    s.okflag = 1;
    int n0 = in->nclauses;
    int arena0 = in->arena_len;
    /* clause store: copy of the base plus growth room */
    s.c_cap = n0 + 4096;
    s.arena_cap = arena0 + 65536;
    s.c_off = (int *)xmalloc(&s, (size_t)s.c_cap * sizeof(int));
    s.c_size = (int *)xmalloc(&s, (size_t)s.c_cap * sizeof(int));
    s.c_lbd = (int *)xmalloc(&s, (size_t)s.c_cap * sizeof(int));
    s.c_learnt = (unsigned char *)xmalloc(&s, (size_t)s.c_cap);
    s.c_dead = (unsigned char *)xmalloc(&s, (size_t)s.c_cap);
    s.c_act = (double *)xmalloc(&s, (size_t)s.c_cap * sizeof(double));
    s.arena = (int *)xmalloc(&s, (size_t)s.arena_cap * sizeof(int));
    if (n0) {
        memcpy(s.c_off, in->c_off, (size_t)n0 * sizeof(int));
        memcpy(s.c_size, in->c_size, (size_t)n0 * sizeof(int));
        memcpy(s.c_lbd, in->c_lbd, (size_t)n0 * sizeof(int));
        memcpy(s.c_learnt, in->c_learnt, (size_t)n0);
        memcpy(s.c_dead, in->c_dead, (size_t)n0);
        memcpy(s.c_act, in->c_act, (size_t)n0 * sizeof(double));
    }
    if (arena0) memcpy(s.arena, in->arena, (size_t)arena0 * sizeof(int));
    s.nclauses = n0;
    s.arena_len = arena0;
    /* watch lists from the CSR import */
    s.nslots = 2 * s.num_vars + 1;
    s.watches = (veci *)xcalloc(&s, (size_t)s.nslots, sizeof(veci));
    s.bwatch = (veci *)xcalloc(&s, (size_t)s.nslots, sizeof(veci));
    s.wdirty = (unsigned char *)xcalloc(&s, (size_t)s.nslots, 1);
    s.bdirty = (unsigned char *)xcalloc(&s, (size_t)s.nslots, 1);
    s.logged = (unsigned char *)xcalloc(&s, (size_t)s.nslots, 1);
    {
        /* without explicit starts the CSR is contiguous in slot order;
           with them (the caller's incremental cache) each slot names its
           own segment and the flat arrays may carry slack between
           segments */
        int pos = 0;
        for (int slot = 1; slot < s.nslots; slot++) {
            int count = in->w_counts[slot];
            if (count) {
                int at = in->w_starts ? in->w_starts[slot] : pos;
                veci *v = &s.watches[slot];
                v->cap = count + 4;
                v->d = (int *)xmalloc(&s, (size_t)v->cap * sizeof(int));
                memcpy(v->d, in->w_flat + at, (size_t)count * sizeof(int));
                v->n = count;
                pos += count;
            }
        }
        pos = 0;
        for (int slot = 1; slot < s.nslots; slot++) {
            int pairs = in->b_counts[slot];
            if (pairs) {
                int at = in->b_starts ? in->b_starts[slot] : pos;
                veci *v = &s.bwatch[slot];
                v->cap = 2 * pairs + 4;
                v->d = (int *)xmalloc(&s, (size_t)v->cap * sizeof(int));
                memcpy(v->d, in->b_flat + at,
                       (size_t)(2 * pairs) * sizeof(int));
                v->n = 2 * pairs;
                pos += 2 * pairs;
            }
        }
    }
    /* trail */
    int trail_cap = s.num_vars + 1;
    int lim_cap = s.num_vars + in->nassumps + 2;
    s.trail = (int *)xmalloc(&s, (size_t)trail_cap * sizeof(int));
    s.trail_lim = (int *)xmalloc(&s, (size_t)lim_cap * sizeof(int));
    if (in->trail_len)
        memcpy(s.trail, in->trail, (size_t)in->trail_len * sizeof(int));
    if (in->ntrail_lim)
        memcpy(s.trail_lim, in->trail_lim,
               (size_t)in->ntrail_lim * sizeof(int));
    s.trail_len = in->trail_len;
    s.ntrail_lim = in->ntrail_lim;
    s.qhead = in->qhead;
    /* scratch */
    s.member = (unsigned char *)xcalloc(&s, (size_t)s.num_vars + 1, 1);
    s.seen = (unsigned char *)xcalloc(&s, (size_t)s.num_vars + 1, 1);
    s.learnt = (int *)xmalloc(&s, ((size_t)s.num_vars + 2) * sizeof(int));
    s.to_clear = (int *)xmalloc(&s, ((size_t)s.num_vars + 2) * sizeof(int));
    s.lbd_stamp = (int *)xcalloc(&s, (size_t)s.num_vars + 2, sizeof(int));
    s.scope_dead = (long long *)xcalloc(
        &s, (size_t)(in->nscopes ? in->nscopes : 1), sizeof(long long));
    rebuild_heap(&s);

    int status = run_search(&s, in);
    if (status == ST_ASSUMPTION_FAILED) out->failed_lit = s.failed_lit;

    /* ---- write the mutated base regions back in place ---- */
    if (arena0) memcpy((void *)in->arena, s.arena, (size_t)arena0 * sizeof(int));
    if (n0) {
        memcpy((void *)in->c_dead, s.c_dead, (size_t)n0);
        memcpy((void *)in->c_act, s.c_act, (size_t)n0 * sizeof(double));
    }

    /* ---- export scalars ---- */
    out->status = status;
    out->conflicts = s.conflicts;
    out->decisions = s.decisions;
    out->propagations = s.propagations;
    out->learnts = s.learnts_c;
    out->glue_learnts = s.glue_c;
    out->learnts_deleted = s.deleted_c;
    out->reductions = s.reductions_c;
    out->restarts = s.restarts_c;
    out->propagate_seconds = s.propagate_seconds;
    out->analyze_seconds = s.analyze_seconds;
    out->reduce_seconds = s.reduce_seconds;
    out->var_inc = s.var_inc;
    out->cla_inc = s.cla_inc;
    out->num_learnts = s.num_learnts;
    out->conflicts_since_reduce = s.conflicts_since_reduce;
    out->reduce_interval = s.reduce_interval;
    out->qhead = s.qhead;
    out->trail_len = s.trail_len;
    out->ntrail_lim = s.ntrail_lim;
    out->propagated_clauses = s.propagated_clauses;
    out->propagated_trail = s.propagated_trail;

    /* ---- export the new clause region ---- */
    int n_new = s.nclauses - n0;
    out->new_clauses = n_new;
    out->new_arena_len = s.arena_len - arena0;
    if (n_new) {
        out->new_c_off = s.c_off + n0;
        out->new_c_size = s.c_size + n0;
        out->new_c_lbd = s.c_lbd + n0;
        out->new_c_learnt = s.c_learnt + n0;
        out->new_c_dead = s.c_dead + n0;
        out->new_c_act = s.c_act + n0;
        out->new_arena = s.arena + arena0;
        own(out, s.c_off); s.c_off = 0;
        own(out, s.c_size); s.c_size = 0;
        own(out, s.c_lbd); s.c_lbd = 0;
        own(out, s.c_learnt); s.c_learnt = 0;
        own(out, s.c_dead); s.c_dead = 0;
        own(out, s.c_act); s.c_act = 0;
        own(out, s.arena); s.arena = 0;
    }

    /* ---- export the trail ---- */
    out->trail = s.trail;
    out->trail_lim = s.trail_lim;
    own(out, s.trail); s.trail = 0;
    own(out, s.trail_lim); s.trail_lim = 0;

    /* ---- export dirty watch lists as CSR ---- */
    {
        int n_dirty = 0;
        long long w_total = 0, b_total = 0;
        for (int slot = 1; slot < s.nslots; slot++) {
            if (s.wdirty[slot] || s.bdirty[slot]) {
                n_dirty++;
                w_total += s.watches[slot].n;
                b_total += s.bwatch[slot].n;
            }
        }
        out->n_dirty = n_dirty;
        if (n_dirty) {
            int *dirty_lits = (int *)xmalloc(&s, (size_t)n_dirty * sizeof(int));
            int *w_start = (int *)xmalloc(&s, ((size_t)n_dirty + 1) * sizeof(int));
            int *b_start = (int *)xmalloc(&s, ((size_t)n_dirty + 1) * sizeof(int));
            int *w_flat = (int *)xmalloc(&s, (size_t)(w_total ? w_total : 1) * sizeof(int));
            int *b_flat = (int *)xmalloc(&s, (size_t)(b_total ? b_total : 1) * sizeof(int));
            own(out, dirty_lits); own(out, w_start); own(out, b_start);
            own(out, w_flat); own(out, b_flat);
            int di = 0;
            int wpos = 0, bpos = 0;
            for (int slot = 1; slot < s.nslots; slot++) {
                if (!(s.wdirty[slot] || s.bdirty[slot])) continue;
                dirty_lits[di] = slot <= s.num_vars
                    ? slot : -(slot - s.num_vars);
                w_start[di] = wpos;
                b_start[di] = bpos;
                veci *wl = &s.watches[slot];
                memcpy(w_flat + wpos, wl->d, (size_t)wl->n * sizeof(int));
                wpos += wl->n;
                veci *bl = &s.bwatch[slot];
                memcpy(b_flat + bpos, bl->d, (size_t)bl->n * sizeof(int));
                bpos += bl->n;
                di++;
            }
            w_start[di] = wpos;
            b_start[di] = bpos;
            out->dirty_lits = dirty_lits;
            out->w_start = w_start;
            out->b_start = b_start;
            out->w_flat = w_flat;
            out->b_flat = b_flat;
        }
    }

    /* ---- export the watch log and per-scope dead counts ---- */
    out->log_len = s.log.n;
    if (s.log.n) {
        out->log = s.log.d;
        own(out, s.log.d);
        s.log.d = 0;
    }
    out->scope_dead = s.scope_dead;
    own(out, s.scope_dead);
    s.scope_dead = 0;

    free_state(&s);
    return out->status;
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
