"""Differential property suite over the SAT solver API: C tier vs arena.

A random program calls every public method of a solver -- ``new_var``,
``ensure_vars``, ``add_clause`` (duplicates, tautologies, fresh
variables, the empty clause), ``add_clauses``, ``boost_activity``,
``prefer_true``, nested ``push``/``pop`` and ``solve`` with assumptions
and conflict budgets -- on the arena solver and on the C tier's handle
side by side. After every step both must show the same state: equal
statuses, models, core literal order, conflict/decision/propagation
counts, folded perf counters, variable counts, scope depths, ``clauses``
views (literal order included) and watch-log multisets. Pigeonhole
instances push the search past restarts and a learnt-database reduction,
inside scopes too, which is where ``pop()``'s watch repair and the
per-scope tombstone counts are at stake. The seed is fixed (overridable
through ``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making
every run reproducible.
"""

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.perf import PerfCounters
from repro.smt.sat import SATSolver

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

#: the PerfCounters fields both tiers fold after every solve
PERF_FIELDS = ("solve_calls", "conflicts", "decisions", "propagations",
               "restarts", "learnts", "glue_learnts", "learnts_deleted",
               "reductions")


def _c_tier():
    from repro.smt.native import c_solver_class

    try:
        return c_solver_class()
    except RuntimeError as exc:
        pytest.skip(str(exc))


def _literal(draw, num_vars):
    var = draw(st.integers(1, num_vars))
    return var if draw(st.booleans()) else -var


@st.composite
def programs(draw):
    """A list of solver calls; variable counts are tracked per scope."""
    ops = []
    num_vars = 0
    scopes = []  # num_vars at each open push()
    for _ in range(draw(st.integers(1, 30))):
        kinds = ["new_var", "ensure_vars", "push", "pigeonhole"]
        if num_vars:
            kinds += ["add_clause", "add_clauses", "boost", "prefer",
                      "solve", "solve"]
        if scopes:
            kinds.append("pop")
        kind = draw(st.sampled_from(kinds))
        if kind == "new_var":
            ops.append(("new_var",))
            num_vars += 1
        elif kind == "ensure_vars":
            # past 8 fresh variables the heap is rebuilt lazily
            count = num_vars + draw(st.integers(0, 12))
            ops.append(("ensure_vars", count))
            num_vars = count
        elif kind == "pigeonhole":
            holes = draw(st.integers(2, 6))
            ops.append(("pigeonhole", num_vars, holes))
            num_vars += holes * (holes + 1)
        elif kind == "add_clause":
            # raw literals: duplicates, tautologies, a fresh variable
            # (first, so a tautology cannot skip its allocation), and
            # rarely the empty clause
            lits = [_literal(draw, num_vars)
                    for _ in range(draw(st.integers(0, 5)))]
            if lits and draw(st.integers(0, 5)) == 0:
                num_vars += 1
                lits.insert(0, num_vars)
            if not lits and draw(st.integers(0, 3)):
                lits = [_literal(draw, num_vars)]
            ops.append(("add_clause", lits))
        elif kind == "add_clauses":
            clauses = []
            for _ in range(draw(st.integers(1, 6))):
                width = draw(st.integers(1, min(4, num_vars)))
                variables = draw(st.lists(st.integers(1, num_vars),
                                          min_size=width, max_size=width,
                                          unique=True))
                clauses.append([v if draw(st.booleans()) else -v
                                for v in variables])
            ops.append(("add_clauses", clauses))
        elif kind == "boost":
            ops.append(("boost", draw(st.integers(1, num_vars)),
                        float(draw(st.integers(0, 20)))))
        elif kind == "prefer":
            ops.append(("prefer", draw(st.lists(
                st.integers(1, num_vars), max_size=6))))
        elif kind == "push":
            ops.append(("push",))
            scopes.append(num_vars)
        elif kind == "pop":
            ops.append(("pop",))
            num_vars = scopes.pop()
        else:
            assumptions = [_literal(draw, num_vars)
                           for _ in range(draw(st.integers(0, 4)))]
            budget = draw(st.one_of(st.none(), st.integers(0, 60),
                                    st.just(2500)))
            ops.append(("solve", assumptions, budget))
    ops.append(("solve", [], None))
    return ops


def _pigeonhole_clauses(first, holes):
    """``holes + 1`` pigeons into ``holes`` holes over fresh variables."""
    pigeons = holes + 1
    var = [[first + p * holes + h + 1 for h in range(holes)]
           for p in range(pigeons)]
    clauses = [list(row) for row in var]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var[p1][h], -var[p2][h]])
    return first + pigeons * holes, clauses


def _step(solver, op):
    """Apply one call; return what it answered."""
    kind = op[0]
    if kind == "new_var":
        return solver.new_var()
    if kind == "ensure_vars":
        return solver.ensure_vars(op[1])
    if kind == "pigeonhole":
        count, clauses = _pigeonhole_clauses(op[1], op[2])
        solver.ensure_vars(count)
        return solver.add_clauses(clauses)
    if kind == "add_clause":
        return solver.add_clause(list(op[1]))
    if kind == "add_clauses":
        return solver.add_clauses([list(c) for c in op[1]])
    if kind == "boost":
        return solver.boost_activity(op[1], op[2])
    if kind == "prefer":
        return solver.prefer_true(op[1])
    if kind == "push":
        return solver.push()
    if kind == "pop":
        return solver.pop()
    result = solver.solve(assumptions=op[1], max_conflicts=op[2])
    model = None
    if result.model is not None:
        model = tuple(result.value(v) for v in range(1, solver.num_vars + 1))
    return (result.status, model, result.core, result.conflicts,
            result.decisions, result.propagations)


def _state(solver):
    perf = solver.perf
    return (solver.num_vars, solver.scope_depth, solver.ok,
            solver.clauses, sorted(solver.watch_log()),
            tuple(getattr(perf, name) for name in PERF_FIELDS))


@seed(SEED_BASE)
@settings(max_examples=200, deadline=None)
@given(program=programs())
def test_the_c_handle_matches_the_arena_solver_call_for_call(program):
    arena = SATSolver(perf=PerfCounters())
    native = _c_tier()(perf=PerfCounters())
    for index, op in enumerate(program):
        context = (index, op)
        assert _step(native, op) == _step(arena, op), context
        assert _state(native) == _state(arena), context


@pytest.mark.parametrize("first_budget", [600, 1500, 2100])
def test_a_reduction_under_nested_scopes_matches_the_arena_solver(
        first_budget):
    # learnt clauses of the outer scope that the reduction tombstones
    # while the inner scope is open are charged to both scopes' pops
    program = [
        ("new_var",), ("push",), ("pigeonhole", 1, 8),
        ("solve", [], first_budget), ("push",),
        ("add_clauses", [[1, 2], [-1, 3, 4]]),
        ("solve", [-1], 2500), ("pop",), ("solve", [], 300),
        ("pop",), ("pigeonhole", 1, 5), ("solve", [], None),
    ]
    arena = SATSolver(perf=PerfCounters())
    native = _c_tier()(perf=PerfCounters())
    for index, op in enumerate(program):
        context = (index, op)
        assert _step(native, op) == _step(arena, op), context
        assert _state(native) == _state(arena), context
    assert arena.perf.reductions >= 1


def test_a_live_handle_forks_into_two_private_solvers():
    # a forking worker process copies every live solver handle; each side
    # must keep solving on its own copy, and freeing the child's copy must
    # not touch the parent's memory
    import gc
    import json

    cls = _c_tier()
    base = [[1, 2, 3], [-1, 2], [-2, 3], [3, 4, -5]]
    extra = {"child": [[-3], [5, 1]], "parent": [[-1], [-2, 4], [5]]}

    def answer(solver, clauses):
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        model = None
        if result.is_sat:
            model = [result.value(v) for v in range(1, solver.num_vars + 1)]
        return [str(result.status), model, result.conflicts,
                result.decisions, result.propagations, solver.clauses]

    def solved_once():
        solver = cls()
        solver.ensure_vars(5)
        solver.add_clauses(base)
        assert solver.solve().is_sat
        return solver

    expected = {side: answer(solved_once(), clauses)
                for side, clauses in extra.items()}
    solver = solved_once()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: answer, free the copy, report
        code = 1
        try:
            os.close(read_end)
            got = answer(solver, extra["child"])
            del solver
            gc.collect()
            with os.fdopen(write_end, "w") as pipe:
                json.dump(got, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    parent_got = answer(solver, extra["parent"])
    with os.fdopen(read_end) as pipe:
        child_got = json.load(pipe)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
    assert child_got == expected["child"]
    assert parent_got == expected["parent"]
    assert expected["child"][0] == "unsat" and expected["parent"][0] == "sat"
