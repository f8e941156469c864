"""Scoped finite-domain problems answer like fresh ones.

A random program creates integer variables, adds difference constraints
and at-most-k constraints over value and mod-indicator literals, seeds
activities, opens and closes scopes and solves. After every solve the
SAT/UNSAT answer must equal that of a fresh problem built from only the
constraints that survive the pops so far, and a returned model must
satisfy every one of them. The problem's CNF is a send buffer: it holds
no clause after a sync (every ``solve`` and ``push``). Each program runs
on both solver tiers. The seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.smt.csp import FiniteDomainProblem
from repro.smt.sat import SATSolver

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))


def _tier(name):
    if name == "arena":
        return SATSolver
    from repro.smt.native import c_solver_class

    try:
        return c_solver_class()
    except RuntimeError as exc:
        pytest.skip(str(exc))


@st.composite
def programs(draw):
    """A list of ops; an op names live variables by creation position."""
    ops = []
    scopes = [0]  # variables created in each open scope
    for _ in range(draw(st.integers(1, 24))):
        live = sum(scopes)
        kinds = ["int", "push", "solve"]
        if live:
            kinds += ["ge", "at_most", "prioritize"]
        if len(scopes) > 1:
            kinds.append("pop")
        kind = draw(st.sampled_from(kinds))
        var = st.integers(0, live - 1)
        if kind == "int":
            lo = draw(st.integers(0, 3))
            ops.append(("int", lo, lo + draw(st.integers(0, 3))))
            scopes[-1] += 1
        elif kind == "ge":
            ops.append(("ge", draw(var), draw(var), draw(st.integers(-2, 3))))
        elif kind == "at_most":
            items = draw(st.lists(st.one_of(
                st.tuples(st.just("eq"), var, st.integers(0, 6)),
                st.tuples(st.just("mod"), var, st.integers(2, 3),
                          st.integers(0, 1)),
            ), min_size=1, max_size=5))
            ops.append(("at_most", tuple(items), draw(st.integers(0, 3))))
        elif kind == "prioritize":
            ops.append(("prioritize", draw(var), draw(st.integers(0, 4))))
        elif kind == "push":
            ops.append(("push",))
            scopes.append(0)
        elif kind == "pop":
            ops.append(("pop",))
            scopes.pop()
        else:
            ops.append(("solve",))
    ops.append(("solve",))
    return ops


def _literal(problem, variables, item):
    if item[0] == "eq":
        _, index, value = item
        return problem.value_literal(variables[index], value)
    _, index, modulus, residue = item
    return problem.mod_indicator(variables[index], modulus, residue)


def _holds(item, value):
    if item[0] == "eq":
        return value == item[2]
    return value % item[2] == item[3] % item[2]


def _apply(problem, variables, op):
    if op[0] == "ge":
        _, y, x, delta = op
        problem.add_ge(variables[y], variables[x], delta)
    else:
        _, items, bound = op
        problem.at_most([_literal(problem, variables, i) for i in items],
                        bound)


def _satisfied(op, values):
    if op[0] == "ge":
        _, y, x, delta = op
        return values[y] >= values[x] + delta
    _, items, bound = op
    return sum(_holds(item, values[item[1]]) for item in items) <= bound


def _fresh_answer(bounds, constraints):
    """Is the conjunction of the surviving constraints satisfiable?"""
    problem = FiniteDomainProblem(solver_cls="arena")
    variables = [problem.new_int(f"x{i}", lo, hi)
                 for i, (lo, hi) in enumerate(bounds)]
    for op in constraints:
        _apply(problem, variables, op)
    return problem.solve() is not None


def _run(program, solver_cls):
    problem = FiniteDomainProblem(solver_cls=solver_cls)
    variables, bounds, constraints, marks = [], [], [], []
    for op in program:
        kind = op[0]
        if kind == "int":
            bounds.append(op[1:])
            variables.append(problem.new_int(f"x{len(variables)}", *op[1:]))
        elif kind in ("ge", "at_most"):
            _apply(problem, variables, op)
            constraints.append(op)
        elif kind == "prioritize":
            problem.prioritize(variables[op[1]], float(op[2]))
        elif kind == "push":
            problem.push()
            assert problem.cnf.clauses == []
            marks.append((len(variables), len(constraints)))
        elif kind == "pop":
            problem.pop()
            num_vars, num_constraints = marks.pop()
            del variables[num_vars:], bounds[num_vars:]
            del constraints[num_constraints:]
        else:
            solution = problem.solve()
            assert problem.cnf.clauses == []
            assert (solution is not None) == _fresh_answer(bounds,
                                                           constraints)
            if solution is not None:
                values = [solution.value(var) for var in variables]
                assert all(lo <= v <= hi
                           for v, (lo, hi) in zip(values, bounds))
                assert all(_satisfied(op, values) for op in constraints)


@pytest.mark.parametrize("tier", ["arena", "native-c"])
@seed(SEED_BASE)
@settings(max_examples=150, deadline=None)
@given(program=programs())
def test_a_scoped_problem_answers_like_a_fresh_one(tier, program):
    _run(program, _tier(tier))
