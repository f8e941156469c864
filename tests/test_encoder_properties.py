"""The bulk encoders emit exactly the per-clause encoders' formula.

A random program creates integer variables and adds difference
constraints, residue-class indicators (empty classes included),
cardinality constraints over direct literals, indicators and the
TRUE/FALSE sentinels, and unit clauses. It runs twice: through
:class:`~repro.smt.csp.FiniteDomainProblem`, whose encoders write whole
clause blocks into the flat CNF buffer, and through the clause-at-a-time
reference of ``tests/oracles/encoders.py``. After every step both must
hold the same literal stream, the same clause sizes, the same variable
count, the same contradiction flag and the same indicator cache, and
return the same literals. The finished flat pair then loads into the
arena solver, the C handle and the pre-rewrite ``ReferenceSATSolver``,
which must agree on the status and the model. The seed is fixed
(overridable through ``REPRO_PROPERTY_SEED`` so CI can pin it
explicitly), making every run reproducible.
"""

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from oracles import encoders as ref
from oracles.sat_reference import ReferenceSATSolver
from repro.smt.cardinality import at_most_one
from repro.smt.cnf import FALSE_LIT, TRUE_LIT
from repro.smt.csp import FiniteDomainProblem
from repro.smt.sat import SATSolver, SolveStatus

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

#: per-op literal picks: a direct literal, an indicator or a sentinel
_ITEM_KINDS = ["eq", "eq", "mod", "true", "false"]


@st.composite
def programs(draw):
    """A list of ops; an op names variables by creation position."""
    ops = []
    count = 0
    for _ in range(draw(st.integers(1, 16))):
        kinds = ["int"]
        if count:
            kinds += ["ge", "mod", "mods", "at_most", "at_most_one", "units"]
        kind = draw(st.sampled_from(kinds))
        var = st.integers(0, max(count - 1, 0))
        if kind == "int":
            lo = draw(st.integers(-2, 6))
            ops.append(("int", lo, lo + draw(st.integers(0, 9))))
            count += 1
        elif kind == "ge":
            ops.append(("ge", draw(var), draw(var), draw(st.integers(-6, 8))))
        elif kind == "mod":
            ops.append(("mod", draw(var), draw(st.integers(1, 12)),
                        draw(st.integers(-3, 12))))
        elif kind == "mods":
            ops.append(("mods", tuple(draw(st.lists(var, max_size=6))),
                        draw(st.integers(1, 12)), draw(st.integers(0, 11))))
        else:
            items = draw(st.lists(st.tuples(
                st.sampled_from(_ITEM_KINDS), var, st.integers(-1, 12),
                st.integers(1, 5)), max_size=12))
            if kind == "at_most":
                ops.append((kind, tuple(items), draw(st.integers(-1, 6))))
            else:
                ops.append((kind, tuple(items)))
    return ops


def _distinct(literals):
    """The cardinality encoders take distinct literals: drop repeats of an
    int literal, keep every sentinel."""
    seen = set()
    kept = []
    for lit in literals:
        if type(lit) is int:
            if lit in seen:
                continue
            seen.add(lit)
        kept.append(lit)
    return kept


def _literal(item, variables, indicator, value_literal):
    kind, index, value, modulus = item
    if kind == "true":
        return TRUE_LIT
    if kind == "false":
        return FALSE_LIT
    if kind == "eq":
        return value_literal(variables[index], value)
    return indicator(variables[index], modulus, value)


def _run_bulk(program):
    problem = FiniteDomainProblem(solver_cls=SATSolver)
    cnf = problem.cnf
    variables = []
    for step, op in enumerate(program):
        kind = op[0]
        answer = None
        if kind == "int":
            variables.append(problem.new_int(f"x{step}", op[1], op[2]))
        elif kind == "ge":
            problem.add_ge(variables[op[1]], variables[op[2]], op[3])
        elif kind == "mod":
            answer = problem.mod_indicator(variables[op[1]], op[2], op[3])
        elif kind == "mods":
            answer = problem.mod_indicators(
                [variables[i] for i in op[1]], op[2], op[3])
        else:
            literals = _distinct([
                _literal(item, variables, problem.mod_indicator,
                         problem.value_literal) for item in op[1]])
            if kind == "at_most":
                problem.at_most(literals, op[2])
            elif kind == "at_most_one":
                at_most_one(cnf, literals)
            else:
                problem.add_units(literals)
        yield answer, (cnf.lits.tolist(), cnf.sizes.tolist(), cnf.num_vars,
                       cnf.contradiction, dict(problem._mod_indicator))


def _run_reference(program):
    cnf = ref.ListCNF()
    cache = {}
    variables = []

    def indicator(var, modulus, residue):
        return ref.mod_indicator(cnf, cache, var, modulus, residue)

    for step, op in enumerate(program):
        kind = op[0]
        answer = None
        if kind == "int":
            variables.append(ref.new_int(cnf, f"x{step}", op[1], op[2]))
        elif kind == "ge":
            ref.add_ge(cnf, variables[op[1]], variables[op[2]], op[3])
        elif kind == "mod":
            answer = indicator(variables[op[1]], op[2], op[3])
        elif kind == "mods":
            answer = [indicator(variables[i], op[2], op[3]) for i in op[1]]
        else:
            literals = _distinct([
                _literal(item, variables, indicator, ref.value_literal)
                for item in op[1]])
            if kind == "at_most":
                ref.at_most_k(cnf, literals, op[2])
            elif kind == "at_most_one":
                ref.at_most_one(cnf, literals)
            else:
                for lit in literals:
                    cnf.add_clause([lit])
        lits, sizes = cnf.flat()
        yield answer, (lits, sizes, cnf.num_vars, cnf.contradiction,
                       dict(cache))


def _c_tier():
    from repro.smt.native import c_solver_class

    try:
        return c_solver_class()
    except RuntimeError as exc:
        pytest.skip(str(exc))


def _load_and_solve(cls, lits, sizes, num_vars, contradiction):
    solver = cls()
    solver.ensure_vars(num_vars)
    if contradiction:
        solver.add_clause(())
    solver.add_clauses(lits, sizes)
    result = solver.solve(timeout_seconds=60)
    model = None
    if result.status is SolveStatus.SAT:
        model = [result.value(v) for v in range(1, num_vars + 1)]
    return result.status, model


@seed(SEED_BASE + 2)
@settings(max_examples=200, deadline=None)
@given(program=programs())
def test_bulk_encoders_emit_the_per_clause_formula(program):
    state = None
    for step, (bulk, reference) in enumerate(zip(_run_bulk(program),
                                                 _run_reference(program))):
        assert bulk == reference, (step, program[step])
        state = bulk[1]
    lits, sizes, num_vars, contradiction, _ = state
    c_tier = _c_tier()
    answers = [_load_and_solve(cls, lits, sizes, num_vars, contradiction)
               for cls in (SATSolver, c_tier, ReferenceSATSolver)]
    assert answers[0] == answers[1] == answers[2]
