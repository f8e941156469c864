"""Tests for the incremental SAT interface: assumptions, cores, push/pop.

Covers the satellite requirements of the incremental rework: assumptions
are respected, learnt clauses survive across ``solve()`` calls, push/pop
retracts blocking clauses, and results match the non-incremental solver on
the CNF fixtures used elsewhere in the suite.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.cnf import CNF, FALSE_LIT, TRUE_LIT
from repro.smt.csp import FiniteDomainProblem, resolve_solver_backend
from repro.smt.sat import SATSolver

from oracles.brute_force import solve_brute_force
from oracles.sat_reference import ReferenceSATSolver


def _random_cnf(num_vars: int, num_clauses: int, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        chosen = rng.sample(variables, min(width, num_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


class TestAssumptions:
    def test_assumptions_are_respected(self):
        solver = SATSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b, c])
        for lits in ([a], [-a, b], [-a, -b, c], [a, -b], [-c]):
            result = solver.solve(assumptions=lits)
            assert result.is_sat
            for lit in lits:
                assert result.value(lit), (lits, lit)

    def test_unsat_under_assumptions_does_not_poison_solver(self):
        solver = SATSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert solver.solve(assumptions=[a, b]).is_unsat
        assert solver.ok  # the formula itself is still satisfiable
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[a]).is_sat
        assert solver.solve(assumptions=[b]).is_sat

    def test_failed_core_is_subset_of_assumptions(self):
        solver = SATSolver()
        a, b, c, d = (solver.new_var() for _ in range(4))
        solver.add_clause([-a, -b])
        result = solver.solve(assumptions=[c, a, d, b])
        assert result.is_unsat
        assert result.core is not None
        assert set(result.core) <= {a, b, c, d}
        # c and d are irrelevant to the conflict
        assert {a, b} >= set(result.core) or set(result.core) <= {a, b}
        assert set(result.core) <= {a, b}

    def test_contradictory_assumptions(self):
        solver = SATSolver()
        a = solver.new_var()
        result = solver.solve(assumptions=[a, -a])
        assert result.is_unsat
        assert result.core is not None and {abs(l) for l in result.core} == {a}

    def test_plain_unsat_has_no_core(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        result = solver.solve(assumptions=[])
        assert result.is_unsat and result.core is None

    def test_assumption_on_fresh_variable(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        result = solver.solve(assumptions=[a + 1])
        assert result.is_sat and result.value(a + 1)

    def test_invalid_assumption_literal(self):
        solver = SATSolver()
        with pytest.raises(ValueError):
            solver.solve(assumptions=[0])


class TestLearntClausePersistence:
    def test_learnt_clauses_survive_across_solves(self):
        # A pigeonhole-ish SAT instance that forces conflicts: the solver
        # must keep the clauses it learnt in the first call.
        solver = SATSolver()
        holes = 4
        pigeons = 4
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = solver.new_var()
        for p in range(pigeons):
            solver.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        before = len(solver.clauses)
        first = solver.solve(assumptions=[var[(0, 0)], var[(1, 1)]])
        assert first.is_sat
        learnt_after_first = len(solver.clauses) - before
        second = solver.solve(assumptions=[var[(0, 0)], var[(1, 1)]])
        assert second.is_sat
        if first.conflicts:
            assert learnt_after_first > 0
            # the re-solve benefits from the learnt clauses
            assert second.conflicts <= first.conflicts

    def test_saved_phases_steer_the_next_solve(self):
        solver = SATSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.solve(assumptions=[a, -b])
        # phase saving: the unconstrained re-solve reproduces the last model
        result = solver.solve()
        assert result.is_sat
        assert result.value(a) is True and result.value(b) is False


class TestPushPop:
    def test_pop_retracts_blocking_clauses(self):
        solver = SATSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        models = set()
        solver.push()
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            model = (result.value(a), result.value(b))
            models.add(model)
            solver.add_clause([-a if model[0] else a, -b if model[1] else b])
        assert models == {(True, True), (True, False), (False, True)}
        solver.pop()
        # all three models are reachable again after the pop
        assert solver.solve().is_sat
        again = set()
        for _ in range(3):
            result = solver.solve()
            assert result.is_sat
            model = (result.value(a), result.value(b))
            again.add(model)
            solver.push()
            solver.add_clause([-a if model[0] else a, -b if model[1] else b])
            solver.pop()  # immediately retract: the same model stays legal
            check = solver.solve()
            assert check.is_sat
            break  # one round is enough for the retraction claim
        assert again <= models

    def test_pop_restores_satisfiability(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.push()
        solver.add_clause([-a])
        assert solver.solve().is_unsat
        solver.pop()
        result = solver.solve()
        assert result.is_sat and result.value(a)

    def test_nested_scopes(self):
        solver = SATSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b, c])
        solver.push()
        solver.add_clause([-a])
        solver.push()
        solver.add_clause([-b])
        result = solver.solve()
        assert result.is_sat and result.value(c)
        solver.pop()
        solver.pop()
        assert solver.scope_depth == 0
        assert solver.solve(assumptions=[a]).is_sat

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            SATSolver().pop()

    def test_scoped_solves_match_fresh_solver(self):
        # Solving inside a scope and after a pop must agree with a fresh
        # solver built from the same clause sets.
        for seed in range(15):
            base = _random_cnf(8, 18, seed)
            extra = _random_cnf(8, 6, seed + 1000)
            solver = SATSolver.from_cnf(base)
            baseline_status = SATSolver.from_cnf(base).solve().status
            solver.push()
            for clause in extra.clauses:
                solver.add_clause(clause)
            combined = CNF()
            for _ in range(8):
                combined.new_var()
            combined.add_clauses([list(c) for c in base.clauses])
            combined.add_clauses([list(c) for c in extra.clauses])
            if base.contradiction or extra.contradiction:
                combined.contradiction = True
            assert solver.solve().status == solve_brute_force(combined).status
            solver.pop()
            assert solver.solve().status == baseline_status


class TestPushPopStateInvariants:
    """push()/pop() must restore clause *and* variable state exactly."""

    def test_solver_clause_and_variable_state_restored_exactly(self):
        # Literal order inside a clause is internal (watched-literal swaps
        # reorder in place), so clauses compare as sorted literal lists.
        for seed in range(10):
            solver = SATSolver.from_cnf(_random_cnf(6, 12, seed))
            clauses_before = [sorted(c) for c in solver.clauses]
            vars_before = solver.num_vars
            solver.push()
            fresh = [solver.new_var() for _ in range(3)]
            solver.add_clause(fresh)
            solver.add_clause([-fresh[0], fresh[1]])
            solver.solve()  # may learn clauses inside the scope
            solver.pop()
            assert solver.num_vars == vars_before
            assert [sorted(c) for c in solver.clauses] == clauses_before

    def test_nested_scopes_unwind_in_order(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        snapshots = []
        for _ in range(3):
            snapshots.append((solver.num_vars, len(solver.clauses)))
            solver.push()
            b = solver.new_var()
            solver.add_clause([-a, b])
        for expected in reversed(snapshots):
            solver.pop()
            assert (solver.num_vars, len(solver.clauses)) == expected

    @pytest.mark.parametrize("backend", ["arena", "native"])
    def test_an_outer_pop_repairs_watches_moved_in_an_inner_scope(
            self, backend):
        # an outer-scope clause whose watch moved while an inner scope was
        # open: the inner pop keeps that watch, so the outer pop must still
        # purge it, or a later clause reusing the index is rewritten by
        # propagation through the stale entry
        solver = resolve_solver_backend(backend)()
        a, b, c, d, e, f = (solver.new_var() for _ in range(6))
        solver.push()
        solver.add_clause([a, b, c])
        solver.push()
        solver.add_clause([-a])       # moves the clause's watch onto c
        assert solver.solve().is_sat
        solver.pop()
        solver.pop()
        assert solver.clauses == []
        solver.add_clause([d, e, f])  # takes the retracted clause's index
        for unit in (-c, -d, -e):
            solver.add_clause([unit])
        result = solver.solve()
        assert sorted(map(sorted, solver.clauses)) == [
            [-e], [-d], [-c], [d, e, f]]
        assert result.is_sat and result.value(f)

    def test_finite_domain_problem_state_restored_exactly(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 4)
        problem.add_ge(x, x, 0)
        vars_before = problem.num_sat_variables
        problem.push()
        # push() hands the base formula to the solver, the only clause store
        assert problem.cnf.clauses == []
        clauses_before = sorted(map(sorted, problem._solver.clauses))
        y = problem.new_int("y", 0, 7)
        problem.add_ge(y, x, 1)
        problem.mod_indicator(y, 3, 1)
        assert problem.solve() is not None
        problem.pop()
        assert problem.num_sat_variables == vars_before
        assert problem.cnf.clauses == []
        assert sorted(map(sorted, problem._solver.clauses)) == clauses_before
        # the popped variable is genuinely gone: its name is reusable
        z = problem.new_int("y", 0, 2)
        assert problem.solve().value(z) in range(3)


class TestFailedCoreInvariants:
    """Cores are assumption subsets and genuinely unsatisfiable."""

    def _assert_core_unsat_when_reasserted(self, cnf: CNF, core) -> None:
        fresh = SATSolver.from_cnf(cnf)
        for literal in core:
            fresh.add_clause([literal])
        assert fresh.solve().is_unsat

    def test_core_reassertion_is_unsat_randomized(self):
        rng = random.Random(7)
        checked = 0
        for seed in range(60):
            cnf = _random_cnf(7, 20, seed)
            solver = SATSolver.from_cnf(cnf)
            if not solver.solve().is_sat:
                continue  # plain UNSAT has no core to check
            variables = rng.sample(range(1, 8), rng.randint(2, 5))
            assumptions = [v if rng.random() < 0.5 else -v for v in variables]
            result = solver.solve(assumptions=assumptions)
            if not result.is_unsat:
                continue
            assert result.core is not None
            assert set(result.core) <= set(assumptions)
            self._assert_core_unsat_when_reasserted(cnf, result.core)
            checked += 1
        assert checked >= 3  # the sweep must actually exercise cores

    def test_core_from_pigeonhole_assumptions(self):
        # 3 pigeons, 2 holes, hole occupancy exclusive: assuming all three
        # pigeons places an unsatisfiable subset in the core.
        cnf = CNF()
        var = {}
        for p in range(3):
            for h in range(2):
                var[(p, h)] = cnf.new_var()
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
        solver = SATSolver.from_cnf(cnf)
        assumptions = [var[(p, p % 2)] for p in range(3)] + [var[(2, 0)]]
        result = solver.solve(assumptions=assumptions)
        assert result.is_unsat
        assert set(result.core) <= set(assumptions)
        self._assert_core_unsat_when_reasserted(cnf, result.core)
        # the solver itself is not poisoned: dropping the assumptions
        # restores satisfiability
        assert solver.solve().is_sat

    def test_core_survives_push_pop_cycles(self):
        solver = SATSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([-a, -b])
        solver.push()
        solver.add_clause([-a, -c])
        first = solver.solve(assumptions=[a, c])
        assert first.is_unsat and set(first.core) <= {a, c}
        solver.pop()
        # the scoped clause is gone: the same assumptions are SAT again
        assert solver.solve(assumptions=[a, c]).is_sat
        second = solver.solve(assumptions=[a, b])
        assert second.is_unsat and set(second.core) <= {a, b}


class TestAgainstBruteForceWithAssumptions:
    @settings(max_examples=40, deadline=None)
    @given(
        num_vars=st.integers(min_value=2, max_value=8),
        num_clauses=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    def test_incremental_assumption_solving_matches_oracle(
        self, num_vars, num_clauses, seed
    ):
        cnf = _random_cnf(num_vars, num_clauses, seed)
        solver = SATSolver.from_cnf(cnf)
        rng = random.Random(seed)
        # one persistent solver, several assumption sets: exactly the
        # incremental usage pattern of the time phase
        for _ in range(3):
            k = rng.randint(0, min(3, num_vars))
            variables = rng.sample(range(1, num_vars + 1), k)
            assumptions = [v if rng.random() < 0.5 else -v for v in variables]
            augmented = CNF()
            for _ in range(num_vars):
                augmented.new_var()
            augmented.add_clauses([list(c) for c in cnf.clauses])
            if cnf.contradiction:
                augmented.contradiction = True
            for lit in assumptions:
                augmented.add_clause([lit])
            expected = solve_brute_force(augmented)
            result = solver.solve(assumptions=assumptions)
            assert result.status == expected.status
            if result.is_sat:
                for clause in cnf.clauses:
                    assert any(result.value(lit) for lit in clause)
                for lit in assumptions:
                    assert result.value(lit)
            elif result.core is not None:
                assert set(result.core) <= set(assumptions)


class TestFiniteDomainIncremental:
    def test_pseudo_literal_assumptions(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 1)
        assert problem.solve(assumptions=[TRUE_LIT]) is not None
        assert problem.solve(assumptions=[FALSE_LIT]) is None
        assert problem.solve(assumptions=[problem.value_literal(x, 1)]).value(x) == 1

    def test_push_pop_retracts_constraints_and_indicators(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 5)
        problem.push()
        indicator = problem.mod_indicator(x, 2, 0)
        problem.add_clause([indicator])
        problem.add_clause([problem.value_literal(x, 4)])
        solution = problem.solve()
        assert solution is not None and solution.value(x) == 4
        problem.pop()
        # the unit is retracted; the indicator can be recreated cleanly
        problem.add_clause([problem.value_literal(x, 3)])
        solution = problem.solve()
        assert solution is not None and solution.value(x) == 3
        again = problem.mod_indicator(x, 2, 0)
        assert again == indicator  # same pooled SAT variable

    @pytest.mark.parametrize("backend", ["arena", "native", ReferenceSATSolver])
    def test_blocking_on_fresh_indicators_never_repeats_a_model(self, backend):
        # each blocking clause may create the indicator it negates; the
        # indicator's implication is new in the same batch as the clause,
        # so the enumeration's minimal-backtrack re-entry must integrate
        # the two together (once, it enqueued the implication first and
        # lost the falsified blocking clause, yielding a model twice)
        problem = FiniteDomainProblem(solver_cls=backend)
        times = [problem.new_int(f"t{i}", i, i + 1) for i in range(3)]
        problem.add_ge(times[1], times[0], 1)
        problem.add_ge(times[2], times[1], 1)
        models = [
            tuple(s.value(t) for t in times)
            for s in problem.enumerate_solutions(block=lambda s: [
                -problem.mod_indicator(t, 2, s.value(t) % 2) for t in times
            ])
        ]
        assert sorted(models) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_scoped_blocking_is_retracted_by_pop(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 5)
        problem.push()
        # the hook creates indicators inside the scope, as the time
        # phase's slot projection does
        seen = [
            s.value(x) % 2
            for s in problem.enumerate_solutions(
                block=lambda s: [-problem.mod_indicator(x, 2, s.value(x) % 2)]
            )
        ]
        assert sorted(seen) == [0, 1]
        problem.pop()
        # blocking clauses and their indicators die with the scope
        fresh = [s.value(x) for s in problem.enumerate_solutions()]
        assert sorted(fresh) == [0, 1, 2, 3, 4, 5]
