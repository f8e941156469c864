"""Unit tests for the finite-domain ("mini SMT") layer."""

import pytest

from repro.smt.cnf import FALSE_LIT, TRUE_LIT, negate
from repro.smt.csp import FiniteDomainProblem, IntVar


class TestIntVar:
    def test_domain(self):
        var = IntVar("x", 2, 5)
        assert list(var.domain) == [2, 3, 4, 5]
        assert var.domain_size == 4

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            IntVar("x", 3, 2)

    def test_duplicate_names_rejected(self):
        problem = FiniteDomainProblem()
        problem.new_int("x", 0, 1)
        with pytest.raises(ValueError):
            problem.new_int("x", 0, 1)


class TestSolving:
    def test_single_variable_takes_some_domain_value(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 3, 7)
        solution = problem.solve()
        assert 3 <= solution.value(x) <= 7

    def test_eq_and_ne_constants(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 4)
        problem.add_ne_const(x, 2)
        problem.add_clause([problem.value_literal(x, 2)])
        assert problem.solve() is None

    def test_restrict_domain(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 7)
        problem.restrict_domain(x, {1, 4, 6})
        seen = {s.value(x) for s in problem.enumerate_solutions()}
        assert seen == {1, 4, 6}

    def test_restrict_domain_to_nothing_is_unsat(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        problem.restrict_domain(x, {9, 10})  # disjoint from the domain
        assert problem.solve() is None

    def test_difference_constraint(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 10)
        y = problem.new_int("y", 0, 10)
        problem.add_ge(y, x, 3)       # y >= x + 3
        problem.add_clause([problem.value_literal(x, 6)])
        solution = problem.solve()
        assert solution.value(y) >= 9

    def test_unsatisfiable_difference_chain(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        y = problem.new_int("y", 0, 3)
        z = problem.new_int("z", 0, 3)
        problem.add_ge(y, x, 2)
        problem.add_ge(z, y, 2)
        problem.add_ge(x, z, 0)
        assert problem.solve() is None

    def test_value_and_le_literals(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        assert problem.value_literal(x, 9) == FALSE_LIT
        assert problem.le_literal(x, 3) == TRUE_LIT
        assert problem.le_literal(x, -1) == FALSE_LIT
        problem.add_clause([problem.value_literal(x, 2)])
        assert problem.solve().value(x) == 2

    def test_ge_literal(self):
        # [x >= 2] is the negation of [x <= 1]
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        problem.add_clause([negate(problem.le_literal(x, 1))])
        problem.add_clause([problem.le_literal(x, 2)])
        assert problem.solve().value(x) == 2

    def test_mod_indicator_upper_bound(self):
        problem = FiniteDomainProblem()
        variables = [problem.new_int(f"x{i}", 0, 5) for i in range(4)]
        indicators = [problem.mod_indicator(v, 3, 0) for v in variables]
        # at most one of the four variables may be congruent to 0 mod 3
        problem.at_most(indicators, 1)
        solution = problem.solve()
        congruent = [v for v in variables if solution.value(v) % 3 == 0]
        assert len(congruent) <= 1

    def test_mod_indicator_empty_residue(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 1, 2)
        assert problem.mod_indicator(x, 5, 4) == FALSE_LIT

    def test_mod_indicator_is_cached(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 8)
        first = problem.mod_indicator(x, 4, 1)
        second = problem.mod_indicator(x, 4, 1)
        assert first == second

    def test_mod_indicator_is_implied_by_exactly_its_residue_class(self):
        for lo, hi in [(0, 0), (0, 7), (-3, 4), (2, 3), (5, 11)]:
            for modulus in range(1, 6):
                for residue in range(-2, 8):
                    problem = FiniteDomainProblem()
                    x = problem.new_int("x", lo, hi)
                    encoded = len(problem.cnf.clauses)
                    indicator = problem.mod_indicator(x, modulus, residue)
                    members = [t for t in range(lo, hi + 1)
                               if t % modulus == residue % modulus]
                    if not members:
                        assert indicator == FALSE_LIT
                        continue
                    assert problem.cnf.clauses[encoded:] == [
                        [-problem.value_literal(x, t), indicator]
                        for t in members]

    def test_cardinality_over_value_literals(self):
        problem = FiniteDomainProblem()
        variables = [problem.new_int(f"x{i}", 0, 1) for i in range(5)]
        ones = [problem.value_literal(v, 1) for v in variables]
        zeros = [problem.value_literal(v, 0) for v in variables]
        problem.at_most(ones, 2)
        problem.at_most(zeros, 3)     # together: exactly two ones
        solution = problem.solve()
        assert sum(solution.value(v) for v in variables) == 2

    def test_prioritize_does_not_change_satisfiability(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 6)
        y = problem.new_int("y", 0, 6)
        problem.prioritize(x, 5.0)
        problem.add_ge(y, x, 4)
        solution = problem.solve()
        assert solution.value(y) >= solution.value(x) + 4


class TestEnumeration:
    def test_enumerates_all_solutions(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 2)
        y = problem.new_int("y", 0, 2)
        problem.add_ge(y, x, 1)
        solutions = {(s.value(x), s.value(y))
                     for s in problem.enumerate_solutions()}
        assert solutions == {(0, 1), (0, 2), (1, 2)}

    def test_limit_respected(self):
        problem = FiniteDomainProblem()
        problem.new_int("x", 0, 9)
        assert len(list(problem.enumerate_solutions(limit=4))) == 4

    def test_block_hook_projects_onto_a_subset(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        problem.new_int("y", 0, 3)
        values = [
            s.value(x)
            for s in problem.enumerate_solutions(
                block=lambda s: [-problem.value_literal(x, s.value(x))]
            )
        ]
        assert sorted(values) == [0, 1, 2, 3]

    def test_forbid_assignment(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 1)
        y = problem.new_int("y", 0, 1)
        for vx in (0, 1):
            for vy in (0, 1):
                if (vx, vy) != (1, 0):
                    problem.forbid_assignment({x: vx, y: vy})
        solution = problem.solve()
        assert (solution.value(x), solution.value(y)) == (1, 0)

    def test_solution_mapping_interface(self):
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 2, 2)
        solution = problem.solve()
        assert solution[x] == 2
        assert solution.as_dict() == {"x": 2}

    def test_out_of_order_prioritize_survives_pop(self):
        # prioritize() on a pre-scope variable *after* creating a
        # scope-local one: pop() must drop exactly the scope-local pending
        # seeds (the next solve must not boost a rolled-back literal) and
        # keep the older variable's
        problem = FiniteDomainProblem()
        x = problem.new_int("x", 0, 3)
        x_literals = [problem.value_literal(x, v) for v in x.domain]
        for solve_in_scope in (True, False):
            problem.push()
            y = problem.new_int("y", 0, 3)
            problem.prioritize(y, weight=1.0)
            problem.prioritize(x, weight=9.0)  # out of order on purpose
            if solve_in_scope:
                assert problem.solve() is not None
            problem.pop()
            pending = [] if solve_in_scope else x_literals
            assert [lit for lit, _ in problem._seeds] == pending
            solution = problem.solve()
            assert solution is not None and solution.value(x) in range(4)
            assert problem._seeds == []
            assert all(problem._solver.activity[lit] >= 9.0
                       for lit in x_literals)
