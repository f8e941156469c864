"""Unit and property tests for the CNF container and the CDCL SAT solver."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.cnf import CNF, FALSE_LIT, TRUE_LIT, negate
from repro.smt.sat import SATSolver, SolveStatus

from oracles.brute_force import solve_brute_force


class TestCNF:
    def test_tautology_dropped(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v, -v])
        assert cnf.num_clauses == 0

    def test_constant_literals(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([TRUE_LIT, v])        # dropped
        cnf.add_clause([FALSE_LIT, v])       # reduces to [v]
        assert cnf.clauses == [[v]]
        cnf.add_clause([FALSE_LIT])
        assert cnf.contradiction

    def test_negate(self):
        assert negate(3) == -3
        assert negate(TRUE_LIT) == FALSE_LIT
        assert negate(FALSE_LIT) == TRUE_LIT

    def test_invalid_literal(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([0])


class TestSATSolverBasics:
    def test_trivial_sat(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        result = solver.solve()
        assert result.is_sat and result.value(a)

    def test_trivial_unsat(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve().is_unsat

    def test_empty_clause_is_unsat(self):
        solver = SATSolver()
        solver.add_clause([])
        assert solver.solve().is_unsat

    def test_implication_chain(self):
        solver = SATSolver()
        variables = [solver.new_var() for _ in range(20)]
        solver.add_clause([variables[0]])
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([-a, b])
        result = solver.solve()
        assert result.is_sat
        assert all(result.value(v) for v in variables)

    def test_exactly_one_of_three(self):
        solver = SATSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b, c])
        for x, y in [(a, b), (a, c), (b, c)]:
            solver.add_clause([-x, -y])
        result = solver.solve()
        assert result.is_sat
        assert sum(result.value(v) for v in (a, b, c)) == 1

    def test_pigeonhole_unsat(self):
        # 4 pigeons into 3 holes: classic small UNSAT instance.
        solver = SATSolver()
        holes = 3
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
        assert solver.solve().is_unsat

    def test_model_enumeration_via_blocking_clauses(self):
        solver = SATSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        models = set()
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            model = (result.value(a), result.value(b))
            models.add(model)
            solver.add_clause([
                -a if model[0] else a,
                -b if model[1] else b,
            ])
        assert models == {(True, True), (True, False), (False, True)}

    def test_conflict_budget_returns_unknown(self):
        solver = SATSolver()
        variables = [solver.new_var() for _ in range(30)]
        rng = random.Random(0)
        for _ in range(130):
            clause = rng.sample(variables, 3)
            solver.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        result = solver.solve(max_conflicts=1)
        assert result.status in (SolveStatus.SAT, SolveStatus.UNSAT,
                                 SolveStatus.UNKNOWN)

    def test_from_cnf(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        assert SATSolver.from_cnf(cnf).solve().is_sat
        cnf.add_clause([FALSE_LIT])
        assert SATSolver.from_cnf(cnf).solve().is_unsat


def _random_cnf(num_vars: int, num_clauses: int, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        chosen = rng.sample(variables, min(width, num_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        num_vars=st.integers(min_value=2, max_value=10),
        num_clauses=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    def test_cdcl_agrees_with_brute_force(self, num_vars, num_clauses, seed):
        cnf = _random_cnf(num_vars, num_clauses, seed)
        expected = solve_brute_force(cnf)
        solver = SATSolver.from_cnf(cnf)
        result = solver.solve()
        assert result.status == expected.status
        if result.is_sat:
            # the model must actually satisfy every clause
            for clause in cnf.clauses:
                assert any(result.value(lit) for lit in clause)

    def test_brute_force_guard(self):
        cnf = _random_cnf(30, 10, 0)
        with pytest.raises(ValueError):
            solve_brute_force(cnf)


def _pigeonhole(solver, holes: int) -> None:
    """``holes + 1`` pigeons into ``holes`` holes: UNSAT, and hard for
    CDCL (resolution proofs of it are exponential; Haken, TCS 1985)."""
    pigeons = holes + 1
    var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        solver.add_clause(var[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1][h], -var[p2][h]])


def _solver_tiers():
    """The arena kernel, plus the C kernel where it builds."""
    from repro.smt.native import c_solver_class

    tiers = [SATSolver]
    try:
        tiers.append(c_solver_class())
    except RuntimeError:
        pass
    return tiers


class TestBudgetIsABound:
    """A solve with a time budget returns within the budget plus a small
    epsilon. The clock is read at every 64th conflict; it used to be read
    only on conflict-free steps, and a run of back-to-back conflicts
    stepped over those, so polls came up to 448 conflicts apart."""

    #: allowed overrun of a wall-clock budget: one poll window of a
    #: pigeonhole solve is a few ms in C and up to ~50 ms in the arena
    #: kernel; the rest is headroom for a loaded host
    EPSILON_SECONDS = 0.25

    @pytest.mark.parametrize("budget_conflicts", [100, 200, 300, 500, 700])
    def test_the_clock_is_read_at_every_64th_conflict(self, monkeypatch,
                                                      budget_conflicts):
        # a clock that advances one millisecond per conflict makes the
        # poll points, not the host, decide where the search stops
        import repro.smt.sat as sat_module

        solver = SATSolver()
        _pigeonhole(solver, 9)
        monkeypatch.setattr(sat_module, "time", type("ConflictClock", (), {
            "monotonic": staticmethod(lambda: solver.conflicts * 1e-3)}))
        result = solver.solve(timeout_seconds=budget_conflicts * 1e-3)
        assert result.status is SolveStatus.UNKNOWN
        # the first multiple of 64 past the deadline reads the clock, and
        # the search stops at the next conflict-free step after it
        first_poll = (budget_conflicts // 64 + 1) * 64
        assert first_poll <= result.conflicts < first_poll + 64

    @pytest.mark.parametrize("scoped", [False, True])
    def test_a_wall_clock_budget_holds_on_every_tier(self, scoped):
        for cls in _solver_tiers():
            solver = cls()
            if scoped:  # the time phase solves inside a clause scope
                solver.push()
            _pigeonhole(solver, 10)
            budget = 0.4
            started = time.monotonic()
            result = solver.solve(timeout_seconds=budget)
            elapsed = time.monotonic() - started
            assert result.status is SolveStatus.UNKNOWN, cls.tier
            assert elapsed <= budget + self.EPSILON_SECONDS, (cls.tier, elapsed)

    def test_the_c_kernel_logs_each_watch_list_once_per_call(self):
        # pop() reads the watch log as a set of literals; logging every
        # watch move made the C kernel hand back tens of millions of
        # entries on long solves, copied after the budget had run out
        from repro.smt.native import c_solver_class

        try:
            cls = c_solver_class()
        except RuntimeError as exc:
            pytest.skip(str(exc))
        self._assert_each_literal_logged_once(cls)

    def test_the_arena_kernel_logs_each_watch_list_once_per_call(self):
        # the same 2,000 conflicts used to log 247,982 entries for 143
        # literals on this tier
        self._assert_each_literal_logged_once(SATSolver)

    @staticmethod
    def _assert_each_literal_logged_once(cls):
        solver = cls()
        solver.push()
        _pigeonhole(solver, 8)
        before = len(solver._watch_log)
        result = solver.solve(max_conflicts=2000)
        assert result.status is SolveStatus.UNKNOWN
        logged = solver._watch_log[before:]
        assert logged and len(logged) == len(set(logged))
        solver.pop()
        assert solver.solve().is_sat
