"""Unit tests for flat-arena kernel internals not visible at the API level.

The public solver contract is covered by test_smt_sat / test_smt_incremental
(which now run against the arena kernel) and by the differential suite.
This file pins down the rewrite-specific machinery: LBD clause-DB
reduction, the snapshot-backed model object, bulk clause loading, capacity
growth, and the lazy order-heap rebuild after pop.
"""

import random

import pytest

from repro.perf import PerfCounters
from repro.smt.cnf import CNF
from repro.smt.sat import (
    GLUE_LBD,
    SATSolver,
    _SnapshotModel,
)

from oracles.brute_force import solve_brute_force


def _hard_cnf(seed: int, num_vars: int = 40, clause_factor: float = 4.2) -> CNF:
    """A random 3-CNF near the phase transition: plenty of conflicts."""
    rng = random.Random(seed)
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(int(num_vars * clause_factor)):
        chosen = rng.sample(variables, 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


class TestClauseDatabaseReduction:
    def test_reduction_tombstones_learnts_and_preserves_status(self):
        reduced_somewhere = False
        for seed in range(12):
            cnf = _hard_cnf(seed)
            baseline = SATSolver.from_cnf(cnf).solve().status
            perf = PerfCounters()
            solver = SATSolver.from_cnf(cnf)
            solver.perf = perf
            solver._reduce_interval = 20  # force frequent reductions
            result = solver.solve()
            assert result.status == baseline, seed
            if perf.reductions:
                reduced_somewhere = True
                assert perf.learnts_deleted > 0
                # no pops happened: every tombstone is still in the arena
                assert sum(solver.c_dead) == perf.learnts_deleted
        assert reduced_somewhere

    def test_glue_and_locked_clauses_survive_reduction(self):
        solver = SATSolver.from_cnf(_hard_cnf(3))
        solver._reduce_interval = 20
        solver.solve()
        for index in range(len(solver.c_off)):
            if solver.c_dead[index]:
                assert solver.c_learnt[index], "problem clause tombstoned"
                assert solver.c_lbd[index] > GLUE_LBD, "glue clause deleted"

    def test_reduction_inside_scope_restores_learnt_count_on_pop(self):
        solver = SATSolver.from_cnf(_hard_cnf(5))
        assert solver.solve().status is not None
        outside = solver.num_learnts
        solver.push()
        solver._reduce_interval = 20
        extra = _hard_cnf(6, num_vars=30)
        offset = solver.num_vars
        solver.ensure_vars(offset + 30)
        for clause in extra.clauses:
            solver.add_clause([
                lit + offset if lit > 0 else lit - offset for lit in clause
            ])
        solver.solve()
        solver.pop()
        # pop subtracts scope learnts *and* pre-scope learnts tombstoned
        # while the scope was open
        live = sum(
            1 for index in range(len(solver.c_off))
            if solver.c_learnt[index] and not solver.c_dead[index]
        )
        assert solver.num_learnts == live <= outside


class TestSnapshotModel:
    def test_mapping_protocol(self):
        solver = SATSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-b])
        result = solver.solve()
        model = result.model
        assert isinstance(model, _SnapshotModel)
        assert model[a] is True and model[b] is False
        assert model.get(a) and not model.get(b)
        assert model.get(99, True) is True  # out of range -> default
        assert a in model and 99 not in model and "x" not in model
        assert len(model) == 2
        assert list(model) == [a, b]
        assert list(model.keys()) == [a, b]
        assert dict(model.items()) == {a: True, b: False}
        with pytest.raises(KeyError):
            model[99]
        assert result.value(a) and result.value(-b)

    def test_brute_force_oracle_still_returns_plain_dicts(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        assert solve_brute_force(cnf).model == {1: True}


class TestBulkLoading:
    def test_add_clauses_matches_per_clause_loading(self):
        for seed in range(10):
            cnf = _hard_cnf(seed, num_vars=12, clause_factor=3.0)
            bulk = SATSolver()
            bulk.ensure_vars(cnf.num_vars)
            bulk.add_clauses(cnf.lits, cnf.sizes)
            serial = SATSolver()
            serial.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                serial.add_clause(clause)
            assert bulk.solve().status == serial.solve().status, seed
            assert [sorted(c) for c in bulk.clauses] == [
                sorted(c) for c in serial.clauses
            ]

    @pytest.mark.parametrize("tier", ["arena", "native-c"])
    @pytest.mark.parametrize("lits, sizes", [([1, 2], []), ([1, 2], [3]),
                                             ([1, 2, 3], [1, 1])])
    def test_add_clauses_rejects_sizes_that_miss_the_literals(
            self, tier, lits, sizes):
        if tier == "arena":
            cls = SATSolver
        else:
            from repro.smt.native import c_solver_class

            try:
                cls = c_solver_class()
            except RuntimeError as exc:
                pytest.skip(str(exc))
        solver = cls()
        solver.ensure_vars(3)
        with pytest.raises(ValueError):
            solver.add_clauses(lits, sizes)

    def test_capacity_growth_preserves_state(self):
        solver = SATSolver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve().is_sat
        solver.ensure_vars(5000)  # forces several relayouts worth of growth
        b = 4999
        solver.add_clause([-a, b])
        result = solver.solve()
        assert result.is_sat and result.value(a) and result.value(b)


class TestLazyHeapRebuild:
    def test_pop_defers_heap_rebuild_to_next_solve(self):
        solver = SATSolver.from_cnf(_hard_cnf(1, num_vars=20))
        solver.solve()
        solver.push()
        solver.add_clause([solver.new_var()])
        solver.solve()
        solver.pop()
        assert solver._heap_dirty  # satellite: pop marks, solve rebuilds
        result = solver.solve()
        assert not solver._heap_dirty
        assert result.status == SATSolver.from_cnf(
            _hard_cnf(1, num_vars=20)).solve().status
