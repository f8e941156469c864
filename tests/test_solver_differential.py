"""Differential property suite: flat-arena kernel vs the pre-rewrite kernel.

:mod:`repro.smt.sat` (the flat-arena rewrite) and
:mod:`repro.smt.sat_reference` (the pre-rewrite kernel, kept as the oracle)
must agree on *results* everywhere the repo exercises a solver:

* identical SAT/UNSAT status on random CNF across push/pop/assumption
  schedules (models are validated against the clauses, not compared --
  distinct kernels may return different satisfying assignments),
* identical failed-core *sets* for UNSAT answers under assumptions, with
  each core additionally re-asserted UNSAT on a fresh oracle solver,
* identical *model sets* under exhaustive blocking-clause enumeration
  (this is what proves the minimal-backtrack enumeration entry of the
  arena kernel sound: same models, no repeats, none missing),
* identical schedule feasibility and schedule counts on real time-phase
  instances driven through both backends of the SMT layer.

The seed base is fixed (overridable through ``REPRO_PROPERTY_SEED`` so CI
can pin it explicitly), making every run reproducible.
"""

import os
import random
import time

import pytest

from repro.arch.cgra import CGRA
from repro.core.config import MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.time_solver import IncrementalTimeSolver
from repro.smt.cnf import CNF
from repro.smt.csp import FiniteDomainProblem, resolve_solver_backend
from repro.smt.sat import SATSolver, solve_brute_force
from repro.smt.sat_reference import ReferenceSATSolver
from repro.workloads.suite import load_benchmark

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

TIME_PHASE_BENCHMARKS = ["bitcount", "gsm", "crc32"]


def _available_native_tiers():
    """Non-arena kernel tiers usable here, as ``{name: solver class}``.

    That is the C tier whenever cffi + a toolchain can build it (CI and
    the dev image both can); without it there is nothing to compare
    against arena, so the caller is skipped with the build error.
    """
    from repro.smt.native import c_solver_class

    try:
        return {"native-c": c_solver_class()}
    except RuntimeError as exc:
        pytest.skip(str(exc))


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        chosen = rng.sample(variables, min(width, num_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def _model_satisfies(result, cnf: CNF) -> bool:
    return all(any(result.value(lit) for lit in clause)
               for clause in cnf.clauses)


class TestRandomCNF:
    def test_status_and_core_sets_match_across_assumption_schedules(self):
        cores_checked = 0
        for case in range(120):
            rng = random.Random(SEED_BASE + case)
            num_vars = rng.randint(3, 10)
            cnf = _random_cnf(rng, num_vars, rng.randint(3, 30))
            arena = SATSolver.from_cnf(cnf)
            reference = ReferenceSATSolver.from_cnf(cnf)
            for _ in range(4):
                k = rng.randint(0, min(4, num_vars))
                variables = rng.sample(range(1, num_vars + 1), k)
                assumptions = [
                    v if rng.random() < 0.5 else -v for v in variables
                ]
                res_a = arena.solve(assumptions=assumptions)
                res_r = reference.solve(assumptions=assumptions)
                assert res_a.status == res_r.status, (case, assumptions)
                if res_a.is_sat:
                    assert _model_satisfies(res_a, cnf), case
                    assert all(res_a.value(lit) for lit in assumptions)
                elif res_a.core is not None:
                    assert res_r.core is not None, case
                    assert set(res_a.core) == set(res_r.core), (
                        case, assumptions, res_a.core, res_r.core)
                    assert set(res_a.core) <= set(assumptions), case
                    # the core is genuinely inconsistent: re-asserting it
                    # on a fresh oracle solver is UNSAT
                    oracle = ReferenceSATSolver.from_cnf(cnf)
                    for literal in res_a.core:
                        oracle.add_clause([literal])
                    assert oracle.solve().is_unsat, (case, res_a.core)
                    cores_checked += 1
        assert cores_checked >= 10  # the sweep must actually exercise cores

    def test_status_matches_across_push_pop_interleavings(self):
        for case in range(80):
            rng = random.Random(SEED_BASE + 10_000 + case)
            num_vars = rng.randint(3, 8)
            variables = list(range(1, num_vars + 1))
            cnf = _random_cnf(rng, num_vars, rng.randint(2, 14))
            arena = SATSolver.from_cnf(cnf)
            reference = ReferenceSATSolver.from_cnf(cnf)
            for step in range(12):
                action = rng.random()
                if action < 0.3 and arena.scope_depth < 3:
                    arena.push()
                    reference.push()
                elif action < 0.45 and arena.scope_depth > 0:
                    arena.pop()
                    reference.pop()
                elif action < 0.6:
                    width = rng.randint(1, 3)
                    chosen = rng.sample(variables, min(width, num_vars))
                    clause = [
                        v if rng.random() < 0.5 else -v for v in chosen
                    ]
                    arena.add_clause(list(clause))
                    reference.add_clause(list(clause))
                elif action < 0.8:
                    res_a = arena.solve()
                    res_r = reference.solve()
                    assert res_a.status == res_r.status, (case, step)
                else:
                    k = rng.randint(1, min(3, num_vars))
                    assumptions = [
                        v if rng.random() < 0.5 else -v
                        for v in rng.sample(variables, k)
                    ]
                    res_a = arena.solve(assumptions=assumptions)
                    res_r = reference.solve(assumptions=assumptions)
                    assert res_a.status == res_r.status, (case, step)
                    if res_a.is_unsat and res_a.core is not None:
                        assert res_r.core is not None
                        assert set(res_a.core) == set(res_r.core), (
                            case, step)

    def test_exhaustive_model_enumeration_matches(self):
        """Same model *sets* under blocking-clause enumeration.

        This exercises the arena kernel's minimal-backtrack solve entry
        (blocking clause integrated into the deep trail) against the
        reference kernel's restart-from-scratch enumeration, and against
        the brute-force oracle.
        """

        def enumerate_models(solver, num_vars):
            models = set()
            while True:
                result = solver.solve()
                if not result.is_sat:
                    return models
                model = tuple(
                    result.value(v) for v in range(1, num_vars + 1)
                )
                assert model not in models, "kernel repeated a model"
                models.add(model)
                solver.add_clause([
                    (-v if model[v - 1] else v)
                    for v in range(1, num_vars + 1)
                ])

        for case in range(40):
            rng = random.Random(SEED_BASE + 20_000 + case)
            num_vars = rng.randint(2, 7)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 3 * num_vars))
            arena_models = enumerate_models(SATSolver.from_cnf(cnf), num_vars)
            reference_models = enumerate_models(
                ReferenceSATSolver.from_cnf(cnf), num_vars)
            assert arena_models == reference_models, case
            expected = solve_brute_force(cnf)
            assert expected.is_sat == bool(arena_models), case


class TestTimePhaseInstances:
    """Both backends on the real formulas the mapper produces."""

    def test_schedule_feasibility_and_counts_match(self):
        for name in TIME_PHASE_BENCHMARKS:
            dfg = load_benchmark(name)
            cgra = CGRA(4, 4)
            solvers = {
                backend: IncrementalTimeSolver(
                    dfg, cgra,
                    MapperConfig(solver_backend=cls),
                )
                for backend, cls in (("arena", SATSolver),
                                     ("reference", ReferenceSATSolver))
            }
            from repro.graphs.analysis import rec_ii, res_ii
            mii = max(res_ii(dfg, cgra.num_pes), rec_ii(dfg))
            for ii in range(max(1, mii - 1), mii + 3):
                counts = {}
                for backend, solver in solvers.items():
                    counts[backend] = sum(
                        1 for _ in solver.iter_schedules(
                            ii, limit=6, timeout_seconds=60)
                    )
                assert counts["arena"] == counts["reference"], (name, ii)

    def test_backend_threads_through_the_mapper(self):
        dfg = load_benchmark("bitcount")
        results = {
            backend: MonomorphismMapper(
                CGRA(4, 4), MapperConfig(solver_backend=backend)
            ).map(dfg)
            for backend in ("arena", ReferenceSATSolver)
        }
        arena = results["arena"]
        reference = results[ReferenceSATSolver]
        assert arena.status == reference.status
        assert arena.ii == reference.ii
        assert arena.stats["backend"] == "arena"
        # an injected class is not a backend name: no stamp
        assert "backend" not in reference.stats

    def test_resolve_solver_backend(self):
        assert resolve_solver_backend("arena") is SATSolver
        assert resolve_solver_backend(None) is SATSolver
        assert resolve_solver_backend(ReferenceSATSolver) is ReferenceSATSolver
        # the removed spellings name no kernel any more
        for name in ("nope", "reference", "native-c", "default", "flat"):
            with pytest.raises(ValueError, match="arena, native"):
                resolve_solver_backend(name)

    def test_reference_backend_through_finite_domain_problem(self):
        problem = FiniteDomainProblem(solver_cls=ReferenceSATSolver)
        x = problem.new_int("x", 0, 3)
        y = problem.new_int("y", 0, 3)
        problem.add_ge(y, x, 1)
        solution = problem.solve()
        assert solution is not None
        assert solution.value(y) >= solution.value(x) + 1
        seen = {
            (s.value(x), s.value(y))
            for s in problem.enumerate_solutions(block_on=[x, y])
        }
        assert seen == {(a, b) for a in range(4) for b in range(4) if b >= a + 1}


class TestNativeBackendMatrix:
    """The compiled C tier must be *bit-identical* to the arena solver.

    The C tier reuses the arena solver's state and algorithms (its
    kernel mirrors the hot loop), so the contract is stronger than the reference oracle's: not
    just equal statuses and core sets, but identical models, identical
    core literal order, and identical conflict/decision/propagation
    counters. Tier detection relies on this (a host without a C compiler
    computes the same mappings and keys), and so does the daemon's crash
    demotion to arena, which keeps the job's store key.
    """

    @staticmethod
    def _enumerate(solver, num_vars):
        models = []
        while True:
            result = solver.solve()
            if not result.is_sat:
                return models
            model = tuple(result.value(v) for v in range(1, num_vars + 1))
            models.append(model)
            solver.add_clause([
                (-v if model[v - 1] else v) for v in range(1, num_vars + 1)
            ])

    def test_statuses_models_cores_and_counters_match_arena(self):
        for tier, cls in _available_native_tiers().items():
            for case in range(40):
                rng = random.Random(SEED_BASE + 30_000 + case)
                num_vars = rng.randint(3, 12)
                cnf = _random_cnf(rng, num_vars, rng.randint(3, 40))
                arena = SATSolver.from_cnf(cnf)
                native = cls.from_cnf(cnf)
                for _ in range(4):
                    k = rng.randint(0, min(4, num_vars))
                    variables = rng.sample(range(1, num_vars + 1), k)
                    assumptions = [
                        v if rng.random() < 0.5 else -v for v in variables
                    ]
                    res_a = arena.solve(assumptions=assumptions)
                    res_n = native.solve(assumptions=assumptions)
                    context = (tier, case, assumptions)
                    assert res_n.status == res_a.status, context
                    assert res_n.conflicts == res_a.conflicts, context
                    assert res_n.decisions == res_a.decisions, context
                    assert res_n.propagations == res_a.propagations, context
                    if res_a.is_sat:
                        model_a = tuple(
                            res_a.value(v) for v in range(1, num_vars + 1))
                        model_n = tuple(
                            res_n.value(v) for v in range(1, num_vars + 1))
                        assert model_n == model_a, context
                    else:
                        assert res_n.core == res_a.core, context

    def test_enumeration_model_sequences_match_arena(self):
        """Same models in the same order, not merely the same set."""
        for tier, cls in _available_native_tiers().items():
            for case in range(15):
                rng = random.Random(SEED_BASE + 40_000 + case)
                num_vars = rng.randint(2, 7)
                cnf = _random_cnf(rng, num_vars, rng.randint(1, 3 * num_vars))
                seq_a = self._enumerate(SATSolver.from_cnf(cnf), num_vars)
                seq_n = self._enumerate(cls.from_cnf(cnf), num_vars)
                assert seq_n == seq_a, (tier, case)

    def test_time_phase_schedule_counts_match_arena(self):
        from repro.graphs.analysis import rec_ii, res_ii

        backends = dict(_available_native_tiers(), arena=SATSolver)
        for name in ("bitcount", "gsm"):
            dfg = load_benchmark(name)
            cgra = CGRA(4, 4)
            solvers = {
                backend: IncrementalTimeSolver(
                    dfg, cgra, MapperConfig(solver_backend=cls))
                for backend, cls in backends.items()
            }
            mii = max(res_ii(dfg, cgra.num_pes), rec_ii(dfg))
            for ii in range(max(1, mii - 1), mii + 2):
                counts = {
                    backend: sum(
                        1 for _ in solver.iter_schedules(
                            ii, limit=6, timeout_seconds=60)
                    )
                    for backend, solver in solvers.items()
                }
                assert len(set(counts.values())) == 1, (name, ii, counts)

    def test_removed_numpy_tier_is_rejected(self):
        with pytest.raises(ValueError, match="arena, native"):
            resolve_solver_backend("numpy")

    def test_native_spellings_resolve_and_record_their_tier(self):
        from repro.smt.native import native_solver_class, selected_tier

        assert resolve_solver_backend("native") is native_solver_class()
        assert selected_tier() in ("native-c", "arena")
        assert native_solver_class().tier == selected_tier()
        for tier, cls in _available_native_tiers().items():
            assert cls.tier == tier
            assert selected_tier() == tier

        dfg = load_benchmark("bitcount")
        arena = MonomorphismMapper(
            CGRA(4, 4), MapperConfig(solver_backend="arena")).map(dfg)
        native = MonomorphismMapper(
            CGRA(4, 4), MapperConfig(solver_backend="native")).map(dfg)
        assert native.status == arena.status
        assert native.ii == arena.ii
        assert native.stats["backend"] == "native"
        assert native.stats["solver_tier"] == selected_tier()
        assert "solver_tier" not in arena.stats


class TestCTierUnderSamplingProfiler:
    """A ``SIGPROF`` tick during a C-tier search must not pin a buffer.

    The sampling profiler's handler can keep a zero-copy
    ``ffi.from_buffer`` view alive past the search call; the next
    ``add_clauses`` then fails to grow the viewed array with
    ``BufferError: Existing exports of data``.
    """

    def test_enumeration_survives_an_armed_profiler(self):
        from repro.graphs.analysis import rec_ii, res_ii
        from repro.obs import profiler

        (cls,) = _available_native_tiers().values()
        if not profiler.start(0.0005):
            pytest.skip("sampling profiler unavailable (needs SIGPROF)")
        try:
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                for name in ("gsm", "aes", "crc32", "bitcount"):
                    dfg = load_benchmark(name)
                    cgra = CGRA(4, 4)
                    solver = IncrementalTimeSolver(
                        dfg, cgra, MapperConfig(solver_backend=cls))
                    mii = max(res_ii(dfg, cgra.num_pes), rec_ii(dfg))
                    for ii in range(mii, mii + 3):
                        for _ in solver.iter_schedules(
                                ii, limit=8, timeout_seconds=60):
                            pass
        finally:
            # an itimer left armed kills the process at exit
            profiler.stop()
            profiler.reset()
