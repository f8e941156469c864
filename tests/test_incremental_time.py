"""Tests for the incremental time phase and its mapper integration."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.space_solver import SpaceSolver
from repro.core.time_solver import IncrementalTimeSolver
from repro.core.validation import validate_mapping
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.graphs.analysis import min_ii
from repro.graphs.dfg import DFG
from repro.graphs.generators import random_dfg
from repro.sim.executor import run_and_compare
from repro.sim.machine import DataMemory
from repro.workloads.running_example import running_example_dfg
from repro.workloads.suite import load_benchmark


def _check_schedule(schedule, cgra) -> None:
    assert schedule.validate_dependences() == []
    assert schedule.max_slot_population() <= cgra.num_pes
    degree = cgra.connectivity_degree
    for node in schedule.dfg.node_ids():
        for slot in range(schedule.ii):
            assert schedule.neighbor_slot_count(node, slot) <= degree


class TestIncrementalTimeSolver:
    def test_matches_reencoding_solver_across_ii_sweep(self):
        """One instance swept over (II, slack) agrees with a fresh instance
        per attempt: the swept one carries the horizon in scoped clauses
        (plus rebuilds), the fresh one in its variable domains."""
        cases = [
            (running_example_dfg(), CGRA(2, 2), range(3, 7)),
            (load_benchmark("bitcount"), CGRA(2, 2), range(2, 5)),
            (load_benchmark("gsm"), CGRA(4, 4), range(3, 7)),
        ]
        for dfg, cgra, iis in cases:
            incremental = IncrementalTimeSolver(dfg, cgra)
            for ii in iis:
                for slack in (0, 1, 2):
                    fresh = IncrementalTimeSolver(dfg, cgra).solve(
                        ii, slack=slack, timeout_seconds=30
                    )
                    reused = incremental.solve(ii, slack=slack,
                                               timeout_seconds=30)
                    assert (fresh is None) == (reused is None), (
                        dfg.name, ii, slack)
                    if reused is not None:
                        assert reused.ii == ii
                        _check_schedule(reused, cgra)

    def test_below_rec_ii_is_unsat(self):
        incremental = IncrementalTimeSolver(running_example_dfg(), CGRA(2, 2))
        assert incremental.solve(3) is None
        assert incremental.solve(4) is not None

    def test_capacity_constraint_enforced(self):
        dfg = DFG()
        for i in range(6):
            dfg.add_node(i)
        dfg.add_data_edge(0, 5)
        incremental = IncrementalTimeSolver(dfg, CGRA(2, 2))
        assert incremental.solve(1) is None  # 6 nodes > 4 PEs in one slot
        assert incremental.solve(2) is not None

    def test_enumeration_is_distinct_and_blocking_is_retracted(self):
        incremental = IncrementalTimeSolver(running_example_dfg(), CGRA(2, 2))
        schedules = list(incremental.iter_schedules(4, limit=5))
        assert 1 <= len(schedules) <= 5
        signatures = {
            tuple(sorted(s.start_times.items())) for s in schedules
        }
        assert len(signatures) == len(schedules)
        # moving to another II and back retracts the blocking clauses
        assert incremental.solve(5) is not None
        assert incremental.solve(4) is not None
        # full enumerations are order-independent: running one after another
        # proves every blocking clause of the first was retracted
        first = {
            tuple(sorted(s.start_times.items()))
            for s in incremental.iter_schedules(4, limit=10_000)
        }
        second = {
            tuple(sorted(s.start_times.items()))
            for s in incremental.iter_schedules(4, limit=10_000)
        }
        assert first and first == second
        assert signatures <= first

    def test_horizon_rebuild_on_large_slack(self):
        incremental = IncrementalTimeSolver(running_example_dfg(), CGRA(2, 2))
        small = incremental.max_slack
        schedule = incremental.solve(6, slack=small + 5)
        assert incremental._rebuilds == 1
        assert incremental.max_slack > small
        assert schedule is not None
        _check_schedule(schedule, CGRA(2, 2))

    def test_invalid_ii(self):
        incremental = IncrementalTimeSolver(running_example_dfg(), CGRA(2, 2))
        with pytest.raises(ValueError):
            incremental.solve(0)


class TestMapperIntegration:
    @pytest.mark.parametrize("name,size", [
        ("bitcount", (2, 2)),
        ("susan", (4, 4)),
        ("gsm", (4, 4)),
        ("crc32", (4, 4)),
    ])
    def test_incremental_and_reencoding_mappers_agree(self, name, size):
        """The decoupled mapper reaches the coupled SAT-MapIt baseline's
        II, which re-encodes its whole formula for every II."""
        dfg = load_benchmark(name)
        cgra = CGRA(*size)
        decoupled = MonomorphismMapper(
            cgra, MapperConfig(budget_seconds=60)
        ).map(dfg)
        coupled = SatMapItMapper(
            cgra, BaselineConfig(budget_seconds=60)
        ).map(dfg)
        assert decoupled.success and coupled.success
        assert decoupled.ii == coupled.ii
        assert decoupled.mii == coupled.mii
        assert decoupled.mapping is not None

    def test_running_example_maps_at_paper_ii(self):
        result = MonomorphismMapper(
            CGRA(2, 2), MapperConfig(budget_seconds=30)
        ).map(running_example_dfg())
        assert result.success and result.ii == 4


def _labelling(schedule):
    return tuple(sorted(schedule.labels().items()))


class TestSlotPatternEnumeration:
    """``iter_schedules`` walks distinct slot patterns, not start times.

    Each instance is also enumerated exactly (one blocking clause per full
    start-time assignment) to check that the slot projection loses no
    labelling and excludes only schedules the space phase treats exactly
    like the twin it yielded.
    """

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_nodes=st.integers(min_value=3, max_value=7),
        num_loop_carried=st.integers(min_value=0, max_value=2),
        side=st.sampled_from([2, 3]),
        ii_offset=st.integers(min_value=0, max_value=2),
        slack=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_projection_is_distinct_complete_and_sound(
        self, num_nodes, num_loop_carried, side, ii_offset, slack, seed
    ):
        dfg = random_dfg(num_nodes, edge_probability=0.3,
                         num_loop_carried=num_loop_carried, seed=seed)
        cgra = CGRA(side, side)
        ii = min_ii(dfg, cgra.num_pes) + ii_offset
        assume(ii <= 3)
        config = MapperConfig()

        yielded = list(IncrementalTimeSolver(dfg, cgra, config).iter_schedules(
            ii, slack=slack, limit=None))
        by_labels = {_labelling(s): s for s in yielded}
        assert len(by_labels) == len(yielded)

        exact_solver = IncrementalTimeSolver(dfg, cgra, config)
        exact_solver._prepare(ii, slack)
        exact = [
            exact_solver._to_schedule(ii, solution)
            for solution in exact_solver.problem.enumerate_solutions()
        ]
        assert {_labelling(s) for s in exact} == set(by_labels)

        space = SpaceSolver(cgra, config)
        found = {key: space.solve(s).found for key, s in by_labels.items()}
        for schedule in exact:
            assert space.solve(schedule).found == found[_labelling(schedule)]


class TestSlotPatternMapping:
    def test_stencil3_maps_at_ii2_on_8x8_torus(self):
        """At II=1 every schedule of stencil3 has the same (all-zero) slot
        pattern: the time phase offers it once, and the distinct patterns
        of II=2 fit under the per-II cap where start times did not."""
        program = extract_dfg(EXAMPLE_KERNELS["stencil3"], name="stencil3")
        result = MonomorphismMapper(CGRA(8, 8), MapperConfig()).map(program.dfg)
        assert result.success
        assert result.stats["per_ii"][0]["ii"] == 1
        assert result.stats["per_ii"][0]["schedules"] == 1
        assert result.ii == 2
        assert validate_mapping(result.mapping) == []
        run_and_compare(result.mapping, iterations=6, memory=DataMemory(),
                        initial_values=program.initial_values)
