"""Tests for the incremental time phase and its mapper integration."""

import pytest

from repro.arch.cgra import CGRA
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.time_solver import IncrementalTimeSolver
from repro.graphs.dfg import DFG
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
            cgra, MapperConfig(total_timeout_seconds=60)
        ).map(dfg)
        coupled = SatMapItMapper(
            cgra, BaselineConfig(total_timeout_seconds=60)
        ).map(dfg)
        assert decoupled.success and coupled.success
        assert decoupled.ii == coupled.ii
        assert decoupled.mii == coupled.mii
        assert decoupled.mapping is not None

    def test_running_example_maps_at_paper_ii(self):
        result = MonomorphismMapper(
            CGRA(2, 2), MapperConfig(total_timeout_seconds=30)
        ).map(running_example_dfg())
        assert result.success and result.ii == 4
