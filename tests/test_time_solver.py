"""Unit tests for the time phase (modulo scheduling via SAT)."""

import time

import pytest

from repro.arch.cgra import CGRA
from repro.core.config import MapperConfig
from repro.core.exceptions import PhaseTimeoutError
from repro.core.time_solver import IncrementalTimeSolver, Schedule
from repro.graphs.analysis import min_ii
from repro.graphs.dfg import DFG
from repro.graphs.generators import chain_dfg, random_dfg


def _check_schedule(schedule: Schedule, cgra: CGRA) -> None:
    """All three constraint families of paper Sec. IV-B must hold."""
    assert schedule.validate_dependences() == []
    assert schedule.max_slot_population() <= cgra.num_pes
    degree = cgra.connectivity_degree
    for node in schedule.dfg.node_ids():
        for slot in range(schedule.ii):
            assert schedule.neighbor_slot_count(node, slot) <= degree


class TestScheduleObject:
    def test_slots_and_iterations(self, example_dfg):
        schedule = Schedule(example_dfg, ii=4,
                            start_times={n: n % 6 for n in example_dfg.node_ids()})
        assert schedule.slot(5) == 1
        assert schedule.iteration(5) == 1
        assert schedule.length == 6
        assert schedule.num_stages == 2

    def test_dependence_validation_flags_violations(self, example_dfg):
        start_times = {n: 0 for n in example_dfg.node_ids()}
        schedule = Schedule(example_dfg, ii=4, start_times=start_times)
        assert schedule.validate_dependences() != []


class TestTimeSolver:
    def test_running_example_at_mii(self, example_dfg, cgra_2x2):
        schedule = IncrementalTimeSolver(example_dfg, cgra_2x2).solve(4)
        assert schedule is not None
        assert schedule.ii == 4
        _check_schedule(schedule, cgra_2x2)

    def test_below_rec_ii_is_unsat(self, example_dfg, cgra_2x2):
        assert IncrementalTimeSolver(example_dfg, cgra_2x2).solve(3) is None

    def test_capacity_constraint_enforced(self):
        # 6 independent nodes, 2-PE-ish CGRA (2x2 = 4 PEs), II = 1:
        # capacity 4 < 6 nodes, so no schedule exists.
        dfg = DFG()
        for i in range(6):
            dfg.add_node(i)
        dfg.add_data_edge(0, 5)  # keep it connected
        cgra = CGRA(2, 2)
        assert IncrementalTimeSolver(dfg, cgra).solve(1) is None
        assert IncrementalTimeSolver(dfg, cgra).solve(2) is not None

    def test_capacity_can_be_disabled_for_ablation(self):
        dfg = DFG()
        for i in range(6):
            dfg.add_node(i)
        dfg.add_data_edge(0, 5)
        config = MapperConfig(enforce_capacity=False)
        schedule = IncrementalTimeSolver(dfg, CGRA(2, 2), config).solve(1)
        assert schedule is not None
        assert schedule.max_slot_population() > 4  # violates capacity knowingly

    def test_connectivity_constraint(self, cgra_2x2):
        # a star with 5 leaves: the centre has 5 neighbours but D_M = 3 on a
        # 2x2 CGRA, so at most 3 of them may share a slot.
        dfg = DFG()
        centre = dfg.add_node(0).id
        for i in range(1, 6):
            dfg.add_node(i)
            dfg.add_data_edge(i, centre)
        schedule = IncrementalTimeSolver(dfg, cgra_2x2).solve(2, slack=2)
        assert schedule is not None
        for slot in range(schedule.ii):
            assert schedule.neighbor_slot_count(centre, slot) <= 3

    def test_chain_schedules_are_asap_like(self, cgra_4x4):
        dfg = chain_dfg(6)
        schedule = IncrementalTimeSolver(dfg, cgra_4x4).solve(6)
        assert schedule is not None
        _check_schedule(schedule, cgra_4x4)

    def test_loop_carried_allows_wrap(self, cgra_4x4):
        dfg = chain_dfg(4)  # recurrence of length 4
        schedule = IncrementalTimeSolver(dfg, cgra_4x4).solve(4)
        assert schedule is not None
        # the loop-carried edge is satisfied modulo II
        assert schedule.validate_dependences() == []

    def test_iter_schedules_are_distinct_and_valid(self, example_dfg, cgra_2x2):
        solver = IncrementalTimeSolver(example_dfg, cgra_2x2)
        schedules = list(solver.iter_schedules(4, limit=5))
        assert 1 <= len(schedules) <= 5
        signatures = {tuple(sorted(s.start_times.items())) for s in schedules}
        assert len(signatures) == len(schedules)
        for schedule in schedules:
            _check_schedule(schedule, cgra_2x2)

    def test_slack_override_extends_windows(self, example_dfg, cgra_2x2):
        solver = IncrementalTimeSolver(example_dfg, cgra_2x2)
        schedule = solver.solve(4, slack=3)
        assert solver.mobs.length == 9
        assert schedule is not None
        _check_schedule(schedule, cgra_2x2)

    def test_auto_slack_for_dense_graphs(self):
        # more nodes than PEs * critical path: the horizon must be extended
        dfg = DFG()
        for i in range(10):
            dfg.add_node(i)
        for i in range(1, 10):
            dfg.add_data_edge(0, i)
        cgra = CGRA(2, 2)
        # the automatic horizon extension guarantees at least ResII steps ...
        assert IncrementalTimeSolver(dfg, cgra).mobs.length >= 3
        # ... but this star-shaped graph needs one more; the mapper finds it
        # through its horizon-retry loop, here we pass the slack explicitly
        schedule = IncrementalTimeSolver(dfg, cgra).solve(3, slack=2)
        assert schedule is not None
        _check_schedule(schedule, cgra)

    def test_invalid_ii(self, example_dfg, cgra_2x2):
        with pytest.raises(ValueError):
            IncrementalTimeSolver(example_dfg, cgra_2x2).solve(0)

    def test_random_dfg_schedules_satisfy_all_constraints(self, cgra_4x4):
        for seed in range(5):
            dfg = random_dfg(14, num_loop_carried=2, seed=seed)
            schedule = IncrementalTimeSolver(dfg, cgra_4x4).solve(
                max(4, seed + 4))
            if schedule is not None:
                _check_schedule(schedule, cgra_4x4)


class TestPrepareIsCharged:
    """The horizon rebuild and the attempt's scope encoding (``_prepare``)
    run on the phase budget, which starts when the call is made. A budget
    spent there is a timeout, never an empty enumeration the mapper would
    read as "II infeasible"."""

    BUDGET = 0.1

    @pytest.fixture
    def slow_prepare(self, monkeypatch):
        original = IncrementalTimeSolver._prepare

        def slow(self, *args, **kwargs):
            time.sleep(1.5 * TestPrepareIsCharged.BUDGET)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalTimeSolver, "_prepare", slow)

    def test_iter_schedules_times_out_in_prepare(self, slow_prepare,
                                                 example_dfg, cgra_2x2):
        solver = IncrementalTimeSolver(example_dfg, cgra_2x2)
        schedules = solver.iter_schedules(
            min_ii(example_dfg, cgra_2x2.num_pes), timeout_seconds=self.BUDGET)
        with pytest.raises(PhaseTimeoutError):
            next(schedules)

    def test_solve_times_out_in_prepare(self, slow_prepare, example_dfg,
                                        cgra_2x2):
        solver = IncrementalTimeSolver(example_dfg, cgra_2x2)
        with pytest.raises(PhaseTimeoutError):
            solver.solve(min_ii(example_dfg, cgra_2x2.num_pes),
                         timeout_seconds=self.BUDGET)
