"""Unit tests for ASAP/ALAP/MobS, ResII, RecII and mII (paper Sec. IV-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.analysis import (
    MobilitySchedule,
    alap_schedule,
    asap_schedule,
    critical_path_length,
    min_ii,
    mobility_schedule,
    rec_ii,
    res_ii,
)
from repro.graphs.generators import binary_tree_dfg, chain_dfg, random_dfg

from oracles.graphs import rec_ii_by_cycle_enumeration


class TestAsapAlap:
    def test_chain(self):
        dfg = chain_dfg(5, loop_carried=False)
        asap = asap_schedule(dfg)
        assert [asap[i] for i in range(5)] == [0, 1, 2, 3, 4]
        alap = alap_schedule(dfg)
        assert alap == asap  # a pure chain has no mobility

    def test_tree_mobility(self):
        dfg = binary_tree_dfg(2)  # 4 leaves, 3 adds
        mobs = mobility_schedule(dfg)
        assert critical_path_length(dfg) == 3
        # leaves feeding the root's child adders have zero mobility; the
        # deeper leaves would only exist in unbalanced trees
        assert all(mobs.mobility(n) >= 0 for n in dfg.node_ids())

    def test_running_example_matches_paper_table1(self, example_dfg):
        mobs = mobility_schedule(example_dfg)
        assert mobs.asap_rows() == [
            [0, 1, 2, 3, 4], [5, 11], [6, 12], [7, 8, 13], [9], [10]]
        assert mobs.alap_rows() == [
            [4], [3, 5], [0, 2, 6], [1, 8, 11], [7, 9, 12], [10, 13]]
        assert mobs.rows() == [
            [0, 1, 2, 3, 4],
            [0, 1, 2, 3, 5, 11],
            [0, 1, 2, 6, 11, 12],
            [1, 7, 8, 11, 12, 13],
            [7, 9, 12, 13],
            [10, 13],
        ]

    def test_alap_horizon_extension(self, example_dfg):
        longer = alap_schedule(example_dfg, horizon=8)
        baseline = alap_schedule(example_dfg)
        assert all(longer[n] == baseline[n] + 2 for n in example_dfg.node_ids())

    def test_alap_rejects_too_short_horizon(self, example_dfg):
        with pytest.raises(ValueError):
            alap_schedule(example_dfg, horizon=3)

    def test_mobility_window_and_validation(self, example_dfg):
        mobs = mobility_schedule(example_dfg, slack=2)
        mobs.validate()
        assert list(mobs.window(4)) == [0, 1, 2]  # slack widens every window
        assert mobs.length == 8

    def test_negative_slack_rejected(self, example_dfg):
        with pytest.raises(ValueError):
            mobility_schedule(example_dfg, slack=-1)


class TestMinimumII:
    def test_res_ii(self, example_dfg):
        assert res_ii(example_dfg, 4) == 4     # ceil(14/4)
        assert res_ii(example_dfg, 25) == 1
        with pytest.raises(ValueError):
            res_ii(example_dfg, 0)

    def test_rec_ii_running_example(self, example_dfg):
        assert rec_ii(example_dfg) == 4
        assert rec_ii_by_cycle_enumeration(example_dfg) == 4

    def test_rec_ii_without_recurrence(self):
        dfg = chain_dfg(6, loop_carried=False)
        assert rec_ii(dfg) == 1

    def test_rec_ii_scales_with_distance(self):
        dfg = chain_dfg(6, loop_carried=False)
        dfg.add_loop_carried_edge(5, 0, distance=2)
        # cycle length 6, distance 2 -> ceil(6/2) = 3
        assert rec_ii(dfg) == 3
        assert rec_ii_by_cycle_enumeration(dfg) == 3

    def test_min_ii_is_max_of_both(self, example_dfg):
        assert min_ii(example_dfg, 4) == 4
        assert min_ii(example_dfg, 2) == 7   # ResII = ceil(14/2) = 7 dominates

    @settings(max_examples=30, deadline=None)
    @given(
        num_nodes=st.integers(min_value=4, max_value=14),
        num_lc=st.integers(min_value=0, max_value=3),
        distance=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_rec_ii_matches_cycle_enumeration(self, num_nodes, num_lc, distance,
                                               seed):
        dfg = random_dfg(num_nodes, edge_probability=0.2,
                         num_loop_carried=num_lc, max_distance=distance,
                         seed=seed)
        assert rec_ii(dfg) == rec_ii_by_cycle_enumeration(dfg)

    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(min_value=3, max_value=12),
        pick=st.integers(min_value=0, max_value=1_000),
        distances=st.lists(st.integers(min_value=1, max_value=4),
                           min_size=2, max_size=3, unique=True),
        self_loops=st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                                      st.integers(min_value=1, max_value=3)),
                            max_size=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_rec_ii_matches_cycle_enumeration_with_parallel_and_self_loops(
            self, num_nodes, pick, distances, self_loops, seed):
        dfg = random_dfg(num_nodes, edge_probability=0.2, num_loop_carried=1,
                         max_distance=3, seed=seed)
        # parallel loop-carried edges between one node pair, each at its
        # own distance, closing a recurrence over one data edge
        data_edges = dfg.data_edges()
        edge = data_edges[pick % len(data_edges)]
        for distance in distances:
            dfg.add_loop_carried_edge(edge.dst, edge.src, distance=distance)
        for node, distance in self_loops:
            dfg.add_loop_carried_edge(node % num_nodes, node % num_nodes,
                                      distance=distance)
        assert rec_ii(dfg) == rec_ii_by_cycle_enumeration(dfg)

    def test_rec_ii_keeps_the_most_constraining_parallel_edge(self):
        dfg = chain_dfg(4, loop_carried=False)
        dfg.add_loop_carried_edge(3, 0, distance=4)
        dfg.add_loop_carried_edge(3, 0, distance=1)
        dfg.add_loop_carried_edge(2, 2, distance=1)
        assert rec_ii(dfg) == rec_ii_by_cycle_enumeration(dfg) == 4

    def test_rec_ii_rejects_a_data_edge_cycle(self):
        dfg = chain_dfg(3, loop_carried=False)
        dfg.add_data_edge(2, 0)
        dfg.add_loop_carried_edge(2, 1, distance=1)
        with pytest.raises(ValueError, match="zero total distance"):
            rec_ii(dfg)

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=4, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_asap_alap_windows_are_consistent(self, num_nodes, seed):
        dfg = random_dfg(num_nodes, seed=seed)
        mobs = mobility_schedule(dfg)
        length = critical_path_length(dfg)
        for node in dfg.node_ids():
            assert 0 <= mobs.earliest(node) <= mobs.latest(node) < length
        # every data dependence fits inside the windows
        for edge in dfg.data_edges():
            assert mobs.earliest(edge.src) < mobs.latest(edge.dst) + 1
