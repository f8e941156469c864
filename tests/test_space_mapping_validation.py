"""Unit tests for the space phase, the Mapping object and the validator."""

import dataclasses
import json

import pytest

from repro.arch.cgra import CGRA
from repro.arch.mrrg import TimeAdjacency
from repro.core.exceptions import InvalidMappingError
from repro.core.mapping import Mapping
from repro.core.space_solver import SpaceSolver, build_pattern
from repro.core.time_solver import IncrementalTimeSolver
from repro.core.validation import assert_valid_mapping, validate_mapping


@pytest.fixture
def example_mapping(example_dfg, cgra_2x2):
    schedule = IncrementalTimeSolver(example_dfg, cgra_2x2).solve(4)
    result = SpaceSolver(cgra_2x2).solve(schedule)
    assert result.found
    return Mapping(dfg=example_dfg, cgra=cgra_2x2, schedule=schedule,
                   placement=result.placement)


class TestSpaceSolver:
    def test_pattern_carries_slot_labels_and_all_edges(self, example_dfg,
                                                       cgra_2x2):
        schedule = IncrementalTimeSolver(example_dfg, cgra_2x2).solve(4)
        pattern = build_pattern(schedule)
        assert pattern.num_vertices == 14
        assert pattern.num_edges == len(example_dfg.undirected_edges())
        for node, label in pattern.labels.items():
            slot, opcode = label
            assert slot == schedule.slot(node)
            assert opcode is example_dfg.node(node).opcode

    def test_running_example_space_solution(self, example_mapping):
        assert validate_mapping(example_mapping) == []

    def test_space_solver_respects_mesh_topology(self, example_dfg):
        from repro.arch.topology import Topology

        mesh = CGRA(3, 3, topology=Topology.MESH)
        schedule = IncrementalTimeSolver(example_dfg, mesh).solve(4)
        result = SpaceSolver(mesh).solve(schedule)
        if result.found:
            mapping = Mapping(dfg=example_dfg, cgra=mesh, schedule=schedule,
                              placement=result.placement)
            assert validate_mapping(mapping) == []

    def test_failure_is_reported_not_raised(self, cgra_2x2):
        # A schedule that deliberately violates the connectivity condition:
        # 4 independent nodes all in slot 0 plus a centre adjacent to all of
        # them in slot 1 cannot be placed on a 2x2 CGRA (D_M = 3).
        from repro.graphs.dfg import DFG
        from repro.core.time_solver import Schedule

        dfg = DFG()
        centre = dfg.add_node(0).id
        for i in range(1, 5):
            dfg.add_node(i)
            dfg.add_data_edge(centre, i)
        schedule = Schedule(dfg, ii=2,
                            start_times={0: 0, 1: 1, 2: 1, 3: 1, 4: 1})
        result = SpaceSolver(cgra_2x2).solve(schedule)
        assert not result.found
        assert not result.timed_out


class TestBackjumpingOnSlowCases:
    """Table III cases whose placement search used to take ~10^6 nodes.

    Plain backtracking explored 1,166,174 space nodes on cfd@6x6 and
    695,946 on hotspot3D@5x5; backjumping needs about a hundred. Node
    counts are deterministic, so this pins the win without timing.
    """

    @pytest.mark.parametrize("kernel, size, arch", [
        ("cfd", "6x6", "memory_column_mesh"),
        ("hotspot3D", "5x5", None),
    ])
    def test_maps_validates_and_simulates(self, kernel, size, arch):
        from repro.core.mapper import MonomorphismMapper
        from repro.experiments.runner import build_cgra_from_arch, decoupled_config
        from repro.sim.executor import run_and_compare
        from repro.workloads.suite import load_benchmark

        cgra = build_cgra_from_arch(size, arch)
        result = MonomorphismMapper(cgra, decoupled_config(30.0)).map(
            load_benchmark(kernel))
        assert result.success, result.summary()
        assert validate_mapping(result.mapping) == []
        run_and_compare(result.mapping)
        assert result.stats["space"]["nodes_explored"] <= 2_000


def _outcome(result):
    """What a reused mapper must reproduce of a fresh one's result."""
    placement = None if result.mapping is None else result.mapping.placement
    space = result.stats["space"]
    return (result.status, result.ii, placement, space["calls"],
            space["nodes_explored"])


class TestSolverReuse:
    """A mapper's space solver keeps one MRRG target per II and the last
    DFG's pattern order; neither may leak into another map() call."""

    @pytest.mark.parametrize("adjacency", list(TimeAdjacency))
    @pytest.mark.parametrize("arch", ["mul_sparse_checkerboard", None])
    def test_reused_mapper_answers_like_a_fresh_one(self, arch, adjacency):
        from repro.arch.isa import Opcode
        from repro.core.mapper import MonomorphismMapper
        from repro.experiments.runner import build_cgra_from_arch, decoupled_config
        from repro.workloads.suite import load_benchmark

        config = dataclasses.replace(decoupled_config(30.0),
                                     time_adjacency=adjacency)

        def fresh(dfg):
            cgra = build_cgra_from_arch("4x4", arch)
            return _outcome(MonomorphismMapper(cgra, config).map(dfg))

        reused = MonomorphismMapper(build_cgra_from_arch("4x4", arch), config)
        first, second = load_benchmark("gsm"), load_benchmark("lud")
        for dfg in (first, second):
            assert _outcome(reused.map(dfg)) == fresh(dfg)
        # grow the first DFG in place: a new consumer of a sink and an
        # edge between two nodes it already had
        sink = first.sink_nodes()[0]
        added = first.add_node(opcode=Opcode.ADD).id
        first.add_data_edge(sink, added)
        first.add_data_edge(first.source_nodes()[0], added, operand_index=1)
        grown = _outcome(reused.map(first))
        assert grown == fresh(first)
        # an edge alone, between two nodes the last map() already saw
        first.add_data_edge(first.source_nodes()[-1], sink, operand_index=2)
        regrown = _outcome(reused.map(first))
        assert regrown == fresh(first)
        if adjacency is TimeAdjacency.ALL_PAIRS:  # the paper's MRRG
            assert grown[0].value == regrown[0].value == "success"

    def test_gsm_on_the_sparse_checkerboard_is_pinned(self):
        """II 5 after 24 rejected II-4 slot patterns: 25 space calls and
        2,468 nodes, with the placement found before the space phase
        kept its targets and pattern order across schedules."""
        from repro.core.mapper import MonomorphismMapper
        from repro.experiments.runner import build_cgra_from_arch, decoupled_config
        from repro.workloads.suite import load_benchmark

        cgra = build_cgra_from_arch("4x4", "mul_sparse_checkerboard")
        result = MonomorphismMapper(cgra, decoupled_config(30.0)).map(
            load_benchmark("gsm"))
        assert result.success and result.ii == 5
        assert result.stats["space"]["calls"] == 25
        assert result.stats["space"]["nodes_explored"] == 2_468
        assert sorted(result.mapping.placement.items()) == [
            (0, 1), (1, 2), (2, 11), (3, 14), (4, 2), (5, 15), (6, 3),
            (7, 3), (8, 4), (9, 12), (10, 0), (11, 0), (12, 6), (13, 3),
            (14, 2), (15, 2), (16, 1), (17, 0), (18, 0), (19, 0), (20, 1),
            (21, 1), (22, 1), (23, 2)]


class TestMappingObject:
    def test_kernel_table_shape(self, example_mapping):
        table = example_mapping.kernel_table()
        assert len(table) == 4
        assert all(len(row) == 4 for row in table)
        placed = [node for row in table for node in row if node is not None]
        assert sorted(placed) == list(range(14))

    def test_timing_quantities(self, example_mapping):
        assert example_mapping.ii == 4
        assert example_mapping.schedule_length == 6
        assert example_mapping.num_stages == 2
        assert example_mapping.prologue_cycles() == 4
        assert example_mapping.epilogue_cycles() == 2
        assert example_mapping.total_cycles(1) == 6
        assert example_mapping.total_cycles(10) == 9 * 4 + 6

    def test_total_cycles_requires_positive_iterations(self, example_mapping):
        with pytest.raises(ValueError):
            example_mapping.total_cycles(0)

    def test_utilization_and_load(self, example_mapping):
        assert example_mapping.utilization() == pytest.approx(14 / 16)
        load = example_mapping.pe_load()
        assert sum(load.values()) == 14
        assert max(load.values()) <= 4

    def test_render_and_stats(self, example_mapping):
        rendering = example_mapping.render_kernel()
        assert "PE0" in rendering and "T=3" in rendering
        stats = example_mapping.stats()
        assert stats["ii"] == 4 and stats["nodes"] == 14

    def test_serialisation(self, example_mapping):
        data = json.loads(example_mapping.to_json())
        assert data["ii"] == 4
        assert len(data["placement"]) == 14

    def test_missing_placement_rejected(self, example_mapping):
        placement = dict(example_mapping.placement)
        placement.pop(0)
        with pytest.raises(ValueError):
            Mapping(dfg=example_mapping.dfg, cgra=example_mapping.cgra,
                    schedule=example_mapping.schedule, placement=placement)

    def test_mrrg_vertex_consistency(self, example_mapping):
        for node in example_mapping.dfg.node_ids():
            vertex = example_mapping.mrrg_vertex(node)
            assert vertex % 4 == example_mapping.pe(node)
            assert vertex // 4 == example_mapping.slot(node)


class TestValidator:
    def test_valid_mapping_passes(self, example_mapping):
        assert validate_mapping(example_mapping, check_registers=True) == []
        assert_valid_mapping(example_mapping)

    def test_detects_pe_conflict(self, example_mapping):
        broken = dict(example_mapping.placement)
        # find two nodes in the same slot and put them on the same PE
        by_slot = {}
        for node in example_mapping.dfg.node_ids():
            by_slot.setdefault(example_mapping.slot(node), []).append(node)
        slot, nodes = next((s, ns) for s, ns in by_slot.items() if len(ns) >= 2)
        broken[nodes[1]] = broken[nodes[0]]
        mapping = Mapping(dfg=example_mapping.dfg, cgra=example_mapping.cgra,
                          schedule=example_mapping.schedule, placement=broken)
        violations = validate_mapping(mapping)
        assert any("mono1" in v for v in violations)

    def test_detects_non_adjacent_dependence(self, example_mapping):
        # Fig. 2c: placing the endpoints of the 7 -> 4 loop-carried
        # dependence on diagonal (non-adjacent) PEs is invalid.
        broken = dict(example_mapping.placement)
        broken[7] = 0
        broken[4] = 3
        mapping = Mapping(dfg=example_mapping.dfg, cgra=example_mapping.cgra,
                          schedule=example_mapping.schedule, placement=broken)
        violations = validate_mapping(mapping)
        assert any("mono3" in v or "mono1" in v for v in violations)

    def test_detects_dependence_timing_violation(self, example_mapping):
        # Fig. 2c: scheduling nodes 2 and 8 in the same step violates their
        # data dependence.
        start_times = dict(example_mapping.schedule.start_times)
        start_times[8] = start_times[2]
        from repro.core.time_solver import Schedule

        schedule = Schedule(example_mapping.dfg, ii=4, start_times=start_times)
        mapping = Mapping(dfg=example_mapping.dfg, cgra=example_mapping.cgra,
                          schedule=schedule, placement=example_mapping.placement)
        violations = validate_mapping(mapping)
        assert any("timing" in v for v in violations)

    def test_assert_valid_raises_with_details(self, example_mapping):
        broken = dict(example_mapping.placement)
        by_slot = {}
        for node in example_mapping.dfg.node_ids():
            by_slot.setdefault(example_mapping.slot(node), []).append(node)
        _slot, nodes = next((s, ns) for s, ns in by_slot.items() if len(ns) >= 2)
        broken[nodes[1]] = broken[nodes[0]]  # two ops on one PE in one slot
        mapping = Mapping(dfg=example_mapping.dfg, cgra=example_mapping.cgra,
                          schedule=example_mapping.schedule, placement=broken)
        with pytest.raises(InvalidMappingError) as excinfo:
            assert_valid_mapping(mapping)
        assert excinfo.value.violations
