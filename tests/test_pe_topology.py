"""Unit tests for PEs, register files and interconnect topologies."""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.pe import ProcessingElement, RegisterFile, RegisterFileOverflow
from repro.arch.topology import Topology, all_positions, grid_neighbors


class TestRegisterFile:
    def test_write_and_read(self):
        rf = RegisterFile(capacity=4)
        rf.write("x", 41)
        assert rf.read("x") == 41
        assert rf.contains("x")
        assert rf.live_registers == 1

    def test_overwrite_does_not_allocate(self):
        rf = RegisterFile(capacity=1)
        rf.write("x", 1)
        rf.write("x", 2)
        assert rf.read("x") == 2

    def test_overflow(self):
        rf = RegisterFile(capacity=2)
        rf.write("a", 1)
        rf.write("b", 2)
        with pytest.raises(RegisterFileOverflow):
            rf.write("c", 3)

    def test_free_releases_capacity(self):
        rf = RegisterFile(capacity=1)
        rf.write("a", 1)
        rf.free("a")
        rf.write("b", 2)
        assert rf.read("b") == 2

    def test_read_unknown_register(self):
        rf = RegisterFile()
        with pytest.raises(KeyError):
            rf.read("nope")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RegisterFile(capacity=0)

    def test_clear(self):
        rf = RegisterFile(capacity=4)
        rf.write("a", 1)
        rf.clear()
        assert rf.live_registers == 0


class TestProcessingElement:
    def test_position_and_supports(self):
        pe = ProcessingElement(index=3, row=1, col=1)
        assert pe.position == (1, 1)
        assert pe.supports(Opcode.ADD)

    def test_restricted_operations(self):
        pe = ProcessingElement(index=0, row=0, col=0,
                               operations=frozenset({Opcode.ADD}))
        assert pe.supports(Opcode.ADD)
        assert not pe.supports(Opcode.MUL)

    def test_make_register_file_uses_configured_size(self):
        pe = ProcessingElement(index=0, row=0, col=0, register_file_size=7)
        assert pe.make_register_file().capacity == 7


class TestTopology:
    def test_mesh_corner_has_two_neighbors(self):
        assert grid_neighbors(3, 3, 0, 0, Topology.MESH) == {(0, 1), (1, 0)}

    def test_mesh_center_has_four_neighbors(self):
        assert len(grid_neighbors(3, 3, 1, 1, Topology.MESH)) == 4

    def test_torus_wraps_around(self):
        neighbors = grid_neighbors(3, 3, 0, 0, Topology.TORUS)
        assert (2, 0) in neighbors and (0, 2) in neighbors
        assert len(neighbors) == 4

    def test_torus_2x2_has_two_distinct_neighbors(self):
        # up == down and left == right on a 2-wide torus
        assert len(grid_neighbors(2, 2, 0, 0, Topology.TORUS)) == 2

    def test_diagonal_center_has_eight_neighbors(self):
        assert len(grid_neighbors(3, 3, 1, 1, Topology.DIAGONAL)) == 8

    def test_uniform_degree(self):
        assert CGRA(3, 3, topology=Topology.TORUS).has_uniform_degree
        assert not CGRA(3, 3, topology=Topology.MESH).has_uniform_degree
        assert CGRA(2, 2, topology=Topology.TORUS).has_uniform_degree

    def test_max_degree(self):
        # the connectivity degree counts the self-loop on top
        assert CGRA(3, 3, topology=Topology.MESH).connectivity_degree == 5
        assert CGRA(3, 3, topology=Topology.TORUS).connectivity_degree == 5
        assert CGRA(2, 2, topology=Topology.TORUS).connectivity_degree == 3

    def test_all_positions_row_major(self):
        assert all_positions(2, 3) == [(0, 0), (0, 1), (0, 2),
                                       (1, 0), (1, 1), (1, 2)]

    def test_out_of_range_position(self):
        with pytest.raises(ValueError):
            grid_neighbors(2, 2, 2, 0, Topology.MESH)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            grid_neighbors(0, 2, 0, 0, Topology.MESH)

    def test_neighbors_never_contain_self(self):
        for topology in Topology:
            for rows, cols in [(2, 2), (3, 4), (5, 5)]:
                for r, c in all_positions(rows, cols):
                    assert (r, c) not in grid_neighbors(rows, cols, r, c, topology)
