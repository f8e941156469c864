"""Unit tests for the CGRA array model."""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.topology import Topology


class TestConstruction:
    def test_basic_properties(self, cgra_3x3):
        assert cgra_3x3.num_pes == 9
        assert cgra_3x3.rows == 3 and cgra_3x3.cols == 3
        assert len(cgra_3x3.pes) == 9

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            CGRA(0, 3)
        with pytest.raises(ValueError):
            CGRA(1, 1)

    def test_non_square_arrays_supported(self):
        cgra = CGRA(2, 5)
        assert cgra.num_pes == 10
        assert cgra.pe_position(7) == (1, 2)

    def test_equality_and_hash(self):
        assert CGRA(3, 3) == CGRA(3, 3)
        assert CGRA(3, 3) != CGRA(3, 3, topology=Topology.MESH)
        assert hash(CGRA(2, 2)) == hash(CGRA(2, 2))

    def test_equality_and_hash_include_operation_sets(self):
        # heterogeneous arrays must not collide as cache/dict keys
        hetero = CGRA(2, 2, pe_operations={0: [Opcode.ADD, Opcode.CONST]})
        same = CGRA(2, 2, pe_operations={0: [Opcode.ADD, Opcode.CONST]})
        assert hetero != CGRA(2, 2)
        assert hetero == same and hash(hetero) == hash(same)
        assert CGRA(2, 2) != CGRA(2, 2, operations=[Opcode.ADD])
        assert len({CGRA(2, 2), hetero, CGRA(2, 2, operations=[Opcode.ADD])}) == 3

    def test_restricted_operations(self):
        cgra = CGRA(2, 2, operations=[Opcode.ADD, Opcode.CONST])
        assert cgra.supports_everywhere(Opcode.ADD)
        assert not cgra.supports_everywhere(Opcode.MUL)

    def test_per_pe_operations(self):
        cgra = CGRA(2, 2, pe_operations={2: [Opcode.ADD]})
        assert not cgra.is_homogeneous
        assert cgra.supporting_pes(Opcode.MUL) == frozenset({0, 1, 3})
        assert cgra.supporting_pes(Opcode.ADD) == frozenset({0, 1, 2, 3})
        assert cgra.supports(0, Opcode.MUL) and not cgra.supports(2, Opcode.MUL)

    def test_pe_operations_index_out_of_range(self):
        with pytest.raises(ValueError):
            CGRA(2, 2, pe_operations={4: [Opcode.ADD]})


class TestIndexing:
    def test_round_trip(self, cgra_4x4):
        for index in range(cgra_4x4.num_pes):
            row, col = cgra_4x4.pe_position(index)
            assert cgra_4x4.pe_index(row, col) == index
            assert cgra_4x4.pe(index).index == index

    def test_out_of_range(self, cgra_2x2):
        with pytest.raises(ValueError):
            cgra_2x2.pe_position(4)
        with pytest.raises(ValueError):
            cgra_2x2.pe_index(2, 0)


class TestAdjacency:
    def test_paper_connectivity_degrees(self):
        # D_M = 3 for a 2x2 array and 5 for 3x3 and larger (paper Sec. IV-B3).
        assert CGRA(2, 2).connectivity_degree == 3
        assert CGRA(3, 3).connectivity_degree == 5
        assert CGRA(5, 5).connectivity_degree == 5
        assert CGRA(20, 20).connectivity_degree == 5

    def test_torus_has_uniform_degree_but_mesh_does_not(self):
        assert CGRA(3, 3).has_uniform_degree
        assert not CGRA(3, 3, topology=Topology.MESH).has_uniform_degree

    def test_adjacency_is_symmetric(self, cgra_3x3):
        for a in range(cgra_3x3.num_pes):
            for b in range(cgra_3x3.num_pes):
                assert cgra_3x3.adjacent(a, b) == cgra_3x3.adjacent(b, a)

    def test_adjacent_or_self(self, cgra_2x2):
        assert cgra_2x2.adjacent_or_self(0, 0)
        assert cgra_2x2.adjacent_or_self(0, 1)
        assert not cgra_2x2.adjacent(0, 0)

    def test_2x2_torus_diagonal_not_adjacent(self, cgra_2x2):
        # PE0 (0,0) and PE3 (1,1) are diagonal: not connected even on a torus.
        assert not cgra_2x2.adjacent(0, 3)
        assert not cgra_2x2.adjacent_or_self(0, 3)

    def test_neighbors_or_self_contains_self(self, cgra_4x4):
        for index in range(cgra_4x4.num_pes):
            assert index in cgra_4x4.neighbors_or_self(index)
            assert index not in cgra_4x4.neighbors(index)

    def test_torus_wraparound_adjacency(self):
        cgra = CGRA(4, 4)
        top_left = cgra.pe_index(0, 0)
        top_right = cgra.pe_index(0, 3)
        bottom_left = cgra.pe_index(3, 0)
        assert cgra.adjacent(top_left, top_right)
        assert cgra.adjacent(top_left, bottom_left)

    def test_mesh_no_wraparound(self):
        cgra = CGRA(4, 4, topology=Topology.MESH)
        assert not cgra.adjacent(cgra.pe_index(0, 0), cgra.pe_index(0, 3))

    def test_degree_counts_self_loop(self, cgra_3x3):
        for index in range(cgra_3x3.num_pes):
            assert cgra_3x3.degree(index) == len(cgra_3x3.neighbors(index)) + 1
