"""Unit tests for the Modulo Routing Resource Graph."""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.mrrg import MRRG, TimeAdjacency

from oracles.graphs import mrrg_graph


@pytest.fixture
def mrrg_2x2_ii4(cgra_2x2):
    return MRRG(cgra_2x2, ii=4)


class TestStructure:
    def test_vertex_count(self, mrrg_2x2_ii4):
        # |V_M| = II * |V_Mi| (paper Sec. IV-A, Fig. 3 has 16 vertices).
        assert mrrg_2x2_ii4.num_vertices == 16

    def test_vertex_encoding_round_trip(self, mrrg_2x2_ii4):
        for pe in range(4):
            for slot in range(4):
                vertex = mrrg_2x2_ii4.vertex(pe, slot)
                assert mrrg_2x2_ii4.pe_of(vertex) == pe
                assert mrrg_2x2_ii4.slot_of(vertex) == slot
                assert mrrg_2x2_ii4.label(vertex) == slot

    def test_labels_partition_vertices(self, mrrg_2x2_ii4):
        seen = set()
        for slot in range(4):
            vertices = list(mrrg_2x2_ii4.vertices_with_label(slot))
            assert len(vertices) == 4
            assert all(mrrg_2x2_ii4.label(v) == slot for v in vertices)
            seen.update(vertices)
        assert seen == set(range(16))

    def test_invalid_arguments(self, cgra_2x2, mrrg_2x2_ii4):
        with pytest.raises(ValueError):
            MRRG(cgra_2x2, ii=0)
        with pytest.raises(ValueError):
            mrrg_2x2_ii4.vertex(5, 0)
        with pytest.raises(ValueError):
            mrrg_2x2_ii4.vertex(0, 4)
        with pytest.raises(ValueError):
            list(mrrg_2x2_ii4.vertices_with_label(4))

    def test_capacity_per_slot(self, mrrg_2x2_ii4):
        assert mrrg_2x2_ii4.capacity_per_slot() == [4, 4, 4, 4]

    def test_connectivity_degree_matches_cgra(self, mrrg_2x2_ii4, cgra_2x2):
        assert mrrg_2x2_ii4.connectivity_degree == cgra_2x2.connectivity_degree


class TestAdjacency:
    def test_no_self_edges(self, mrrg_2x2_ii4):
        for vertex in mrrg_2x2_ii4.vertices():
            assert not mrrg_2x2_ii4.has_edge(vertex, vertex)

    def test_edges_require_spatial_adjacency(self, mrrg_2x2_ii4):
        # PE0 and PE3 are diagonal on the 2x2 torus: never MRRG-adjacent.
        for slot_a in range(4):
            for slot_b in range(4):
                a = mrrg_2x2_ii4.vertex(0, slot_a)
                b = mrrg_2x2_ii4.vertex(3, slot_b)
                assert not mrrg_2x2_ii4.has_edge(a, b)

    def test_same_pe_different_slots_connected(self, mrrg_2x2_ii4):
        # A PE can keep a value in its own register file across slots.
        a = mrrg_2x2_ii4.vertex(0, 0)
        b = mrrg_2x2_ii4.vertex(0, 2)
        assert mrrg_2x2_ii4.has_edge(a, b)

    def test_all_pairs_time_adjacency(self, cgra_2x2):
        # Fig. 3: PE0 at T=0 is time-adjacent to its neighbours at all slots.
        mrrg = MRRG(cgra_2x2, ii=4, time_adjacency=TimeAdjacency.ALL_PAIRS)
        a = mrrg.vertex(0, 0)
        assert mrrg.has_edge(a, mrrg.vertex(1, 2))
        assert mrrg.has_edge(a, mrrg.vertex(1, 3))

    def test_consecutive_time_adjacency_restricts_slot_distance(self, cgra_2x2):
        mrrg = MRRG(cgra_2x2, ii=4, time_adjacency=TimeAdjacency.CONSECUTIVE)
        a = mrrg.vertex(0, 0)
        assert mrrg.has_edge(a, mrrg.vertex(1, 1))
        assert mrrg.has_edge(a, mrrg.vertex(1, 3))  # wrap-around slot
        assert not mrrg.has_edge(a, mrrg.vertex(1, 2))
        assert mrrg.has_edge(a, mrrg.vertex(1, 0))  # same slot, neighbour PE

    def test_adjacency_is_symmetric(self, mrrg_2x2_ii4):
        vertices = list(mrrg_2x2_ii4.vertices())
        for a in vertices:
            for b in vertices:
                assert mrrg_2x2_ii4.has_edge(a, b) == mrrg_2x2_ii4.has_edge(b, a)

    def test_neighbors_match_has_edge(self, mrrg_2x2_ii4):
        for vertex in mrrg_2x2_ii4.vertices():
            neighbors = set(mrrg_2x2_ii4.neighbors(vertex))
            expected = {
                other
                for other in mrrg_2x2_ii4.vertices()
                if mrrg_2x2_ii4.has_edge(vertex, other)
            }
            assert neighbors == expected

    def test_degree_uniform_on_torus(self, mrrg_2x2_ii4):
        degrees = {mrrg_2x2_ii4.degree(v) for v in mrrg_2x2_ii4.vertices()}
        assert len(degrees) == 1
        # neighbours-or-self (3) across 4 slots, minus the vertex itself
        assert degrees.pop() == 3 * 4 - 1

    def test_num_edges_matches_networkx_export(self, cgra_2x2):
        mrrg = MRRG(cgra_2x2, ii=3)
        graph = mrrg_graph(mrrg)
        assert graph.number_of_nodes() == mrrg.num_vertices
        assert graph.number_of_edges() == mrrg.num_edges

    def test_ii_one_is_spatial_graph_only(self, cgra_3x3):
        mrrg = MRRG(cgra_3x3, ii=1)
        assert mrrg.num_vertices == 9
        # neighbours within the single slot = spatial neighbours (no self)
        assert set(mrrg.neighbors(mrrg.vertex(0, 0))) == set(
            cgra_3x3.neighbors(0)
        )

    def test_large_instance_is_cheap_to_query(self):
        mrrg = MRRG(CGRA(20, 20), ii=16)
        assert mrrg.num_vertices == 6400
        a = mrrg.vertex(0, 0)
        b = mrrg.vertex(1, 15)
        assert mrrg.has_edge(a, b)
        assert mrrg.degree(a) == 5 * 16 - 1
        assert sum(1 for _ in mrrg.neighbors(a)) == 5 * 16 - 1
