"""Unit tests for the DFG data structure."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.isa import Opcode
from repro.graphs.dfg import DFG, DependenceKind, DFGEdge
from repro.graphs.generators import chain_dfg, random_dfg
from repro.service.store import content_key
from repro.workloads.suite import benchmark_names, load_benchmark

from oracles.graphs import data_dag


class TestConstruction:
    def test_add_nodes_auto_ids(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT)
        b = dfg.add_node(opcode=Opcode.ADD)
        assert (a.id, b.id) == (0, 1)
        assert dfg.num_nodes == 2

    def test_duplicate_node_id_rejected(self):
        dfg = DFG()
        dfg.add_node(3)
        with pytest.raises(ValueError):
            dfg.add_node(3)

    def test_edge_requires_existing_nodes(self):
        dfg = DFG()
        dfg.add_node(0)
        with pytest.raises(ValueError):
            dfg.add_data_edge(0, 1)

    def test_data_self_loop_rejected(self):
        dfg = DFG()
        dfg.add_node(0)
        with pytest.raises(ValueError):
            dfg.add_data_edge(0, 0)

    def test_loop_carried_distance_defaults_to_one(self):
        dfg = DFG()
        dfg.add_node(0)
        dfg.add_node(1)
        edge = dfg.add_edge(1, 0, DependenceKind.LOOP_CARRIED, distance=0)
        assert edge.distance == 1

    def test_edge_kind_invariants(self):
        with pytest.raises(ValueError):
            DFGEdge(src=0, dst=1, kind=DependenceKind.DATA, distance=1)
        with pytest.raises(ValueError):
            DFGEdge(src=0, dst=1, kind=DependenceKind.LOOP_CARRIED, distance=0)


class TestAccessors:
    def test_successors_predecessors(self, example_dfg):
        assert set(example_dfg.successors(6)) == {7, 8}
        assert set(example_dfg.predecessors(7)) == {6, 1}
        assert 4 in example_dfg.successors(7)  # loop-carried successor

    def test_edge_kind_queries(self, example_dfg):
        assert len(example_dfg.loop_carried_edges()) == 2
        assert len(example_dfg.data_edges()) == 13
        assert example_dfg.num_edges == 15

    def test_neighbor_ids_are_undirected(self, example_dfg):
        assert example_dfg.neighbor_ids(4) == {5, 7}
        assert example_dfg.neighbor_ids(10) == {9, 7}

    def test_undirected_edges_deduplicate(self):
        dfg = DFG()
        dfg.add_node(0)
        dfg.add_node(1)
        dfg.add_data_edge(0, 1)
        dfg.add_loop_carried_edge(1, 0)
        assert dfg.undirected_edges() == {(0, 1)}

    def test_operands_sorted_by_index(self, example_dfg):
        operands = example_dfg.operands(7)
        assert [e.operand_index for e in operands] == [0, 1]
        assert [e.src for e in operands] == [6, 1]

    def test_sources_and_sinks(self, example_dfg):
        assert set(example_dfg.source_nodes()) == {0, 1, 2, 3, 4}
        assert 10 in example_dfg.sink_nodes()


class TestValidationAndViews:
    def test_validate_accepts_running_example(self, example_dfg):
        example_dfg.validate()

    def test_validate_rejects_data_cycle(self):
        dfg = DFG()
        for i in range(3):
            dfg.add_node(i)
        dfg.add_data_edge(0, 1)
        dfg.add_data_edge(1, 2)
        dfg.add_data_edge(2, 0)
        with pytest.raises(ValueError):
            dfg.validate()

    def test_validate_names_a_data_cycle_behind_acyclic_nodes(self):
        dfg = DFG()
        for i in range(5):
            dfg.add_node(i)
        dfg.add_data_edge(0, 1)
        dfg.add_data_edge(1, 2)
        dfg.add_data_edge(2, 3)
        dfg.add_data_edge(3, 1)
        dfg.add_data_edge(3, 4)
        dfg.add_loop_carried_edge(4, 0)
        with pytest.raises(ValueError,
                           match=r"has a cycle: \[\(2, 3\), \(3, 1\), "
                                 r"\(1, 2\)\]"):
            dfg.validate()

    def test_topological_order_follows_data_edges_only(self, example_dfg):
        order = example_dfg.topological_order()
        assert sorted(order) == example_dfg.node_ids()
        position = {n: i for i, n in enumerate(order)}
        for edge in example_dfg.data_edges():
            assert position[edge.src] < position[edge.dst]

    def test_topological_order_is_networkx_lexicographic(self):
        for name in benchmark_names():
            dfg = load_benchmark(name)
            assert dfg.topological_order() == list(
                nx.lexicographical_topological_sort(data_dag(dfg))), name

    @settings(max_examples=40, deadline=None)
    @given(num_nodes=st.integers(2, 24), seed=st.integers(0, 10_000),
           edge_probability=st.floats(0.05, 0.5))
    def test_topological_order_takes_the_smallest_ready_id(
            self, num_nodes, seed, edge_probability):
        dfg = random_dfg(num_nodes, edge_probability, num_loop_carried=3,
                         seed=seed)
        relabeled = dfg.relabeled(
            {n: (7 * n) % 101 for n in dfg.node_ids()})
        for graph in (dfg, relabeled):
            assert graph.topological_order() == list(
                nx.lexicographical_topological_sort(data_dag(graph)))

    def test_validate_rejects_operands_on_leaf_opcodes(self):
        dfg = DFG()
        dfg.add_node(0, Opcode.ADD)
        dfg.add_node(1, Opcode.CONST)
        dfg.add_data_edge(0, 1)
        with pytest.raises(ValueError):
            dfg.validate()

    def test_validate_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            DFG().validate()


class TestCopySerialisation:
    def test_copy_is_deep_enough(self, example_dfg):
        clone = example_dfg.copy()
        clone.add_node(99)
        assert not example_dfg.has_node(99)
        assert clone.num_edges == example_dfg.num_edges

    @settings(max_examples=40, deadline=None)
    @given(num_nodes=st.integers(2, 16), seed=st.integers(0, 10_000),
           additions=st.lists(st.tuples(st.integers(0, 40),
                                        st.integers(0, 40),
                                        st.booleans()), max_size=8))
    def test_growing_a_copy_leaves_the_original_alone(self, num_nodes, seed,
                                                       additions):
        original = random_dfg(num_nodes, 0.3, num_loop_carried=2, seed=seed)
        before = original.to_dict()
        key = content_key(before)
        order = original.topological_order()
        clone = original.copy()
        assert clone.to_dict() == before
        for src, dst, new_node in additions:
            if new_node:
                clone.add_node()
            ids = clone.node_ids()
            # a loop-carried edge never closes a data cycle
            clone.add_loop_carried_edge(ids[src % len(ids)],
                                        ids[dst % len(ids)])
        assert original.to_dict() == before
        assert content_key(original.to_dict()) == key
        assert original.topological_order() == order
        for node_id in original.node_ids():
            assert original.out_edges(node_id) == [
                e for e in original.edges() if e.src == node_id]
            assert original.in_edges(node_id) == [
                e for e in original.edges() if e.dst == node_id]
        # and the other way round: the original grows, the copy does not
        frozen = clone.to_dict()
        original.add_data_edge(order[0], order[1])
        original.add_node()
        assert clone.to_dict() == frozen

    def test_relabeled(self, example_dfg):
        mapping = {i: i + 100 for i in example_dfg.node_ids()}
        renamed = example_dfg.relabeled(mapping)
        assert renamed.has_node(104)
        assert set(renamed.successors(106)) == {107, 108}

    def test_json_round_trip(self, example_dfg):
        restored = DFG.from_json(example_dfg.to_json())
        assert restored.num_nodes == example_dfg.num_nodes
        assert restored.num_edges == example_dfg.num_edges
        assert restored.undirected_edges() == example_dfg.undirected_edges()
        assert restored.node(2).opcode is Opcode.CONST

    def test_dict_round_trip_preserves_kinds(self):
        dfg = chain_dfg(4)
        restored = DFG.from_dict(dfg.to_dict())
        assert len(restored.loop_carried_edges()) == 1

    def test_generator_graphs_serialise(self):
        dfg = random_dfg(12, seed=3)
        restored = DFG.from_json(dfg.to_json())
        assert restored.num_nodes == 12
