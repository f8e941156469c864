"""Unit and property tests for the monomorphism search engine.

The CBJ property's seed base is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.mrrg import MRRG, TimeAdjacency
from repro.arch.spec import build_preset
from repro.core.space_solver import MRRGTarget
from repro.matching.monomorphism import (
    ExplicitTargetGraph,
    MonomorphismSearch,
    PatternGraph,
    find_monomorphism,
)
from repro.matching.ordering import most_constrained_first_order

from oracles.graphs import networkx_monomorphism
from oracles.space import neighbors_with_label as neighbor_query

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))


def _pattern(labels, edges):
    return PatternGraph.from_edges(labels, edges)


class TestPatternGraph:
    def test_from_edges(self):
        pattern = _pattern({0: "a", 1: "a", 2: "b"}, [(0, 1), (1, 2)])
        assert pattern.num_vertices == 3
        assert pattern.num_edges == 2
        assert pattern.degree(1) == 2

    def test_self_loops_ignored(self):
        pattern = _pattern({0: "a"}, [(0, 0)])
        assert pattern.num_edges == 0

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            _pattern({0: "a"}, [(0, 1)])


class TestOrdering:
    def test_most_constrained_first_starts_at_max_degree(self):
        adjacency = {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: {1}}
        order = most_constrained_first_order([0, 1, 2, 3], adjacency)
        assert order[0] == 1
        assert set(order) == {0, 1, 2, 3}

    def test_handles_disconnected_components(self):
        adjacency = {0: {1}, 1: {0}, 2: set(), 3: {4}, 4: {3}}
        order = most_constrained_first_order([0, 1, 2, 3, 4], adjacency)
        assert sorted(order) == [0, 1, 2, 3, 4]


class TestExplicitSearch:
    def test_finds_triangle_in_labelled_square_with_diagonal(self):
        target = ExplicitTargetGraph(
            {0: "x", 1: "x", 2: "x", 3: "x"},
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        pattern = _pattern({10: "x", 11: "x", 12: "x"},
                           [(10, 11), (11, 12), (12, 10)])
        outcome = find_monomorphism(pattern, target)
        assert outcome.found
        search = MonomorphismSearch(pattern, target)
        assert search.verify(outcome.mapping) == []

    def test_respects_labels(self):
        target = ExplicitTargetGraph({0: "a", 1: "b"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "a"}, [(5, 6)])
        assert not find_monomorphism(pattern, target).found

    def test_injectivity_required(self):
        # two pattern vertices with the same label but only one target vertex
        target = ExplicitTargetGraph({0: "a", 1: "b"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "a"}, [])
        assert not find_monomorphism(pattern, target).found

    def test_monomorphism_is_not_induced(self):
        # the pattern misses an edge present between the chosen target
        # vertices -- a monomorphism (unlike an induced isomorphism) allows it
        target = ExplicitTargetGraph({0: "x", 1: "x", 2: "x"},
                                     [(0, 1), (1, 2), (0, 2)])
        pattern = _pattern({7: "x", 8: "x", 9: "x"}, [(7, 8), (8, 9)])
        assert find_monomorphism(pattern, target).found

    def test_impossible_edge(self):
        target = ExplicitTargetGraph({0: "a", 1: "b", 2: "c"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "c"}, [(5, 6)])
        assert not find_monomorphism(pattern, target).found

    def test_verify_reports_violations(self):
        target = ExplicitTargetGraph({0: "a", 1: "a", 2: "b"}, [(0, 2)])
        pattern = _pattern({5: "a", 6: "a"}, [(5, 6)])
        search = MonomorphismSearch(pattern, target)
        violations = search.verify({5: 0, 6: 0})
        assert any("mono1" in v for v in violations)
        violations = search.verify({5: 0, 6: 2})
        assert any("mono2" in v for v in violations)
        violations = search.verify({5: 0, 6: 1})
        assert any("mono3" in v for v in violations)


class TestAgainstNetworkx:
    @settings(max_examples=40, deadline=None)
    @given(
        target_nodes=st.integers(min_value=4, max_value=9),
        pattern_nodes=st.integers(min_value=2, max_value=7),
        edge_prob=st.floats(min_value=0.2, max_value=0.7),
        num_labels=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_agreement_with_networkx(self, target_nodes, pattern_nodes,
                                     edge_prob, num_labels, seed):
        rng = random.Random(seed)
        target_nx = nx.gnp_random_graph(target_nodes, edge_prob, seed=seed)
        labels = {n: rng.randrange(num_labels) for n in target_nx.nodes}
        nx.set_node_attributes(target_nx, labels, "label")

        pattern_nx = nx.gnp_random_graph(pattern_nodes, edge_prob, seed=seed + 1)
        pattern_labels = {n: rng.randrange(num_labels) for n in pattern_nx.nodes}
        pattern = PatternGraph.from_edges(pattern_labels, list(pattern_nx.edges))

        target = ExplicitTargetGraph(labels, list(target_nx.edges))
        ours = find_monomorphism(pattern, target)
        reference = networkx_monomorphism(pattern, target_nx)
        assert ours.found == (reference is not None)
        if ours.found:
            search = MonomorphismSearch(pattern, target)
            assert search.verify(ours.mapping) == []


class TestMRRGTarget:
    def test_pattern_fits_into_mrrg(self):
        cgra = CGRA(2, 2)
        mrrg = MRRG(cgra, ii=2)
        target = MRRGTarget(mrrg, pin_first_placement=False)
        # 4 operations per slot (full capacity), chain-connected
        labels = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
        edges = [(i, i + 1) for i in range(7)]
        outcome = find_monomorphism(PatternGraph.from_edges(labels, edges), target)
        assert outcome.found
        # all MRRG vertices distinct and labels respected
        assert len(set(outcome.mapping.values())) == 8
        for node, vertex in outcome.mapping.items():
            assert mrrg.label(vertex) == labels[node]

    def test_seed_candidates_pin_on_torus(self):
        mrrg = MRRG(CGRA(3, 3), ii=2)
        target = MRRGTarget(mrrg, pin_first_placement=True)
        assert list(target.seed_candidates(1)) == [mrrg.vertex(0, 1)]
        unpinned = MRRGTarget(mrrg, pin_first_placement=False)
        assert len(list(unpinned.seed_candidates(1))) == 9

    def test_neighbors_with_label_matches_adjacency(self):
        mrrg = MRRG(CGRA(2, 2), ii=3)
        target = MRRGTarget(mrrg)
        vertex = mrrg.vertex(0, 0)
        for label in range(3):
            neighbors = set(target.neighbors_with_label(vertex, label))
            expected = {u for u in mrrg.neighbors(vertex)
                        if mrrg.label(u) == label}
            assert neighbors == expected

    @staticmethod
    def _impossible_star():
        target = MRRGTarget(MRRG(CGRA(2, 2), ii=1), pin_first_placement=False)
        labels = {i: 0 for i in range(4)}
        edges = [(0, 1), (0, 2), (0, 3)]  # needs degree 3 at one vertex
        return PatternGraph.from_edges(labels, edges), target

    def test_timeout_reported(self):
        # An impossible, moderately large instance with a tiny timeout either
        # finishes (reporting failure) or reports a timeout -- never hangs.
        pattern, target = self._impossible_star()
        outcome = find_monomorphism(pattern, target, timeout_seconds=0.05)
        assert not outcome.found

    def test_zero_timeout_is_a_deadline(self):
        pattern, target = self._impossible_star()
        outcome = find_monomorphism(pattern, target, timeout_seconds=0.0)
        assert not outcome.found
        assert outcome.timed_out
        assert outcome.stats.nodes_explored == 0


def chronological_search(pattern, target):
    """Plain depth-first backtracking: ``(mapping or None, nodes)``.

    The reference the backjumping search must reproduce. Same static
    order, same anchor (the last mapped neighbour in adjacency order),
    same candidate order; every failure retries the previous vertex.
    """
    order = most_constrained_first_order(pattern.vertices, pattern.adjacency)
    mapping = {}
    nodes = 0

    def candidates(depth, vertex):
        label = pattern.labels[vertex]
        near = [u for u in pattern.adjacency[vertex] if u in mapping]
        if not near:
            pool = (target.seed_candidates(label) if depth == 0
                    else target.candidates(label))
            return [c for c in pool if c not in mapping.values()]
        pool = target.neighbors_with_label(mapping[near[-1]], label)
        return [c for c in pool if c not in mapping.values()
                and all(target.are_adjacent(mapping[u], c) for u in near[:-1])]

    def extend(depth):
        nonlocal nodes
        if depth == len(order):
            return True
        vertex = order[depth]
        for candidate in candidates(depth, vertex):
            nodes += 1
            mapping[vertex] = candidate
            if extend(depth + 1):
                return True
            del mapping[vertex]
        return False

    return (dict(mapping) if extend(0) else None), nodes


def _random_pattern(rng, label_of):
    """A random pattern of 4-10 vertices; ``label_of(rng)`` draws labels."""
    size = rng.randint(4, 10)
    density = rng.uniform(0.15, 0.6)
    edges = [(a, b) for a in range(size) for b in range(a + 1, size)
             if rng.random() < density]
    return PatternGraph.from_edges(
        {v: label_of(rng) for v in range(size)}, edges)


MRRG_FABRICS = [("torus", rows, cols) for rows, cols in
                ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))] + [
    (preset, rows, cols)
    for preset in ("memory_column_mesh", "mul_sparse_checkerboard")
    for rows, cols in ((2, 2), (3, 3), (4, 4))
]
PATTERN_OPCODES = (Opcode.ADD, Opcode.MUL, Opcode.LOAD)


class TestBackjumpingIsExact:
    """CBJ returns the chronological search's mapping, in no more nodes."""

    @staticmethod
    def _assert_exact(pattern, target):
        outcome = find_monomorphism(pattern, target)
        mapping, nodes = chronological_search(pattern, target)
        assert outcome.mapping == mapping
        assert outcome.stats.nodes_explored <= nodes
        if mapping is not None:
            assert MonomorphismSearch(pattern, target).verify(mapping) == []

    @pytest.mark.parametrize("index", range(60))
    def test_explicit_targets(self, index):
        rng = random.Random(SEED_BASE * 1000 + index)
        num_labels = rng.randint(1, 3)
        size = rng.randint(6, 14)
        density = rng.uniform(0.2, 0.7)
        target = ExplicitTargetGraph(
            {v: rng.randrange(num_labels) for v in range(size)},
            [(a, b) for a in range(size) for b in range(a + 1, size)
             if rng.random() < density])
        pattern = _random_pattern(rng, lambda r: r.randrange(num_labels))
        self._assert_exact(pattern, target)

    @pytest.mark.parametrize("index", range(60))
    def test_mrrg_targets(self, index):
        rng = random.Random(SEED_BASE * 1000 + 500 + index)
        fabric, rows, cols = rng.choice(MRRG_FABRICS)
        cgra = (CGRA(rows, cols) if fabric == "torus"
                else build_preset(fabric, rows, cols).build())
        ii = rng.randint(1, 3)
        target = MRRGTarget(MRRG(cgra, ii),
                            pin_first_placement=rng.random() < 0.5)
        pattern = _random_pattern(
            rng, lambda r: (r.randrange(ii), r.choice(PATTERN_OPCODES)))
        self._assert_exact(pattern, target)


class TestNeighbourTableIsTheQuery:
    """Every tabled neighbour answer is the per-query computation's.

    Each case asks every ``(vertex, label)`` pair twice in one seeded
    shuffled stream, so first queries, repeats and interleavings of
    other pairs all occur, then the whole set once more in another
    order. Labels are ``(slot, opcode)`` pairs and plain slots.
    """

    @pytest.mark.parametrize("pin", [True, False])
    @pytest.mark.parametrize("adjacency", list(TimeAdjacency))
    @pytest.mark.parametrize("ii", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "fabric", ["torus", "memory_column_mesh", "mul_sparse_checkerboard"])
    def test_answers_equal_the_oracle(self, fabric, ii, adjacency, pin):
        rng = random.Random(f"{SEED_BASE}:{fabric}:{ii}:{adjacency}:{pin}")
        rows, cols = rng.choice(((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)))
        cgra = (CGRA(rows, cols) if fabric == "torus"
                else build_preset(fabric, rows, cols).build())
        mrrg = MRRG(cgra, ii, time_adjacency=adjacency)
        target = MRRGTarget(mrrg, pin_first_placement=pin)
        labels = [(slot, op) for slot in range(ii) for op in Opcode] + list(
            range(ii))
        queries = [(v, label) for v in mrrg.vertices() for label in labels]
        stream = queries * 2
        rng.shuffle(stream)
        again = list(queries)
        rng.shuffle(again)
        for vertex, label in stream + again:
            assert list(target.neighbors_with_label(vertex, label)) == \
                neighbor_query(mrrg, vertex, label), (vertex, label)
