"""The incremental most-constrained-first ordering equals the quadratic one.

The space search visits pattern vertices in this static order, so the
incremental form must reproduce the rescanning form it replaced
(``oracles.prologue``) exactly, on every input the search can hand it
and on the odd ones it cannot: disconnected graphs, isolated vertices,
vertices missing from ``adjacency``, and adjacency that names vertices
outside ``vertices``. The seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.space_solver import build_pattern
from repro.core.time_solver import Schedule
from repro.matching.ordering import most_constrained_first_order
from repro.workloads.suite import benchmark_names, load_benchmark

from oracles.prologue import most_constrained_first_order as quadratic_order

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))
_SETTINGS = dict(max_examples=200, deadline=None)


@st.composite
def graphs(draw, symmetric=True):
    """``(vertices, adjacency)``: up to 20 ids with gaps, random edges,
    some vertices dropped from ``adjacency``, in a shuffled order."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=20))
    outside = draw(st.lists(st.integers(41, 45), unique=True, max_size=2))
    universe = ids + ([] if symmetric else outside)
    adjacency = {v: set() for v in universe}
    if universe:
        pairs = st.tuples(st.sampled_from(universe), st.sampled_from(universe))
        for a, b in draw(st.lists(pairs, max_size=45)):
            if a == b:
                continue
            adjacency[a].add(b)
            if symmetric:
                adjacency[b].add(a)
        for v in draw(st.sets(st.sampled_from(universe))):
            del adjacency[v]
    vertices = draw(st.permutations(ids))
    return vertices, adjacency


@seed(SEED_BASE)
@settings(**_SETTINGS)
@given(graph=graphs())
def test_incremental_order_equals_the_quadratic_order(graph):
    vertices, adjacency = graph
    order = most_constrained_first_order(vertices, adjacency)
    assert order == quadratic_order(vertices, adjacency)
    assert sorted(order) == sorted(vertices)


@seed(SEED_BASE + 1)
@settings(**_SETTINGS)
@given(graph=graphs(symmetric=False))
def test_equal_on_one_way_adjacency_too(graph):
    vertices, adjacency = graph
    assert most_constrained_first_order(vertices, adjacency) == \
        quadratic_order(vertices, adjacency)


@pytest.mark.parametrize("name", benchmark_names())
def test_equal_on_every_table3_pattern(name):
    dfg = load_benchmark(name)
    # a one-slot schedule: the pattern's adjacency is the DFG's
    pattern = build_pattern(Schedule(dfg, ii=1, start_times={
        n: 0 for n in dfg.node_ids()}))
    assert most_constrained_first_order(pattern.vertices, pattern.adjacency) \
        == quadratic_order(pattern.vertices, pattern.adjacency)
