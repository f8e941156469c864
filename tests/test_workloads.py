"""Tests for the benchmark workload suite (Table III stand-ins)."""

import networkx as nx
import pytest

from repro.graphs.analysis import min_ii, rec_ii
from repro.sim.reference import ReferenceInterpreter
from repro.workloads.kernels import KernelShape, build_kernel
from repro.workloads.running_example import running_example_dfg
from repro.workloads.suite import (
    SPECS,
    benchmark_names,
    load_all,
    load_benchmark,
    spec,
)

from oracles.graphs import undirected_graph

#: Node counts straight from the paper's Table III "DFG Nodes" column.
PAPER_NODE_COUNTS = {
    "aes": 23, "backprop": 34, "basicmath": 21, "bitcount": 7, "cfd": 51,
    "crc32": 24, "fft": 20, "gsm": 24, "heartwall": 35, "hotspot3D": 57,
    "lud": 26, "nw": 33, "particlefilter": 38, "sha1": 21, "sha2": 25,
    "stringsearch": 28, "susan": 21,
}


def test_suite_contains_the_17_paper_benchmarks():
    assert len(benchmark_names()) == 17
    assert set(benchmark_names()) == set(PAPER_NODE_COUNTS)


@pytest.mark.parametrize("name", sorted(PAPER_NODE_COUNTS))
def test_node_counts_match_the_paper(name):
    dfg = load_benchmark(name)
    assert dfg.num_nodes == PAPER_NODE_COUNTS[name]
    assert dfg.num_nodes == spec(name).num_nodes


@pytest.mark.parametrize("name", sorted(PAPER_NODE_COUNTS))
def test_rec_ii_matches_the_spec(name):
    dfg = load_benchmark(name)
    assert rec_ii(dfg) == spec(name).rec_ii


@pytest.mark.parametrize("name", sorted(PAPER_NODE_COUNTS))
def test_mii_matches_the_paper_for_every_cgra_size(name):
    dfg = load_benchmark(name)
    benchmark_spec = spec(name)
    for size, pes in [("2x2", 4), ("5x5", 25), ("10x10", 100), ("20x20", 400)]:
        assert min_ii(dfg, pes) == benchmark_spec.paper_mii[size], (
            f"{name} on {size}"
        )


@pytest.mark.parametrize("name", sorted(PAPER_NODE_COUNTS))
def test_dfgs_are_structurally_valid_and_deterministic(name):
    first = load_benchmark(name)
    second = load_benchmark(name)
    first.validate()
    assert first.to_dict() == second.to_dict()
    # connected as an undirected graph
    assert nx.is_connected(undirected_graph(first))


@pytest.mark.parametrize("name", ["aes", "hotspot3D", "nw", "particlefilter"])
def test_dfgs_are_executable(name):
    dfg = load_benchmark(name)
    trace = ReferenceInterpreter(dfg).run(4)
    assert len(trace.values) == dfg.num_nodes * 4


def test_load_all_returns_every_benchmark():
    assert set(load_all()) == set(benchmark_names())


def test_running_example_is_loadable_by_name():
    assert load_benchmark("running_example").num_nodes == 14
    assert running_example_dfg().num_nodes == 14


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        spec("doesnotexist")
    with pytest.raises(KeyError):
        load_benchmark("doesnotexist")


def test_specs_record_paper_reference_values():
    aes = spec("aes")
    assert aes.paper_ii["2x2"] == 16
    assert aes.paper_mii["2x2"] == 14
    assert spec("cfd").paper_ii["20x20"] is None
    assert spec("hotspot3D").suite == "rodinia"


class TestKernelBuilder:
    def test_exact_node_count_for_arbitrary_shapes(self):
        for nodes, rec in [(10, 2), (23, 14), (57, 2), (15, 7), (40, 9)]:
            for style in ("tree", "chain", "split"):
                shape = KernelShape(num_nodes=nodes, rec_ii=rec,
                                    feeder_style=style, sink_nodes=3,
                                    theme="integer", seed=1)
                dfg = build_kernel(f"k{nodes}_{rec}_{style}", shape)
                assert dfg.num_nodes == nodes
                assert rec_ii(dfg) == rec

    def test_rejects_impossible_shapes(self):
        with pytest.raises(ValueError):
            build_kernel("bad", KernelShape(num_nodes=3, rec_ii=1))
        with pytest.raises(ValueError):
            build_kernel("bad", KernelShape(num_nodes=4, rec_ii=4))

    def test_bounded_degree(self):
        # keeping node degrees moderate is what makes the kernels mappable on
        # a 2x2 CGRA (connectivity constraint with D_M = 3)
        for name in ("hotspot3D", "cfd", "backprop"):
            dfg = load_benchmark(name)
            max_degree = max(len(dfg.neighbor_ids(n)) for n in dfg.node_ids())
            assert max_degree <= 8
