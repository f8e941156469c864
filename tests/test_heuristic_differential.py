"""Differential quality suite for the heuristic and portfolio engines.

The satellite contract of the heuristic subsystem:

(a) every mapping the heuristic or portfolio engine returns passes the
    full validator *and* executes on the cycle-level executor with a value
    trace identical to the sequential reference interpreter -- across
    mesh and torus arrays and two heterogeneous presets;
(b) quality never beats exactness: ``II(heuristic) >= II(exact)`` on every
    solved case, with *equality* on the paper's small kernels under the
    pinned seeds.

Seeds follow the repository convention: the base is fixed and overridable
through ``REPRO_PROPERTY_SEED``, and the heuristic engine resolves its own
RNG seed through the same variable, so one knob pins the whole suite.
"""

import os

import pytest

from repro.arch.cgra import CGRA
from repro.arch.spec import build_preset
from repro.arch.topology import Topology
from repro.core.config import HeuristicConfig, MapperConfig, PortfolioConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.graphs.generators import executable_random_dfg
from repro.heuristic.engine import HeuristicMapper
from repro.heuristic.portfolio import PortfolioMapper
from repro.sim.executor import run_and_compare
from repro.workloads.running_example import running_example_dfg
from repro.workloads.suite import load_benchmark

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))
ITERATIONS = 6

HOMOGENEOUS = [Topology.TORUS, Topology.MESH]
HETEROGENEOUS_PRESETS = ["memory_column_mesh", "mul_sparse_checkerboard"]

#: the paper's small kernels: the heuristic must *match* the exact II on
#: these under the pinned seeds (they map at mII, which both engines find)
SMALL_KERNELS = ["bitcount", "susan", "sha1", "stringsearch"]


def _heuristic_config(seed: int) -> HeuristicConfig:
    return HeuristicConfig(budget_seconds=30.0, seed=seed)


def _exact_config() -> MapperConfig:
    return MapperConfig(
        budget_seconds=40.0,
    )


def _check_differentially(dfg, cgra, result) -> None:
    """Validator + op support + executor-vs-reference trace equality."""
    assert result.success, f"{dfg.name}: {result.summary()}"
    mapping = result.mapping
    assert validate_mapping(mapping) == []
    for node in dfg.nodes():
        assert cgra.pe(mapping.pe(node.id)).supports(node.opcode)
    mapped_trace, reference_trace = run_and_compare(
        mapping, iterations=ITERATIONS)
    assert mapped_trace.values == reference_trace.values


class TestHeuristicHomogeneous:
    @pytest.mark.parametrize("topology", HOMOGENEOUS,
                             ids=[t.value for t in HOMOGENEOUS])
    @pytest.mark.parametrize("offset", range(3))
    def test_mapping_matches_reference(self, topology, offset):
        seed = SEED_BASE + offset
        dfg = executable_random_dfg(8 + offset, seed=seed)
        cgra = CGRA(3, 3, topology=topology)
        result = HeuristicMapper(cgra, _heuristic_config(seed)).map(dfg)
        _check_differentially(dfg, cgra, result)


class TestHeuristicHeterogeneous:
    @pytest.mark.parametrize("preset", HETEROGENEOUS_PRESETS)
    @pytest.mark.parametrize("offset", range(3))
    def test_mapping_matches_reference(self, preset, offset):
        seed = SEED_BASE + 300 + offset
        dfg = executable_random_dfg(8 + offset, seed=seed)
        cgra = build_preset(preset, 3, 3).build()
        result = HeuristicMapper(cgra, _heuristic_config(seed)).map(dfg)
        _check_differentially(dfg, cgra, result)


class TestPortfolioDifferential:
    @pytest.mark.parametrize("preset", [None] + HETEROGENEOUS_PRESETS)
    def test_portfolio_mapping_matches_reference(self, preset):
        seed = SEED_BASE + 400
        dfg = executable_random_dfg(9, seed=seed)
        if preset is None:
            cgra = CGRA(3, 3)
        else:
            cgra = build_preset(preset, 3, 3).build()
        result = PortfolioMapper(
            cgra, PortfolioConfig(budget_seconds=60.0, seed=seed)
        ).map(dfg)
        _check_differentially(dfg, cgra, result)


class TestQualityGate:
    @pytest.mark.parametrize("offset", range(4))
    def test_heuristic_never_beats_exact(self, offset):
        seed = SEED_BASE + 500 + offset
        dfg = executable_random_dfg(8 + offset, seed=seed)
        cgra = CGRA(3, 3)
        exact = MonomorphismMapper(cgra, _exact_config()).map(dfg)
        heuristic = HeuristicMapper(cgra, _heuristic_config(seed)).map(dfg)
        assert exact.success and heuristic.success
        assert heuristic.ii >= exact.ii

    @pytest.mark.parametrize("kernel", SMALL_KERNELS)
    def test_equality_on_the_papers_small_kernels(self, kernel):
        dfg = load_benchmark(kernel)
        cgra = CGRA(4, 4)
        exact = MonomorphismMapper(cgra, _exact_config()).map(dfg)
        heuristic = HeuristicMapper(
            cgra, _heuristic_config(SEED_BASE)).map(dfg)
        assert exact.success and heuristic.success
        assert heuristic.ii == exact.ii, (
            f"{kernel}: heuristic II={heuristic.ii} vs "
            f"exact II={exact.ii} under seed {SEED_BASE}"
        )
        _check_differentially(dfg, cgra, heuristic)

    def test_running_example_maps_at_the_papers_ii(self):
        dfg = running_example_dfg()
        cgra = CGRA(2, 2)
        exact = MonomorphismMapper(cgra, _exact_config()).map(dfg)
        heuristic = HeuristicMapper(
            cgra, _heuristic_config(SEED_BASE)).map(dfg)
        assert exact.success and heuristic.success
        assert heuristic.ii == exact.ii == 4  # paper Fig. 2
