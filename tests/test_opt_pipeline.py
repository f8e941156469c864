"""Pipeline-level properties of the repro.opt middle-end.

Extends the PR-2 differential harness to the optimizer: every pass
pipeline must preserve executor-vs-reference trace equality on seeded
``executable_random_dfg`` graphs across homogeneous topologies and the
heterogeneous presets, and mapping at O2 must never yield a worse II than
O0 on the built-in benchmarks and frontend kernels.

The seed base is fixed (overridable through ``REPRO_PROPERTY_SEED`` so CI
can pin a second seed explicitly), making every run reproducible.
"""

import os

import pytest

from repro.arch.cgra import CGRA
from repro.arch.spec import build_preset
from repro.arch.topology import Topology
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.validation import validate_mapping
from repro.core.mapper import MonomorphismMapper
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.graphs.generators import executable_random_dfg
from repro.opt import optimize_dfg, verify_equivalence
from repro.sim.executor import run_and_compare
from repro.sim.machine import DataMemory
from repro.workloads.suite import load_benchmark

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))
ITERATIONS = 6

TOPOLOGIES = [Topology.TORUS, Topology.MESH, Topology.DIAGONAL]
HETEROGENEOUS_PRESETS = ["memory_column_mesh", "mul_sparse_checkerboard"]

#: a cross-section of the Table III suite: chain-heavy (big folding wins),
#: split/tree shaped, and the smallest one (nothing to optimize)
BENCHMARK_SAMPLE = ["aes", "sha2", "gsm", "bitcount", "susan"]


def _config(opt_level=0):
    return MapperConfig(
        budget_seconds=60.0,
        opt_level=opt_level,
    )


class TestPipelinePreservesSemantics:
    """Every pipeline proves trace equality against the reference."""

    @pytest.mark.parametrize("opt_level", [1, 2])
    @pytest.mark.parametrize("offset", range(4))
    def test_random_executable_graphs(self, opt_level, offset):
        dfg = executable_random_dfg(9 + offset, seed=SEED_BASE + offset)
        result = optimize_dfg(dfg, opt_level=opt_level, verify=True)
        assert result.verified
        assert result.nodes_after <= result.nodes_before
        # and explicitly once more, end to end
        report = verify_equivalence(dfg, result.optimized, result.node_map,
                                    iterations=ITERATIONS)
        assert report.equivalent

    @pytest.mark.parametrize("preset", HETEROGENEOUS_PRESETS)
    def test_heterogeneous_targets_gate_the_pipeline(self, preset):
        dfg = executable_random_dfg(10, seed=SEED_BASE + 17)
        cgra = build_preset(preset, 3, 3).build()
        result = optimize_dfg(dfg, opt_level=2, target=cgra, verify=True)
        assert result.verified


class TestOptimizedMappingDifferential:
    """Optimized graphs map, validate, and execute exactly like the
    reference -- the PR-2 oracle applied after the optimizer."""

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t.value for t in TOPOLOGIES])
    @pytest.mark.parametrize("offset", range(2))
    def test_homogeneous(self, topology, offset):
        dfg = executable_random_dfg(8 + offset, seed=SEED_BASE + 50 + offset)
        cgra = CGRA(3, 3, topology=topology)
        result = MonomorphismMapper(cgra, _config(opt_level=2)).map(dfg)
        assert result.success, result.summary()
        assert validate_mapping(result.mapping) == []
        mapped, reference = run_and_compare(result.mapping,
                                            iterations=ITERATIONS)
        assert mapped.values == reference.values

    @pytest.mark.parametrize("preset", HETEROGENEOUS_PRESETS)
    @pytest.mark.parametrize("offset", range(2))
    def test_heterogeneous(self, preset, offset):
        dfg = executable_random_dfg(8 + offset, seed=SEED_BASE + 80 + offset)
        cgra = build_preset(preset, 3, 3).build()
        result = MonomorphismMapper(cgra, _config(opt_level=2)).map(dfg)
        assert result.success, result.summary()
        assert validate_mapping(result.mapping) == []
        for node in result.mapping.dfg.nodes():
            assert cgra.pe(result.mapping.pe(node.id)).supports(node.opcode)
        mapped, reference = run_and_compare(result.mapping,
                                            iterations=ITERATIONS)
        assert mapped.values == reference.values


class TestO2NeverWorseThanO0:
    """The acceptance bar: O2 yields a validated mapping with II <= O0."""

    @pytest.mark.parametrize("bench_name", BENCHMARK_SAMPLE)
    def test_benchmarks(self, bench_name):
        dfg = load_benchmark(bench_name)
        cgra = CGRA(4, 4)
        base = MonomorphismMapper(cgra, _config(opt_level=0)).map(dfg)
        opt = MonomorphismMapper(cgra, _config(opt_level=2)).map(dfg)
        assert base.success and opt.success
        assert validate_mapping(opt.mapping) == []
        assert opt.ii <= base.ii
        assert opt.mii <= base.mii

    @pytest.mark.parametrize("kernel", sorted(EXAMPLE_KERNELS))
    def test_kernel_examples_map_and_simulate(self, kernel):
        program = extract_dfg(EXAMPLE_KERNELS[kernel], name=kernel)
        cgra = CGRA(4, 4)
        base = MonomorphismMapper(cgra, _config(opt_level=0)).map(program.dfg)
        opt = MonomorphismMapper(cgra, _config(opt_level=2)).map(program.dfg)
        assert base.success and opt.success
        assert opt.ii <= base.ii
        # full frontend flow: initial values remapped onto the optimized
        # graph, mapped execution identical to the sequential reference
        remapped = (program.remapped(opt.opt)
                    if opt.opt is not None else program)
        run_and_compare(opt.mapping, iterations=ITERATIONS,
                        memory=DataMemory(),
                        initial_values=remapped.initial_values)

    def test_baseline_engine_agrees(self):
        dfg = load_benchmark("crc32")
        cgra = CGRA(4, 4)
        base = SatMapItMapper(
            cgra, BaselineConfig(budget_seconds=30.0)
        ).map(dfg)
        opt = SatMapItMapper(
            cgra, BaselineConfig(budget_seconds=30.0, opt_level=2)
        ).map(dfg)
        assert base.success and opt.success
        assert opt.ii <= base.ii
        assert opt.opt is not None and opt.opt.verified


class TestMapperIntegration:
    def test_result_carries_the_opt_report(self):
        dfg = load_benchmark("aes")
        result = MonomorphismMapper(CGRA(4, 4),
                                    _config(opt_level=2)).map(dfg)
        assert result.opt is not None
        assert result.opt.nodes_after < result.opt.nodes_before
        assert result.opt.verified
        assert result.opt_seconds > 0.0
        # the returned mapping refers to the optimized graph
        assert result.mapping.dfg.num_nodes == result.opt.nodes_after
        # mII was recomputed post-opt: far below the unoptimized RecII 14
        assert result.mii <= 6
        assert "opt 23->10 nodes" in result.summary()

    def test_opt_level_accepts_labels_and_rejects_junk(self):
        assert MapperConfig(opt_level="O2").opt_level == 2
        assert MapperConfig(opt_level="1").opt_level == 1
        with pytest.raises(ValueError):
            MapperConfig(opt_level="O9")
        with pytest.raises(ValueError):
            MapperConfig(opt_passes=("constfold", "unknown-pass"))

    def test_explicit_passes_through_the_mapper(self):
        dfg = load_benchmark("basicmath")
        config = _config()
        config.opt_passes = ("constfold", "dce")
        result = MonomorphismMapper(CGRA(4, 4), config).map(dfg)
        assert result.success
        assert result.opt is not None and result.opt.changed

    def test_infeasible_still_reports_opt(self):
        program = extract_dfg(EXAMPLE_KERNELS["dot_product"],
                              name="dot_product")
        cgra = build_preset("mul_free_torus", 4, 4).build()
        result = MonomorphismMapper(cgra, _config(opt_level=1)).map(program.dfg)
        assert result.status.value == "infeasible"
        assert result.opt is not None


class TestNonExecutableGraphs:
    """Structural test graphs (decorative opcodes, arity-inconsistent)
    cannot be replayed; verification must skip, not crash, and the
    mapper must still map the optimized graph."""

    def test_chain_dfg_maps_with_opt(self):
        from repro.graphs.generators import chain_dfg, random_dfg
        from repro.opt.verify import is_executable

        chain = chain_dfg(6)
        assert not is_executable(chain)  # ADD nodes with one operand
        result = MonomorphismMapper(CGRA(3, 3), _config(opt_level=2)).map(chain)
        assert result.success
        assert result.opt is not None
        assert result.opt.verification is not None
        assert result.opt.verification.skipped

        rand = random_dfg(10, seed=SEED_BASE)
        result = MonomorphismMapper(CGRA(3, 3), _config(opt_level=1)).map(rand)
        assert result.success

    def test_opt_result_summary_shapes(self):
        from repro.graphs.generators import chain_dfg

        unchanged = optimize_dfg(load_benchmark("bitcount"), opt_level=1)
        assert "no change" in unchanged.summary()
        assert unchanged.remap_node(0) == 0
        changed = optimize_dfg(chain_dfg(4), opt_level=2)
        assert changed.rounds >= 1
