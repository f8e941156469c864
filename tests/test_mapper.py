"""End-to-end tests of the decoupled mapper and of the coupled baseline."""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.mrrg import TimeAdjacency
from repro.arch.topology import Topology
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.mapper import MappingStatus, MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.graphs.generators import chain_dfg, random_dfg
from repro.workloads.running_example import running_example_dfg
from repro.workloads.suite import load_benchmark


class TestMonomorphismMapper:
    def test_running_example_reaches_paper_ii(self, cgra_2x2, fast_config):
        result = MonomorphismMapper(cgra_2x2, fast_config).map(running_example_dfg())
        assert result.success
        assert result.mii == 4
        assert result.ii == 4          # the paper's Fig. 2b mapping quality
        assert validate_mapping(result.mapping) == []
        assert result.time_phase_seconds >= 0
        assert result.space_phase_seconds >= 0

    @pytest.mark.parametrize("workload,expected_mii",
                             [("bitcount", 3), ("susan", 2), ("fft", 7),
                              ("crc32", 8), ("sha1", 2), ("aes", 14)])
    def test_benchmarks_on_4x4(self, workload, expected_mii, fast_config):
        cgra = CGRA(4, 4)
        result = MonomorphismMapper(cgra, fast_config).map(
            load_benchmark(workload))
        assert result.success
        assert result.mii == expected_mii
        assert result.ii >= result.mii
        assert validate_mapping(result.mapping) == []

    def test_larger_cgra_never_worsens_ii(self, fast_config):
        dfg = load_benchmark("lud")
        small = MonomorphismMapper(CGRA(2, 2), fast_config).map(dfg)
        large = MonomorphismMapper(CGRA(5, 5), fast_config).map(dfg)
        assert small.success and large.success
        assert large.ii <= small.ii

    def test_mesh_topology_supported(self, fast_config):
        mapper = MonomorphismMapper(CGRA(3, 3, topology=Topology.MESH),
                                    fast_config)
        result = mapper.map(load_benchmark("bitcount"))
        assert result.success
        assert validate_mapping(result.mapping) == []

    def test_consecutive_mrrg_still_maps_chains(self):
        config = MapperConfig(time_adjacency=TimeAdjacency.CONSECUTIVE,
                              total_timeout_seconds=30)
        result = MonomorphismMapper(CGRA(3, 3), config).map(chain_dfg(6))
        assert result.success
        assert validate_mapping(result.mapping) == []

    def test_no_solution_when_ii_range_is_too_small(self, cgra_2x2):
        config = MapperConfig(max_ii=3, total_timeout_seconds=10)
        result = MonomorphismMapper(cgra_2x2, config).map(running_example_dfg())
        # mII is 4; capping max_ii below it still tries mII..max(mII, max_ii)
        # so the cap is lifted to mII and a solution is found at II = 4.
        assert result.success and result.ii == 4

    def test_total_timeout_status(self, cgra_2x2):
        config = MapperConfig(total_timeout_seconds=0.0,
                              time_timeout_seconds=5,
                              space_timeout_seconds=5)
        result = MonomorphismMapper(cgra_2x2, config).map(load_benchmark("aes"))
        assert not result.success
        assert result.status in (MappingStatus.TOTAL_TIMEOUT,
                                 MappingStatus.TIME_TIMEOUT)
        assert result.timed_out

    def test_result_summary_strings(self, cgra_2x2, fast_config):
        good = MonomorphismMapper(cgra_2x2, fast_config).map(chain_dfg(4))
        assert "II=" in good.summary()
        bad = MonomorphismMapper(
            cgra_2x2, MapperConfig(total_timeout_seconds=0.0)
        ).map(load_benchmark("aes"))
        assert not bad.success
        assert bad.summary()

    def test_random_dfgs_map_and_validate(self, fast_config):
        cgra = CGRA(4, 4)
        mapper = MonomorphismMapper(cgra, fast_config)
        for seed in range(4):
            dfg = random_dfg(12, num_loop_carried=2, seed=seed)
            result = mapper.map(dfg)
            assert result.success, f"seed {seed}: {result.summary()}"
            assert validate_mapping(result.mapping) == []


class TestBaseline:
    def test_running_example(self, cgra_2x2):
        result = SatMapItMapper(cgra_2x2,
                                BaselineConfig(timeout_seconds=30)).map(
            running_example_dfg())
        assert result.success
        assert result.ii == 4
        assert validate_mapping(result.mapping) == []

    @pytest.mark.parametrize("workload", ["bitcount", "susan", "lud"])
    def test_baseline_matches_decoupled_ii(self, workload, cgra_2x2,
                                           fast_config):
        dfg = load_benchmark(workload)
        decoupled = MonomorphismMapper(cgra_2x2, fast_config).map(dfg)
        coupled = SatMapItMapper(cgra_2x2,
                                 BaselineConfig(timeout_seconds=45)).map(dfg)
        assert decoupled.success and coupled.success
        # same mapping quality (the paper's Table III II columns agree)
        assert decoupled.ii == coupled.ii

    def test_baseline_timeout_status(self):
        config = BaselineConfig(timeout_seconds=0.0)
        result = SatMapItMapper(CGRA(4, 4), config).map(load_benchmark("aes"))
        assert not result.success
        assert result.status is MappingStatus.TIME_TIMEOUT

    def test_baseline_validates_its_mappings(self, cgra_3x3):
        result = SatMapItMapper(cgra_3x3,
                                BaselineConfig(timeout_seconds=30)).map(
            chain_dfg(5))
        assert result.success
        assert validate_mapping(result.mapping) == []
