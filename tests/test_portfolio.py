"""Tests of the engine-portfolio runner (`repro.heuristic.portfolio`)."""

import pytest

from repro.core.config import PortfolioConfig
from repro.core.mapper import MappingResult, MappingStatus
from repro.heuristic.portfolio import PortfolioMapper, _better
from repro.core.validation import validate_mapping
from repro.workloads.suite import load_benchmark


def _result(status, ii=None, mii=0, seconds=1.0):
    return MappingResult(status=status, ii=ii, mii=mii,
                         total_seconds=seconds)


class TestPreferenceOrder:
    def test_success_beats_failure(self):
        good = _result(MappingStatus.SUCCESS, ii=5)
        bad = _result(MappingStatus.NO_SOLUTION)
        assert _better(bad, good) is good
        assert _better(good, bad) is good

    def test_lower_ii_beats_higher(self):
        low = _result(MappingStatus.SUCCESS, ii=3, seconds=9.0)
        high = _result(MappingStatus.SUCCESS, ii=5, seconds=0.1)
        assert _better(high, low) is low
        assert _better(low, high) is low

    def test_equal_ii_prefers_faster(self):
        fast = _result(MappingStatus.SUCCESS, ii=3, seconds=0.1)
        slow = _result(MappingStatus.SUCCESS, ii=3, seconds=5.0)
        assert _better(slow, fast) is fast
        # ... and the incumbent keeps a tie
        assert _better(fast, slow) is fast

    def test_none_takes_anything(self):
        failed = _result(MappingStatus.NO_SOLUTION)
        assert _better(None, failed) is failed


class TestSequentialPortfolio:
    def test_maps_and_records_per_engine_outcomes(self, cgra_3x3):
        dfg = load_benchmark("bitcount")
        config = PortfolioConfig(budget_seconds=60.0, seed=7)
        result = PortfolioMapper(cgra_3x3, config).map(dfg)
        assert result.success
        assert validate_mapping(result.mapping) == []
        stats = result.stats
        assert stats["engine"] == "portfolio"
        assert stats["winner"] in config.engines
        recorded = [o["engine"] for o in stats["portfolio"]]
        assert recorded == list(config.engines)[: len(recorded)]
        winning = [o for o in stats["portfolio"]
                   if o["engine"] == stats["winner"]][0]
        assert winning["status"] == "success"
        assert winning["ii"] == result.ii

    def test_short_circuits_on_provable_optimality(self, cgra_3x3):
        # bitcount maps at II == mII for every engine; the heuristic runs
        # first and proves optimality, so the exact engines never run
        dfg = load_benchmark("bitcount")
        result = PortfolioMapper(
            cgra_3x3, PortfolioConfig(budget_seconds=60.0, seed=7)
        ).map(dfg)
        assert result.success
        assert result.ii == result.mii
        assert len(result.stats["portfolio"]) == 1
        assert result.stats["winner"] == "heuristic"

    def test_engine_subset_and_order_are_respected(self, cgra_3x3):
        dfg = load_benchmark("susan")
        config = PortfolioConfig(engines=("monomorphism",),
                                 budget_seconds=60.0)
        result = PortfolioMapper(cgra_3x3, config).map(dfg)
        assert result.success
        assert result.stats["winner"] == "monomorphism"
        assert [o["engine"] for o in result.stats["portfolio"]] == \
            ["monomorphism"]

    def test_per_engine_budget_division(self):
        config = PortfolioConfig(budget_seconds=90.0)
        assert config.per_engine_budget() == pytest.approx(30.0)

    def test_infeasible_everywhere_reports_failure(self):
        from repro.arch.spec import build_preset

        cgra = build_preset("mul_free_torus", 4, 4).build()
        dfg = load_benchmark("fft")  # needs MUL
        result = PortfolioMapper(
            cgra, PortfolioConfig(budget_seconds=30.0, seed=1)
        ).map(dfg)
        assert not result.success
        assert all(o["status"] == "infeasible"
                   for o in result.stats["portfolio"])
