"""Unit tests of the stochastic anytime engine (`repro.heuristic`)."""

import math
import random

import pytest

from repro.arch.cgra import CGRA
from repro.arch.spec import build_preset
from repro.core.config import HeuristicConfig, PortfolioConfig
from repro.core.engine import ENGINE_NAMES, create_engine, normalize_engine
from repro.core.mapper import MappingStatus, MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.heuristic.anneal import anneal_placement, hop_distances
from repro.heuristic.engine import (
    DEFAULT_HEURISTIC_SEED,
    HeuristicMapper,
    resolve_seed,
)
from repro.heuristic.scheduler import list_schedule
from repro.workloads.suite import load_benchmark


class TestListScheduler:
    def test_schedule_satisfies_all_constraint_families(self, cgra_3x3):
        # gsm needs one slack step at II=4 on 9 PEs (the engine's horizon
        # escalation finds it; here it is passed explicitly)
        dfg = load_benchmark("gsm")
        schedule = list_schedule(dfg, cgra_3x3, ii=4, slack=1)
        assert schedule is not None
        assert schedule.validate_dependences() == []
        assert schedule.max_slot_population() <= cgra_3x3.num_pes
        degree = cgra_3x3.connectivity_degree
        for node_id in dfg.node_ids():
            for slot in range(schedule.ii):
                assert schedule.neighbor_slot_count(node_id, slot) <= degree

    def test_capacity_makes_too_small_ii_fail(self, cgra_2x2):
        # 7 nodes cannot fit 4 PEs at II=1 (capacity), whatever the order
        dfg = load_benchmark("bitcount")
        assert list_schedule(dfg, cgra_2x2, ii=1) is None

    def test_respects_recurrence_upper_bounds(self, cgra_3x3, example_dfg):
        # the running example has RecII 4; a schedule at II=4 must exist
        # and satisfy its loop-carried dependences
        schedule = list_schedule(example_dfg, cgra_3x3, ii=4)
        assert schedule is not None
        assert schedule.validate_dependences() == []

    def test_jitter_is_deterministic_under_a_pinned_rng(self, cgra_3x3):
        dfg = load_benchmark("fft")
        first = list_schedule(dfg, cgra_3x3, ii=7,
                              rng=random.Random(5), jitter=900.0)
        second = list_schedule(dfg, cgra_3x3, ii=7,
                               rng=random.Random(5), jitter=900.0)
        assert first is not None and second is not None
        assert first.start_times == second.start_times

    def test_heterogeneous_support_class_bounds_hold(self):
        cgra = build_preset("mul_sparse_checkerboard", 3, 3).build()
        dfg = load_benchmark("fft")  # contains MULs
        schedule = list_schedule(dfg, cgra, ii=7)
        assert schedule is not None
        from repro.arch.isa import Opcode

        mul_pes = cgra.supporting_pes(Opcode.MUL)
        for slot, nodes in enumerate(schedule.slot_population()):
            muls = [n for n in nodes
                    if dfg.node(n).opcode is Opcode.MUL]
            assert len(muls) <= len(mul_pes)


class TestAnnealPlacement:
    def test_hop_distances_match_torus_structure(self):
        cgra = CGRA(3, 3)
        dist = hop_distances(cgra)
        for pe in range(cgra.num_pes):
            assert dist[pe][pe] == 0
            for other in cgra.neighbors(pe):
                assert dist[pe][other] == 1

    def test_finds_zero_cost_placement(self, cgra_3x3):
        dfg = load_benchmark("gsm")
        schedule = list_schedule(dfg, cgra_3x3, ii=4, slack=1)
        outcome = anneal_placement(schedule, cgra_3x3, random.Random(11))
        assert outcome.found
        assert outcome.cost == 0.0
        # zero cost is validity: wrap it in a Mapping and check for real
        from repro.core.mapping import Mapping

        mapping = Mapping(dfg=dfg, cgra=cgra_3x3, schedule=schedule,
                          placement=outcome.placement)
        assert validate_mapping(mapping) == []

    def test_move_budget_is_honoured(self, cgra_2x2):
        dfg = load_benchmark("aes")
        schedule = list_schedule(dfg, cgra_2x2, ii=14)
        outcome = anneal_placement(schedule, cgra_2x2, random.Random(3),
                                   max_moves=5)
        assert outcome.moves <= 5

    def test_unplaceable_schedule_fails_with_ripups(self, cgra_2x2,
                                                    monkeypatch):
        # 5 operations hand-forced into one kernel slot of a 4-PE array:
        # some (slot, PE) pair is overused in every placement, so the
        # cost can never reach zero -- the annealer must run its rip-up
        # passes and still report failure, never a bogus placement
        import repro.heuristic.anneal as anneal_module
        from repro.core.time_solver import Schedule
        from repro.graphs.dfg import DFG, DependenceKind

        dfg = DFG("overfull")
        for i in range(5):
            dfg.add_node(i)
        for i in range(4):
            dfg.add_edge(i, i + 1, kind=DependenceKind.LOOP_CARRIED,
                         distance=1)
        schedule = Schedule(dfg=dfg, ii=1,
                            start_times={i: 0 for i in range(5)})
        monkeypatch.setattr(anneal_module, "STALL_LIMIT", 5)
        outcome = anneal_placement(schedule, cgra_2x2, random.Random(1),
                                   max_moves=300)
        assert not outcome.found
        assert outcome.cost > 0.0
        assert outcome.ripups >= 1


class TestResolveSeed:
    def test_explicit_seed_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROPERTY_SEED", "123")
        assert resolve_seed(42) == 42

    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROPERTY_SEED", "123")
        assert resolve_seed(None) == 123

    def test_built_in_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROPERTY_SEED", raising=False)
        assert resolve_seed(None) == DEFAULT_HEURISTIC_SEED


class TestHeuristicMapper:
    def test_maps_the_running_example(self, cgra_3x3, example_dfg):
        result = HeuristicMapper(
            cgra_3x3, HeuristicConfig(budget_seconds=20.0, seed=1)
        ).map(example_dfg)
        assert result.success
        assert result.ii is not None and result.ii >= result.mii
        assert validate_mapping(result.mapping) == []

    def test_same_seed_same_mapping(self, cgra_3x3):
        dfg = load_benchmark("lud")
        config = HeuristicConfig(budget_seconds=20.0, seed=99)
        first = HeuristicMapper(cgra_3x3, config).map(dfg)
        second = HeuristicMapper(cgra_3x3, config).map(dfg)
        assert first.success and second.success
        assert first.ii == second.ii
        assert first.mapping.placement == second.mapping.placement
        assert first.mapping.schedule.start_times == \
            second.mapping.schedule.start_times

    def test_stats_payload_records_the_heuristic_counters(self, cgra_3x3):
        dfg = load_benchmark("bitcount")
        result = HeuristicMapper(
            cgra_3x3, HeuristicConfig(budget_seconds=20.0, seed=2)
        ).map(dfg)
        assert result.success
        stats = result.stats
        assert stats["engine"] == "heuristic"
        assert stats["seed"] == 2
        counters = stats["heuristic"]
        assert counters["schedule_attempts"] >= 1
        assert counters["sa_runs"] >= 1
        assert stats["per_ii"][-1]["ii"] == result.ii
        assert stats["per_ii"][-1]["schedules"] >= 1

    def test_budget_exhaustion_reports_total_timeout(self, cgra_2x2):
        dfg = load_benchmark("cfd")  # 51 nodes on 4 PEs: plenty of work
        result = HeuristicMapper(
            cgra_2x2, HeuristicConfig(budget_seconds=1e-4, seed=1)
        ).map(dfg)
        assert result.status is MappingStatus.TOTAL_TIMEOUT
        assert result.mapping is None
        assert "budget" in result.message

    def test_infeasible_fabric_reports_cleanly(self):
        cgra = build_preset("mul_free_torus", 4, 4).build()
        dfg = load_benchmark("fft")  # contains MULs
        result = HeuristicMapper(
            cgra, HeuristicConfig(budget_seconds=10.0, seed=1)
        ).map(dfg)
        assert result.status is MappingStatus.INFEASIBLE

    def test_opt_pipeline_threads_through(self, cgra_4x4):
        dfg = load_benchmark("aes")
        plain = HeuristicMapper(
            cgra_4x4, HeuristicConfig(budget_seconds=30.0, seed=1)
        ).map(dfg)
        optimized = HeuristicMapper(
            cgra_4x4, HeuristicConfig(budget_seconds=30.0, seed=1,
                                      opt_level="O2")
        ).map(dfg)
        assert plain.success and optimized.success
        assert optimized.opt is not None and optimized.opt.changed
        assert optimized.ii < plain.ii

    def test_never_beats_the_exact_engine(self, cgra_3x3, fast_config):
        for name in ("bitcount", "gsm", "susan"):
            dfg = load_benchmark(name)
            exact = MonomorphismMapper(cgra_3x3, fast_config).map(dfg)
            heuristic = HeuristicMapper(
                cgra_3x3, HeuristicConfig(budget_seconds=30.0, seed=4)
            ).map(dfg)
            assert exact.success and heuristic.success
            assert heuristic.ii >= exact.ii


class TestEngineRegistry:
    def test_aliases_normalize(self):
        assert normalize_engine("mono") == "monomorphism"
        assert normalize_engine("baseline") == "satmapit"
        assert normalize_engine("sa") == "heuristic"
        assert normalize_engine("race") == "portfolio"
        with pytest.raises(ValueError):
            normalize_engine("quantum")

    def test_create_engine_builds_each_backend(self, cgra_2x2):
        from repro.baseline.satmapit import SatMapItMapper
        from repro.heuristic.portfolio import PortfolioMapper

        assert isinstance(create_engine("mono", cgra_2x2),
                          MonomorphismMapper)
        assert isinstance(create_engine("baseline", cgra_2x2),
                          SatMapItMapper)
        assert isinstance(create_engine("heuristic", cgra_2x2, seed=1),
                          HeuristicMapper)
        assert isinstance(create_engine("portfolio", cgra_2x2),
                          PortfolioMapper)

    def test_engines_share_the_map_protocol(self, cgra_2x2, example_dfg):
        for name in ("monomorphism", "heuristic"):
            engine = create_engine(name, cgra_2x2, budget_seconds=20.0,
                                   seed=1)
            result = engine.map(example_dfg)
            assert result.success
            assert validate_mapping(result.mapping) == []

    def test_portfolio_config_rejects_bad_compositions(self):
        with pytest.raises(ValueError):
            PortfolioConfig(engines=("heuristic", "portfolio"))
        with pytest.raises(ValueError):
            PortfolioConfig(engines=("mono", "monomorphism"))
        with pytest.raises(ValueError):
            PortfolioConfig(engines=())
        for budget in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                PortfolioConfig(budget_seconds=budget)

    def test_heuristic_config_validation(self):
        for budget in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                HeuristicConfig(budget_seconds=budget)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_create_engine_rejects_non_finite_budgets(self, name, cgra_2x2):
        # NaN compares false against every deadline: an engine built on it
        # would time out at once or never, so no config accepts it
        for budget in (math.nan, math.inf):
            with pytest.raises(ValueError):
                create_engine(name, cgra_2x2, budget_seconds=budget)
