"""Tests for the experiment drivers (Tables I-III, Fig. 5, ablation)."""

import pytest

from repro.experiments import ablation, arch_sweep, fig5, table1_table2, table3
from repro.experiments.paper_data import (
    PAPER_AVERAGE_CTR,
    PAPER_FIG5_AES,
    PAPER_TABLE3,
)
from repro.core.engine import create_engine
from repro.experiments.runner import (
    average,
    build_cgra,
    compilation_time_ratio,
    decoupled_config,
    parse_size,
    run_case,
)


class TestRunner:
    def test_parse_size(self):
        assert parse_size("10x10") == (10, 10)
        assert build_cgra("3x4").num_pes == 12
        with pytest.raises(ValueError):
            parse_size("abc")
        with pytest.raises(ValueError):
            parse_size("0x3")

    def test_average_ignores_timeouts(self):
        assert average([1.0, None, 3.0]) == 2.0
        assert average([None, None]) is None

    def test_benchmark_config_is_the_sweeps_config(self):
        # perfbench times decoupled_config; sweeps run create_engine's
        cgra = build_cgra("4x4")
        for timeout in (0.5, 60.0):
            engine = create_engine("monomorphism", cgra,
                                   budget_seconds=timeout)
            assert decoupled_config(timeout) == engine.config

    def test_decoupled_and_baseline_cases(self):
        mono = run_case("bitcount", "2x2", "monomorphism", timeout_seconds=30)
        base = run_case("bitcount", "2x2", "satmapit", timeout_seconds=30)
        assert mono.succeeded and base.succeeded
        assert mono.ii == base.ii == 3
        ratio = compilation_time_ratio(mono, base)
        assert ratio is None or ratio > 0


class TestPaperData:
    def test_every_benchmark_covered_for_every_size(self):
        for size, entries in PAPER_TABLE3.items():
            assert len(entries) == 17, size

    def test_average_ctr_reported_for_all_sizes(self):
        assert set(PAPER_AVERAGE_CTR) == set(PAPER_TABLE3)
        assert PAPER_AVERAGE_CTR["20x20"] == pytest.approx(10288.89)

    def test_ctr_computation(self):
        aes_2x2 = PAPER_TABLE3["2x2"]["aes"]
        assert aes_2x2.mono_total == pytest.approx(0.42)
        assert aes_2x2.ctr == pytest.approx(2.57 / 0.42, rel=1e-3)
        assert PAPER_TABLE3["2x2"]["cfd"].ctr is None

    def test_fig5_series_derived_from_table3(self):
        assert PAPER_FIG5_AES["satmapit"]["20x20"] is None
        assert PAPER_FIG5_AES["monomorphism"]["2x2"] == pytest.approx(0.42)

    def test_paper_speedups_grow_with_cgra_size(self):
        values = [PAPER_AVERAGE_CTR[s] for s in ("2x2", "5x5", "10x10", "20x20")]
        assert values == sorted(values)


class TestTable1Table2:
    def test_table1_matches_paper(self):
        table = table1_table2.build_table1()
        assert len(table) == 6
        assert all(match == "yes" for match in table.column("match"))

    def test_table2_structure(self):
        table = table1_table2.build_table2(ii=4)
        assert len(table) == 4

    def test_summary_lines(self):
        lines = table1_table2.summary_lines()
        assert any("mII" in line and "4" in line for line in lines)

    def test_main_runs(self, capsys):
        assert table1_table2.main([]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output and "Table II" in output


class TestTable3Driver:
    def test_small_block_without_baseline(self):
        block = table3.run_size_block(
            "2x2", ["bitcount", "susan"], timeout_seconds=30, run_baseline=False
        )
        table = table3.block_to_table(block)
        assert len(table) == 3  # two benchmarks + average row
        rendered = table.render()
        assert "bitcount" in rendered and "paper II" in rendered

    def test_small_block_with_baseline_and_checks(self):
        block = table3.run_size_block(
            "2x2", ["bitcount"], timeout_seconds=30, run_baseline=True
        )
        lines = table3.qualitative_checks(block)
        assert any("same II" in line for line in lines)

    def test_main_with_subset(self, capsys):
        code = table3.main([
            "--sizes", "2x2", "--benchmarks", "bitcount", "--timeout", "30",
            "--no-baseline",
        ])
        assert code == 0
        assert "Table III block" in capsys.readouterr().out


class TestFig5Driver:
    def test_run_fig5_small(self):
        data = fig5.run_fig5(benchmark="bitcount", sizes=["2x2", "3x3"],
                             timeout_seconds=30, run_baseline=False)
        assert len(data["rows"]) == 2
        table = fig5.fig5_table(data)
        assert len(table) == 2

    def test_main_small(self, capsys):
        code = fig5.main(["--benchmark", "bitcount", "--sizes", "2x2",
                          "--timeout", "30", "--no-baseline"])
        assert code == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestArchSweepDriver:
    def test_build_arch_cases_grid(self):
        cases = arch_sweep.build_arch_cases(
            ["bitcount", "susan"], "3x3",
            ["homogeneous_torus", "mul_free_torus"], 20.0,
        )
        assert len(cases) == 4
        assert [(c.benchmark, c.arch) for c in cases] == [
            ("bitcount", "homogeneous_torus"),
            ("bitcount", "mul_free_torus"),
            ("susan", "homogeneous_torus"),
            ("susan", "mul_free_torus"),
        ]
        assert all(c.size == "3x3" for c in cases)

    def test_main_compares_fabrics(self, capsys):
        code = arch_sweep.main([
            "--benchmarks", "fft", "--size", "4x4",
            "--archs", "homogeneous_torus", "mul_free_torus",
            "--timeout", "30", "--quiet",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "II per fabric" in output
        # fft needs muls: feasible on the torus, infeasible mul-free
        assert "infeasible" in output

    def test_main_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError):
            arch_sweep.main(["--benchmarks", "not_a_benchmark", "--quiet"])

    def test_main_rejects_unknown_arch_before_spawning_workers(self):
        with pytest.raises(ValueError):
            arch_sweep.main(["--benchmarks", "bitcount",
                             "--archs", "mul_sparse_checkerbord",  # typo
                             "--quiet"])


class TestAblationDriver:
    def test_variants_defined(self):
        assert "full" in ablation.VARIANTS
        assert "no-connectivity" in ablation.VARIANTS

    def test_run_ablation_subset(self):
        records = ablation.run_ablation(
            ["bitcount"], size="2x2", timeout_seconds=20,
            variants=["full", "no-connectivity"],
        )
        assert len(records) == 2
        table = ablation.ablation_table(records)
        assert len(table) == 2
        statuses = {r["variant"]: r["status"] for r in records}
        assert statuses["full"] == "success"
