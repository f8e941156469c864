"""Cross-module integration and property-based tests.

These tests exercise the full pipeline (DFG -> time phase -> space phase ->
validation -> cycle-level execution) on randomly generated inputs, checking
the invariants the paper's proof relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.core.config import MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.space_solver import SpaceSolver
from repro.core.time_solver import IncrementalTimeSolver
from repro.core.validation import validate_mapping
from repro.graphs.analysis import min_ii
from repro.graphs.generators import layered_dfg, random_dfg
from repro.sim.executor import run_and_compare

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**_SETTINGS)
@given(
    num_nodes=st.integers(min_value=5, max_value=18),
    num_loop_carried=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_mapper_results_always_validate_and_execute(num_nodes, num_loop_carried,
                                                    seed):
    """Whatever the mapper returns must be structurally valid.

    Random DFGs are not arity-consistent (their opcodes are decorative), so
    only the structural properties are checked here; functional execution is
    covered by the workload and front-end simulator tests.
    """
    dfg = random_dfg(num_nodes, edge_probability=0.15,
                     num_loop_carried=num_loop_carried, seed=seed)
    cgra = CGRA(4, 4)
    config = MapperConfig(time_timeout_seconds=20, space_timeout_seconds=20,
                          total_timeout_seconds=40)
    result = MonomorphismMapper(cgra, config).map(dfg)
    if result.success:
        assert result.ii >= min_ii(dfg, cgra.num_pes)
        assert validate_mapping(result.mapping) == []
    else:
        # the mapper must fail cleanly, never with an invalid mapping
        assert result.mapping is None
        assert result.status is not None


@pytest.mark.parametrize("workload", ["susan", "lud", "gsm", "fft", "bitcount",
                                      "particlefilter", "hotspot3D"])
def test_paper_theorem_time_solution_implies_space_solution(workload):
    """Sec. IV-D: under capacity + connectivity constraints and a uniform-
    degree (torus) CGRA, a time solution admits a space solution.

    Checked on the paper's benchmark DFGs at their mII on a 5x5 array (the
    paper's own evaluation setting); the strict connectivity variant is used
    to close the known blind spot of the local bound (see DESIGN.md).
    """
    from repro.workloads.suite import load_benchmark

    dfg = load_benchmark(workload)
    cgra = CGRA(5, 5)  # torus, uniform degree
    config = MapperConfig(strict_connectivity=True)
    ii = min_ii(dfg, cgra.num_pes)
    solver = IncrementalTimeSolver(dfg, cgra, config)
    space = SpaceSolver(cgra, config)
    found_any = False
    for schedule in solver.iter_schedules(ii, limit=3, timeout_seconds=20):
        found_any = True
        result = space.solve(schedule, timeout_seconds=20)
        assert result.found, (
            f"schedule of {workload} satisfied the time constraints "
            f"but no monomorphism was found"
        )
    assert found_any, f"no schedule exists at mII={ii} for {workload}"


@settings(**_SETTINGS)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=4), min_size=2,
                    max_size=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_layered_graphs_map_on_wide_cgra(widths, seed):
    dfg = layered_dfg(widths, seed=seed)
    cgra = CGRA(5, 5)
    config = MapperConfig(time_timeout_seconds=20, space_timeout_seconds=20,
                          total_timeout_seconds=40, max_ii=8)
    result = MonomorphismMapper(cgra, config).map(dfg)
    if result.success:
        assert validate_mapping(result.mapping) == []
    else:
        assert result.mapping is None


def test_decoupled_and_baseline_agree_on_ii_for_small_graphs():
    """Quality parity claim of the paper, on a deterministic mini-sweep."""
    from repro.baseline.satmapit import SatMapItMapper
    from repro.core.config import BaselineConfig

    cgra = CGRA(2, 2)
    for seed in range(3):
        dfg = random_dfg(8, edge_probability=0.2, num_loop_carried=1, seed=seed)
        decoupled = MonomorphismMapper(
            cgra, MapperConfig(total_timeout_seconds=30)).map(dfg)
        coupled = SatMapItMapper(cgra, BaselineConfig(timeout_seconds=30)).map(dfg)
        assert decoupled.success and coupled.success
        assert decoupled.ii == coupled.ii


def test_full_flow_from_source_to_execution():
    """README's end-to-end story: source text -> mapping -> correct values."""
    from repro.frontend import extract_dfg
    from repro.sim.machine import DataMemory

    program = extract_dfg("""
        array a[16];
        acc best = 0;
        for i in 0..16 {
            x = load(a, i);
            best = max(best, x * x);
        }
    """)
    result = MonomorphismMapper(
        CGRA(3, 3), MapperConfig(total_timeout_seconds=30)).map(program.dfg)
    assert result.success
    memory = DataMemory()
    values = [((7 * i) % 13) - 6 for i in range(16)]
    memory.declare("a", 16, values)
    mapped, reference = run_and_compare(
        result.mapping, iterations=16, memory=memory,
        initial_values=program.initial_values)
    best_node = program.outputs["best"]
    assert mapped.last_value(best_node) == max(v * v for v in values)
