"""Micro-benchmarks of the mapper's building blocks.

Not a paper exhibit, but useful to see where the compilation time goes:
time-phase encoding + SAT solving, MRRG construction, the monomorphism
search itself, and the cycle-level simulator.
"""


from repro.arch.cgra import CGRA
from repro.arch.mrrg import MRRG
from repro.core.config import MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.space_solver import SpaceSolver
from repro.core.time_solver import IncrementalTimeSolver
from repro.sim.executor import MappedLoopExecutor
from repro.sim.reference import ReferenceInterpreter
from repro.workloads.suite import load_benchmark
from repro.workloads.running_example import running_example_dfg


def test_time_phase_encoding_and_solve(benchmark):
    """Time phase (SAT) for hotspot3D (57 nodes) on a 5x5 CGRA at mII."""
    dfg = load_benchmark("hotspot3D")
    cgra = CGRA(5, 5)

    def solve():
        return IncrementalTimeSolver(dfg, cgra).solve(3, timeout_seconds=30)

    schedule = benchmark(solve)
    assert schedule is not None


def test_space_phase_monomorphism_20x20(benchmark):
    """Monomorphism search into a 20x20 MRRG (6400 vertices)."""
    dfg = load_benchmark("particlefilter")
    cgra = CGRA(20, 20)
    schedule = IncrementalTimeSolver(dfg, cgra).solve(9, timeout_seconds=30)
    assert schedule is not None
    solver = SpaceSolver(cgra)

    def place():
        return solver.solve(schedule, timeout_seconds=30)

    result = benchmark(place)
    assert result.found


def test_mrrg_construction_and_degree(benchmark):
    """Implicit MRRG adjacency queries on the largest paper configuration."""

    def build():
        mrrg = MRRG(CGRA(20, 20), ii=16)
        return sum(1 for _ in mrrg.neighbors(mrrg.vertex(0, 0)))

    degree = benchmark(build)
    assert degree == 5 * 16 - 1


def test_full_mapper_running_example(benchmark):
    """Complete decoupled flow on the paper's running example (2x2, II=4)."""
    dfg = running_example_dfg()
    cgra = CGRA(2, 2)
    config = MapperConfig(total_timeout_seconds=20)

    def compile_once():
        return MonomorphismMapper(cgra, config).map(dfg)

    result = benchmark(compile_once)
    assert result.success and result.ii == 4


def test_cycle_level_simulation(benchmark):
    """Cycle-level execution of a mapped kernel for 64 iterations."""
    dfg = load_benchmark("crc32")
    result = MonomorphismMapper(CGRA(4, 4),
                                MapperConfig(total_timeout_seconds=20)).map(dfg)
    assert result.success

    def simulate():
        return MappedLoopExecutor(result.mapping).run(64)

    trace = benchmark(simulate)
    assert trace.iterations == 64


def test_reference_interpreter(benchmark):
    """Sequential reference interpretation for 64 iterations."""
    dfg = load_benchmark("crc32")

    def interpret():
        return ReferenceInterpreter(dfg).run(64)

    trace = benchmark(interpret)
    assert trace.iterations == 64
