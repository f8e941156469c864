#!/usr/bin/env python3
"""Full flow from loop source code to validated CGRA execution.

This is the flow the paper assumes in front of its mapper (there, LLVM IR of
a pragma-annotated loop): parse a C-like loop kernel, extract its DFG
(including loop-carried dependencies through the accumulator), map it onto a
CGRA, and execute the mapping cycle by cycle against real input data,
comparing the result with a plain sequential interpretation.

Run with::

    python examples/kernel_from_source.py
"""

from repro import CGRA, MapperConfig, MonomorphismMapper
from repro.frontend import extract_dfg
from repro.sim.executor import MappedLoopExecutor
from repro.sim.machine import DataMemory
from repro.sim.reference import ReferenceInterpreter

KERNEL_SOURCE = """
    # Dot product with saturation, written in the bundled kernel language.
    array a[32];
    array b[32];
    acc sum = 0;
    for i in 0..32 {
        x = load(a, i);
        y = load(b, i);
        product = x * y;
        sum = min(sum + product, 100000);
    }
"""


def main() -> None:
    # 1. Front end: source text -> DFG with loop-carried dependencies.
    program = extract_dfg(KERNEL_SOURCE, name="saturating_dot")
    dfg = program.dfg
    print(f"extracted DFG: {dfg.num_nodes} nodes, {dfg.num_edges} edges")
    print(f"arrays: {program.arrays}, accumulators: {program.accumulators}")

    # 2. Mapper: decoupled time + space search on a 3x3 CGRA.
    cgra = CGRA(3, 3)
    result = MonomorphismMapper(cgra, MapperConfig(budget_seconds=30)).map(dfg)
    print("\nmapping:", result.summary())
    mapping = result.mapping
    print(mapping.render_kernel())

    # 3. Simulation with concrete data.
    iterations = 16
    memory = DataMemory()
    memory.declare("a", 32, [3 * i + 1 for i in range(32)])
    memory.declare("b", 32, [(7 * i) % 11 for i in range(32)])

    executor = MappedLoopExecutor(
        mapping, memory=memory.copy(), initial_values=program.initial_values
    )
    mapped_trace = executor.run(iterations)

    reference = ReferenceInterpreter(
        dfg, memory=memory.copy(), initial_values=program.initial_values
    )
    reference_trace = reference.run(iterations)

    accumulator_node = program.outputs["sum"]
    mapped_sum = mapped_trace.last_value(accumulator_node)
    reference_sum = reference_trace.last_value(accumulator_node)
    expected = 0
    a = [3 * i + 1 for i in range(32)]
    b = [(7 * i) % 11 for i in range(32)]
    for i in range(iterations):
        expected = min(expected + a[i] * b[i], 100000)

    print(f"\nafter {iterations} iterations:")
    print(f"  CGRA (software pipelined, II={mapping.ii}): sum = {mapped_sum}")
    print(f"  sequential reference:                      sum = {reference_sum}")
    print(f"  hand-computed expectation:                 sum = {expected}")
    assert mapped_sum == reference_sum == expected
    print("\nall three agree.")


if __name__ == "__main__":
    main()
