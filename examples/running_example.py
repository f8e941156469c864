#!/usr/bin/env python3
"""The paper's running example, end to end (Fig. 2, Fig. 3, Fig. 4, Tables I-II).

Reconstructs the 14-node DFG of Fig. 2a, prints its ASAP/ALAP/Mobility
Schedule (Table I) and Kernel Mobility Schedule (Table II), builds the MRRG
of a 2x2 CGRA with II=4 (Fig. 3), maps the DFG with the decoupled mapper
(Fig. 2b / Fig. 4) and finally validates the mapping functionally on the
cycle-level simulator.

Run with::

    python examples/running_example.py
"""

from repro import CGRA, MapperConfig, MonomorphismMapper, running_example_dfg
from repro.arch.mrrg import MRRG
from repro.experiments.table1_table2 import build_table1, build_table2, summary_lines
from repro.sim.executor import run_and_compare


def main() -> None:
    dfg = running_example_dfg()
    print(f"running example: {dfg.num_nodes} nodes, "
          f"{len(dfg.data_edges())} data edges, "
          f"{len(dfg.loop_carried_edges())} loop-carried edges\n")

    # Table I and the mII derivation.
    print(build_table1().render())
    print()
    for line in summary_lines():
        print(line)
    print()

    # Table II: the KMS for II = 4.
    print(build_table2(ii=4).render())
    print()

    # Fig. 3: the MRRG of a 2x2 CGRA with II = 4.
    cgra = CGRA(2, 2)
    mrrg = MRRG(cgra, ii=4)
    print(mrrg.describe())
    print(f"per-slot capacity: {mrrg.capacity_per_slot()}, "
          f"connectivity degree D_M = {mrrg.connectivity_degree}\n")

    # Fig. 2b / Fig. 4: the mapping found by the decoupled mapper.
    result = MonomorphismMapper(cgra, MapperConfig(budget_seconds=30)).map(dfg)
    print("mapping:", result.summary())
    mapping = result.mapping
    print()
    print(mapping.render_kernel())
    print(f"\nprologue: {mapping.prologue_cycles()} cycles, "
          f"kernel: II={mapping.ii}, epilogue: {mapping.epilogue_cycles()} cycles")

    # Functional validation: software-pipelined execution == sequential run.
    run_and_compare(mapping, iterations=12)
    print("\nsimulation: mapped execution matches the sequential reference "
          "over 12 iterations")


if __name__ == "__main__":
    main()
