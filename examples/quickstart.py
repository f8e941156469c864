#!/usr/bin/env python3
"""Quickstart: map a benchmark loop onto a CGRA and inspect the result.

Run with::

    python examples/quickstart.py
"""

from repro import CGRA, MapperConfig, MonomorphismMapper, load_benchmark
from repro.core.validation import validate_mapping


def main() -> None:
    # The loop to accelerate: one of the paper's MiBench benchmarks
    # (a synthetic stand-in with the same node count and RecII).
    dfg = load_benchmark("crc32")
    print(f"DFG {dfg.name!r}: {dfg.num_nodes} nodes, {dfg.num_edges} edges, "
          f"{len(dfg.loop_carried_edges())} loop-carried dependences")

    # The target: a 4x4 CGRA with the paper's torus interconnect.
    cgra = CGRA(4, 4)
    print(f"target: {cgra} ({cgra.num_pes} PEs, D_M={cgra.connectivity_degree})")

    # The mapper: time phase (SAT modulo scheduling), then space phase
    # (monomorphism of the labelled DFG into the MRRG).
    mapper = MonomorphismMapper(cgra, MapperConfig(budget_seconds=60))
    result = mapper.map(dfg)
    print("\nresult:", result.summary())

    mapping = result.mapping
    print("\nkernel configuration (one row per slot, one column per PE):")
    print(mapping.render_kernel())

    print("\nmapping statistics:")
    for key, value in mapping.stats().items():
        print(f"  {key}: {value}")

    violations = validate_mapping(mapping)
    print("\nvalidation:", "OK" if not violations else violations)

    cycles = mapping.total_cycles(iterations=100)
    print(f"\n100 loop iterations execute in {cycles} cycles "
          f"(II={mapping.ii}, schedule length {mapping.schedule_length})")


if __name__ == "__main__":
    main()
