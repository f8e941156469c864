#!/usr/bin/env python3
"""Exploring architecture variants with the same mapper.

The mapper is parametric in the CGRA description, so architectural questions
("does an open mesh hurt mappability?", "how much does the neighbour-readable
register file matter?") can be answered by re-running the same flow with a
different :class:`repro.CGRA` or :class:`repro.MapperConfig`. This example
compares, for a handful of benchmarks:

* the paper's torus interconnect vs an open mesh,
* the all-pairs MRRG time adjacency (neighbour register files stay readable)
  vs the classic consecutive-slot-only MRRG,
* two *heterogeneous* fabrics from the declarative arch-spec presets
  (memory-capable column, mul-sparse checkerboard).

Run with::

    python examples/custom_architecture.py
"""

from repro import CGRA, MapperConfig, MonomorphismMapper, Topology, TimeAdjacency
from repro.arch.spec import build_preset
from repro.reporting.tables import Table, format_seconds
from repro.workloads import load_benchmark

BENCHMARKS = ["bitcount", "susan", "fft", "crc32"]
TIMEOUT = 20.0


def run_variant(name, cgra, config):
    rows = []
    mapper = MonomorphismMapper(cgra, config)
    for benchmark in BENCHMARKS:
        result = mapper.map(load_benchmark(benchmark))
        rows.append((benchmark, name, result))
    return rows


def main() -> None:
    variants = [
        (
            "torus / all-pairs (paper)",
            CGRA(4, 4, topology=Topology.TORUS),
            MapperConfig(budget_seconds=TIMEOUT),
        ),
        (
            "open mesh / all-pairs",
            CGRA(4, 4, topology=Topology.MESH),
            MapperConfig(budget_seconds=TIMEOUT),
        ),
        (
            "torus / consecutive-only MRRG",
            CGRA(4, 4, topology=Topology.TORUS),
            MapperConfig(budget_seconds=TIMEOUT,
                         time_adjacency=TimeAdjacency.CONSECUTIVE),
        ),
        (
            "memory-column mesh (heterogeneous)",
            build_preset("memory_column_mesh", 4, 4).build(),
            MapperConfig(budget_seconds=TIMEOUT),
        ),
        (
            "mul-sparse checkerboard (heterogeneous)",
            build_preset("mul_sparse_checkerboard", 4, 4).build(),
            MapperConfig(budget_seconds=TIMEOUT),
        ),
    ]

    table = Table(
        headers=["Benchmark", "Architecture variant", "Status", "II", "mII",
                 "Total time"],
        title="Mapping quality across architecture variants (4x4 CGRA)",
    )
    for name, cgra, config in variants:
        print(f"running variant: {name} "
              f"(uniform degree: {cgra.has_uniform_degree})")
        for benchmark, variant_name, result in run_variant(name, cgra, config):
            table.add_row(
                benchmark,
                variant_name,
                result.status.value,
                result.ii,
                result.mii,
                format_seconds(result.total_seconds),
            )
    print()
    print(table.render())
    print(
        "\nNote: with the consecutive-only MRRG a dependence must be consumed"
        "\non the very next slot, so some schedules that the paper's"
        "\narchitecture accepts become unplaceable and the mapper falls back"
        "\nto a larger II (or fails) -- this is exactly the architectural"
        "\nrestriction the paper lifts with neighbour-readable register files."
    )


if __name__ == "__main__":
    main()
