"""Ablation study of the mapper's design choices.

The paper motivates three ingredients without isolating their cost/benefit:
the capacity constraints, the connectivity constraints (both added to the
time formulation so that a space solution is guaranteed), and the
all-time-pairs MRRG adjacency enabled by neighbour-readable register files.
This driver measures the mapper with each ingredient toggled, plus the
torus-symmetry seeding of the space search, on a configurable benchmark
subset. It regenerates the ablation discussed in DESIGN.md (not a paper
exhibit).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence

from repro.arch.mrrg import TimeAdjacency
from repro.core.config import MapperConfig, positive_seconds
from repro.core.mapper import MonomorphismMapper
from repro.experiments.runner import build_cgra
from repro.reporting.tables import Table, format_seconds
from repro.workloads.suite import load_benchmark

#: The ablation variants: name -> MapperConfig overrides.
VARIANTS: Dict[str, Dict[str, object]] = {
    "full": {},
    "no-capacity": {"enforce_capacity": False},
    "no-connectivity": {"enforce_connectivity": False},
    "no-cap-no-conn": {"enforce_capacity": False, "enforce_connectivity": False},
    "strict-connectivity": {"strict_connectivity": True},
    "consecutive-mrrg": {"time_adjacency": TimeAdjacency.CONSECUTIVE},
    "no-symmetry-pin": {"pin_first_placement": False},
}


def run_ablation(
    benchmarks: Sequence[str],
    size: str = "5x5",
    timeout_seconds: float = 30.0,
    variants: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Run every variant on every benchmark; returns one record per pair."""
    chosen = list(variants) if variants else list(VARIANTS)
    records: List[Dict[str, object]] = []
    cgra = build_cgra(size)
    for name in benchmarks:
        dfg = load_benchmark(name)
        for variant in chosen:
            overrides = VARIANTS[variant]
            config = MapperConfig(budget_seconds=timeout_seconds,
                                  **overrides)
            mapper = MonomorphismMapper(cgra, config)
            started = time.monotonic()
            result = mapper.map(dfg)
            elapsed = time.monotonic() - started
            records.append({
                "benchmark": name,
                "variant": variant,
                "size": size,
                "status": result.status.value,
                "ii": result.ii,
                "mii": result.mii,
                "schedules_tried": result.schedules_tried,
                "time_phase": result.time_phase_seconds,
                "space_phase": result.space_phase_seconds,
                "total": elapsed,
            })
    return records


def ablation_table(records: Sequence[Dict[str, object]]) -> Table:
    table = Table(
        headers=["Benchmark", "Variant", "Status", "II", "mII",
                 "Schedules", "Time phase", "Space phase", "Total"],
        title="Ablation of the mapper's design choices",
    )
    for record in records:
        table.add_row(
            record["benchmark"],
            record["variant"],
            record["status"],
            record["ii"],
            record["mii"],
            record["schedules_tried"],
            format_seconds(record["time_phase"]),
            format_seconds(record["space_phase"]),
            format_seconds(record["total"]),
        )
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-map ablation",
                                     description=__doc__)
    parser.add_argument("--benchmarks", nargs="+",
                        default=["aes", "backprop", "susan"])
    parser.add_argument("--size", default="5x5")
    parser.add_argument("--timeout", type=positive_seconds, default=30.0)
    parser.add_argument("--variants", nargs="+", default=None,
                        choices=list(VARIANTS), help="subset of variants")
    parser.add_argument("--csv", type=str, default=None)
    args = parser.parse_args(argv)

    records = run_ablation(
        args.benchmarks, size=args.size, timeout_seconds=args.timeout,
        variants=args.variants,
    )
    table = ablation_table(records)
    print(table.render())
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwritten {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
