"""Opt-level sweep: II and compile-time deltas per benchmark.

Maps every requested benchmark at every requested optimization level
(``O0`` = the paper's unoptimized flow) on one array size and prints, side
by side, the post-optimization node count, the achieved II and the total
compilation time per level, plus the II delta and compile-time speedup of
the highest level over the lowest. This is the scenario axis the
``repro.opt`` subsystem opens: the same kernels, the same mapper, different
amounts of compiler in front of it.

Runs through the :class:`~repro.experiments.batch.BatchRunner`, so
``--jobs`` parallelises across (benchmark, level) cases and ``--cache``
makes re-runs free (opt configuration is part of the cache key).

Usage::

    repro-map optsweep --benchmarks aes crc32 sha2 --size 4x4 \
        --opt-levels O0 O1 O2 --jobs 4 --cache opt-results.jsonl
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Sequence

from repro.core.config import positive_seconds
from repro.core.engine import engine_choices
from repro.experiments.batch import BatchCase, BatchRunner
from repro.experiments.runner import parse_size
from repro.opt.pipeline import opt_level_label, parse_opt_level
from repro.reporting.tables import Table, format_seconds
from repro.workloads.suite import benchmark_names, spec

DEFAULT_LEVELS: Sequence[str] = ("O0", "O2")


def build_opt_cases(
    benchmarks: Sequence[str],
    size: str,
    levels: Sequence[int],
    timeout_seconds: float,
    approach: str = "monomorphism",
    arch: Optional[str] = None,
) -> List[BatchCase]:
    """The (benchmark x opt level) grid, ordered benchmark -> level."""
    return [
        BatchCase(benchmark=benchmark, size=size, approach=approach,
                  timeout_seconds=timeout_seconds, arch=arch,
                  opt_level=level)
        for benchmark in benchmarks
        for level in levels
    ]


def _row(benchmark: str, levels: Sequence[int],
         by_case: Dict[tuple, object]) -> Dict[str, object]:
    per_level = {level: by_case.get((benchmark, level)) for level in levels}
    lowest = per_level[levels[0]]
    highest = per_level[levels[-1]]
    ii_delta = None
    speedup = None
    if lowest is not None and highest is not None \
            and lowest.succeeded and highest.succeeded:
        ii_delta = lowest.ii - highest.ii
        if highest.total_seconds:
            speedup = lowest.total_seconds / highest.total_seconds
    return {"benchmark": benchmark, "per_level": per_level,
            "ii_delta": ii_delta, "speedup": speedup}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-map optsweep",
        description="Compare II and compile time across pre-mapping "
                    "optimization levels",
    )
    parser.add_argument("--benchmarks", nargs="+", default=benchmark_names(),
                        help="benchmark subset (default: all 17)")
    parser.add_argument("--size", default="4x4",
                        help="CGRA array size (default 4x4)")
    parser.add_argument("--opt-levels", nargs="+",
                        default=list(DEFAULT_LEVELS),
                        help="levels to compare, e.g. O0 O1 O2 "
                             f"(default: {' '.join(DEFAULT_LEVELS)})")
    parser.add_argument("--approach", default="monomorphism",
                        choices=engine_choices(),
                        help="mapper approach (default: monomorphism)")
    parser.add_argument("--arch", default=None,
                        help="architecture preset or arch-spec JSON path")
    parser.add_argument("--timeout", type=positive_seconds, default=60.0,
                        help="per-case soft timeout in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent worker processes")
    parser.add_argument("--cache", default=None,
                        help="JSONL result cache shared with `sweep`")
    parser.add_argument("--csv", default=None,
                        help="write the result table to a CSV file")
    parser.add_argument("--json", default=None,
                        help="write per-benchmark results to a JSON file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    args = parser.parse_args(list(argv) if argv is not None else None)

    for name in args.benchmarks:
        spec(name)  # fail early on typos
    parse_size(args.size)
    levels = [parse_opt_level(level) for level in args.opt_levels]
    if len(set(levels)) != len(levels):
        raise SystemExit("duplicate --opt-levels")

    cases = build_opt_cases(args.benchmarks, args.size, levels, args.timeout,
                            approach=args.approach, arch=args.arch)
    progress = None if args.quiet else print
    runner = BatchRunner(jobs=args.jobs, cache_path=args.cache,
                         progress=progress)
    report = runner.run(cases)
    by_case = {
        (case.benchmark, case.opt_level): result
        for case, result in zip(cases, report.results)
    }

    labels = [opt_level_label(level) for level in levels]
    headers = ["Benchmark", "Nodes"]
    for label in labels:
        headers += [f"n@{label}", f"II@{label}", f"t@{label}"]
    headers += ["dII", "speedup"]
    table = Table(
        headers=headers,
        title=f"Opt-level sweep -- {args.size} arrays, "
              f"approach={args.approach}"
              + (f", arch={args.arch}" if args.arch else ""),
    )
    rows = [_row(benchmark, levels, by_case)
            for benchmark in args.benchmarks]
    for row in rows:
        cells: List[object] = [row["benchmark"]]
        base = row["per_level"][levels[0]]
        cells.append(base.nodes if base is not None else None)
        for level in levels:
            result = row["per_level"][level]
            if result is None:
                cells += [None, "?", "-"]
            else:
                cells += [
                    result.nodes_opt if result.nodes_opt is not None
                    else result.nodes,
                    result.ii if result.succeeded else result.status,
                    format_seconds(result.total_seconds),
                ]
        cells.append(row["ii_delta"])
        cells.append(f"{row['speedup']:.2f}x"
                     if row["speedup"] is not None else "-")
        table.add_row(*cells)
    print(table.render())
    print(report.summary())

    improved = sum(
        1 for row in rows
        if (row["ii_delta"] or 0) > 0 or (row["speedup"] or 0) > 1.0
    )
    print(f"{improved}/{len(rows)} benchmark(s) improved II or compile "
          f"time at {labels[-1]} vs {labels[0]}")

    if args.csv:
        table.to_csv(args.csv)
        print(f"results written to {args.csv}")
    if args.json:
        payload = []
        for row in rows:
            entry: Dict[str, object] = {"benchmark": row["benchmark"],
                                        "size": args.size,
                                        "approach": args.approach,
                                        "ii_delta": row["ii_delta"],
                                        "speedup": row["speedup"]}
            for level, label in zip(levels, labels):
                result = row["per_level"][level]
                if result is None:
                    continue
                entry[label] = {
                    "status": result.status,
                    "ii": result.ii,
                    "mii": result.mii,
                    "nodes": result.nodes,
                    "nodes_opt": result.nodes_opt,
                    "total_seconds": result.total_seconds,
                }
            payload.append(entry)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"results written to {args.json}")
    return 1 if report.errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
