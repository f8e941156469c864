"""Architecture-scenario sweep: II across heterogeneous fabrics.

For a set of benchmarks and one array size, map every benchmark onto every
requested fabric (presets from :mod:`repro.arch.spec` and/or spec files)
and print the achieved II side by side. This is the scenario axis the
ROADMAP calls for: the same kernels, the same mapper, different hardware --
memory-capable columns, mul-sparse checkerboards, or any fabric described
in a JSON spec.

Runs through the :class:`~repro.experiments.batch.BatchRunner`, so
``--jobs`` parallelises across (benchmark, fabric) cases and ``--cache``
makes re-runs free.

Usage::

    repro-map archsweep --benchmarks bitcount susan --size 4x4 \
        --archs homogeneous_torus memory_column_mesh mul_sparse_checkerboard \
        --jobs 4 --cache arch-results.jsonl
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.arch.spec import preset_names, resolve_arch
from repro.core.config import positive_seconds
from repro.core.engine import engine_choices
from repro.experiments.batch import BatchCase, BatchRunner
from repro.experiments.runner import parse_size
from repro.reporting.tables import Table
from repro.workloads.suite import spec

DEFAULT_BENCHMARKS: Sequence[str] = ("bitcount", "susan", "crc32", "fft")
DEFAULT_ARCHS: Sequence[str] = (
    "homogeneous_torus",
    "memory_column_mesh",
    "mul_sparse_checkerboard",
)


def build_arch_cases(
    benchmarks: Sequence[str],
    size: str,
    archs: Sequence[str],
    timeout_seconds: float,
    approach: str = "monomorphism",
) -> List[BatchCase]:
    """The (benchmark x fabric) grid, ordered benchmark -> fabric."""
    return [
        BatchCase(benchmark=benchmark, size=size, approach=approach,
                  timeout_seconds=timeout_seconds, arch=arch)
        for benchmark in benchmarks
        for arch in archs
    ]


def _cell(result) -> str:
    if result is None:
        return "?"
    if result.succeeded:
        return str(result.ii)
    return result.status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-map archsweep",
        description="Compare achieved II across CGRA fabrics "
                    "(architecture presets and/or arch-spec JSON files)",
    )
    parser.add_argument("--benchmarks", nargs="+",
                        default=list(DEFAULT_BENCHMARKS),
                        help="benchmark subset (default: a 4-kernel sample)")
    parser.add_argument("--size", default="4x4",
                        help="array size used for the presets (default 4x4)")
    parser.add_argument("--archs", nargs="+", default=list(DEFAULT_ARCHS),
                        help=f"fabrics to compare: presets {preset_names()} "
                             "or paths to arch-spec JSON files")
    parser.add_argument("--approach", default="monomorphism",
                        choices=engine_choices(),
                        help="mapper approach (default: decoupled)")
    parser.add_argument("--timeout", type=positive_seconds, default=60.0,
                        help="per-case soft timeout in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent worker processes")
    parser.add_argument("--cache", default=None,
                        help="JSONL result cache shared with `sweep`")
    parser.add_argument("--csv", default=None,
                        help="write the result table to a CSV file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    args = parser.parse_args(list(argv) if argv is not None else None)

    for name in args.benchmarks:
        spec(name)  # fail early on typos
    rows, cols = parse_size(args.size)
    for arch in args.archs:
        resolve_arch(arch, rows, cols)  # fail early, not one worker per case

    cases = build_arch_cases(args.benchmarks, args.size, args.archs,
                             args.timeout, approach=args.approach)
    progress = None if args.quiet else print
    runner = BatchRunner(jobs=args.jobs, cache_path=args.cache,
                         progress=progress)
    report = runner.run(cases)

    by_case = {
        (case.benchmark, case.arch): result
        for case, result in zip(cases, report.results)
    }
    table = Table(
        headers=["Benchmark"] + [str(a) for a in args.archs],
        title=f"II per fabric -- {args.size} arrays, "
              f"approach={args.approach} (non-numeric cell = status)",
    )
    for benchmark in args.benchmarks:
        table.add_row(
            benchmark,
            *[_cell(by_case.get((benchmark, arch))) for arch in args.archs],
        )
    print(table.render())
    print(report.summary())
    if args.csv:
        table.to_csv(args.csv)
        print(f"results written to {args.csv}")
    return 1 if report.errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
