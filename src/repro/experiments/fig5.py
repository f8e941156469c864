"""Reproduce paper Fig. 5: compilation time vs CGRA size for ``aes``.

The paper's figure shows that the coupled SAT-MapIt compilation time grows
steeply with the CGRA size while the decoupled monomorphism mapper stays
flat. This driver measures both mappers on the requested sizes, prints an
ASCII chart (log-scale y axis, like the paper) and the underlying numbers
next to the paper's values.
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import positive_seconds
from repro.experiments.paper_data import PAPER_TABLE3
from repro.experiments.runner import (
    CaseResult,
    DEFAULT_SIZES,
    run_case,
)
from repro.reporting.figures import Series, render_line_chart, series_to_csv
from repro.reporting.tables import Table, format_seconds


def run_fig5(
    benchmark: str = "aes",
    sizes: Sequence[str] = DEFAULT_SIZES,
    timeout_seconds: float = 60.0,
    run_baseline: bool = True,
    results: Optional[Dict[Tuple[str, str, str], CaseResult]] = None,
    opt_level: int = 0,
) -> Dict[str, object]:
    """Collect the Fig. 5 data points.

    ``results`` may hold precomputed cases keyed by
    ``(benchmark, size, approach)`` -- the batch engine fills it when the
    driver runs with ``--jobs``/``--cache``; missing cases run inline.
    """

    def case_for(name: str, size: str, approach: str) -> CaseResult:
        if results is not None:
            hit = results.get((name, size, approach))
            if hit is not None:
                return hit
        return run_case(name, size, approach, timeout_seconds,
                        opt_level=opt_level)

    measured_mono = Series(label="monomorphism (measured)")
    measured_base = Series(label="SAT-MapIt baseline (measured)")
    paper_mono = Series(label="monomorphism (paper)")
    paper_base = Series(label="SAT-MapIt (paper)")
    rows: List[Dict[str, object]] = []
    for size in sizes:
        mono = case_for(benchmark, size, "monomorphism")
        # timeouts now carry their elapsed time; the chart still excludes them
        measured_mono.add(size, mono.total_seconds if mono.succeeded else None)
        baseline = None
        if run_baseline:
            baseline = case_for(benchmark, size, "satmapit")
            measured_base.add(
                size, baseline.total_seconds if baseline.succeeded else None
            )
        else:
            measured_base.add(size, None)
        paper_entry = PAPER_TABLE3.get(size, {}).get(benchmark)
        paper_mono.add(size, paper_entry.mono_total if paper_entry else None)
        paper_base.add(size, paper_entry.satmapit_time if paper_entry else None)
        rows.append({"size": size, "mono": mono, "baseline": baseline,
                     "paper": paper_entry})
    return {
        "benchmark": benchmark,
        "series": [measured_mono, measured_base, paper_mono, paper_base],
        "rows": rows,
    }


def fig5_table(data: Dict[str, object]) -> Table:
    table = Table(
        headers=["CGRA", "mono (s)", "baseline (s)",
                 "paper mono (s)", "paper SAT-MapIt (s)", "II", "paper II"],
        title=f"Fig. 5 -- compilation time vs CGRA size for "
              f"{data['benchmark']!r}",
    )
    for row in data["rows"]:
        mono = row["mono"]
        baseline = row["baseline"]
        paper = row["paper"]
        table.add_row(
            row["size"],
            format_seconds(mono.total_seconds) if mono.succeeded else "TO",
            ("skipped" if baseline is None
             else format_seconds(baseline.total_seconds)
             if baseline.succeeded else "TO"),
            format_seconds(paper.mono_total) if paper else "-",
            format_seconds(paper.satmapit_time) if paper else "-",
            mono.ii,
            paper.ii if paper else None,
        )
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-map fig5",
                                     description=__doc__)
    parser.add_argument("--benchmark", default="aes")
    parser.add_argument("--sizes", nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--timeout", type=positive_seconds, default=60.0)
    parser.add_argument("--no-baseline", action="store_true")
    parser.add_argument("--csv", type=str, default=None)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="run the cases through the parallel batch "
                             "engine with this many workers "
                             "(default: all CPUs)")
    parser.add_argument("--cache", type=str, default=None,
                        help="JSONL result cache shared with 'repro-map "
                             "sweep'")
    parser.add_argument("--opt-level", default="O0",
                        help="pre-mapping optimization level for both "
                             "mappers (O0..O2, default O0)")
    args = parser.parse_args(argv)
    from repro.opt.pipeline import parse_opt_level
    opt_level = parse_opt_level(args.opt_level)

    results = None
    if args.jobs > 1 or args.cache:
        from repro.experiments.batch import (
            BatchRunner, build_cases, results_by_case,
        )
        approaches = ["monomorphism"]
        if not args.no_baseline:
            approaches.append("satmapit")
        cases = build_cases([args.benchmark], args.sizes, approaches,
                            args.timeout, opt_level=opt_level)
        report = BatchRunner(jobs=max(1, args.jobs),
                             cache_path=args.cache).run(cases)
        results = results_by_case(cases, report)
        print(report.summary() + "\n")

    data = run_fig5(
        benchmark=args.benchmark,
        sizes=args.sizes,
        timeout_seconds=args.timeout,
        run_baseline=not args.no_baseline,
        results=results,
        opt_level=opt_level,
    )
    print(fig5_table(data).render())
    print()
    print(render_line_chart(
        data["series"],
        title=f"Fig. 5 -- compilation time (s) vs CGRA size, "
              f"{args.benchmark} benchmark",
    ))
    if args.csv:
        series_to_csv(data["series"], args.csv)
        print(f"\nseries written to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
