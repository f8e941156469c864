"""Reproduce paper Table III: II and compilation time on the 17 benchmarks.

For every requested CGRA size the driver runs the decoupled monomorphism
mapper and the SAT-MapIt-style coupled baseline on every benchmark, then
prints a table in the paper's format (per-phase times, delta, compilation
time ratio, II, mII) together with the values the paper reports.

Absolute times cannot match the paper (a pure-Python CDCL solver replaces Z3
and the machine differs); the claims checked are qualitative and summarised
at the end of each block: identical II where both approaches finish, and a
CTR (baseline / monomorphism) that grows with the CGRA size.

Run e.g.::

    python -m repro.experiments.table3 --sizes 2x2 5x5 --timeout 60
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import positive_seconds
from repro.experiments.paper_data import PAPER_AVERAGE_CTR, PAPER_TABLE3
from repro.experiments.runner import (
    CaseResult,
    DEFAULT_SIZES,
    average,
    compilation_time_ratio,
    run_case,
)
from repro.reporting.tables import Table, format_ratio, format_seconds
from repro.workloads.suite import benchmark_names, spec


def run_size_block(
    size: str,
    benchmarks: Sequence[str],
    timeout_seconds: float,
    run_baseline: bool = True,
    verbose: bool = False,
    results: Optional[Dict[Tuple[str, str, str], CaseResult]] = None,
    opt_level: int = 0,
) -> Dict[str, object]:
    """Run one CGRA-size block of Table III and return its data.

    ``results`` may hold precomputed cases keyed by
    ``(benchmark, size, approach)`` -- filled by the batch engine when the
    driver runs with ``--jobs``/``--cache``; missing cases run inline.
    """

    def case_for(name: str, approach: str) -> CaseResult:
        if results is not None:
            hit = results.get((name, size, approach))
            if hit is not None:
                return hit
        return run_case(name, size, approach, timeout_seconds,
                        opt_level=opt_level)

    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        mono = case_for(name, "monomorphism")
        if run_baseline:
            baseline = case_for(name, "satmapit")
        else:
            baseline = None
        ratio = compilation_time_ratio(mono, baseline) if baseline else None
        paper = PAPER_TABLE3.get(size, {}).get(name)
        rows.append({
            "benchmark": name,
            "nodes": mono.nodes,
            "mono": mono,
            "baseline": baseline,
            "ctr": ratio,
            "paper": paper,
        })
        if verbose:
            mono_text = (
                format_seconds(mono.total_seconds) if mono.succeeded else "TO"
            )
            base_text = (
                "skipped" if baseline is None
                else format_seconds(baseline.total_seconds)
                if baseline.succeeded else "TO"
            )
            print(f"  [{size}] {name}: mono={mono_text}s II={mono.ii} "
                  f"baseline={base_text}s II={baseline.ii if baseline else '-'}")
    return {"size": size, "rows": rows}


def _final_ii_seconds(case: Optional[CaseResult]) -> Optional[float]:
    """Solver seconds spent at the final (for successes: the achieved) II.

    Comes from the per-II attribution the engines record into
    ``MappingResult.stats`` and the batch layer persists on
    :class:`CaseResult` -- the "how much of the budget did the last II
    burn" view the ROADMAP's solver-observability axis asked for.
    """
    if case is None or not case.per_ii:
        return None
    last = case.per_ii[-1]
    return (last.get("time") or 0.0) + (last.get("space") or 0.0)


def block_to_table(block: Dict[str, object]) -> Table:
    size = block["size"]
    table = Table(
        headers=[
            "Benchmark", "Nodes",
            "Time", "Space", "SAT-MapIt", "dT", "CTR",
            "II", "II(base)", "mII", "IIs", "t@II",
            "paper II", "paper mII", "paper CTR",
        ],
        title=f"Table III block -- {size} CGRA "
              f"(paper average CTR {PAPER_AVERAGE_CTR.get(size, float('nan')):.2f}x)",
    )
    ctrs: List[Optional[float]] = []
    mono_totals: List[Optional[float]] = []
    baseline_totals: List[Optional[float]] = []
    for row in block["rows"]:
        mono: CaseResult = row["mono"]
        baseline: Optional[CaseResult] = row["baseline"]
        paper = row["paper"]
        delta = None
        if mono.succeeded and baseline is not None and baseline.succeeded:
            delta = mono.total_seconds - baseline.total_seconds
        table.add_row(
            row["benchmark"],
            row["nodes"],
            format_seconds(mono.time_phase_seconds) if mono.succeeded else "TO",
            format_seconds(mono.space_phase_seconds) if mono.succeeded else "-",
            (format_seconds(baseline.total_seconds)
             if baseline is not None and baseline.succeeded
             else ("TO" if baseline is not None else "skipped")),
            format_seconds(delta) if delta is not None else "-",
            format_ratio(row["ctr"]),
            mono.ii,
            baseline.ii if baseline is not None else None,
            mono.mii,
            mono.iis_tried or (len(mono.per_ii) if mono.per_ii else None),
            format_seconds(_final_ii_seconds(mono)),
            paper.ii if paper else None,
            paper.mii if paper else None,
            format_ratio(paper.ctr) if paper else "-",
        )
        ctrs.append(row["ctr"])
        mono_totals.append(mono.total_seconds if mono.succeeded else None)
        if baseline is not None:
            baseline_totals.append(
                baseline.total_seconds if baseline.succeeded else None
            )
    mean_ctr = average(ctrs)
    table.add_row(
        "Average", None,
        format_seconds(average(mono_totals)), None,
        format_seconds(average(baseline_totals)) if baseline_totals else "-",
        None,
        format_ratio(mean_ctr),
        None, None, None, None, None, None, None,
        format_ratio(PAPER_AVERAGE_CTR.get(block["size"])),
    )
    return table


def qualitative_checks(block: Dict[str, object]) -> List[str]:
    """The paper's headline claims, evaluated on the measured block."""
    same_ii = 0
    comparable = 0
    wins = 0
    finished_pairs = 0
    for row in block["rows"]:
        mono: CaseResult = row["mono"]
        baseline: Optional[CaseResult] = row["baseline"]
        if baseline is None:
            continue
        if mono.succeeded and baseline.succeeded:
            comparable += 1
            if mono.ii == baseline.ii:
                same_ii += 1
            finished_pairs += 1
            if mono.total_seconds <= baseline.total_seconds:
                wins += 1
    lines = []
    if comparable:
        lines.append(
            f"same II as the baseline in {same_ii}/{comparable} cases "
            "(paper: same II in 57/62 solved cases overall)"
        )
        lines.append(
            f"monomorphism mapper is at least as fast in {wins}/{finished_pairs} "
            "finished pairs"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", nargs="+", default=list(DEFAULT_SIZES),
                        help="CGRA sizes to run (e.g. 2x2 5x5 10x10 20x20)")
    parser.add_argument("--benchmarks", nargs="+", default=benchmark_names(),
                        help="benchmark subset to run")
    parser.add_argument("--timeout", type=positive_seconds, default=60.0,
                        help="per-case timeout in seconds (paper used 4000)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the SAT-MapIt-style baseline")
    parser.add_argument("--csv-prefix", type=str, default=None,
                        help="write one CSV per size with this prefix")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="run the cases through the parallel batch "
                             "engine with this many workers "
                             "(default: all CPUs)")
    parser.add_argument("--cache", type=str, default=None,
                        help="JSONL result cache shared with 'repro-map "
                             "sweep'; solved cases are skipped")
    parser.add_argument("--opt-level", default="O0",
                        help="pre-mapping optimization level for both "
                             "mappers (O0..O2, default O0; the paper's "
                             "numbers are O0)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    for name in args.benchmarks:
        spec(name)  # fail early on typos
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
        cases = build_cases(args.benchmarks, args.sizes, approaches,
                            args.timeout, opt_level=opt_level)
        runner = BatchRunner(
            jobs=max(1, args.jobs),
            cache_path=args.cache,
            progress=print if args.verbose else None,
        )
        report = runner.run(cases)
        results = results_by_case(cases, report)
        print(report.summary() + "\n")

    for size in args.sizes:
        block = run_size_block(
            size,
            args.benchmarks,
            args.timeout,
            run_baseline=not args.no_baseline,
            verbose=args.verbose,
            results=results,
            opt_level=opt_level,
        )
        table = block_to_table(block)
        print(table.render())
        for line in qualitative_checks(block):
            print("  * " + line)
        print()
        if args.csv_prefix:
            path = f"{args.csv_prefix}_{size}.csv"
            table.to_csv(path)
            print(f"written {path}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
