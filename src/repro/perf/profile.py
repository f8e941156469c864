"""The ``repro-map profile`` driver: per-benchmark per-phase attribution.

Runs one mapping per requested benchmark with profiling enabled (detailed
in-loop wall-clock attribution for the SAT engines, per-phase and
per-component counters for all of them) and collects the
``MappingResult.stats`` payloads into one JSON-ready report. Any of the
four approaches can be profiled -- the engines are built through
:func:`repro.core.engine.create_engine`. Used by the CLI; importable for
scripting::

    from repro.perf.profile import profile_benchmarks
    report = profile_benchmarks(["aes"], size="4x4")

This module also owns the *rendering* of performance summaries so the
two CLI surfaces cannot drift: :func:`render_profile_table` backs
``repro-map profile`` and :func:`render_metrics_table` backs
``repro-map map --metrics`` (fed by :func:`repro.obs.metrics.snapshot`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.engine import create_engine
from repro.experiments.runner import build_cgra_from_arch
from repro.reporting.tables import Table, format_seconds
from repro.workloads.suite import load_benchmark


def profile_case(
    benchmark: str,
    size: str = "4x4",
    approach: str = "monomorphism",
    timeout_seconds: float = 120.0,
    arch: Optional[str] = None,
    opt_level=0,
    opt_passes: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Profile one (benchmark, size, approach) case; returns a JSON record."""
    dfg = load_benchmark(benchmark)
    cgra = build_cgra_from_arch(size, arch)
    mapper = create_engine(
        approach,
        cgra,
        budget_seconds=timeout_seconds,
        seed=seed,
        opt_level=opt_level,
        opt_passes=tuple(opt_passes) if opt_passes else None,
        profile=True,
    )
    result = mapper.map(dfg)
    return {
        "benchmark": benchmark,
        "cgra": cgra.size_label,
        "approach": approach,
        "arch": arch,
        "status": result.status.value,
        "ii": result.ii,
        "mii": result.mii,
        "schedules_tried": result.schedules_tried,
        "iis_tried": result.iis_tried,
        "time_phase_seconds": round(result.time_phase_seconds, 6),
        "space_phase_seconds": round(result.space_phase_seconds, 6),
        "opt_seconds": round(result.opt_seconds, 6),
        "total_seconds": round(result.total_seconds, 6),
        "stats": result.stats,
    }


def render_profile_table(
    records: Sequence[Dict[str, object]],
    approach: str,
    size: str,
) -> Table:
    """The ``repro-map profile`` summary table for a list of records."""
    # the SAT tier each engine run selected ("native-c" or "arena")
    tiers = {record["stats"].get("solver_tier") for record in records}
    tiers.discard(None)
    kernel = "/".join(sorted(tiers)) or "no SAT"
    table = Table(
        headers=["Benchmark", "Status", "II", "Encode", "Solve", "Propagate",
                 "Analyze", "Space", "Conflicts", "Props", "Learnts"],
        title=f"Profile -- {approach} on {size} ({kernel} kernel)",
    )
    for record in records:
        seconds = record["stats"]["seconds"]
        solver = record["stats"]["solver"]
        table.add_row(
            record["benchmark"],
            record["status"],
            record["ii"],
            format_seconds(seconds["encode"]),
            format_seconds(seconds["solve"]),
            format_seconds(seconds.get("propagate")),
            format_seconds(seconds.get("analyze")),
            format_seconds(seconds["space"]),
            solver["conflicts"],
            solver["propagations"],
            solver["learnts"],
        )
    return table


def render_metrics_table(
    snapshot: Mapping[str, Mapping[str, float]],
    title: str = "Metrics -- this process",
) -> Table:
    """The ``repro-map map --metrics`` summary table.

    ``snapshot`` is :func:`repro.obs.metrics.snapshot` output:
    ``{metric: {label_string: value}}`` with histograms already folded
    to ``*_sum`` / ``*_count`` series. Values render through the same
    cell formatting as the profile table.
    """
    table = Table(headers=["Metric", "Labels", "Value"], title=title)
    for name in sorted(snapshot):
        series = snapshot[name]
        for labels in sorted(series):
            value = series[labels]
            if name.endswith("_seconds") or name.endswith("_seconds_sum") \
                    or name.endswith("_seconds_total"):
                cell: object = format_seconds(value)
            elif float(value).is_integer():
                cell = int(value)
            else:
                cell = value
            table.add_row(name, labels or "-", cell)
    return table


def profile_benchmarks(
    benchmarks: Sequence[str],
    size: str = "4x4",
    approach: str = "monomorphism",
    timeout_seconds: float = 120.0,
    arch: Optional[str] = None,
    opt_level=0,
    opt_passes: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Profile a list of benchmarks; one record per benchmark."""
    return [
        profile_case(
            benchmark,
            size=size,
            approach=approach,
            timeout_seconds=timeout_seconds,
            arch=arch,
            opt_level=opt_level,
            opt_passes=opt_passes,
            seed=seed,
        )
        for benchmark in benchmarks
    ]
