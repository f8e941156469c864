"""In-process compile workloads: table3-large, table3-2x2, space-bound.

One timed case is exactly the call ``run_decoupled_case`` makes: build
the fabric, then ``MonomorphismMapper.map`` (default arena backend,
``validate=True``, a 30 s budget). Loading the DFG happens once, before
timing. A run compiles whole passes over the case list, each in a
seeded order: at least ``MIN_PASSES``, and more while another pass is
expected to end within ``--seconds`` (see ``another_pass``). Every
compile's time is also scaled to the reference host speed (see
``hostspeed``); a case's time is the median of its compiles.

Every returned mapping is checked outside the timed region: the first
mapping of a case is validated and simulated against the reference
interpreter; later passes must return the identical mapping and the
identical solver/space counts (the determinism gate).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List, Optional

from repro.core.mapper import MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.experiments import runner
from repro.obs import trace as obs_trace
from repro.sim.executor import run_and_compare
from repro.sim.machine import SimulationError
from repro.workloads.suite import load_benchmark

import record
from cases import (BUDGET_SECONDS, COMPILE_WORKLOADS, Case, another_pass,
                   shuffled)
from hostspeed import HostSpeed
from layers import (COMPILE_LAYERS, layer_seconds, maybe_recording,
                    overhead_ratio)
from report import Report, tail_note


#: every run compiles every case at least this often, so no case time
#: is a single sample taken at one moment of host speed
MIN_PASSES = 5


def _compile(case: Case, dfgs) -> tuple:
    """One timed compile: ``(start, end, MappingResult)``."""
    config = runner.decoupled_config(BUDGET_SECONDS)
    started = time.perf_counter()
    cgra = runner.build_cgra_from_arch(case.size, case.arch)
    result = MonomorphismMapper(cgra, config).map(dfgs[case.benchmark])
    return started, time.perf_counter(), result


def _compile_seconds(case: Case, dfgs) -> float:
    started, ended, _result = _compile(case, dfgs)
    return ended - started


def _signature(result) -> tuple:
    """What must repeat exactly every time a case is compiled."""
    stats = result.stats or {}
    solver = stats.get("solver", {})
    space = stats.get("space", {})
    mapping = result.mapping
    placed = None
    if mapping is not None:
        placed = (tuple(sorted(mapping.schedule.start_times.items())),
                  tuple(sorted(mapping.placement.items())))
    return (result.status.value, result.ii, result.schedules_tried,
            result.iis_tried, solver.get("conflicts"),
            solver.get("decisions"), solver.get("propagations"),
            space.get("calls"), space.get("nodes_explored"),
            space.get("backtracks"), placed)


class Checker:
    """Correctness and determinism gate over every returned result."""

    def __init__(self, report: Report) -> None:
        self.report = report
        self.first: Dict[Case, tuple] = {}
        self.sim_seconds = 0.0

    def check(self, case: Case, result) -> bool:
        """True if ``result`` is a verified, repeatable success."""
        signature = _signature(result)
        known = self.first.get(case)
        if known is not None:
            if signature != known:
                self.report.fail(f"{case.label}: result differs from its "
                                 "first compile in this run")
                return False
            return result.success
        self.first[case] = signature
        if not result.success:
            self.report.fail(f"{case.label}: {result.status.value} "
                             f"{result.message}")
            return False
        violations = validate_mapping(result.mapping)
        if violations:
            self.report.wrong(f"{case.label}: invalid mapping: "
                              f"{violations[:3]}")
            return False
        started = time.perf_counter()
        try:
            with obs_trace.span("sim"):
                run_and_compare(result.mapping)
        except SimulationError as exc:  # a wrong value: a wrong output
            self.report.wrong(f"{case.label}: simulation mismatch: {exc}")
            return False
        finally:
            self.sim_seconds += time.perf_counter() - started
        return True


def run(workload: str, seed: int, seconds: float, traced: bool,
        report: Report, out_dir: str, trace_path: Optional[str]) -> None:
    cases = COMPILE_WORKLOADS[workload]()
    dfgs = {name: load_benchmark(name)
            for name in {case.benchmark for case in cases}}
    rng = random.Random(seed)
    checker = Checker(report)

    # warm-up: every case once, untimed and never traced; the warm-up
    # results go through the same gate
    for case in cases:
        checker.check(case, _compile(case, dfgs)[2])

    speed = HostSpeed()
    # (start, end) of every timed compile, per case
    per_case: Dict[Case, List[tuple]] = {case: [] for case in cases}
    timed = 0.0
    passes = 0
    verified = 0
    per_pass_events: List[Dict] = []
    counts: Dict[str, float] = {}
    with maybe_recording("compile", traced):
        while passes < MIN_PASSES or another_pass(passes, timed, seconds):
            gc.collect()
            results = []
            pass_started = time.perf_counter()
            for case in shuffled(cases, rng):
                speed.tick()
                with obs_trace.span("case", case=case.label):
                    started, ended, result = _compile(case, dfgs)
                per_case[case].append((started, ended))
                results.append((case, result))
            timed += time.perf_counter() - pass_started
            passes += 1
            verified += _check_all(checker, report, results)
            if passes == 1:
                counts = _pass_counts(results)
            if traced:
                per_pass_events.extend(
                    obs_trace.snapshot(clear=True)["events"])
    speed.tick(force=True)
    raw = {case: [end - start for start, end in times]
           for case, times in per_case.items()}
    ref = {case: [speed.scaled(start, end) for start, end in times]
           for case, times in per_case.items()}

    record.compare(out_dir, workload, {
        case.label: [*signature[:-1], record.digest(signature[-1])]
        for case, signature in checker.first.items()}, report)
    ref_seconds = sum(sum(times) for times in ref.values())
    report.add("cases_per_s", verified / ref_seconds, "1/ref-s",
               f"{verified} verified mappings in {ref_seconds:.3f} ref-s of "
               f"compiles ({passes} passes, {timed:.3f} s wall clock: "
               f"{verified / timed:.3f}/s)")
    counts_per_case = sorted(len(times) for times in raw.values())
    span = (f"{len(cases)} cases, {counts_per_case[0]}-{counts_per_case[-1]} "
            "compiles each")
    p50 = _median_of_medians(ref)
    report.add("compile_ms_p50", p50, "ref-ms",
               f"median over cases of each case's median ({span}; "
               f"{_median_of_medians(raw):.3f} ms unscaled)")
    report.add("warm_ms_p50", p50, "ref-ms",
               "no store in process: every result is compiled")
    every = [t for times in ref.values() for t in times]
    report.log(f"  {tail_note('compiles', every, 'ref-ms')}; host probe "
               f"{speed.factor():.3f}x the reference time, "
               f"n={len(speed.seconds)}")
    report.add("ii_sum", counts["ii_sum"], "count",
               f"sum of II over the {len(cases)} cases of one pass")
    if traced:
        # overhead pairs come from the short cases only: one long case
        # would double the run
        first_seconds = {case: times[0] for case, times in raw.items()}
        short = sorted((c for c in cases if first_seconds[c] < 0.5),
                       key=first_seconds.get)
        _layer_metrics(report, per_pass_events, counts, passes,
                       checker.sim_seconds, short, dfgs, trace_path)


def _median_of_medians(per_case: Dict[Case, List[float]]) -> float:
    """Milliseconds: the median over cases of each case's median."""
    return 1000 * statistics.median(statistics.median(times)
                                    for times in per_case.values())


def _check_all(checker: Checker, report: Report, results) -> int:
    """Gate every result; returns how many passed."""
    report.attempted += len(results)
    passed = sum(1 for case, result in results
                 if checker.check(case, result))
    report.succeeded += passed
    return passed


def _pass_counts(results) -> Dict[str, float]:
    """Per-pass deterministic counts, from the program's own stats."""
    totals: Dict[str, float] = {
        "ii_sum": 0, "smt.conflicts": 0, "smt.decisions": 0,
        "smt.propagations": 0, "time.schedules": 0, "time.iis_tried": 0,
        "space.calls": 0, "space.nodes_explored": 0, "space.backtracks": 0,
        "mapped": 0,
    }
    for _case, result in results:
        stats = result.stats or {}
        solver = stats.get("solver", {})
        space = stats.get("space", {})
        totals["ii_sum"] += result.ii or 0
        totals["smt.conflicts"] += solver.get("conflicts", 0)
        totals["smt.decisions"] += solver.get("decisions", 0)
        totals["smt.propagations"] += solver.get("propagations", 0)
        totals["time.schedules"] += result.schedules_tried
        totals["time.iis_tried"] += result.iis_tried
        totals["space.calls"] += space.get("calls", 0)
        totals["space.nodes_explored"] += space.get("nodes_explored", 0)
        totals["space.backtracks"] += space.get("backtracks", 0)
        totals["mapped"] += 1 if result.success else 0
    return totals


def _layer_metrics(report: Report, events, counts, passes: int,
                   sim_seconds: float, short_cases, dfgs,
                   trace_path: Optional[str]) -> None:
    inclusive, own = layer_seconds(events, COMPILE_LAYERS)
    per = 1.0 / passes
    wall = inclusive.get("case", 0.0)
    layer_self = {
        "arch.build_s": own.get("arch.build", 0.0),
        "mii.s": own.get("mii", 0.0),
        "time.encode_s": own.get("time", 0.0),
        "time.solve_s": own.get("time.solve", 0.0),
        "space.search_s": own.get("space", 0.0),
        "mrrg.build_s": own.get("mrrg.build", 0.0),
        "validation.s": own.get("validation", 0.0),
        "unattributed.s": own.get("case", 0.0),
    }
    for name, value in layer_self.items():
        report.add(name, value * per, "s", "self time per pass")
    report.add("time.s", inclusive.get("time", 0.0) * per, "s",
               "time layer per pass, encode + solve")
    report.add("space.s", inclusive.get("space", 0.0) * per, "s",
               "space layer per pass, MRRG build + search")
    report.add("wall.s", wall * per, "s", "compile wall clock per pass")
    for name in ("smt.conflicts", "smt.decisions", "smt.propagations",
                 "time.schedules", "time.iis_tried", "space.calls",
                 "space.nodes_explored", "space.backtracks"):
        report.add(name, counts[name], "count", "per pass")
    report.add("space.accept_ratio",
               counts["mapped"] / counts["space.calls"]
               if counts["space.calls"] else 0.0, "ratio",
               "schedules placed / schedules tried")
    report.add("sim.s", sim_seconds * per, "s",
               "reference simulation of checked mappings, per pass")
    ratio, pairs = overhead_ratio(lambda case: _compile_seconds(case, dfgs),
                                  short_cases, "compile", budget_seconds=2.0)
    report.add("trace.overhead_ratio", ratio, "ratio",
               f"traced vs untraced, {pairs} alternating case pair(s)")
    report.accounting(layer_self, wall)
    if trace_path:
        report.write_trace(trace_path, events)
