"""The repository's benchmark: compile time end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. Workloads (see ``BENCHMARK.json`` and
``perfbench/WORKLOADS.md``): ``table3-large``, ``table3-2x2``,
``space-bound`` (in-process compiles) and ``serve-kernels`` (a live
daemon). ``--trace 0`` measures the end-to-end metrics with tracing
off: timings are scaled to a reference host speed (``hostspeed.py``),
set-up time is not. ``--trace 1`` runs the same passes with per-layer
spans on and reports the per-layer metrics (unscaled), the self-time
accounting, the tracing overhead, and a Chrome trace under
``.perfbench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero
when a returned mapping is wrong, or when the program under test
(``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("table3-large", "table3-2x2", "space-bound", "serve-kernels")

#: fresh set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 7


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure_setup(workload: str, scratch: str) -> list:
    """Wall clock of ``SETUP_SAMPLES`` fresh set-ups, one process each."""
    samples = []
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload, scratch]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - started)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program under test: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    from report import Report

    traced = bool(args.trace)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    scratch = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    trace_path = (os.path.join(out_dir, f"trace-{args.workload}-"
                               f"seed{args.seed}.json") if traced else None)
    report = Report()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    try:
        # set-up time is an end-to-end metric: untraced runs only
        setup = None if traced else measure_setup(args.workload, scratch)
        if args.workload == "serve-kernels":
            import serve_load

            serve_load.run(args.seed, args.seconds, traced, report, out_dir,
                           scratch, trace_path)
        else:
            import compile_load

            compile_load.run(args.workload, args.seed, args.seconds, traced,
                             report, out_dir, trace_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if setup is not None:
        report.add("setup_s", statistics.median(setup), "s",
                   f"median of {len(setup)} fresh set-ups "
                   f"({min(setup):.3f}-{max(setup):.3f} s)")
    report.add("success_ratio", report.succeeded / max(report.attempted, 1),
               "ratio", f"{report.succeeded}/{report.attempted} verified")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.add("peak_rss_mb", peak_kb / 1024.0, "MB",
               "benchmark process (mapper, or daemon front end)")
    kind = "per_layer" if traced else "end_to_end"
    return report.emit(declared_metrics(kind), fill_missing=traced)


if __name__ == "__main__":
    sys.exit(main())
