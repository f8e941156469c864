#!/usr/bin/env python
"""Perf-regression sentinel over the ``BENCH_*.json`` artifacts.

Every benchmark suite appends a per-commit record to its artifact's
``history`` list (see :mod:`repro.perf.history`). This tool is the CI
gate over that trajectory: for each series (a measurement label on one
SAT tier, ``backend_tier``) it compares the latest entry against the
previous one and fails when a tracked metric moved the wrong way past
the tolerance band -- ``speedup`` metrics regress by dropping,
``*overhead*``/``*seconds*`` metrics by rising.

The sentinel fails closed: whatever it cannot judge is a finding, not
a pass -- an artifact with no ``history`` (or an empty one), an entry
without a label, a series whose newest entry has no tracked metric or a
non-finite one, and a metric the previous entry tracked that the newest
entry dropped. A series with a single entry has no baseline yet and
passes: that entry is the baseline the next commit is judged against.

Deliberate trade-offs are recorded, not fought::

    python tools/check_bench.py --bless native-vs-arena

marks the label's newest entry ``"blessed": true`` in every artifact
that carries it: the sentinel accepts that entry and it becomes the
baseline the next commit is judged against.

Exit status 0 when clean; 1 with one line per finding otherwise; 2 on
a bad flag (``--tolerance`` and ``--overhead-floor`` take finite
numbers >= 0).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import List

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.perf import history as perf_history  # noqa: E402


def default_artifacts() -> List[pathlib.Path]:
    root = pathlib.Path(__file__).resolve().parent.parent
    return sorted(root.glob("BENCH_*.json"))


def check_artifact(path: pathlib.Path, tolerance: float,
                   overhead_floor: float) -> List[str]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable artifact: {exc}"]
    if not isinstance(data, dict):
        return [f"{path.name}: not a JSON object"]
    history = data.get("history")
    if not isinstance(history, list) or not history:
        return [f"{path.name}: no history to judge"]
    findings, comparisons = perf_history.compare_history(
        history, tolerance=tolerance, overhead_floor=overhead_floor)
    series = {(e.get("label"), e.get("backend_tier"))
              for e in history if isinstance(e, dict)}
    print(f"{path.name}: {len(series)} series, "
          f"{comparisons} metric comparison(s)")
    lines = []
    for finding in findings:
        if "problem" in finding:
            lines.append(
                f"{path.name}: {finding['label']}: {finding['problem']}")
            continue
        lines.append(
            "{name}: {label}/{metric} regressed {pct:+.1%} "
            "({previous:g} -> {latest:g}, {dir}-is-better; "
            "baseline {sha})".format(
                name=path.name, label=finding["label"],
                metric=finding["metric"], pct=finding["change"],
                previous=finding["previous"], latest=finding["latest"],
                dir=finding["direction"],
                sha=(finding["previous_sha"] or "unknown")[:12]))
    return lines


def _finite_non_negative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="*", metavar="FILE",
                        help="BENCH_*.json artifact(s) to check "
                             "(default: every BENCH_*.json in the repo "
                             "root)")
    parser.add_argument("--tolerance", type=_finite_non_negative,
                        default=0.10,
                        help="relative band a tracked metric may move "
                             "the wrong way before the sentinel fails "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--overhead-floor", type=_finite_non_negative,
                        default=perf_history.OVERHEAD_NOISE_FLOOR,
                        help="lower-is-better metrics below this "
                             "absolute value are treated as noise and "
                             "never flagged")
    parser.add_argument("--bless", metavar="LABEL",
                        help="accept LABEL's newest history entry as a "
                             "deliberate trade-off (writes "
                             "'blessed': true into the artifact) "
                             "instead of checking")
    args = parser.parse_args(argv)

    paths = [pathlib.Path(p) for p in args.artifacts] or default_artifacts()
    if not paths:
        print("no BENCH_*.json artifacts found")
        return 1

    if args.bless:
        blessed = [p.name for p in paths
                   if perf_history.bless_latest(p, args.bless)]
        if not blessed:
            print(f"label {args.bless!r} not found in any artifact")
            return 1
        print(f"blessed {args.bless!r} in: {', '.join(blessed)}")
        return 0

    findings: List[str] = []
    for path in paths:
        findings.extend(check_artifact(
            path, args.tolerance, args.overhead_floor))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s); re-run the bench, or "
              f"bless a deliberate trade-off with --bless LABEL")
        return 1
    print(f"perf history ok ({len(paths)} artifact(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
