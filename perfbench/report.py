"""Result collection: metrics, sample counts, failures and the JSON line."""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Dict, List, Sequence


def tail_note(name: str, samples: Sequence[float], unit: str) -> str:
    """``name``'s p90 of ``samples`` with its count, if 10 lie beyond it."""
    if len(samples) < 100:
        return f"{name}: no p90, n={len(samples)} leaves < 10 beyond it"
    return (f"{name} p90 {1000 * percentile(samples, 0.9):.3f} {unit}, "
            f"n={len(samples)}")


def percentile(samples: Sequence[float], q: float) -> float:
    if q == 0.5:
        return statistics.median(samples)
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Report:
    def __init__(self) -> None:
        self.attempted = 0
        self.succeeded = 0
        self.failures: List[str] = []
        self.wrong_outputs: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}

    # -- outcomes -------------------------------------------------------- #
    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.log(f"FAILED {message}")

    def wrong(self, message: str) -> None:
        """A returned result whose output is wrong: the run exits non-zero."""
        self.wrong_outputs.append(message)
        self.fail(message)

    # -- metrics --------------------------------------------------------- #
    @staticmethod
    def log(line: str) -> None:
        print(line, flush=True)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.log(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")

    def accounting(self, layer_self: Dict[str, float], wall: float) -> None:
        """Print how the layer self times add up to the wall clock."""
        self.log(f"  self-time accounting over {wall:.3f} s of traced wall "
                 "clock:")
        total = 0.0
        for name, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            total += value
            share = value / wall if wall else 0.0
            self.log(f"    {name:<24} {value:10.4f} s  {100 * share:6.2f}%")
        self.log(f"    {'sum':<24} {total:10.4f} s  "
                 f"{100 * total / wall if wall else 0.0:6.2f}%")

    def write_trace(self, path: str, events: List[Dict]) -> None:
        from repro.obs import trace as obs_trace

        count = obs_trace.write_chrome_trace(path, snap={"events": events})
        self.log(f"  chrome trace: {path} ({count} spans)")

    # -- the result line --------------------------------------------------- #
    def emit(self, declared: Dict[str, str], fill_missing: bool) -> int:
        """Print the JSON result line; returns the exit code.

        ``declared`` maps every metric this mode must report to its unit.
        Layers a workload does not exercise report 0 (per-layer mode
        only); an end-to-end metric missing is a benchmark bug.
        """
        metrics: Dict[str, Dict[str, object]] = {}
        for name, unit in declared.items():
            found = self.metrics.get(name)
            if found is None:
                if not fill_missing:
                    raise RuntimeError(f"metric {name!r} was not measured")
                found = {"value": 0.0, "unit": unit}
            metrics[name] = {"value": found["value"], "unit": unit}
        failed = len(self.failures)
        correct = not self.wrong_outputs and failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": failed,
            "metrics": metrics,
        }), flush=True)
        if self.wrong_outputs:
            print(f"{len(self.wrong_outputs)} wrong output(s)",
                  file=sys.stderr)
            return 1
        return 0
