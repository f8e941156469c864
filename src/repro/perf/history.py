"""Per-PR perf trajectory for the ``BENCH_*.json`` artifacts.

The benchmark suites used to overwrite their artifact on every run, so the
repository never accumulated a perf record: each PR's speedups replaced
the previous PR's. :func:`update_artifact` keeps the latest-run summary
fields readers rely on *and* appends a per-commit record -- git SHA, UTC
date, backend tier, measured speedups -- to a ``history`` list that
survives reruns:

* summary fields are merged over the existing artifact, so independent
  benchmark legs (e.g. the arena-vs-reference and native-vs-arena legs of
  ``bench_solver.py``) can update one file without clobbering each other;
* history entries are keyed by ``(label, git_sha)``: re-running a bench on
  the same commit replaces its entry instead of duplicating it, while a
  new commit appends -- one trajectory point per PR per measurement.

A missing or corrupt artifact simply starts a fresh history; reading the
trajectory is documented in docs/performance.md.

The history is also what the perf-regression sentinel reads:
:func:`compare_history` walks each ``(label, backend_tier)`` series and
flags the latest entry when a tracked metric moved the wrong way past a
tolerance band -- ``speedup``-style metrics are higher-is-better, ``*overhead*``
and ``*seconds*`` metrics are lower-is-better. A deliberate trade-off
is recorded by marking the new entry ``"blessed": true``: the sentinel
accepts it and it becomes the baseline the next commit is judged
against. ``tools/check_bench.py`` is the CLI over this.
"""

from __future__ import annotations

import datetime
import json
import math
import pathlib
import subprocess
from typing import Dict, List, Optional, Tuple


def current_git_sha() -> Optional[str]:
    """HEAD's commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _load(path: pathlib.Path) -> Dict[str, object]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def update_artifact(
    path: pathlib.Path,
    summary: Dict[str, object],
    history_entry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Merge ``summary`` into the artifact and append a history record.

    ``history_entry`` should carry a ``label`` naming the measurement
    (e.g. ``"native-vs-arena"``) plus whatever speedups/tiers the bench
    recorded; the commit SHA and UTC date are stamped in here. Returns
    the artifact as written.
    """
    data = _load(path)
    history = data.get("history")
    if not isinstance(history, list):
        history = []
    data.update(summary)
    if history_entry is not None:
        entry = dict(history_entry)
        entry.setdefault("git_sha", current_git_sha())
        entry.setdefault(
            "date",
            datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%d"),
        )
        label = entry.get("label")
        history = [
            old
            for old in history
            if not (
                isinstance(old, dict)
                and old.get("label") == label
                and old.get("git_sha") == entry["git_sha"]
            )
        ]
        history.append(entry)
    data["history"] = history
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return data


# --------------------------------------------------------------------- #
# Perf-regression sentinel: compare a label's latest history entry
# against its previous one, per tracked metric.

#: below this absolute value, lower-is-better metrics are considered
#: noise and never flagged (an overhead going 0.00005 -> 0.0001 doubled
#: relatively but is still negligible)
OVERHEAD_NOISE_FLOOR = 1e-3

#: entry keys that are never treated as metrics
_NON_METRIC_KEYS = frozenset((
    "label", "git_sha", "date", "blessed", "benchmarks", "backend_tier",
    "threshold", "threshold_speedup", "target_speedup", "runs_per_leg",
))


def metric_direction(name: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` for tracked metrics, ``None`` otherwise.

    ``speedup``-style metrics regress by going down; ``overhead`` and
    wall-clock ``seconds`` metrics regress by going up. Anything else
    in a history entry (counts, tiers, dates) is not compared.
    """
    if name in _NON_METRIC_KEYS or name.startswith("target"):
        return None
    if "speedup" in name:
        return "higher"
    if "overhead" in name or "seconds" in name:
        return "lower"
    return None


def tracked_metrics(entry: Dict[str, object]) -> Dict[str, float]:
    """The numeric, direction-tracked metrics of one history entry."""
    metrics: Dict[str, float] = {}
    for key, value in entry.items():
        if metric_direction(key) is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[key] = float(value)
    return metrics


def compare_entries(
    previous: Dict[str, object],
    latest: Dict[str, object],
    tolerance: float = 0.10,
    overhead_floor: float = OVERHEAD_NOISE_FLOOR,
) -> List[Dict[str, object]]:
    """Regression findings for one (previous, latest) entry pair.

    A higher-is-better metric regresses when it drops below
    ``previous * (1 - tolerance)``; a lower-is-better metric when it
    rises above ``previous * (1 + tolerance)`` *and* exceeds
    ``overhead_floor`` in absolute terms. A latest entry marked
    ``"blessed": true`` is accepted wholesale (deliberate trade-off;
    it resets the baseline). Each finding dict carries ``label``,
    ``metric``, ``previous``, ``latest``, ``change`` (signed relative
    move) and the two git SHAs.
    """
    if latest.get("blessed") is True:
        return []
    findings: List[Dict[str, object]] = []
    before = tracked_metrics(previous)
    after = tracked_metrics(latest)
    for name in sorted(set(before) & set(after)):
        old, new = before[name], after[name]
        if old <= 0:
            continue
        change = (new - old) / old
        direction = metric_direction(name)
        regressed = (
            new < old * (1.0 - tolerance)
            if direction == "higher"
            else new > old * (1.0 + tolerance) and new > overhead_floor
        )
        if regressed:
            findings.append({
                "label": latest.get("label"),
                "metric": name,
                "direction": direction,
                "previous": old,
                "latest": new,
                "change": change,
                "previous_sha": previous.get("git_sha"),
                "latest_sha": latest.get("git_sha"),
            })
    return findings


def compare_history(
    history: List[Dict[str, object]],
    tolerance: float = 0.10,
    overhead_floor: float = OVERHEAD_NOISE_FLOOR,
) -> Tuple[List[Dict[str, object]], int]:
    """Sentinel pass over a full ``history`` list.

    Groups entries into series by ``(label, backend_tier)`` (list order
    is oldest first -- that is :func:`update_artifact`'s append
    discipline), compares each series' latest entry against the one
    before it, and returns ``(findings, comparisons)`` where
    ``comparisons`` counts the metric values actually checked. A run on
    another SAT tier starts its own series, so its numbers are never
    judged against (or excused by) another tier's; findings name such
    a series ``label [tier]``.

    Whatever cannot be judged is a finding too, carrying a ``problem``
    string instead of the regression fields: an entry without a label,
    a newest entry with no tracked metric or with a non-finite one
    (blessing excuses neither), and a metric the previous entry tracked
    that the newest entry dropped (unless it is blessed). A series
    with a single, well-formed entry is not a finding: it is the
    baseline the next commit is judged against.
    """
    findings: List[Dict[str, object]] = []
    by_series: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    for index, entry in enumerate(history):
        label = entry.get("label") if isinstance(entry, dict) else None
        if isinstance(label, str) and label:
            tier = entry.get("backend_tier")
            by_series.setdefault((label, "" if tier is None else str(tier)),
                                 []).append(entry)
        else:
            findings.append({"label": f"history[{index}]",
                             "problem": "entry has no label"})
    comparisons = 0
    for series in sorted(by_series):
        entries = by_series[series]
        label = f"{series[0]} [{series[1]}]" if series[1] else series[0]
        latest = entries[-1]
        metrics = tracked_metrics(latest)
        if not metrics:
            findings.append({"label": label, "problem":
                             "newest entry has no tracked metric"})
            continue
        non_finite = [name for name in sorted(metrics)
                      if not math.isfinite(metrics[name])]
        for name in non_finite:
            findings.append({"label": label, "problem":
                             f"{name} is {metrics[name]}, not a finite "
                             "number"})
        if non_finite or len(entries) < 2:
            continue
        previous = tracked_metrics(entries[-2])
        comparisons += len(set(previous) & set(metrics))
        if latest.get("blessed") is not True:
            for name in sorted(set(previous) - set(metrics)):
                findings.append({"label": label, "problem":
                                 f"{name} is missing from the newest "
                                 "entry"})
        for finding in compare_entries(entries[-2], latest,
                                       tolerance=tolerance,
                                       overhead_floor=overhead_floor):
            finding["label"] = label
            findings.append(finding)
    return findings, comparisons


def bless_latest(path: pathlib.Path, label: str) -> bool:
    """Mark ``label``'s newest history entry in ``path`` as blessed.

    Returns ``True`` if an entry was updated. Blessing records that the
    latest measurement is a deliberate trade-off: the sentinel accepts
    it and subsequent commits are compared against it instead.
    """
    data = _load(path)
    history = data.get("history")
    if not isinstance(history, list):
        return False
    for entry in reversed(history):
        if isinstance(entry, dict) and entry.get("label") == label:
            entry["blessed"] = True
            path.write_text(json.dumps(data, indent=2) + "\n",
                            encoding="utf-8")
            return True
    return False
