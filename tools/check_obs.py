#!/usr/bin/env python
"""Observability artifact checker (run by CI's obs-smoke job).

Schema-validates the two machine-readable artifacts the observability
layer exports, so a malformed trace or exposition fails CI instead of
failing the first person who opens it in Perfetto or points a Prometheus
scrape at the daemon:

* ``--trace FILE`` -- a Chrome trace-event JSON file written by
  ``repro-map map --trace`` or the daemon's ``--trace-dir``: the
  ``traceEvents`` envelope, per-phase required fields (``ph:"X"``
  complete events carry numeric ``ts``/``dur``, instants carry a scope),
  and referential integrity -- every ``parent_id`` must resolve to a
  ``span_id`` present in the file (0 is "root"). ``--require-span NAME``
  (repeatable) additionally asserts a span of that name exists, which is
  how CI pins the merged daemon trace to
  ``http.handler -> queue.wait -> worker.run -> engine.map -> solver:*``.

* ``--metrics FILE`` -- a Prometheus text exposition as served by
  ``GET /metrics``: every line must parse under the text-format grammar,
  ``HELP``/``TYPE`` appear at most once per family with a known type,
  and at least ``--min-names`` distinct families are typed (the daemon
  advertises its full inventory up front).

* ``--propagation`` -- distributed-trace correlation invariants across
  every ``--trace`` and ``--ndjson`` file given: each span/event that
  carries a ``trace_id`` carries the *same* one (one remote map = one
  trace id end to end, including across a crash + retry), at least one
  id is present at all, and parent ids still resolve -- which holds
  across process boundaries precisely because worker-child spans are
  re-rooted under the parent's ``worker.run`` span on ingest.
  ``--ndjson FILE`` adds a JSON-lines file (a job's NDJSON event stream,
  or a ``--log-json`` run log filtered to one job) to the same check.

* ``--result FILE`` -- the layer split of mapping results: a
  ``repro-map profile --json`` report, or a daemon job view (the
  ``GET /v1/jobs/<id>`` answer). In each result's ``stats.seconds`` every
  layer of :data:`repro.perf.LAYERS` is present and >= 0, the layers sum
  to at most ``total_seconds``, and ``encode`` + ``solve`` (shares of the
  time phase) are at most ``time`` -- each within the rounding of the
  recorded values.

Exit status 0 when clean; 1 with one line per finding otherwise. The
tier-1 suite exercises the same invariants through ``tests/test_obs.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, List

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.perf import LAYERS  # noqa: E402

SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(?: [0-9.e+-]+)?$'
)
COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}

VALID_PHASES = {"X", "i", "M", "B", "E"}

#: slack of a sum of a few seconds values each rounded to 1e-6
ROUNDING_SECONDS = 1e-5


def check_trace(path: str, required_spans: List[str]) -> List[str]:
    findings: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable trace: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return [f"{path}: not a Chrome trace (no traceEvents envelope)"]
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return [f"{path}: traceEvents is not a non-empty list"]

    span_ids = {0}
    names = set()
    for index, event in enumerate(events):
        where = f"{path}: traceEvents[{index}]"
        if not isinstance(event, dict):
            findings.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            findings.append(f"{where}: unknown phase {phase!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                findings.append(f"{where}: missing integer {field}")
        if not isinstance(event.get("name"), str):
            findings.append(f"{where}: missing name")
            continue
        if phase == "M":
            continue
        names.add(event["name"])
        if not isinstance(event.get("ts"), (int, float)):
            findings.append(f"{where}: {phase!r} event without numeric ts")
        if phase == "X":
            if not isinstance(event.get("dur"), (int, float)):
                findings.append(f"{where}: complete event without dur")
            elif event["dur"] < 0:
                findings.append(f"{where}: negative dur {event['dur']}")
            args = event.get("args") or {}
            if isinstance(args.get("span_id"), int):
                span_ids.add(args["span_id"])
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            findings.append(f"{where}: instant without a valid scope")

    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        parent = (event.get("args") or {}).get("parent_id")
        if parent is not None and parent not in span_ids:
            findings.append(
                f"{path}: traceEvents[{index}]: parent_id {parent} does "
                f"not resolve to any span_id in the file"
            )

    if not any(isinstance(e, dict) and e.get("ph") == "M" for e in events):
        findings.append(f"{path}: no process_name metadata event")
    for wanted in required_spans:
        if wanted.endswith("*"):
            hit = any(n.startswith(wanted[:-1]) for n in names)
        else:
            hit = wanted in names
        if not hit:
            findings.append(f"{path}: required span {wanted!r} not found "
                            f"(spans: {sorted(names)})")
    return findings


def check_metrics(path: str, min_names: int) -> List[str]:
    findings: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"{path}: unreadable exposition: {exc}"]
    if not text.endswith("\n"):
        findings.append(f"{path}: exposition must end with a newline")

    seen_help = set()
    typed = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        where = f"{path}:{number}"
        if line.startswith("#"):
            match = COMMENT_RE.match(line)
            if match is None:
                findings.append(f"{where}: malformed comment line: {line!r}")
                continue
            kind, name = match.group(1), line.split()[2]
            family = seen_help if kind == "HELP" else typed
            if name in family:
                findings.append(f"{where}: duplicate # {kind} for {name}")
            if kind == "HELP":
                seen_help.add(name)
            else:
                metric_type = line.split()[3]
                if metric_type not in KNOWN_TYPES:
                    findings.append(
                        f"{where}: unknown metric type {metric_type!r}")
                typed[name] = metric_type
        elif SAMPLE_RE.match(line) is None:
            findings.append(f"{where}: malformed sample line: {line!r}")

    if len(typed) < min_names:
        findings.append(
            f"{path}: only {len(typed)} typed metric families "
            f"(expected >= {min_names}): {sorted(typed)}"
        )
    return findings


def check_propagation(trace_paths: List[str],
                      ndjson_paths: List[str]) -> List[str]:
    """One-trace-id-everywhere invariants across all given files."""
    findings: List[str] = []
    ids = {}  # trace_id -> first place it was seen

    for path in trace_paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            findings.append(f"{path}: unreadable trace: {exc}")
            continue
        events = doc.get("traceEvents") if isinstance(doc, dict) else None
        if not isinstance(events, list):
            findings.append(f"{path}: not a Chrome trace")
            continue
        stamped = 0
        for index, event in enumerate(events):
            if not isinstance(event, dict) or event.get("ph") == "M":
                continue
            trace_id = (event.get("args") or {}).get("trace_id")
            if not trace_id:
                continue
            stamped += 1
            ids.setdefault(trace_id, f"{path}: traceEvents[{index}]")
        if not stamped:
            findings.append(
                f"{path}: no span carries a trace_id (distributed "
                f"trace context was never propagated)")

    for path in ndjson_paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            findings.append(f"{path}: unreadable ndjson: {exc}")
            continue
        stamped = 0
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                findings.append(f"{path}:{number}: not valid JSON")
                continue
            trace_id = record.get("trace_id") \
                if isinstance(record, dict) else None
            if not trace_id:
                continue
            stamped += 1
            ids.setdefault(trace_id, f"{path}:{number}")
        if not stamped:
            findings.append(
                f"{path}: no record carries a trace_id")

    if len(ids) > 1:
        where = "; ".join(f"{tid} first at {place}"
                          for tid, place in sorted(ids.items()))
        findings.append(
            f"propagation: {len(ids)} distinct trace ids across the "
            f"given files, expected exactly one ({where})")
    return findings


def _results(doc) -> List[Dict]:
    """The mapping results of a profile report or a job view."""
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict) and isinstance(doc.get("job"), dict):
        doc = doc["job"]  # the GET /v1/jobs/<id> envelope
    if isinstance(doc, dict) and "result" in doc:
        return [doc["result"]]
    return [doc]


def check_result(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable result: {exc}"]
    findings: List[str] = []
    for index, result in enumerate(_results(doc)):
        where = f"{path}[{index}]"
        try:
            seconds = result["stats"]["seconds"]
            total = float(result["total_seconds"])
        except (KeyError, TypeError, ValueError):
            findings.append(f"{where}: no stats.seconds and total_seconds")
            continue
        layers = {}
        for layer in LAYERS + ("encode", "solve"):
            value = seconds.get(layer)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                findings.append(f"{where}: no number for layer {layer!r}")
            elif value < 0:
                findings.append(f"{where}: layer {layer!r} is {value} < 0")
            else:
                layers[layer] = value
        if len(layers) < len(LAYERS) + 2:
            continue
        summed = sum(layers[layer] for layer in LAYERS)
        if summed > total + ROUNDING_SECONDS:
            findings.append(f"{where}: layers sum to {summed:.6f}s, more "
                            f"than total_seconds {total:.6f}s")
        shares = layers["encode"] + layers["solve"]
        if shares > layers["time"] + ROUNDING_SECONDS:
            findings.append(f"{where}: encode + solve = {shares:.6f}s, more "
                            f"than the time layer {layers['time']:.6f}s")
    return findings


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="append", default=[],
                        metavar="FILE",
                        help="Chrome trace JSON file(s) to validate")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="span name that must appear in every --trace "
                             "file (trailing * matches a prefix)")
    parser.add_argument("--metrics", action="append", default=[],
                        metavar="FILE",
                        help="Prometheus exposition file(s) to validate")
    parser.add_argument("--min-names", type=int, default=12,
                        help="minimum typed metric families per exposition")
    parser.add_argument("--propagation", action="store_true",
                        help="additionally assert one shared trace_id "
                             "across every --trace and --ndjson file, "
                             "with parent ids resolving")
    parser.add_argument("--ndjson", action="append", default=[],
                        metavar="FILE",
                        help="JSON-lines file (job event stream or run "
                             "log) included in the --propagation check")
    parser.add_argument("--result", action="append", default=[],
                        metavar="FILE",
                        help="profile report or job view whose layer "
                             "split to check")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.ndjson or args.result):
        parser.error("nothing to check: pass --trace, --metrics, --ndjson "
                     "and/or --result")
    if args.ndjson and not args.propagation:
        parser.error("--ndjson only participates in --propagation")

    findings: List[str] = []
    for path in args.trace:
        findings.extend(check_trace(path, args.require_span))
    for path in args.metrics:
        findings.extend(check_metrics(path, args.min_names))
    if args.propagation:
        findings.extend(check_propagation(args.trace, args.ndjson))
    for path in args.result:
        findings.extend(check_result(path))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    checked = (len(args.trace) + len(args.metrics) + len(args.ndjson)
               + len(args.result))
    print(f"observability artifacts ok ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
