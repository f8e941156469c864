"""``repro-serve`` -- run or query the persistent compile service.

Three subcommands:

* ``repro-serve start`` binds the HTTP server and blocks until it
  receives SIGTERM/SIGINT, then drains: submissions get 503 +
  ``Retry-After``, in-flight jobs finish (up to ``--drain-timeout``),
  still-queued jobs are checkpointed to a journal next to the store and
  recovered by the next start. ``--store`` points at the
  content-addressed result store (a directory for the sharded layout, a
  ``.jsonl`` path for the legacy flat file); without it results are
  cached in memory only.
* ``repro-serve status`` queries a running server's ``/healthz`` and
  prints it as JSON -- the scriptable liveness probe. ``--watch`` turns
  it into a one-shot operator dashboard instead: queue depth, per-engine
  latency percentiles interpolated from the ``/metrics`` histograms,
  crash/retry/restart counters, dropped trace spans, and SLO burn
  against the p95-latency and error-rate objectives (defaults built in;
  override with ``--slo-config FILE``).
* ``repro-serve compact`` rewrites a store's files dropping torn,
  keyless and superseded lines (atomic per-file rename; live records are
  preserved byte-identically).

See ``docs/service.md`` for the HTTP API the started server exposes,
``docs/robustness.md`` for the failure-handling lifecycle, and
``repro-map map --remote URL`` for the client side.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.core.config import nonnegative_seconds, positive_seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="persistent CGRA compile service "
                    "(content-addressed result store + worker pool)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser(
        "start", help="run the compile server (blocks until signalled)")
    start.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: %(default)s)")
    start.add_argument("--port", type=int, default=8780,
                       help="port to bind (default: %(default)s)")
    start.add_argument("--store", default=None, metavar="PATH",
                       help="result store: a directory (sharded) or a "
                            ".jsonl file (flat); default: in-memory only")
    start.add_argument("--workers", type=int, default=2,
                       help="mapping workers (default: %(default)s)")
    start.add_argument("--max-retries", type=int, default=2,
                       help="times a job whose worker crashed or stalled "
                            "is requeued before failing "
                            "(default: %(default)s)")
    start.add_argument("--heartbeat-timeout", type=positive_seconds,
                       default=30.0,
                       metavar="SECONDS",
                       help="busy-worker heartbeat silence tolerated "
                            "before the supervisor declares it stalled "
                            "(default: %(default)s)")
    start.add_argument("--drain-timeout", type=positive_seconds,
                       default=30.0,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, wait this long for "
                            "in-flight jobs before exiting "
                            "(default: %(default)s)")
    start.add_argument("--default-budget", type=positive_seconds,
                       default=30.0,
                       metavar="SECONDS",
                       help="budget for requests that do not set one "
                            "(default: %(default)s)")
    start.add_argument("--max-budget", type=positive_seconds,
                       default=300.0,
                       metavar="SECONDS",
                       help="hard cap on per-request budgets "
                            "(default: %(default)s)")
    start.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    start.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="enable tracing and write one merged Chrome "
                            "trace-event JSON per executed job into DIR "
                            "(view in Perfetto; see docs/observability.md)")
    start.add_argument("--log-json", default=None, metavar="PATH",
                       help="append structured JSONL run records "
                            "(requests, jobs, engine runs) to PATH")
    start.add_argument("--profile-interval", type=nonnegative_seconds,
                       default=0.01,
                       metavar="SECONDS",
                       help="CPU-time interval of the always-on sampling "
                            "profiler in the daemon and its workers, "
                            "served at GET /v1/debug/profile "
                            "(0 disables; default: %(default)s)")

    status = sub.add_parser(
        "status", help="print a running server's /healthz as JSON")
    status.add_argument("--url", default="http://127.0.0.1:8780",
                        help="server base URL (default: %(default)s)")
    status.add_argument("--watch", action="store_true",
                        help="render a one-shot operator dashboard "
                             "(queue, latency percentiles, crash/retry "
                             "counters, SLO burn) instead of raw JSON")
    status.add_argument("--slo-config", default=None, metavar="FILE",
                        help="JSON file overriding the SLO objectives "
                             "used by --watch (keys: p95_latency_seconds, "
                             "error_rate)")

    compact = sub.add_parser(
        "compact",
        help="rewrite a result store dropping torn and superseded lines")
    compact.add_argument("--store", required=True, metavar="PATH",
                         help="store to compact: a directory (sharded) "
                              "or a .jsonl file (flat)")
    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    from repro.obs import logjson, profiler
    from repro.service.jobs import MappingService
    from repro.service.server import create_server

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.log_json:
        logjson.configure(args.log_json)
    if args.profile_interval > 0:
        # the daemon's own continuous profile (the HTTP/dispatch side);
        # worker children start theirs from the job spec.  SIGPROF must
        # be installed from the main thread, which _cmd_start is.
        profiler.start(args.profile_interval)
    service = MappingService(
        store_path=args.store,
        workers=args.workers,
        default_budget_seconds=args.default_budget,
        max_budget_seconds=args.max_budget,
        trace_dir=args.trace_dir,
        max_retries=args.max_retries,
        heartbeat_timeout_seconds=args.heartbeat_timeout,
        profile_interval_seconds=args.profile_interval,
    )
    recovered = service.recover_journal()
    if recovered:
        print(f"recovered {recovered} journaled job(s) from a previous "
              "drain")
    server = create_server(service, host=args.host, port=args.port,
                           quiet=args.quiet)

    stop_requested = threading.Event()

    def handle_signal(signum: int, _frame: object) -> None:
        # stop accepting immediately (submissions start answering 503);
        # the main thread takes it from there
        service.begin_drain()
        stop_requested.set()

    try:
        signal.signal(signal.SIGTERM, handle_signal)
        signal.signal(signal.SIGINT, handle_signal)
    except ValueError:  # pragma: no cover - not the main thread
        pass

    serve_thread = threading.Thread(target=server.serve_forever,
                                    name="repro-serve-http", daemon=True)
    serve_thread.start()
    store_note = args.store if args.store else "in-memory"
    print(f"repro-serve listening on http://{args.host}:{args.port} "
          f"({args.workers} worker process(es), "
          f"store: {store_note})", flush=True)
    try:
        while not stop_requested.wait(timeout=0.2):
            pass
    except KeyboardInterrupt:
        service.begin_drain()

    # drain with HTTP still up: in-flight event streams finish, new
    # submissions see 503 + Retry-After, queued work is journaled
    print(f"\ndraining (up to {args.drain_timeout:.0f}s) ...", flush=True)
    summary = service.drain(timeout=args.drain_timeout)
    server.shutdown()
    server.server_close()
    service.shutdown()
    if summary["journaled"]:
        print(f"journaled {summary['journaled']} queued job(s); "
              "they will be recovered on the next start")
    if summary["running"]:
        print(f"abandoned in-flight job(s): "
              f"{', '.join(summary['running'])}", file=sys.stderr)
    logjson.close()
    profiler.stop()
    print("shutdown complete")
    return 0


#: --watch SLO objectives when no --slo-config file is given
DEFAULT_SLO = {"p95_latency_seconds": 5.0, "error_rate": 0.01}

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^{}]*)\})? (\+Inf|-?[0-9.e+-]+)")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def _parse_exposition(text: str) -> Dict[str, List[Tuple[Dict[str, str],
                                                         float]]]:
    """Prometheus text exposition -> ``{name: [(labels, value), ...]}``."""
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, raw_labels, raw_value = match.groups()
        labels = dict(_LABEL_RE.findall(raw_labels or ""))
        value = float("inf") if raw_value == "+Inf" else float(raw_value)
        samples.setdefault(name, []).append((labels, value))
    return samples


def _histogram_quantile(buckets: List[Tuple[float, float]],
                        quantile: float) -> Optional[float]:
    """Prometheus-style quantile estimate from cumulative ``le`` buckets.

    ``buckets`` is ``[(upper_bound, cumulative_count), ...]``; linear
    interpolation within the bucket the target rank falls into, like
    ``histogram_quantile()`` in PromQL. ``None`` when there are no
    observations.
    """
    buckets = sorted(buckets)
    if not buckets or buckets[-1][1] <= 0:
        return None
    total = buckets[-1][1]
    target = quantile * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= target:
            if bound == float("inf"):
                return previous_bound  # open-ended top bucket
            width = cumulative - previous_count
            fraction = ((target - previous_count) / width) if width else 1.0
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, cumulative
    return buckets[-1][0]


def _load_slo(path: Optional[str]) -> Dict[str, float]:
    objectives = dict(DEFAULT_SLO)
    if path:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        for key in objectives:
            if key in loaded:
                objectives[key] = float(loaded[key])
    return objectives


def _cmd_status_watch(args: argparse.Namespace, health: Dict[str, object],
                      metrics_text: str) -> int:
    from repro.reporting.tables import Table

    try:
        slo = _load_slo(args.slo_config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read --slo-config: {exc}", file=sys.stderr)
        return 2
    samples = _parse_exposition(metrics_text)

    counters = health.get("counters") or {}
    obs = health.get("observability") or {}
    overview = Table(
        headers=["Signal", "Value"],
        title=f"repro-serve {args.url} -- {health.get('status')}, "
              f"up {float(health.get('uptime_seconds', 0.0)):.0f}s",
    )
    overview.add_row("workers", f"{health.get('workers')} "
                                f"({health.get('execution')})")
    overview.add_row("queue depth", health.get("queued"))
    overview.add_row("jobs submitted", counters.get("submitted", 0))
    overview.add_row("cache hits", counters.get("cache_hits", 0))
    overview.add_row("failed", counters.get("failed", 0))
    overview.add_row("worker crashes", counters.get("worker_crashes", 0))
    overview.add_row("job retries", counters.get("retries", 0))
    overview.add_row("backend demotions", counters.get("demotions", 0))
    overview.add_row("trace spans dropped",
                     obs.get("trace_dropped_spans", 0))
    overview.add_row("profiler",
                     "sampling" if obs.get("profile_sampling") else "off")
    print(overview.render())

    # Per-engine II-attempt latency percentiles, interpolated from the
    # /metrics histogram buckets the same way PromQL would.
    by_engine: Dict[str, List[Tuple[float, float]]] = {}
    for labels, value in samples.get("repro_ii_attempt_seconds_bucket", []):
        engine = labels.get("engine", "?")
        bound = float(labels["le"]) if labels.get("le") not in (None, "+Inf") \
            else float("inf")
        by_engine.setdefault(engine, []).append((bound, value))
    latency = Table(
        headers=["Engine", "p50", "p90", "p95", "p99", "count"],
        title="II-attempt latency (seconds, interpolated)",
    )
    all_buckets: Dict[float, float] = {}
    for engine in sorted(by_engine):
        buckets = by_engine[engine]
        for bound, value in buckets:
            all_buckets[bound] = all_buckets.get(bound, 0.0) + value
        count = int(max(v for _, v in buckets))
        cells = [engine]
        for quantile in (0.50, 0.90, 0.95, 0.99):
            estimate = _histogram_quantile(buckets, quantile)
            cells.append("-" if estimate is None else f"{estimate:.4f}")
        latency.add_row(*cells, count)
    print()
    print(latency.render() if by_engine
          else "(no II attempts recorded yet)")

    # SLO burn: how much of each objective the observed value consumes
    # (1.0 = exactly at objective, >1.0 = burning error budget).
    p95 = _histogram_quantile(sorted(all_buckets.items()), 0.95) \
        if all_buckets else None
    submitted = float(counters.get("submitted", 0) or 0)
    failed = float(counters.get("failed", 0) or 0)
    error_rate = (failed / submitted) if submitted else 0.0
    burn = Table(
        headers=["Objective", "Target", "Observed", "Burn"],
        title="SLO burn",
    )
    latency_burn = ("-" if p95 is None
                    else f"{p95 / slo['p95_latency_seconds']:.2f}x")
    burn.add_row("p95 II-attempt latency",
                 f"{slo['p95_latency_seconds']:g}s",
                 "-" if p95 is None else f"{p95:.4f}s", latency_burn)
    rate_burn = (f"{error_rate / slo['error_rate']:.2f}x"
                 if slo["error_rate"] > 0 else "-")
    burn.add_row("job error rate", f"{slo['error_rate']:.2%}",
                 f"{error_rate:.2%}", rate_burn)
    print()
    print(burn.render())
    breached = ((p95 is not None and p95 > slo["p95_latency_seconds"])
                or (slo["error_rate"] > 0
                    and error_rate > slo["error_rate"]))
    if breached:
        print("\nSLO breached")
    return 1 if breached else 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.url) as client:
            health = client.health()
            if args.watch:
                return _cmd_status_watch(args, health, client.metrics())
    except (ServiceError, OSError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(health, indent=2, sort_keys=True))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.store)
    try:
        summary = store.compact()
    except OSError as exc:
        print(f"error: cannot compact {args.store}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "start":
        return _cmd_start(args)
    if args.command == "compact":
        return _cmd_compact(args)
    return _cmd_status(args)


if __name__ == "__main__":
    sys.exit(main())
