"""serve-kernels: a live compile daemon under a closed-loop client.

A run sends rounds. Each round starts one fresh daemon in this process
-- ``MappingService`` with an empty on-disk store and one worker
process, behind ``create_server`` on a loopback port -- and one client
connection sends one schedule (see ``cases.serve_schedule``): every key
once cold (a store miss: frontend, opt with verify replay, map, store
write) with a fixed number of warm repeats (store hits) after each. A
run sends at least ``MIN_ROUNDS`` rounds, and more while another is
expected to end within ``--seconds``, so every key has several cold
samples. A request is timed from ``submit`` to the terminal event of
its NDJSON ``events`` stream, as ``repro-map map --remote`` does.

Outside the timed region every key's first cold result is decoded with
``Mapping.from_dict``, validated and simulated against the reference
interpreter; every later result of that key, warm or cold, must carry
the identical mapping, and every request's ``cache`` field must be the
expected ``miss``/``hit``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional

from repro.core.mapping import Mapping
from repro.core.validation import validate_mapping
from repro.frontend import EXAMPLE_KERNELS
from repro.frontend.extract import extract_dfg
from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.jobs import MappingService
from repro.service.server import create_server
from repro.sim.executor import run_and_compare
from repro.sim.machine import SimulationError

import record
from cases import ServeKey, another_pass, serve_keys, serve_schedule
from hostspeed import HostSpeed
from layers import (SERVE_LAYERS, layer_seconds, maybe_recording,
                    overhead_ratio)
from report import Report, tail_note

#: warm-up request: compiled once, untimed, on a fabric outside the key
#: set, so the worker process and its imports are up before timing
WARMUP_PAYLOAD = {"kernel": EXAMPLE_KERNELS["dot_product"], "cgra": "2x2",
                  "opt_level": "O2"}


class Daemon:
    """A fresh service + HTTP server on a loopback port."""

    def __init__(self, scratch: str) -> None:
        self.store = os.path.join(scratch, "store")
        shutil.rmtree(self.store, ignore_errors=True)
        self.service = MappingService(store_path=self.store, workers=1,
                                      execution="process")
        self.server = create_server(self.service, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}", retries=0)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown()
        self.thread.join()
        # the worker thread stops its process on shutdown; make sure it
        # has ended even if that stop outlived shutdown's join timeout
        for child in multiprocessing.active_children():
            child.join()
        shutil.rmtree(self.store, ignore_errors=True)


def _request(client: ServiceClient, payload: Dict) -> tuple:
    """Submit and follow the event stream: ``(start, end, job, last)``."""
    started = time.perf_counter()
    job = client.submit(payload)
    last = None
    for last in client.events(job["id"]):
        pass
    return started, time.perf_counter(), job, last


def _request_seconds(client: ServiceClient, payload: Dict) -> float:
    started, ended, _job, _last = _request(client, payload)
    return ended - started


class ServeChecker:
    def __init__(self, report: Report) -> None:
        self.report = report
        self.verified: Dict[ServeKey, str] = {}
        #: label -> [II, conflicts, explored space nodes, mapping digest]
        self.outcomes: Dict[str, list] = {}
        self.sim_seconds = 0.0

    def check(self, key: ServeKey, expect: str, job: Dict,
              view: Dict) -> bool:
        if job.get("cache") != expect:
            self.report.fail(f"{key.label}: cache {job.get('cache')!r}, "
                             f"expected {expect!r}")
            return False
        result = view.get("result") or {}
        if view.get("status") != "done" or result.get("status") != "success":
            self.report.fail(f"{key.label}: {view.get('status')} "
                             f"{result.get('status')} {view.get('error')}")
            return False
        text = json.dumps(result["mapping"], sort_keys=True)
        known = self.verified.get(key)
        if known is not None:
            if text != known:
                self.report.fail(f"{key.label}: mapping differs from the "
                                 "verified one")
                return False
            return True
        mapping = Mapping.from_dict(result["mapping"])
        violations = validate_mapping(mapping)
        if violations:
            self.report.wrong(f"{key.label}: invalid mapping {violations[:3]}")
            return False
        started = time.perf_counter()
        try:
            with obs_trace.span("sim"):
                run_and_compare(mapping)
        except SimulationError as exc:  # a wrong value: a wrong output
            self.report.wrong(f"{key.label}: simulation mismatch: {exc}")
            return False
        finally:
            self.sim_seconds += time.perf_counter() - started
        self.verified[key] = text
        stats = result.get("stats") or {}
        self.outcomes[key.label] = [
            result["ii"], stats.get("solver", {}).get("conflicts"),
            stats.get("space", {}).get("nodes_explored"), record.digest(text)]
        return True


#: every run sends at least this many rounds: every key gets at least
#: this many cold samples
MIN_ROUNDS = 3


def _round(keys, rng: random.Random, speed: HostSpeed, traced: bool,
           layer: "_LayerTotals", scratch: str, extras: bool) -> list:
    """One fresh daemon and one schedule: ``[(key, expect, (start, end),
    job, last_event, view)]``. ``extras`` adds the traced-only probes.

    Between requests the host-speed probe runs after a short settle, so
    that the server threads, which share the interpreter lock with it,
    have finished the previous request."""
    schedule = serve_schedule(keys, rng)
    sent = []
    daemon = Daemon(scratch)
    try:
        _request(daemon.client, WARMUP_PAYLOAD)
        gc.collect()
        with maybe_recording("serve", traced):
            for key, expect in schedule:
                speed.tick()
                with obs_trace.span("request", key=key.label, expect=expect):
                    started, ended, job, last = _request(
                        daemon.client, key.payload(EXAMPLE_KERNELS))
                sent.append((key, expect, (started, ended), job, last))
            speed.tick(force=True)
        if traced:
            layer.add_spans(obs_trace.snapshot(clear=True)["events"])
        if extras:
            layer.health_rtts(daemon.client)
            layer.overhead(daemon.client, [k for k, e in schedule
                                           if e == "hit"])
        # the gate, outside the timed loop: a hit's submit response
        # already carries its result; a miss's is fetched once done
        views = [job if expect == "hit" else daemon.client.job(job["id"])
                 for _key, expect, _elapsed, job, _last in sent]
    finally:
        daemon.close()
    return [(*request, view) for request, view in zip(sent, views)]


def run(seed: int, seconds: float, traced: bool, report: Report,
        out_dir: str, scratch: str, trace_path: Optional[str]) -> None:
    keys = serve_keys(EXAMPLE_KERNELS)
    rng = random.Random(seed)
    checker = ServeChecker(report)
    layer = _LayerTotals()
    speed = HostSpeed(settle=0.002)
    timed: List[tuple] = []      # (expect, start, end) of every request
    rounds = 0
    elapsed = 0.0
    while rounds < MIN_ROUNDS or another_pass(rounds, elapsed, seconds):
        started = time.perf_counter()
        outcomes = _round(keys, rng, speed, traced, layer, scratch,
                          extras=traced and rounds == 0)
        elapsed += time.perf_counter() - started
        rounds += 1
        # gate each round as it ends and keep only its timings, so the
        # peak RSS does not grow with the number of rounds
        for key, expect, (start, end), job, last, view in outcomes:
            report.attempted += 1
            timed.append((expect, start, end))
            if last is None or last.get("event") != "done":
                report.fail(f"{key.label}: stream ended on {last!r}")
                continue
            if checker.check(key, expect, job, view):
                report.succeeded += 1
            if traced:
                layer.add_job(expect, view)
        del outcomes
    record.compare(out_dir, "serve-kernels", checker.outcomes, report)

    raw = {"miss": [], "hit": []}
    ref = {"miss": [], "hit": []}
    for expect, start, end in timed:
        raw[expect].append(end - start)
        ref[expect].append(speed.scaled(start, end))
    ref_seconds = sum(ref["miss"]) + sum(ref["hit"])
    wall = sum(raw["miss"]) + sum(raw["hit"])
    report.add("cases_per_s", report.succeeded / ref_seconds, "1/ref-s",
               f"{report.succeeded} verified responses in {ref_seconds:.3f} "
               f"ref-s of {rounds} rounds, 1 closed-loop client "
               f"({wall:.3f} s wall clock: {report.succeeded / wall:.3f}/s)")
    for name, expect, what in (("compile_ms_p50", "miss", "cold requests"),
                               ("warm_ms_p50", "hit",
                                "warm requests (store hits)")):
        report.add(name, 1000 * statistics.median(ref[expect]), "ref-ms",
                   f"median of n={len(ref[expect])} {what}; "
                   f"{1000 * statistics.median(raw[expect]):.3f} ms unscaled")
    report.log(f"  {tail_note('cold', ref['miss'], 'ref-ms')}; "
               f"{tail_note('warm', ref['hit'], 'ref-ms')}; host probe "
               f"{speed.factor():.3f}x the reference time, "
               f"n={len(speed.seconds)}")
    report.add("ii_sum", sum(o[0] for o in checker.outcomes.values()),
               "count", f"sum of II over the {len(keys)} cold keys")
    if traced:
        layer.report(report, checker.sim_seconds, keys, rounds, trace_path)


class _LayerTotals:
    """Per-layer sums over the traced pass."""

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self.rtts: List[float] = []
        self.overhead_ratios: List[float] = []
        self.sums: Dict[str, float] = {}
        self.spans: Dict[str, float] = {}

    def bump(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def add_spans(self, events: List[Dict]) -> None:
        """One round's spans; span ids restart with every round."""
        self.events.extend(events)
        for name, seconds in layer_seconds(events, SERVE_LAYERS)[0].items():
            self.spans[name] = self.spans.get(name, 0.0) + seconds

    def health_rtts(self, client: ServiceClient, count: int = 25) -> None:
        for _ in range(count):
            started = time.perf_counter()
            client.health()
            self.rtts.append(time.perf_counter() - started)

    def overhead(self, client: ServiceClient, warm_keys) -> None:
        """Alternate untraced/traced warm requests on a filled store."""
        ratio, pairs = overhead_ratio(
            lambda key: _request_seconds(client,
                                         key.payload(EXAMPLE_KERNELS)),
            warm_keys, "serve", budget_seconds=1.0)
        self.overhead_ratios.append(ratio)
        self.bump("overhead_pairs", pairs)

    def add_job(self, expect: str, view: Dict) -> None:
        self.bump("requests", 1)
        if view.get("cache") == "hit":
            self.bump("hits", 1)
        self.bump("service.retries", max(view.get("attempts", 1) - 1, 0))
        if expect != "miss":
            return
        result = view.get("result") or {}
        stats = result.get("stats") or {}
        wait = max(view["started"] - view["created"], 0.0)
        running = max(view["finished"] - view["started"], 0.0)
        engine = float(result.get("engine_seconds") or 0.0)
        self.bump("service.queue_wait_s", wait)
        self.bump("service.engine_s", engine)
        self.bump("service.running_s", running)
        solver = stats.get("solver", {})
        space = stats.get("space", {})
        self.bump("smt.conflicts", solver.get("conflicts", 0))
        self.bump("smt.decisions", solver.get("decisions", 0))
        self.bump("smt.propagations", solver.get("propagations", 0))
        self.bump("time.schedules", result.get("schedules_tried", 0))
        self.bump("time.iis_tried", result.get("iis_tried", 0))
        self.bump("space.calls", space.get("calls", 0))
        self.bump("space.nodes_explored", space.get("nodes_explored", 0))
        self.bump("space.backtracks", space.get("backtracks", 0))

    def report(self, report: Report, sim_seconds: float, keys, rounds: int,
               trace_path: Optional[str]) -> None:
        """Seconds and counts per round; the spans of every round."""
        per = 1.0 / rounds
        s = {name: value * per for name, value in self.sums.items()}
        spans = {name: value * per for name, value in self.spans.items()}
        wall = spans.get("request", 0.0)
        store_put = spans.get("store.put", 0.0)
        # the server's spans run on its own threads, so the split is by
        # sums: request = http.submit + http.events + client glue;
        # http.submit = transport + service.submit (frontend, store
        # lookup, job creation); on a cold request http.events waits for
        # queue + worker (engine, pipe/parse overhead, store write)
        worker = s["service.queue_wait_s"] + s["service.running_s"]
        overhead = s["service.running_s"] - s["service.engine_s"] - store_put
        submit = spans.get("service.submit", 0.0)
        frontend = spans.get("frontend", 0.0)
        store_get = spans.get("store.get", 0.0)
        layer_self = {
            "http.submit_s": spans.get("http.submit", 0.0) - submit,
            "service.submit_s": submit - frontend - store_get,
            "frontend.s": frontend,
            "store.get_s": store_get,
            "service.queue_wait_s": s["service.queue_wait_s"],
            "service.engine_s": s["service.engine_s"],
            "service.overhead_s": overhead,
            "store.put_s": store_put,
            "http.events_s": spans.get("http.events", 0.0) - worker,
        }
        layer_self["unattributed.s"] = (wall - spans.get("http.submit", 0.0)
                                        - spans.get("http.events", 0.0))
        for name, value in layer_self.items():
            report.add(name, value, "s", "per round")
        report.add("wall.s", wall, "s", "request wall clock per round")
        report.add("service.retries", s["service.retries"], "count",
                   "per round")
        report.add("store.hit_ratio", s.get("hits", 0.0) / s["requests"],
                   "ratio", "store hits / requests")
        report.add("http.rtt_s", statistics.median(self.rtts), "s",
                   f"median health round trip, n={len(self.rtts)}")
        for name in ("smt.conflicts", "smt.decisions", "smt.propagations",
                     "time.schedules", "time.iis_tried", "space.calls",
                     "space.nodes_explored", "space.backtracks"):
            report.add(name, s[name], "count",
                       "over one round's cold requests")
        report.add("space.accept_ratio",
                   len(keys) / s["space.calls"] if s["space.calls"] else 0.0,
                   "ratio", "schedules placed / schedules tried")
        report.add("sim.s", sim_seconds, "s",
                   "reference simulation of every key's first mapping")
        report.add("trace.overhead_ratio",
                   statistics.median(self.overhead_ratios), "ratio",
                   f"traced vs untraced warm requests, "
                   f"{self.sums['overhead_pairs']:.0f} alternating pair(s)")
        _frontend_and_opt(report, keys)
        report.accounting(layer_self, wall)
        if trace_path:
            report.write_trace(trace_path, self.events)


def _frontend_and_opt(report: Report, keys) -> None:
    """frontend/opt layer work of one pass's cold keys, called directly.

    Both run inside the daemon's worker process on a cold request; here
    the same calls are timed in this process: ``extract_dfg`` on every
    key's source, and ``optimize_dfg`` with and without the verify
    replay on every O2 key.
    """
    from repro.experiments.runner import build_cgra
    from repro.opt.pipeline import optimize_dfg

    nodes = 0
    rewrite = verify = 0.0
    removed = 0
    for key in keys:
        dfg = extract_dfg(EXAMPLE_KERNELS[key.kernel]).dfg
        nodes += dfg.num_nodes
        if key.opt_level == "O0":
            continue
        cgra = build_cgra(key.size)
        started = time.perf_counter()
        plain = optimize_dfg(dfg, opt_level=key.opt_level, target=cgra)
        middle = time.perf_counter()
        optimize_dfg(dfg, opt_level=key.opt_level, target=cgra, verify=True)
        ended = time.perf_counter()
        rewrite += middle - started
        verify += (ended - middle) - (middle - started)
        removed += plain.nodes_before - plain.nodes_after
    report.add("frontend.nodes", nodes, "count", "DFG nodes of the cold keys")
    report.add("opt.s", rewrite, "s", "O2 rewrite of the cold keys")
    report.add("opt.verify_s", verify, "s", "verify replay on top of opt.s")
    report.add("opt.nodes_removed", removed, "count", "over the O2 keys")
