"""Command-line interface (installed as ``repro-map``).

Subcommands::

    repro-map list                         # benchmarks, kernels, fabrics
    repro-map map --benchmark crc32 --cgra 4x4
    repro-map map --benchmark fft --arch memory_column_mesh --cgra 4x4
    repro-map map --benchmark aes --cgra 4x4 --opt-level O2
    repro-map map --benchmark cfd --cgra 10x10 --approach heuristic \
        --timeout 10 --seed 7
    repro-map map --benchmark gsm --cgra 4x4 --approach portfolio
    repro-map map --kernel-example dot_product --cgra 5x5 --simulate
    repro-map map --kernel-file my_loop.k --cgra 8x8 --json mapping.json
    repro-map map --benchmark gsm --approach heuristic --strategy refine
    repro-map map --benchmark crc32 --remote http://127.0.0.1:8780
                                           # compile on a repro-serve daemon
    repro-map map --benchmark aes --trace trace.json --metrics
                                           # Chrome trace + metrics summary
    repro-map arch list                    # architecture presets
    repro-map arch show mul_sparse_checkerboard --size 4x4
    repro-map arch dump memory_column_mesh --size 4x4 --out fabric.json
    repro-map table1                       # paper Table I / II
    repro-map table3 --sizes 2x2 5x5       # paper Table III
    repro-map fig5 --sizes 2x2 5x5 10x10   # paper Fig. 5
    repro-map ablation --benchmarks aes    # design-choice ablation
    repro-map sweep --sizes 2x2 5x5 --jobs 4 --cache results.jsonl
                                           # parallel batch over the suite
    repro-map sweep --arch mul_sparse_checkerboard --sizes 4x4
    repro-map sweep --opt-level O2 --sizes 4x4
    repro-map profile aes --cgra 4x4       # per-phase timing/counter JSON
    repro-map profile gsm cfd --approach satmapit --json profile.json
    repro-map archsweep --benchmarks bitcount --size 4x4
                                           # II across fabrics
    repro-map optsweep --benchmarks aes crc32 --size 4x4
                                           # II / compile time across O0..O2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, Optional, Sequence, Tuple

from repro.arch.spec import ArchSpec, preset_names, resolve_arch
from repro.core.config import positive_seconds
from repro.core.engine import (
    ENGINE_DESCRIPTIONS,
    ENGINE_NAMES,
    create_engine,
    engine_choices,
)
from repro.experiments import (
    ablation,
    arch_sweep,
    fig5,
    opt_sweep,
    table1_table2,
    table3,
)
from repro.experiments.batch import BatchRunner, build_cases
from repro.experiments.runner import (
    build_cgra_from_arch,
    normalize_approach,
    parse_size,
)
from repro.frontend import EXAMPLE_KERNELS, FRONTEND_ERRORS, extract_dfg
from repro.obs import logjson, metrics
from repro.obs import trace as obs_trace
from repro.opt.pipeline import MAX_OPT_LEVEL, pass_names
from repro.reporting.tables import Table, format_seconds
from repro.sim.executor import run_and_compare
from repro.sim.machine import DataMemory
from repro.workloads.suite import benchmark_names, load_benchmark, spec


def _catalog() -> Iterator[Tuple[str, str, str]]:
    """Everything mappable or targetable, as (kind, name, details) rows."""
    for name in benchmark_names():
        entry = spec(name)
        yield ("benchmark", name,
               f"{entry.suite}, {entry.num_nodes} nodes, "
               f"RecII {entry.rec_ii}")
    yield ("benchmark", "running_example", "paper Fig. 2 DFG")
    for name in sorted(EXAMPLE_KERNELS):
        yield ("kernel", name, "front-end source (--kernel-example)")
    for name in preset_names():
        yield ("arch preset", name, "size-parametric fabric (--arch)")
    for name in pass_names():
        yield ("opt pass", name, "pre-mapping DFG pass (--passes)")
    for name in ENGINE_NAMES:
        yield ("approach", name,
               f"{ENGINE_DESCRIPTIONS[name]} (--approach)")


def _cmd_list(_args: argparse.Namespace) -> int:
    table = Table(
        headers=["Kind", "Name", "Details"],
        title="Benchmarks, kernels, fabrics and passes known to repro-map",
    )
    for kind, name, details in _catalog():
        table.add_row(kind, name, details)
    print(table.render())
    print("\n`--arch` also accepts a path to an arch-spec JSON file; "
          f"`--opt-level` accepts O0..O{MAX_OPT_LEVEL}.")
    return 0


def _load_dfg(args: argparse.Namespace):
    """Resolve the requested DFG plus (optionally) simulation metadata."""
    if args.kernel_file:
        with open(args.kernel_file) as handle:
            program = extract_dfg(handle.read(), name=args.kernel_file)
        return program.dfg, program
    if args.kernel_example:
        program = extract_dfg(EXAMPLE_KERNELS[args.kernel_example],
                              name=args.kernel_example)
        return program.dfg, program
    return load_benchmark(args.benchmark), None


def _remote_payload(args: argparse.Namespace) -> dict:
    """Translate the ``map`` option surface into a service payload."""
    payload: dict = {"cgra": args.cgra}
    if args.kernel_file:
        with open(args.kernel_file) as handle:
            payload["kernel"] = handle.read()
    elif args.kernel_example:
        payload["kernel"] = EXAMPLE_KERNELS[args.kernel_example]
    else:
        payload["benchmark"] = args.benchmark
    if args.arch:
        if args.arch.endswith(".json"):
            # the server cannot see local files: inline the spec content
            with open(args.arch, encoding="utf-8") as handle:
                payload["arch_spec"] = json.load(handle)
        else:
            payload["arch"] = args.arch
    payload["approach"] = args.approach
    payload["opt_level"] = args.opt_level
    if args.passes:
        payload["opt_passes"] = list(args.passes)
    if args.seed is not None:
        payload["seed"] = args.seed
    payload["budget_seconds"] = args.timeout
    payload["strategy"] = args.strategy
    return payload


def _cmd_map_remote(args: argparse.Namespace) -> int:
    """`repro-map map --remote URL`: compile on a running repro-serve."""
    from repro.core.mapping import Mapping
    from repro.service.client import ServiceClient, ServiceError

    if args.simulate:
        print("error: --simulate is local-only; fetch the mapping with "
              "--json and simulate it locally", file=sys.stderr)
        return 2
    try:
        payload = _remote_payload(args)
    except (OSError, ValueError) as exc:
        # an unreadable --kernel-file or --arch spec file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    client = ServiceClient(args.remote)
    # Mint the distributed trace context up front: the client span below
    # and everything the daemon records for this job (spans, NDJSON
    # events, run-log records) share this one trace id -- submit() sends
    # it as the `traceparent` header.
    trace_id = obs_trace.current_trace_id() or obs_trace.new_trace_id()
    obs_trace.push_trace("client", trace_id)
    try:
        with client, obs_trace.span("client.map", remote=args.remote):
            job = client.submit(payload)
            job_id = job["id"]
            print(f"submitted {job_id} to {args.remote} "
                  f"(cache: {job.get('cache', 'miss')}, "
                  f"trace {job.get('trace_id', trace_id)})")
            if job["status"] not in ("done", "failed", "cancelled"):
                # follow the anytime stream; improvements print as they
                # land, stamped with the server's monotonic-anchored `ts`
                first_ts = None
                with obs_trace.span("client.stream", job=job_id):
                    for event in client.events(job_id):
                        ts = event.get("ts")
                        if first_ts is None and ts is not None:
                            first_ts = ts
                        offset = (f" [+{ts - first_ts:.3f}s]"
                                  if ts is not None and first_ts is not None
                                  else "")
                        if event["event"] == "improvement":
                            print(f"  improvement: II={event['ii']} "
                                  f"(mII {event['mii']}) at "
                                  f"{event['elapsed']:.3f}s" + offset)
            job = client.job(job_id)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        obs_trace.pop_trace()
    if job["status"] != "done":
        print(f"job {job['id']}: {job['status']}"
              + (f" ({job['error']})" if job.get("error") else ""))
        return 1
    result = job["result"]
    cached = " (served from store)" if result.get("cached") else ""
    print(f"status: {result['status']}, II={result['ii']} "
          f"(mII {result['mii']}), engine {result['engine_seconds']:.3f}s"
          + cached)
    if result.get("message"):
        print(result["message"])
    if result["status"] != "success":
        return 1
    mapping = Mapping.from_dict(result["mapping"])
    print()
    print(mapping.render_kernel())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(mapping.to_json())
        print(f"\nmapping written to {args.json}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    """Dispatch ``map``, wrapped in the opt-in observability surface."""
    if args.log_json:
        logjson.configure(args.log_json)
    if args.trace:
        obs_trace.enable()
    try:
        status = (_cmd_map_remote(args) if args.remote
                  else _cmd_map_local(args))
    finally:
        # emit the trace/metrics views even when the mapping failed --
        # failures are exactly when the observability output matters
        if args.trace:
            spans = obs_trace.write_chrome_trace(args.trace)
            print(f"\ntrace written to {args.trace} ({spans} span(s); "
                  f"open in Perfetto / chrome://tracing)")
        if args.metrics:
            from repro.perf.profile import render_metrics_table
            print()
            print(render_metrics_table(metrics.snapshot()).render())
    return status


def _cmd_map_local(args: argparse.Namespace) -> int:
    try:
        dfg, program = _load_dfg(args)
    except FRONTEND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cgra = build_cgra_from_arch(args.cgra, args.arch)
    except (OSError, ValueError) as exc:
        if args.arch is None:
            raise
        print(f"error: --arch {args.arch}: {exc}", file=sys.stderr)
        return 1
    fabric = "" if cgra.is_homogeneous else ", heterogeneous"
    print(f"Mapping {dfg.name!r} ({dfg.num_nodes} nodes, {dfg.num_edges} edges) "
          f"onto a {cgra.size_label} CGRA ({cgra.topology}{fabric}) "
          f"with the {normalize_approach(args.approach)} engine")

    opt_passes = tuple(args.passes) if args.passes else None
    mapper = create_engine(
        args.approach,
        cgra,
        budget_seconds=args.timeout,
        seed=args.seed,
        opt_level=args.opt_level,
        opt_passes=opt_passes,
        strategy=args.strategy,
    )
    result = mapper.map(dfg)
    if result.opt is not None:
        print(f"{result.opt.summary()} [{result.opt_seconds:.3f}s]")
    print(result.summary())
    stats = result.stats or {}
    for outcome in stats.get("portfolio", ()):
        marker = "*" if outcome["engine"] == stats.get("winner") else " "
        seconds = outcome["total_seconds"]
        print(f"  {marker} {outcome['engine']}: {outcome['status']}"
              + (f" II={outcome['ii']}" if outcome["ii"] is not None else "")
              + (f" in {seconds:.3f}s" if seconds is not None else ""))
    if not result.success:
        return 1

    mapping = result.mapping
    print()
    print(mapping.render_kernel())
    print()
    stats = mapping.stats()
    for key, value in stats.items():
        print(f"  {key}: {value}")

    if args.simulate:
        memory = DataMemory()
        if program is not None and result.opt is not None:
            # rebind accumulator initial values etc. onto the optimized DFG
            program = program.remapped(result.opt)
        initial_values = program.initial_values if program is not None else None
        iterations = args.iterations
        run_and_compare(mapping, iterations=iterations, memory=memory,
                        initial_values=initial_values)
        print(f"\nsimulation: mapped execution matches the sequential "
              f"reference over {iterations} iterations")

    if args.json:
        with open(args.json, "w") as handle:
            handle.write(mapping.to_json())
        print(f"\nmapping written to {args.json}")
    return 0


def _cmd_arch(args: argparse.Namespace) -> int:
    """Inspect / export the declarative architecture specs."""
    if args.arch_command == "list":
        print("Architecture presets (size-parametric):")
        for name in preset_names():
            print(f"  {name}")
        print("\nAny `--arch` option also accepts a path to an arch-spec "
              "JSON file (see docs/architecture-spec.md).")
        return 0
    rows, cols = parse_size(args.size)
    arch_spec = resolve_arch(args.arch, rows, cols)
    if args.arch_command == "show":
        print(arch_spec.describe())
        return 0
    # dump: serialise, and prove the round trip before writing
    text = arch_spec.to_json()
    if ArchSpec.from_json(text) != arch_spec:
        print("error: arch spec does not round-trip through JSON")
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"arch spec written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile benchmarks and emit the per-phase timing/counter JSON."""
    from repro.perf.profile import profile_benchmarks, render_profile_table

    for name in args.benchmarks:
        if name not in ("running_example", "example"):
            spec(name)  # fail early on typos
    sampling = False
    if args.sample:
        from repro.obs import profiler
        profiler.reset()
        sampling = profiler.start()
        if not sampling:
            print("note: --sample unavailable on this platform "
                  "(needs SIGPROF); per-phase timings only",
                  file=sys.stderr)
    records = profile_benchmarks(
        args.benchmarks,
        size=args.cgra,
        approach=normalize_approach(args.approach),
        timeout_seconds=args.timeout,
        arch=args.arch,
        opt_level=args.opt_level,
        opt_passes=tuple(args.passes) if args.passes else None,
        seed=args.seed,
    )
    table = render_profile_table(records, approach=args.approach,
                                 size=args.cgra)
    print(table.render())
    if sampling:
        from repro.obs import profiler
        profiler.stop()
        folded = profiler.render()
        total = sum(profiler.cumulative().values())
        print(f"\nsampling profile: {total} sample(s), "
              f"{profiler.interval() * 1000:.0f}ms CPU-time interval "
              f"(collapsed stacks, busiest first):")
        print(folded if folded else "  (no samples -- run too short)")
    text = json.dumps(records, indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nprofile written to {args.json}")
    else:
        print(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (benchmark x size x approach) grid through the batch engine."""
    benchmarks = args.benchmarks if args.benchmarks else benchmark_names()
    for name in benchmarks:
        if name not in ("running_example", "example"):
            spec(name)  # fail early on typos
    sizes = list(args.sizes)
    for size in sizes:
        parse_size(size)
    if args.arch is not None:
        # fail fast on a typo'd preset / missing spec file instead of
        # spawning one doomed worker per grid case
        rows, cols = parse_size(sizes[0])
        arch_spec = resolve_arch(args.arch, rows, cols)
        if args.arch.endswith(".json"):
            # a spec file's dimensions override every requested size, so
            # one size is enough; more would re-run identical fabrics
            sizes = [arch_spec.size_label]
            print(f"note: --arch spec file fixes the array size to "
                  f"{arch_spec.size_label}; --sizes ignored")
    approaches = args.approaches
    opt_passes = tuple(args.passes) if args.passes else None
    cases = build_cases(benchmarks, sizes, approaches, args.timeout,
                        arch=args.arch, opt_level=args.opt_level,
                        opt_passes=opt_passes, seed=args.seed)
    progress = None if args.quiet else print
    runner = BatchRunner(jobs=args.jobs, cache_path=args.cache,
                         progress=progress)
    report = runner.run(cases)

    arch_column = args.arch is not None
    opt_column = bool(cases and (cases[0].opt_level or cases[0].opt_passes))
    seed_column = any(result.seed is not None for result in report.results)
    headers = ["Benchmark", "CGRA", "Approach", "Status", "II", "mII",
               "Time", "Space", "Total"]
    if seed_column:
        headers.insert(3, "Seed")
    if opt_column:
        headers.insert(3, "Opt")
    if arch_column:
        headers.insert(2, "Arch")
    table = Table(
        headers=headers,
        title=f"Sweep -- {len(cases)} case(s), jobs={args.jobs}"
              + (f", cache={args.cache}" if args.cache else ""),
    )
    for result in report.results:
        cells = [
            result.benchmark,
            result.cgra_size,
            result.approach,
            result.status,
            result.ii,
            result.mii,
            format_seconds(result.time_phase_seconds),
            format_seconds(result.space_phase_seconds),
            format_seconds(result.total_seconds),
        ]
        if seed_column:
            cells.insert(3, result.seed if result.seed is not None else "-")
        if opt_column:
            cells.insert(3, result.opt_passes or f"O{result.opt_level}")
        if arch_column:
            cells.insert(2, result.arch or "-")
        table.add_row(*cells)
    print(table.render())
    print(report.summary())
    if args.csv:
        table.to_csv(args.csv)
        print(f"results written to {args.csv}")
    return 1 if report.errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Monomorphism-based CGRA mapping via space/time decoupling",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available workloads")
    list_parser.set_defaults(handler=_cmd_list)

    map_parser = subparsers.add_parser("map", help="map a DFG onto a CGRA")
    source = map_parser.add_mutually_exclusive_group()
    source.add_argument("--benchmark", default="running_example",
                        help="name of a Table III benchmark or 'running_example'")
    source.add_argument("--kernel-example", choices=sorted(EXAMPLE_KERNELS),
                        help="one of the bundled front-end kernels")
    source.add_argument("--kernel-file", help="path to a kernel source file")
    map_parser.add_argument("--cgra", default="4x4", help="CGRA size, e.g. 4x4")
    map_parser.add_argument("--arch", default=None,
                            help="architecture preset name (see `repro-map "
                                 "arch list`) or arch-spec JSON path; a "
                                 "spec file's own size wins over --cgra")
    map_parser.add_argument("--timeout", type=positive_seconds, default=60.0,
                            help="wall-clock budget of the mapping in "
                                 "seconds: the exact engines' timeout, the "
                                 "heuristic engine's anytime budget, the "
                                 "portfolio's total (default 60)")
    map_parser.add_argument("--opt-level", default="O0",
                            help="pre-mapping DFG optimization level "
                                 f"(O0..O{MAX_OPT_LEVEL}, default O0)")
    map_parser.add_argument("--passes", nargs="+", default=None,
                            metavar="PASS",
                            help="explicit optimization pass list "
                                 "overriding --opt-level "
                                 f"(available: {', '.join(pass_names())})")
    map_parser.add_argument("--approach", default="monomorphism",
                            choices=engine_choices(),
                            help="mapping engine: monomorphism (exact, the "
                                 "paper's), satmapit (exact coupled "
                                 "baseline), heuristic (stochastic "
                                 "anytime), or portfolio (races all three)")
    map_parser.add_argument("--seed", type=int, default=None,
                            help="RNG seed for the stochastic engines "
                                 "(default: REPRO_PROPERTY_SEED env var, "
                                 "then the built-in constant; see "
                                 "docs/mapping-engines.md)")
    map_parser.add_argument("--strategy", default="ascend",
                            choices=["ascend", "refine"],
                            help="heuristic II sweep: ascend stops at the "
                                 "first (best) II; refine descends, "
                                 "streaming best-so-far improvements")
    map_parser.add_argument("--remote", default=None, metavar="URL",
                            help="compile on a running repro-serve instance "
                                 "instead of in-process (e.g. "
                                 "http://127.0.0.1:8780)")
    map_parser.add_argument("--simulate", action="store_true",
                            help="run the mapping on the cycle-level simulator "
                                 "and compare against the reference")
    map_parser.add_argument("--iterations", type=int, default=8,
                            help="loop iterations to simulate")
    map_parser.add_argument("--json", help="write the mapping to a JSON file")
    map_parser.add_argument("--trace", default=None, metavar="OUT",
                            help="record engine/phase spans and write a "
                                 "Chrome trace-event JSON to OUT (open in "
                                 "Perfetto; see docs/observability.md)")
    map_parser.add_argument("--metrics", action="store_true",
                            help="print the in-process metrics registry "
                                 "(the same series GET /metrics exposes) "
                                 "after mapping")
    map_parser.add_argument("--log-json", default=None, metavar="PATH",
                            help="append structured JSONL run records to "
                                 "PATH (equivalent: REPRO_LOG_JSON env var)")
    map_parser.set_defaults(handler=_cmd_map)

    arch_parser = subparsers.add_parser(
        "arch", help="list, show or export architecture specs")
    arch_sub = arch_parser.add_subparsers(dest="arch_command", required=True)
    arch_list = arch_sub.add_parser("list", help="list the presets")
    arch_list.set_defaults(handler=_cmd_arch)
    for sub_name, sub_help in (("show", "describe one fabric"),
                               ("dump", "serialise one fabric to JSON")):
        sub = arch_sub.add_parser(sub_name, help=sub_help)
        sub.add_argument("arch", help="preset name or arch-spec JSON path")
        sub.add_argument("--size", default="4x4",
                         help="array size for presets (default 4x4)")
        if sub_name == "dump":
            sub.add_argument("--out", default=None,
                             help="output path (default: stdout)")
        sub.set_defaults(handler=_cmd_arch)

    table1_parser = subparsers.add_parser(
        "table1", help="reproduce paper Table I / Table II (forwards extra "
                       "args)")
    table1_parser.add_argument("rest", nargs=argparse.REMAINDER)
    table1_parser.set_defaults(
        handler=lambda args: table1_table2.main(args.rest))

    table3_parser = subparsers.add_parser(
        "table3", help="reproduce paper Table III (forwards extra args)")
    table3_parser.add_argument("rest", nargs=argparse.REMAINDER)
    table3_parser.set_defaults(handler=lambda args: table3.main(args.rest))

    fig5_parser = subparsers.add_parser(
        "fig5", help="reproduce paper Fig. 5 (forwards extra args)")
    fig5_parser.add_argument("rest", nargs=argparse.REMAINDER)
    fig5_parser.set_defaults(handler=lambda args: fig5.main(args.rest))

    ablation_parser = subparsers.add_parser(
        "ablation", help="design-choice ablation (forwards extra args)")
    ablation_parser.add_argument("rest", nargs=argparse.REMAINDER)
    ablation_parser.set_defaults(handler=lambda args: ablation.main(args.rest))

    archsweep_parser = subparsers.add_parser(
        "archsweep",
        help="compare II across fabrics (forwards extra args)")
    archsweep_parser.add_argument("rest", nargs=argparse.REMAINDER)
    archsweep_parser.set_defaults(handler=lambda args: arch_sweep.main(args.rest))

    optsweep_parser = subparsers.add_parser(
        "optsweep",
        help="compare II / compile time across optimization levels "
             "(forwards extra args)")
    optsweep_parser.add_argument("rest", nargs=argparse.REMAINDER)
    optsweep_parser.set_defaults(handler=lambda args: opt_sweep.main(args.rest))

    profile_parser = subparsers.add_parser(
        "profile",
        help="run benchmarks with per-phase solver profiling and emit JSON",
    )
    profile_parser.add_argument("benchmarks", nargs="+",
                                help="benchmark names (see `repro-map list`)")
    profile_parser.add_argument("--cgra", default="4x4",
                                help="CGRA size, e.g. 4x4")
    profile_parser.add_argument("--arch", default=None,
                                help="architecture preset or arch-spec JSON")
    profile_parser.add_argument("--approach", default="monomorphism",
                                choices=engine_choices(),
                                help="mapping engine to profile")
    profile_parser.add_argument("--seed", type=int, default=None,
                                help="RNG seed for the stochastic engines")
    profile_parser.add_argument("--timeout", type=positive_seconds,
                                default=120.0)
    profile_parser.add_argument("--opt-level", default="O0",
                                help=f"O0..O{MAX_OPT_LEVEL} (default O0)")
    profile_parser.add_argument("--passes", nargs="+", default=None,
                                metavar="PASS",
                                help="explicit optimization pass list")
    profile_parser.add_argument("--json", default=None,
                                help="write the records to a JSON file "
                                     "(default: print to stdout)")
    profile_parser.add_argument("--sample", action="store_true",
                                help="also run the signal-based sampling "
                                     "profiler and print collapsed stacks "
                                     "(flame-graph input; POSIX only, see "
                                     "docs/observability.md)")
    profile_parser.set_defaults(handler=_cmd_profile)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a (benchmark x size x approach) grid in parallel with "
             "caching",
    )
    sweep_parser.add_argument("--benchmarks", nargs="+", default=None,
                              help="benchmark subset (default: all 17)")
    sweep_parser.add_argument("--sizes", nargs="+", default=["2x2", "5x5"],
                              help="CGRA sizes, e.g. 2x2 5x5 10x10")
    sweep_parser.add_argument("--approaches", nargs="+",
                              default=["monomorphism"],
                              choices=engine_choices(),
                              help="mapper approaches to run (any of "
                                   f"{', '.join(ENGINE_NAMES)})")
    sweep_parser.add_argument("--arch", default=None,
                              help="architecture preset or arch-spec JSON "
                                   "path applied to every case (default: "
                                   "homogeneous torus)")
    sweep_parser.add_argument("--opt-level", default="O0",
                              help="pre-mapping DFG optimization level "
                                   "applied to every case "
                                   f"(O0..O{MAX_OPT_LEVEL}, default O0)")
    sweep_parser.add_argument("--passes", nargs="+", default=None,
                              metavar="PASS",
                              help="explicit optimization pass list "
                                   "overriding --opt-level")
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help="RNG seed for heuristic/portfolio cases "
                                   "(default: REPRO_PROPERTY_SEED env var, "
                                   "then the built-in constant; part of "
                                   "the batch cache key)")
    sweep_parser.add_argument("--timeout", type=positive_seconds,
                              default=60.0,
                              help="per-case soft timeout in seconds")
    sweep_parser.add_argument("--jobs", type=int,
                              default=os.cpu_count() or 1,
                              help="concurrent worker processes "
                                   "(default: all CPUs)")
    sweep_parser.add_argument("--cache", default=None,
                              help="JSONL result cache; solved cases are "
                                   "skipped on re-runs")
    sweep_parser.add_argument("--csv", default=None,
                              help="write the result table to a CSV file")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-case progress lines")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # The experiment subcommands own their full option set; forward their
    # arguments untouched instead of fighting argparse.REMAINDER quirks.
    forwarded = {"table1": table1_table2.main, "table3": table3.main,
                 "fig5": fig5.main, "ablation": ablation.main,
                 "archsweep": arch_sweep.main, "optsweep": opt_sweep.main}
    if argv and argv[0] in forwarded:
        return forwarded[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
