"""Per-layer spans for the traced run, recorded from outside the program.

The traced run wraps the public entry point of each layer in a
``repro.obs.trace`` span by patching the attribute the caller looks up.
Nothing under ``src/`` changes; the program's own spans
(``ii_attempt``, ``time_phase``, ``space_phase``, ...) still nest
inside these and are carried into the Chrome trace, but they are
transparent to the layer accounting below.

A layer's *self time* is the duration of its spans minus the part
covered by nested layer spans. The benchmark's root span around each
case (``case``) or request (``request``) has the wall clock; its self
time is the ``unattributed`` remainder, so the self times of all layers
plus ``unattributed`` add up to the measured wall clock.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.obs import trace as obs_trace

#: span names of the compile layers, root first
COMPILE_LAYERS = ("case", "arch.build", "mii", "time", "time.solve",
                  "space", "mrrg.build", "validation")

#: span names recorded around the service path; the client-side spans
#: run on the client thread, the others on the server's threads
SERVE_LAYERS = ("request", "http.submit", "http.events", "service.submit",
                "frontend", "store.get", "store.put")


def _wrap_call(owner, attr: str, name: str):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with obs_trace.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)
    return owner, attr, original


def _wrap_steps(owner, attr: str, name: str):
    """Wrap a generator function: every ``next()`` step is one span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        iterator = original(*args, **kwargs)
        try:
            while True:
                with obs_trace.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            iterator.close()

    setattr(owner, attr, traced)
    return owner, attr, original


class LayerPatches:
    """Install/remove the layer spans; a context manager."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerPatches":
        if self.kind == "compile":
            self._install_compile()
        else:
            self._install_serve()
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_compile(self) -> None:
        from repro.core import mapper
        from repro.core.space_solver import SpaceSolver
        from repro.core.time_solver import IncrementalTimeSolver
        from repro.experiments import runner
        from repro.smt.csp import FiniteDomainProblem

        self._undo += [
            _wrap_call(runner, "build_cgra_from_arch", "arch.build"),
            _wrap_call(mapper, "begin_mapping", "mii"),
            _wrap_call(mapper, "assert_valid_mapping", "validation"),
            # the time layer: the base encoding built per DFG, and every
            # schedule the mapper pulls (scope encoding + SAT solve)
            _wrap_call(IncrementalTimeSolver, "__init__", "time"),
            _wrap_steps(IncrementalTimeSolver, "iter_schedules", "time"),
            _wrap_steps(FiniteDomainProblem, "enumerate_solutions",
                        "time.solve"),
            _wrap_call(SpaceSolver, "solve", "space"),
            _wrap_call(SpaceSolver, "build_mrrg", "mrrg.build"),
        ]

    def _install_serve(self) -> None:
        import repro.frontend
        from repro.service.client import ServiceClient
        from repro.service.jobs import MappingService

        self._undo += [
            _wrap_call(ServiceClient, "submit", "http.submit"),
            _wrap_steps(ServiceClient, "events", "http.events"),
            _wrap_call(MappingService, "submit", "service.submit"),
            # MapRequest.from_payload imports extract_dfg at call time
            _wrap_call(repro.frontend, "extract_dfg", "frontend"),
            _wrap_call(MappingService, "_store_get", "store.get"),
            _wrap_call(MappingService, "_store_put", "store.put"),
        ]


@contextlib.contextmanager
def recording(kind: str):
    """Record layer spans (``kind`` is "compile" or "serve") in the block."""
    obs_trace.reset()
    obs_trace.enable()
    try:
        with LayerPatches(kind):
            yield
    finally:
        obs_trace.disable()


def maybe_recording(kind: str, traced: bool):
    return recording(kind) if traced else contextlib.nullcontext()


def overhead_ratio(call, items, kind: str, budget_seconds: float) -> tuple:
    """Tracing overhead: ``(ratio, pairs)`` from alternating calls.

    Each item is run once untraced and once with the layer spans on,
    back to back, cycling over ``items`` until ``budget_seconds`` of
    untraced time is spent. Pairs alternate which side runs first, so
    neither host-speed drift nor whatever the first of two identical
    calls pays for lands on one side. ``call(item)`` returns its own
    elapsed seconds.
    """
    plain = traced = 0.0
    pairs = 0
    for item in itertools.cycle(items):
        if plain >= budget_seconds:
            break
        if pairs % 2:
            plain += call(item)
        with recording(kind):
            traced += call(item)
        if not pairs % 2:
            plain += call(item)
        pairs += 1
    return (traced / plain - 1.0 if plain else 0.0), pairs


def layer_seconds(events: Iterable[Dict], layers: Iterable[str]
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(inclusive, self)`` seconds per layer span name.

    Spans of other names (the program's own) are transparent: a layer
    span's time is charged to its nearest enclosing *layer* span.
    """
    names = set(layers)
    by_id = {e["sid"]: e for e in events
             if e.get("ph", "X") == "X" and e.get("sid")}
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for event in by_id.values():
        name = event["name"]
        if name not in names:
            continue
        duration = float(event["dur"])
        inclusive[name] += duration
        own[name] += duration
        parent = by_id.get(event.get("parent"))
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent.get("parent"))
        if parent is not None:
            own[parent["name"]] -= duration
    return dict(inclusive), dict(own)
