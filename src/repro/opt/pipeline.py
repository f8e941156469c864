"""The pass manager: opt levels, pipelines, and verified pipeline runs.

``O0`` maps the frontend's DFG untouched (the paper's flow); ``O1`` runs
the cheap clean-up passes (constant folding, algebraic simplification,
dead-node elimination); ``O2`` adds strength reduction, common-subexpression
elimination and associativity rebalancing. A pipeline is run to a fixpoint
(bounded by ``max_rounds``) because passes enable each other -- folding
exposes identities, identities orphan constants, reassociation exposes new
folds.

Every pass application can be verified by replaying the rewritten graph
through the sequential reference interpreter against its input
(:mod:`repro.opt.verify`); the mapper enables this whenever its own
``validate`` flag is on, so an unsound rewrite is caught at the pass that
introduced it, not as a mysterious mapping-vs-simulation mismatch later.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.cgra import CGRA
from repro.graphs.dfg import DFG
from repro.opt.passes import Pass, PassContext, make_pass, pass_names
from repro.opt.rewrite import NodeMap, compose_maps, identity_map
from repro.opt.verify import VerificationReport, verify_equivalence

#: pass schedule per optimization level.
OPT_LEVEL_PIPELINES: Dict[int, Tuple[str, ...]] = {
    0: (),
    1: ("constfold", "algebraic", "dce"),
    2: ("constfold", "algebraic", "strength", "cse", "reassoc", "dce"),
}

MAX_OPT_LEVEL = max(OPT_LEVEL_PIPELINES)


def parse_opt_level(level: Union[int, str, None]) -> int:
    """Parse ``2`` / ``"2"`` / ``"O2"`` / ``"o2"`` (``None`` -> 0).

    Anything else -- a float, a bool, a list -- raises ``ValueError``.
    """
    if level is None:
        return 0
    if isinstance(level, str):
        text = level.strip().lower().lstrip("o")
        try:
            level = int(text if text else "0")
        except ValueError:
            pass  # still a str: rejected below
    if isinstance(level, bool) or not isinstance(level, int):
        raise ValueError(
            f"invalid optimization level {level!r}; expected O0..O{MAX_OPT_LEVEL}"
        )
    if not (0 <= level <= MAX_OPT_LEVEL):
        raise ValueError(
            f"optimization level must be in [0, {MAX_OPT_LEVEL}], got {level}"
        )
    return level


def opt_level_label(level: int) -> str:
    return f"O{parse_opt_level(level)}"


@dataclass(frozen=True)
class PassStat:
    """What one pass application did."""

    name: str
    changed: bool
    detail: str
    seconds: float
    nodes_after: int


@dataclass
class OptResult:
    """Outcome of one pipeline run.

    ``node_map`` relates original node ids to surviving ids (``None`` for
    erased nodes); callers holding per-node metadata (initial values,
    output bindings) remap through it.
    """

    original: DFG
    optimized: DFG
    node_map: NodeMap
    stats: List[PassStat] = field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0
    verification: Optional[VerificationReport] = None

    @property
    def nodes_before(self) -> int:
        return self.original.num_nodes

    @property
    def nodes_after(self) -> int:
        return self.optimized.num_nodes

    @property
    def changed(self) -> bool:
        return any(stat.changed for stat in self.stats)

    @property
    def verified(self) -> bool:
        return self.verification is not None and self.verification.equivalent

    def remap_node(self, node_id: int) -> Optional[int]:
        return self.node_map.get(node_id)

    def summary(self) -> str:
        applied = [s for s in self.stats if s.changed]
        if not applied:
            return (f"opt: no change ({self.nodes_before} node(s), "
                    f"{self.seconds:.3f}s)")
        details = "; ".join(f"{s.name}: {s.detail}" for s in applied)
        suffix = ", verified" if self.verified else ""
        return (
            f"opt: {self.nodes_before} -> {self.nodes_after} node(s) in "
            f"{self.rounds} round(s), {self.seconds:.3f}s{suffix} ({details})"
        )


class PassManager:
    """Runs a pass list to a fixpoint over one DFG."""

    def __init__(self, passes: Sequence[Union[Pass, str]],
                 max_rounds: int = 4) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.passes: List[Pass] = [
            p if isinstance(p, Pass) else make_pass(p) for p in passes
        ]
        self.max_rounds = max_rounds

    def run(
        self,
        dfg: DFG,
        target: Optional[CGRA] = None,
        verify: bool = False,
        verify_iterations: int = 4,
    ) -> OptResult:
        start = time.monotonic()
        result = OptResult(
            original=dfg, optimized=dfg, node_map=identity_map(dfg)
        )
        if not self.passes:
            result.seconds = time.monotonic() - start
            return result

        ctx = PassContext.for_dfg(dfg, target=target)
        original_observables = set(ctx.observables)
        current = dfg
        for _ in range(self.max_rounds):
            result.rounds += 1
            round_changed = False
            for opt_pass in self.passes:
                pass_start = time.monotonic()
                outcome = opt_pass.run(current, ctx)
                elapsed = time.monotonic() - pass_start
                if outcome is None:
                    result.stats.append(PassStat(
                        opt_pass.name, False, "no change", elapsed,
                        current.num_nodes,
                    ))
                    continue
                new_dfg, node_map, detail = outcome
                if verify:
                    verify_equivalence(
                        current, new_dfg, node_map,
                        iterations=verify_iterations,
                        observables=ctx.observables,
                        label=opt_pass.name,
                    )
                ctx.remap(node_map)
                result.node_map = compose_maps(result.node_map, node_map)
                current = new_dfg
                round_changed = True
                result.stats.append(PassStat(
                    opt_pass.name, True, detail,
                    time.monotonic() - pass_start, current.num_nodes,
                ))
            if not round_changed:
                break

        current.validate()
        result.optimized = current
        if verify:
            result.verification = verify_equivalence(
                dfg, current, result.node_map,
                iterations=verify_iterations,
                observables=original_observables,
            )
        result.seconds = time.monotonic() - start
        return result


def build_pipeline(
    opt_level: Union[int, str, None] = 0,
    passes: Optional[Sequence[str]] = None,
    max_rounds: int = 4,
) -> PassManager:
    """A :class:`PassManager` for an opt level or an explicit pass list.

    An explicit ``passes`` sequence overrides the level's schedule (this is
    the CLI's ``--passes``); unknown names raise early with the catalog.
    """
    if passes:
        return PassManager(list(passes), max_rounds=max_rounds)
    level = parse_opt_level(opt_level)
    return PassManager(OPT_LEVEL_PIPELINES[level], max_rounds=max_rounds)


def optimize_dfg(
    dfg: DFG,
    opt_level: Union[int, str, None] = 0,
    passes: Optional[Sequence[str]] = None,
    target: Optional[CGRA] = None,
    verify: bool = False,
) -> OptResult:
    """Convenience one-shot: build the pipeline and run it on ``dfg``."""
    manager = build_pipeline(opt_level=opt_level, passes=passes)
    return manager.run(dfg, target=target, verify=verify)


__all__ = [
    "MAX_OPT_LEVEL",
    "OPT_LEVEL_PIPELINES",
    "OptResult",
    "PassManager",
    "PassStat",
    "build_pipeline",
    "opt_level_label",
    "optimize_dfg",
    "parse_opt_level",
    "pass_names",
]
