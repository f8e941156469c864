"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.cgra import CGRA
from repro.arch.spec import resolve_arch
from repro.arch.topology import Topology
from repro.core.config import MapperConfig
from repro.core.engine import ENGINE_ALIASES, create_engine, normalize_engine
from repro.core.mapper import MappingResult, MappingStatus
from repro.graphs.dfg import DFG
from repro.workloads.suite import load_benchmark

DEFAULT_SIZES: Tuple[str, ...] = ("2x2", "5x5", "10x10", "20x20")


def parse_size(size: str) -> Tuple[int, int]:
    """Parse a size label such as ``"5x5"``."""
    try:
        rows_text, cols_text = size.lower().split("x")
        rows, cols = int(rows_text), int(cols_text)
    except ValueError as exc:
        raise ValueError(f"invalid CGRA size {size!r}; expected e.g. '5x5'") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid CGRA size {size!r}")
    return rows, cols


def build_cgra(size: str, topology: Topology = Topology.TORUS) -> CGRA:
    rows, cols = parse_size(size)
    return CGRA(rows, cols, topology=topology)


def build_cgra_from_arch(size: str, arch: Optional[str]) -> CGRA:
    """Build the fabric for one case: plain torus, preset, or spec file.

    ``arch`` is ``None`` (the paper's homogeneous torus at ``size``), a
    preset name (instantiated at ``size``), or a path to an arch-spec JSON
    file (whose own dimensions are authoritative).
    """
    if arch is None:
        return build_cgra(size)
    rows, cols = parse_size(size)
    return resolve_arch(arch, rows, cols).build()


@dataclass
class CaseResult:
    """One (benchmark, CGRA size, approach) measurement.

    Wall-clock fields are recorded for *every* terminal status -- including
    timeouts and failures -- so the reporting layer can see how long a
    failed case actually ran. Excluding timeouts from aggregates (the
    paper's convention) is the caller's job: pass ``None`` for
    non-successful cases into :func:`average`, as the drivers do.
    """

    benchmark: str
    cgra_size: str
    approach: str                     # canonical engine name
    status: str
    ii: Optional[int]
    mii: int
    time_phase_seconds: Optional[float]
    space_phase_seconds: Optional[float]
    total_seconds: Optional[float]
    schedules_tried: int = 0
    nodes: int = 0
    message: str = ""
    arch: Optional[str] = None        # preset name / spec path; None = torus
    opt_level: int = 0                # pre-mapping optimization level
    opt_passes: Optional[str] = None  # explicit pass list ("a,b,c"), if any
    nodes_opt: Optional[int] = None   # node count after optimization
    seed: Optional[int] = None        # heuristic/portfolio RNG seed, if any
    iis_tried: int = 0                # IIs attempted before the outcome
    #: per-II attribution: [{"ii", "time", "space", "schedules"}, ...]
    per_ii: Optional[List[Dict[str, object]]] = None
    #: portfolio only: per-engine outcome records, and the winning engine
    portfolio: Optional[List[Dict[str, object]]] = None
    winner: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.status == MappingStatus.SUCCESS.value

    @classmethod
    def from_mapping_result(
        cls,
        benchmark: str,
        cgra_size: str,
        approach: str,
        dfg: DFG,
        result: MappingResult,
        arch: Optional[str] = None,
        opt_level: int = 0,
        opt_passes: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
    ) -> "CaseResult":
        stats = result.stats or {}
        return cls(
            benchmark=benchmark,
            cgra_size=cgra_size,
            approach=approach,
            status=result.status.value,
            ii=result.ii,
            mii=result.mii,
            time_phase_seconds=result.time_phase_seconds,
            space_phase_seconds=result.space_phase_seconds,
            total_seconds=result.total_seconds,
            schedules_tried=result.schedules_tried,
            nodes=dfg.num_nodes,
            message=result.message,
            arch=arch,
            opt_level=opt_level,
            opt_passes=",".join(opt_passes) if opt_passes else None,
            nodes_opt=(result.opt.nodes_after
                       if result.opt is not None else None),
            seed=seed,
            iis_tried=result.iis_tried,
            per_ii=stats.get("per_ii"),
            portfolio=stats.get("portfolio"),
            winner=stats.get("winner"),
        )


def decoupled_config(
    timeout_seconds: float,
    opt_level: Union[int, str] = 0,
    opt_passes: Optional[Sequence[str]] = None,
) -> MapperConfig:
    """The decoupled mapper's configuration for one case.

    It equals the config :func:`repro.core.engine.create_engine` builds
    for ``monomorphism`` with the same knobs, which is what
    :func:`run_case` runs; the benchmark times this one.
    """
    return MapperConfig(
        budget_seconds=timeout_seconds,
        opt_level=opt_level,
        opt_passes=tuple(opt_passes) if opt_passes else None,
    )


#: every accepted approach spelling -> canonical engine name (kept as the
#: historical module-level alias map; the registry lives in repro.core.engine)
APPROACHES: Dict[str, str] = dict(ENGINE_ALIASES)


def normalize_approach(approach: str) -> str:
    """Canonical approach name (one of :data:`repro.core.engine.ENGINE_NAMES`)."""
    try:
        return normalize_engine(approach)
    except ValueError as exc:
        raise ValueError(
            f"unknown approach {approach!r}; expected one of {sorted(APPROACHES)}"
        ) from exc


def run_case(
    benchmark: str, size: str, approach: str, timeout_seconds: float = 60.0,
    arch: Optional[str] = None,
    opt_level: Union[int, str] = 0,
    opt_passes: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> CaseResult:
    """Run one case of any approach (the batch engine's entry point).

    The engine comes from :func:`repro.core.engine.create_engine`, the
    same factory the CLI and the compile service use.
    """
    from repro.heuristic.engine import resolve_seed

    canonical = normalize_approach(approach)
    dfg = load_benchmark(benchmark)
    cgra = build_cgra_from_arch(size, arch)
    engine = create_engine(
        canonical, cgra, budget_seconds=timeout_seconds, seed=seed,
        opt_level=opt_level, opt_passes=opt_passes,
    )
    result = engine.map(dfg)
    return CaseResult.from_mapping_result(
        benchmark, cgra.size_label, canonical, dfg, result, arch=arch,
        opt_level=engine.config.opt_level, opt_passes=opt_passes,
        # only the stochastic engines have a seed
        seed=(resolve_seed(seed) if canonical in ("heuristic", "portfolio")
              else None),
    )


def compilation_time_ratio(
    mono: CaseResult, baseline: CaseResult
) -> Optional[float]:
    """The paper's CTR column: baseline time over monomorphism time."""
    if not (mono.succeeded and baseline.succeeded):
        return None
    if not mono.total_seconds:
        return None
    return baseline.total_seconds / mono.total_seconds


def average(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean of the non-``None`` values (the paper excludes timeouts)."""
    concrete = [v for v in values if v is not None]
    if not concrete:
        return None
    return sum(concrete) / len(concrete)
