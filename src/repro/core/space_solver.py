"""Space phase: place the scheduled DFG onto the CGRA via monomorphism.

Given a time solution, every DFG node carries a kernel-slot label and the
placement problem becomes: find an injective, label- and edge-preserving map
from the labelled DFG into the MRRG (paper Sec. IV-C). The MRRG is exposed to
the generic monomorphism search through :class:`MRRGTarget`, which computes
candidates and adjacency on the fly (no explicit graph is built even for
20x20 CGRAs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional

from repro.arch.cgra import CGRA
from repro.arch.mrrg import MRRG, TimeAdjacency
from repro.arch.topology import Topology
from repro.core.config import MapperConfig
from repro.core.time_solver import Schedule
from repro.matching.monomorphism import (
    MonomorphismSearch,
    PatternGraph,
    SearchStats,
)


class MRRGTarget:
    """Adapter exposing an :class:`~repro.arch.mrrg.MRRG` to the matcher.

    Pattern labels are ``(slot, opcode)`` pairs (see :func:`build_pattern`):
    the slot half carries the paper's ``l_G``/``l_M`` label-preservation
    property, the opcode half restricts candidates to op-compatible MRRG
    vertices on heterogeneous fabrics. On a homogeneous array every PE is
    compatible and the opcode half is inert.
    """

    def __init__(self, mrrg: MRRG, pin_first_placement: bool = True) -> None:
        self.mrrg = mrrg
        self.pin_first_placement = pin_first_placement
        self._homogeneous = mrrg.cgra.is_homogeneous

    @staticmethod
    def _split(label: Hashable):
        """Split a ``(slot, opcode)`` label; plain slot labels still work."""
        if isinstance(label, tuple):
            return int(label[0]), label[1]
        return int(label), None

    # -- TargetGraph protocol ------------------------------------------- #
    def candidates(self, label: Hashable) -> Iterable[int]:
        slot, opcode = self._split(label)
        if self._homogeneous or opcode is None:
            return self.mrrg.vertices_with_label(slot)
        return self.mrrg.compatible_vertices(slot, opcode)

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        """Candidates for the first placed node.

        A *homogeneous* torus CGRA is vertex-transitive inside a time step,
        so the first node can be pinned to PE 0 of its slot without losing
        completeness. Heterogeneity breaks the symmetry (translating a
        mapping can move some op onto a PE that does not support it), so
        the pin only applies to homogeneous tori.
        """
        if (
            self.pin_first_placement
            and self._homogeneous
            and self.mrrg.cgra.topology is Topology.TORUS
        ):
            slot, _opcode = self._split(label)
            return [self.mrrg.vertex(0, slot)]
        return self.candidates(label)

    def are_adjacent(self, a: int, b: int) -> bool:
        return self.mrrg.has_edge(a, b)

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        slot, opcode = self._split(label)
        mrrg = self.mrrg
        if mrrg.time_adjacency is TimeAdjacency.CONSECUTIVE:
            diff = (mrrg.slot_of(vertex) - slot) % mrrg.ii
            if diff not in (0, 1, mrrg.ii - 1):
                return []
        base = slot * mrrg.cgra.num_pes
        pe = mrrg.pe_of(vertex)
        reachable = mrrg.cgra.neighbors_or_self(pe)
        if not self._homogeneous and opcode is not None:
            reachable = reachable & mrrg.cgra.supporting_pes(opcode)
        return [
            base + other_pe
            for other_pe in reachable
            if base + other_pe != vertex
        ]


@dataclass
class SpaceResult:
    """Outcome of the space phase for one schedule."""

    placement: Optional[Dict[int, int]]  # node -> PE index
    mrrg_assignment: Optional[Dict[int, int]]  # node -> MRRG vertex
    stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.placement is not None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


def build_pattern(schedule: Schedule) -> PatternGraph:
    """The labelled undirected DFG the monomorphism search runs on.

    Each node is labelled ``(kernel slot, opcode)``: the slot drives the
    paper's label-preservation property, the opcode lets
    :class:`MRRGTarget` restrict candidates to op-compatible PEs on
    heterogeneous fabrics.
    """
    labels = {
        node_id: (schedule.slot(node_id), schedule.dfg.node(node_id).opcode)
        for node_id in schedule.start_times
    }
    edges = schedule.dfg.undirected_edges()
    return PatternGraph.from_edges(labels, edges)


class SpaceSolver:
    """Runs the monomorphism search for one schedule."""

    def __init__(self, cgra: CGRA, config: Optional[MapperConfig] = None) -> None:
        self.cgra = cgra
        self.config = config if config is not None else MapperConfig()

    def build_mrrg(self, ii: int) -> MRRG:
        return MRRG(self.cgra, ii, time_adjacency=self.config.time_adjacency)

    def solve(
        self,
        schedule: Schedule,
        timeout_seconds: Optional[float] = None,
    ) -> SpaceResult:
        """Attempt to place ``schedule``; never raises on plain failure."""
        budget = (
            timeout_seconds
            if timeout_seconds is not None
            else self.config.budget_seconds
        )
        start = time.monotonic()
        mrrg = self.build_mrrg(schedule.ii)
        target = MRRGTarget(mrrg, pin_first_placement=self.config.pin_first_placement)
        pattern = build_pattern(schedule)
        search = MonomorphismSearch(pattern, target, timeout_seconds=budget)
        outcome = search.search()
        elapsed = time.monotonic() - start
        if outcome.mapping is None:
            return SpaceResult(
                placement=None,
                mrrg_assignment=None,
                stats=outcome.stats,
                elapsed_seconds=elapsed,
            )
        placement = {
            node: mrrg.pe_of(vertex) for node, vertex in outcome.mapping.items()
        }
        return SpaceResult(
            placement=placement,
            mrrg_assignment=dict(outcome.mapping),
            stats=outcome.stats,
            elapsed_seconds=elapsed,
        )
