"""Space phase: place the scheduled DFG onto the CGRA via monomorphism.

Given a time solution, every DFG node carries a kernel-slot label and the
placement problem becomes: find an injective, label- and edge-preserving map
from the labelled DFG into the MRRG (paper Sec. IV-C). The MRRG is exposed to
the generic monomorphism search through :class:`MRRGTarget`, which computes
candidates and adjacency on the fly (no explicit graph is built even for
20x20 CGRAs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.mrrg import MRRG, TimeAdjacency
from repro.arch.topology import Topology
from repro.core.config import MapperConfig
from repro.core.time_solver import Schedule
from repro.graphs.dfg import DFG
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
        self._num_pes = mrrg.cgra.num_pes
        # (vertex, label) -> neighbours; filled on heterogeneous fabrics only
        self._table: Dict[Tuple[int, Hashable], Tuple[int, ...]] = {}

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
        """The MRRG neighbours of ``vertex`` whose PE can take ``label``.

        The search asks this at every node, mostly for pairs it asked
        before. On a heterogeneous fabric each answer needs a set
        intersection with the opcode's supporting PEs, so it is computed
        once and then read from a table. On a homogeneous fabric the
        answer is cheaper than the table's key, whose hash calls the
        opcode enum's Python-level ``__hash__``, and queries seldom
        repeat (10x10/20x20 Table III cases ask about 30, nearly all
        distinct), so it is computed every time.
        """
        if self._homogeneous:
            return self._neighbors_with_label(vertex, label)
        key = (vertex, label)
        found = self._table.get(key)
        if found is None:
            found = self._table[key] = tuple(
                self._neighbors_with_label(vertex, label))
        return found

    def _neighbors_with_label(self, vertex: int, label: Hashable) -> List[int]:
        slot, opcode = self._split(label)
        mrrg = self.mrrg
        if mrrg.time_adjacency is TimeAdjacency.CONSECUTIVE:
            diff = (mrrg.slot_of(vertex) - slot) % mrrg.ii
            if diff not in (0, 1, mrrg.ii - 1):
                return []
        base = slot * self._num_pes
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

    @property
    def found(self) -> bool:
        return self.placement is not None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


def _schedule_labels(schedule: Schedule) -> Dict[int, Tuple[int, Opcode]]:
    dfg = schedule.dfg
    return {
        node_id: (schedule.slot(node_id), dfg.node(node_id).opcode)
        for node_id in schedule.start_times
    }


def build_pattern(schedule: Schedule) -> PatternGraph:
    """The labelled undirected DFG the monomorphism search runs on.

    Each node is labelled ``(kernel slot, opcode)``: the slot drives the
    paper's label-preservation property, the opcode lets
    :class:`MRRGTarget` restrict candidates to op-compatible PEs on
    heterogeneous fabrics.
    """
    return PatternGraph.from_edges(
        _schedule_labels(schedule), schedule.dfg.undirected_edges())


class SpaceSolver:
    """Runs the monomorphism search for the schedules of one CGRA.

    What a search reads besides the schedule's labels is kept for the
    solver's lifetime: one :class:`MRRGTarget` per II (the MRRG is a pure
    function of the CGRA, the II and the config's time adjacency, all
    fixed per solver), with the target's neighbour table, and the last
    DFG's pattern graph with its placement order, relabelled per
    schedule. ``DFG`` is append-only, so the DFG object together with
    its node and edge counts identifies the pattern.
    """

    def __init__(self, cgra: CGRA, config: Optional[MapperConfig] = None) -> None:
        self.cgra = cgra
        self.config = config if config is not None else MapperConfig()
        self._targets: Dict[int, MRRGTarget] = {}
        self._shape: Optional[Tuple[DFG, int, int, PatternGraph]] = None

    def build_mrrg(self, ii: int) -> MRRG:
        return MRRG(self.cgra, ii, time_adjacency=self.config.time_adjacency)

    def _target(self, ii: int) -> MRRGTarget:
        target = self._targets.get(ii)
        if target is None:
            target = self._targets[ii] = MRRGTarget(
                self.build_mrrg(ii),
                pin_first_placement=self.config.pin_first_placement)
        return target

    def _pattern(self, schedule: Schedule) -> PatternGraph:
        dfg = schedule.dfg
        shape = self._shape
        if (shape is not None and shape[0] is dfg
                and shape[1] == dfg.num_nodes and shape[2] == dfg.num_edges):
            return shape[3].relabel(_schedule_labels(schedule))
        pattern = build_pattern(schedule)
        self._shape = (dfg, dfg.num_nodes, dfg.num_edges, pattern)
        return pattern

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
        target = self._target(schedule.ii)
        search = MonomorphismSearch(
            self._pattern(schedule), target, timeout_seconds=budget)
        outcome = search.search()
        if outcome.mapping is None:
            return SpaceResult(
                placement=None,
                mrrg_assignment=None,
                stats=outcome.stats,
            )
        pe_of = target.mrrg.pe_of
        placement = {
            node: pe_of(vertex) for node, vertex in outcome.mapping.items()
        }
        return SpaceResult(
            placement=placement,
            mrrg_assignment=dict(outcome.mapping),
            stats=outcome.stats,
        )
