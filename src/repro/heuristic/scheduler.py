"""Priority-based modulo list scheduling (the heuristic time phase).

Where the exact time phase (:mod:`repro.core.time_solver`) encodes the
modulo-scheduling constraints into SAT and searches, this scheduler builds
one schedule greedily: nodes become *ready* when all their data
predecessors are scheduled, and among the ready set the most critical node
(least mobility, then greatest height) is placed at the earliest start time
that satisfies

* **precedence** against every already-scheduled endpoint -- data edges
  lower-bound the start time, loop-carried out-edges to already-scheduled
  destinations (the PHI heads of recurrences) upper-bound it by
  ``t_dst + d*II - lat``;
* **capacity** -- at most ``num_pes`` operations per kernel slot, plus the
  per-support-class bounds on heterogeneous fabrics (a class competing for
  ``k`` compatible PEs admits at most ``k`` of its nodes per slot);
* **connectivity** -- placing a node in a slot may not push any
  already-scheduled neighbour's per-slot neighbour count past ``D_M``.

These are exactly the constraint families of paper Sec. IV-B, enforced
incrementally instead of encoded; a schedule this function returns is
accepted by :meth:`Schedule.validate_dependences` and by the capacity /
connectivity checks of :mod:`repro.core.validation` by construction.

The scheduler is deterministic for a given RNG state; restarts jitter the
priority order (``jitter > 0``) so a failed (II, slack) attempt explores a
different greedy trajectory instead of repeating itself.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from repro.arch.cgra import CGRA
from repro.core.feasibility import analyze_feasibility
from repro.core.time_solver import Schedule, restricted_capacity_groups
from repro.graphs.analysis import MobilitySchedule, mobility_schedule
from repro.graphs.dfg import DFG, DependenceKind


class _State:
    """Incremental constraint bookkeeping of one scheduling attempt."""

    def __init__(self, dfg: DFG, cgra: CGRA, ii: int,
                 groups: List[Tuple[List[int], int]]) -> None:
        self.dfg = dfg
        self.ii = ii
        self.capacity = cgra.num_pes
        self.degree = cgra.connectivity_degree
        self.slot_count = [0] * ii
        # per-support-class per-slot counts (heterogeneous fabrics only)
        self.group_of: Dict[int, List[int]] = {}
        self.group_bound: List[int] = []
        self.group_count: List[List[int]] = []
        for index, (nodes, bound) in enumerate(groups):
            self.group_bound.append(bound)
            self.group_count.append([0] * ii)
            for node_id in nodes:
                self.group_of.setdefault(node_id, []).append(index)
        # per-node per-slot count of scheduled neighbours
        self.neighbor_count: Dict[int, List[int]] = {
            n: [0] * ii for n in dfg.node_ids()
        }
        self.start: Dict[int, int] = {}

    def feasible(self, node_id: int, t: int) -> bool:
        slot = t % self.ii
        if self.slot_count[slot] >= self.capacity:
            return False
        for group in self.group_of.get(node_id, ()):
            if self.group_count[group][slot] >= self.group_bound[group]:
                return False
        # placing here grows every neighbour's count for this slot --
        # including not-yet-scheduled neighbours, whose own placement
        # never re-checks slots they are not placed in
        for u in self.dfg.neighbor_ids(node_id):
            if self.neighbor_count[u][slot] + 1 > self.degree:
                return False
        return True

    def place(self, node_id: int, t: int) -> None:
        slot = t % self.ii
        self.start[node_id] = t
        self.slot_count[slot] += 1
        for group in self.group_of.get(node_id, ()):
            self.group_count[group][slot] += 1
        for u in self.dfg.neighbor_ids(node_id):
            self.neighbor_count[u][slot] += 1


def _priorities(
    dfg: DFG, mobs: MobilitySchedule, rng: random.Random, jitter: float
) -> Dict[int, float]:
    """Scheduling priority per node: critical first, tall first.

    Lower is more urgent. Mobility (ALAP - ASAP) dominates -- the classic
    modulo-scheduling priority also used by the SAT branching order -- with
    height (distance from the sinks, i.e. the horizon minus ALAP) breaking
    ties. ``jitter`` adds a uniform perturbation so restarts explore
    different greedy trajectories.
    """
    priorities: Dict[int, float] = {}
    for node_id in dfg.node_ids():
        mobility = mobs.mobility(node_id)
        height = mobs.length - mobs.latest(node_id)
        base = mobility * 1000.0 - height
        if jitter > 0.0:
            base += rng.uniform(0.0, jitter)
        priorities[node_id] = base
    return priorities


def list_schedule(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    slack: int = 0,
    rng: Optional[random.Random] = None,
    jitter: float = 0.0,
    mobs: Optional[MobilitySchedule] = None,
    groups: Optional[List[Tuple[List[int], int]]] = None,
) -> Optional[Schedule]:
    """Build one modulo schedule for ``(ii, slack)``; ``None`` on failure.

    ``mobs`` and ``groups`` can be precomputed by the caller (the engine
    reuses them across restarts of the same horizon). A failure only means
    *this greedy trajectory* found no slot for some node -- the caller
    retries with jitter, a longer horizon, or a larger II.
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    if rng is None:
        rng = random.Random(0)
    if mobs is None:
        mobs = mobility_schedule(dfg, slack=slack)
    if groups is None:
        groups = restricted_capacity_groups(analyze_feasibility(dfg, cgra))

    state = _State(dfg, cgra, ii, groups)
    priorities = _priorities(dfg, mobs, rng, jitter)

    # data-DAG in-degrees drive readiness; loop-carried edges only bound
    remaining: Dict[int, int] = {}
    for node_id in dfg.node_ids():
        remaining[node_id] = sum(
            1 for e in dfg.in_edges(node_id)
            if e.kind is DependenceKind.DATA
        )
    ready = [(priorities[n], n) for n, count in remaining.items()
             if count == 0]
    heapq.heapify(ready)

    scheduled = 0
    total = dfg.num_nodes
    while ready:
        _, node_id = heapq.heappop(ready)

        lo = mobs.earliest(node_id)
        hi = mobs.latest(node_id)
        for edge in dfg.in_edges(node_id):
            src_time = state.start.get(edge.src)
            if src_time is not None:
                lat = dfg.node(edge.src).latency
                lo = max(lo, src_time + lat - edge.distance * ii)
        lat = dfg.node(node_id).latency
        for edge in dfg.out_edges(node_id):
            dst_time = state.start.get(edge.dst)
            if dst_time is not None:
                hi = min(hi, dst_time + edge.distance * ii - lat)
        if lo > hi:
            return None

        placed_at = None
        for t in range(lo, hi + 1):
            if state.feasible(node_id, t):
                placed_at = t
                break
        if placed_at is None:
            return None
        state.place(node_id, placed_at)
        scheduled += 1
        for edge in dfg.out_edges(node_id):
            if edge.kind is DependenceKind.DATA:
                remaining[edge.dst] -= 1
                if remaining[edge.dst] == 0:
                    heapq.heappush(ready, (priorities[edge.dst], edge.dst))

    if scheduled != total:  # pragma: no cover - data DAG is validated acyclic
        return None
    return Schedule(dfg=dfg, ii=ii, start_times=dict(state.start))
