"""Modulo-scheduling analysis: ASAP, ALAP, Mobility Schedule, ResII, RecII.

These are the quantities of paper Sec. IV-B and Table I. All computations
honour per-opcode latencies from :mod:`repro.arch.isa`; with the default
unit latencies they reduce to the classic formulation used in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graphs.dfg import DFG


def _asap(dfg: DFG, order: List[int]) -> Dict[int, int]:
    asap: Dict[int, int] = {}
    for node_id in order:
        earliest = 0
        for edge in dfg.in_edges(node_id):
            if edge.distance == 0:
                earliest = max(earliest, asap[edge.src] + dfg.node(edge.src).latency)
        asap[node_id] = earliest
    return asap


def _alap(dfg: DFG, order: List[int], horizon: int) -> Dict[int, int]:
    alap: Dict[int, int] = {}
    for node_id in reversed(order):
        node_latency = dfg.node(node_id).latency
        latest = horizon - node_latency
        for edge in dfg.out_edges(node_id):
            if edge.distance == 0:
                latest = min(latest, alap[edge.dst] - node_latency)
        alap[node_id] = latest
    return alap


def _path_length(dfg: DFG, asap: Dict[int, int]) -> int:
    return max(asap[n] + dfg.node(n).latency for n in asap)


@dataclass(frozen=True)
class DataPaths:
    """The data-dependence facts of one DFG that no horizon changes.

    ``order`` is the topological order of the data subgraph, ``asap`` each
    node's as-soon-as-possible start time, and ``length`` the critical
    path. An engine computes them once per ``map()`` (:func:`data_paths`)
    and every :class:`MobilitySchedule` of the run reuses them. Read-only
    by convention: the containers are shared.
    """

    order: List[int]
    asap: Dict[int, int]
    length: int


def data_paths(dfg: DFG, order: Optional[List[int]] = None) -> DataPaths:
    """:class:`DataPaths` of ``dfg``; ``order`` skips the topological sort
    when the caller already holds it (:meth:`DFG.validate` returns it)."""
    if order is None:
        order = dfg.topological_order()
    asap = _asap(dfg, order)
    return DataPaths(order=order, asap=asap, length=_path_length(dfg, asap))


def asap_schedule(dfg: DFG) -> Dict[int, int]:
    """As-soon-as-possible start time of every node (data edges only)."""
    return data_paths(dfg).asap


def critical_path_length(dfg: DFG) -> int:
    """Length (in cycles) of the longest data-dependence chain."""
    return data_paths(dfg).length


def alap_schedule(dfg: DFG, horizon: Optional[int] = None) -> Dict[int, int]:
    """As-late-as-possible start times for a schedule of length ``horizon``.

    ``horizon`` defaults to the critical path length, which is the tightest
    feasible schedule length and reproduces the paper's Table I.
    """
    paths = data_paths(dfg)
    if horizon is None:
        horizon = paths.length
    if horizon < paths.length:
        raise ValueError(
            f"horizon {horizon} is shorter than the critical path "
            f"({paths.length})"
        )
    return _alap(dfg, paths.order, horizon)


@dataclass
class MobilitySchedule:
    """The Mobility Schedule (MobS): per-node interval of legal start times.

    ``rows()`` reproduces the presentation of Table I: for every time step
    the set of nodes whose mobility interval contains it.
    """

    dfg: DFG
    asap: Dict[int, int]
    alap: Dict[int, int]
    length: int

    @classmethod
    def compute(cls, dfg: DFG, slack: int = 0,
                paths: Optional[DataPaths] = None) -> "MobilitySchedule":
        """Build the MobS, optionally extending the horizon by ``slack``.

        ``paths`` are ``dfg``'s :class:`DataPaths` when the caller holds
        them: a horizon rebuild then only recomputes ALAP.
        """
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if paths is None:
            paths = data_paths(dfg)
        length = paths.length + slack
        alap = _alap(dfg, paths.order, length)
        return cls(dfg=dfg, asap=paths.asap, alap=alap, length=length)

    def earliest(self, node_id: int) -> int:
        return self.asap[node_id]

    def latest(self, node_id: int) -> int:
        return self.alap[node_id]

    def mobility(self, node_id: int) -> int:
        """Number of alternative start times of a node minus one."""
        return self.alap[node_id] - self.asap[node_id]

    def window(self, node_id: int) -> range:
        """Legal start times of a node."""
        return range(self.asap[node_id], self.alap[node_id] + 1)

    def rows(self) -> List[List[int]]:
        """MobS rows: nodes whose window contains each time step."""
        rows: List[List[int]] = [[] for _ in range(self.length)]
        for node_id in self.dfg.node_ids():
            for t in self.window(node_id):
                rows[t].append(node_id)
        return [sorted(r) for r in rows]

    def asap_rows(self) -> List[List[int]]:
        """ASAP rows as presented in Table I."""
        rows: List[List[int]] = [[] for _ in range(self.length)]
        for node_id, t in self.asap.items():
            rows[t].append(node_id)
        return [sorted(r) for r in rows]

    def alap_rows(self) -> List[List[int]]:
        """ALAP rows as presented in Table I."""
        rows: List[List[int]] = [[] for _ in range(self.length)]
        for node_id, t in self.alap.items():
            rows[t].append(node_id)
        return [sorted(r) for r in rows]

    def validate(self) -> None:
        """Sanity-check the window of every node."""
        for node_id in self.dfg.node_ids():
            if self.asap[node_id] > self.alap[node_id]:
                raise ValueError(
                    f"node {node_id} has empty mobility window "
                    f"[{self.asap[node_id]}, {self.alap[node_id]}]"
                )


def mobility_schedule(dfg: DFG, slack: int = 0,
                      paths: Optional[DataPaths] = None) -> MobilitySchedule:
    """Convenience wrapper around :meth:`MobilitySchedule.compute`."""
    return MobilitySchedule.compute(dfg, slack=slack, paths=paths)


# --------------------------------------------------------------------------- #
# Minimum iteration interval
# --------------------------------------------------------------------------- #
def res_ii(dfg: DFG, num_pes: int) -> int:
    """Resource-constrained minimum II: ``ceil(|V_G| / |V_Mi|)``."""
    if num_pes < 1:
        raise ValueError("number of PEs must be positive")
    return math.ceil(dfg.num_nodes / num_pes)


def _has_positive_cycle(
    edges: List[Tuple[int, int, int, int]], num_nodes: int, bound: int, ii: int
) -> bool:
    """True if some dependence cycle needs more than ``ii`` cycles per turn.

    ``edges`` holds ``(src, dst, lat(src), distance)`` over node indices
    ``0 .. num_nodes-1``; edge ``u -> v`` weighs ``lat(u) - ii*distance``,
    and a cycle of positive total weight is a recurrence that cannot
    complete within ``ii`` cycles per iteration. Longest-path Bellman-Ford
    from a virtual source joined to every node: it stops early once a
    round changes nothing (no positive cycle), or once a path is longer
    than ``bound``, the weight no simple path can exceed.
    """
    weighted = [(u, v, lat - ii * distance) for u, v, lat, distance in edges]
    longest = [0] * num_nodes
    for _ in range(num_nodes):
        changed = False
        for u, v, weight in weighted:
            if longest[u] + weight > longest[v]:
                longest[v] = longest[u] + weight
                changed = True
        if not changed:
            return False
        if max(longest) > bound:
            return True
    return True


def rec_ii(dfg: DFG) -> int:
    """Recurrence-constrained minimum II.

    ``RecII = max over cycles of ceil(length / distance)`` (paper Sec. IV-B):
    the smallest II for which no dependence cycle has positive weight under
    ``lat(u) - II*distance``. Binary search on II over the DFG's plain edge
    list; each probe is one early-exit Bellman-Ford
    (:func:`_has_positive_cycle`), so the (possibly exponential) set of
    simple cycles is never enumerated. Parallel edges and self-loops need
    no special case: relaxing each edge keeps the most constraining one.
    """
    if not dfg.loop_carried_edges():
        return 1
    index = {node_id: i for i, node_id in enumerate(dfg.node_ids())}
    edges = [
        (index[e.src], index[e.dst], dfg.node(e.src).latency, e.distance)
        for e in dfg.edges()
    ]
    # every edge weighs at most lat(src), so a simple path weighs at most
    # the total latency; that is also the largest II a cycle can need
    total = max(1, sum(node.latency for node in dfg.nodes()))
    lo, hi = 1, total
    if _has_positive_cycle(edges, len(index), total, hi):
        raise ValueError("dependence graph has a cycle with zero total distance")
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(edges, len(index), total, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def min_ii(dfg: DFG, num_pes: int) -> int:
    """The paper's ``mII = max(ResII, RecII)``."""
    return max(res_ii(dfg, num_pes), rec_ii(dfg))
