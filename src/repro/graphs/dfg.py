"""Data Flow Graph (DFG) of a loop body.

Nodes represent instructions; directed edges represent either intra-iteration
data dependencies or loop-carried dependencies with a positive iteration
distance (paper Sec. III-A, Fig. 2a). The time phase works on this directed
form; once a schedule fixes every node's kernel slot, the mapper switches to
the *labelled undirected* view required by the monomorphism formulation
(paper Sec. IV-A), available via :meth:`DFG.undirected_edges`.
"""

from __future__ import annotations

import enum
import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.isa import Opcode, arity as opcode_arity, latency as opcode_latency


class DependenceKind(enum.Enum):
    """Kind of a DFG edge."""

    DATA = "data"
    LOOP_CARRIED = "loop_carried"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DFGNode:
    """One instruction of the loop body.

    Attributes:
        id: unique integer identifier.
        opcode: the operation performed.
        name: optional human-readable name (e.g. the IR value it defines).
        value: literal value for ``CONST`` nodes, initial value for ``PHI``
            and ``INPUT`` nodes, array name for memory operations.
    """

    id: int
    opcode: Opcode = Opcode.ADD
    name: str = ""
    value: Optional[int] = None
    array: Optional[str] = None

    @cached_property
    def latency(self) -> int:
        """The opcode's latency in cycles, looked up on the first read
        (every schedule bound reads it, many times per ``map()``)."""
        return opcode_latency(self.opcode)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or str(self.opcode)
        return f"n{self.id}:{label}"


@dataclass(frozen=True)
class DFGEdge:
    """A dependence between two instructions.

    ``distance`` is the iteration distance: 0 for intra-iteration data
    dependencies, >= 1 for loop-carried dependencies. ``operand_index`` is
    the position of the value in the destination's operand list (used by the
    simulators; irrelevant to the mapper itself).
    """

    src: int
    dst: int
    kind: DependenceKind = DependenceKind.DATA
    distance: int = 0
    operand_index: int = 0

    def __post_init__(self) -> None:
        if self.kind is DependenceKind.DATA and self.distance != 0:
            raise ValueError("data dependencies must have distance 0")
        if self.kind is DependenceKind.LOOP_CARRIED and self.distance < 1:
            raise ValueError("loop-carried dependencies must have distance >= 1")

    @property
    def is_loop_carried(self) -> bool:
        return self.kind is DependenceKind.LOOP_CARRIED


class DFG:
    """A loop-body data flow graph.

    The graph may contain cycles only through loop-carried edges; the data
    (distance-0) subgraph must be a DAG, which :meth:`validate` checks.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: Dict[int, DFGNode] = {}
        self._edges: List[DFGEdge] = []
        self._succ: Dict[int, List[DFGEdge]] = {}
        self._pred: Dict[int, List[DFGEdge]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_id: Optional[int] = None,
        opcode: Opcode = Opcode.ADD,
        name: str = "",
        value: Optional[int] = None,
        array: Optional[str] = None,
    ) -> DFGNode:
        """Add an instruction node and return it.

        If ``node_id`` is omitted the next free integer id is used.
        """
        if node_id is None:
            node_id = max(self._nodes, default=-1) + 1
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        node = DFGNode(id=node_id, opcode=opcode, name=name, value=value, array=array)
        self._nodes[node_id] = node
        self._succ[node_id] = []
        self._pred[node_id] = []
        return node

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: DependenceKind = DependenceKind.DATA,
        distance: int = 0,
        operand_index: int = 0,
    ) -> DFGEdge:
        """Add a dependence edge from node ``src`` to node ``dst``."""
        if src not in self._nodes:
            raise ValueError(f"unknown source node {src}")
        if dst not in self._nodes:
            raise ValueError(f"unknown destination node {dst}")
        if kind is DependenceKind.DATA and src == dst:
            raise ValueError("a data dependence cannot be a self-loop")
        if kind is DependenceKind.LOOP_CARRIED and distance == 0:
            distance = 1
        edge = DFGEdge(src=src, dst=dst, kind=kind, distance=distance,
                       operand_index=operand_index)
        self._edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def add_data_edge(self, src: int, dst: int, operand_index: int = 0) -> DFGEdge:
        """Convenience wrapper for an intra-iteration data dependence."""
        return self.add_edge(src, dst, DependenceKind.DATA, 0, operand_index)

    def add_loop_carried_edge(
        self, src: int, dst: int, distance: int = 1, operand_index: int = 0
    ) -> DFGEdge:
        """Convenience wrapper for a loop-carried dependence."""
        return self.add_edge(src, dst, DependenceKind.LOOP_CARRIED, distance,
                             operand_index)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> DFGNode:
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def nodes(self) -> List[DFGNode]:
        """All nodes, ordered by id."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def edges(self) -> List[DFGEdge]:
        return list(self._edges)

    def data_edges(self) -> List[DFGEdge]:
        return [e for e in self._edges if e.kind is DependenceKind.DATA]

    def loop_carried_edges(self) -> List[DFGEdge]:
        return [e for e in self._edges if e.kind is DependenceKind.LOOP_CARRIED]

    def out_edges(self, node_id: int) -> List[DFGEdge]:
        return list(self._succ[node_id])

    def in_edges(self, node_id: int) -> List[DFGEdge]:
        return list(self._pred[node_id])

    def successors(self, node_id: int) -> List[int]:
        return [e.dst for e in self._succ[node_id]]

    def predecessors(self, node_id: int) -> List[int]:
        return [e.src for e in self._pred[node_id]]

    def operands(self, node_id: int) -> List[DFGEdge]:
        """Incoming edges sorted by operand index (for the simulators)."""
        return sorted(self._pred[node_id], key=lambda e: e.operand_index)

    # ------------------------------------------------------------------ #
    # Views used by the mapper
    # ------------------------------------------------------------------ #
    def undirected_edges(self) -> Set[Tuple[int, int]]:
        """All dependencies as unordered pairs (the paper's ``E_G``).

        Once a schedule is fixed, edge direction is redundant (Sec. IV-B);
        the monomorphism search only needs the adjacency requirement.
        Parallel edges and 2-cycles collapse onto a single undirected edge.
        """
        pairs: Set[Tuple[int, int]] = set()
        for e in self._edges:
            if e.src == e.dst:
                continue
            a, b = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
            pairs.add((a, b))
        return pairs

    def neighbor_ids(self, node_id: int) -> Set[int]:
        """Undirected neighbourhood of a node (self excluded)."""
        neighbors = {e.dst for e in self._succ[node_id]}
        neighbors |= {e.src for e in self._pred[node_id]}
        neighbors.discard(node_id)
        return neighbors

    # ------------------------------------------------------------------ #
    # Validation and utilities
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Topological order of the data (distance-0) subgraph.

        Kahn's algorithm over the graph's own successor lists, always
        taking the smallest ready id next (a heap of ids), so the order
        is a function of the graph alone. Raises ``ValueError`` naming one
        cycle when the data subgraph is not a DAG.
        """
        waiting = {n: 0 for n in self._nodes}
        for e in self._edges:
            if e.distance == 0:
                waiting[e.dst] += 1
        ready = [n for n, count in waiting.items() if not count]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node_id = heapq.heappop(ready)
            order.append(node_id)
            for e in self._succ[node_id]:
                if e.distance == 0:
                    waiting[e.dst] -= 1
                    if not waiting[e.dst]:
                        heapq.heappush(ready, e.dst)
        if len(order) < len(self._nodes):
            raise ValueError(
                f"data-dependence subgraph has a cycle: {self._data_cycle(waiting)}"
            )
        return order

    def _data_cycle(self, waiting: Dict[int, int]) -> List[Tuple[int, int]]:
        """One data cycle among the nodes Kahn's algorithm left waiting.

        Each of them still has a data predecessor that is waiting too, so
        walking predecessors from any of them must revisit a node.
        """
        seen: Dict[int, int] = {}
        walk: List[int] = []
        node_id = min(n for n, count in waiting.items() if count)
        while node_id not in seen:
            seen[node_id] = len(walk)
            walk.append(node_id)
            node_id = next(e.src for e in self._pred[node_id]
                           if e.distance == 0 and waiting[e.src])
        cycle = walk[seen[node_id]:][::-1]
        return [(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)]

    def validate(self) -> List[int]:
        """Check structural invariants; raise ``ValueError`` on violation.

        Returns the :meth:`topological_order` computed on the way, so a
        caller that needs it sorts the graph once.
        """
        if not self._nodes:
            raise ValueError("DFG has no nodes")
        order = self.topological_order()
        for node in self.nodes():
            expected = opcode_arity(node.opcode)
            provided = len(self._pred[node.id])
            if node.opcode is Opcode.PHI:
                continue  # PHI takes its single operand through a back edge
            if provided > max(expected, 0) and expected == 0:
                raise ValueError(
                    f"node {node} takes no operands but has {provided} incoming edges"
                )
        return order

    def copy(self, name: Optional[str] = None) -> "DFG":
        """An independent DFG with the same nodes and edges.

        The frozen node and edge objects are shared: the graph is
        append-only, so copying the containers is enough to keep either
        side's later additions off the other.
        """
        clone = DFG(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._edges = list(self._edges)
        clone._succ = {n: list(edges) for n, edges in self._succ.items()}
        clone._pred = {n: list(edges) for n, edges in self._pred.items()}
        return clone

    def relabeled(self, mapping: Dict[int, int], name: Optional[str] = None) -> "DFG":
        """Return a copy with node ids renamed according to ``mapping``."""
        clone = DFG(name or self.name)
        for node in self.nodes():
            clone.add_node(mapping[node.id], node.opcode, node.name, node.value,
                           node.array)
        for e in self._edges:
            clone.add_edge(mapping[e.src], mapping[e.dst], e.kind, e.distance,
                           e.operand_index)
        return clone

    def source_nodes(self) -> List[int]:
        """Nodes with no incoming data edges."""
        return [n for n in self.node_ids()
                if not any(e.kind is DependenceKind.DATA for e in self._pred[n])]

    def sink_nodes(self) -> List[int]:
        """Nodes with no outgoing data edges."""
        return [n for n in self.node_ids()
                if not any(e.kind is DependenceKind.DATA for e in self._succ[n])]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "nodes": [
                {
                    "id": n.id,
                    "opcode": n.opcode.value,
                    "name": n.name,
                    "value": n.value,
                    "array": n.array,
                }
                for n in self.nodes()
            ],
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "kind": e.kind.value,
                    "distance": e.distance,
                    "operand_index": e.operand_index,
                }
                for e in self._edges
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DFG":
        dfg = cls(data.get("name", "dfg"))
        for n in data["nodes"]:
            dfg.add_node(n["id"], Opcode(n["opcode"]), n.get("name", ""),
                         n.get("value"), n.get("array"))
        for e in data["edges"]:
            dfg.add_edge(e["src"], e["dst"], DependenceKind(e["kind"]),
                         e.get("distance", 0), e.get("operand_index", 0))
        return dfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DFG":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFG(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, loop_carried={len(self.loop_carried_edges())})"
        )
