"""Synthetic DFG generators.

Used by unit tests and property-based tests. The
paper-specific benchmark DFGs (the 17 MiBench/Rodinia kernels of Table III)
live in :mod:`repro.workloads`; the generators here produce *random but
structurally valid* DFGs: the data subgraph is a DAG, loop-carried edges have
positive distance, and every graph is connected.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.arch.isa import Opcode
from repro.graphs.dfg import DFG

_ALU_OPCODES: Sequence[Opcode] = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.MIN,
    Opcode.MAX,
)


def chain_dfg(length: int, loop_carried: bool = True) -> DFG:
    """A simple dependence chain ``n0 -> n1 -> ... -> n{length-1}``.

    With ``loop_carried`` the last node feeds the first of the next
    iteration, producing a recurrence of length ``length`` (RecII = length
    under unit latencies).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    dfg = DFG(name=f"chain{length}")
    for i in range(length):
        dfg.add_node(i, Opcode.ADD, name=f"c{i}")
    for i in range(length - 1):
        dfg.add_data_edge(i, i + 1)
    if loop_carried and length > 1:
        dfg.add_loop_carried_edge(length - 1, 0, distance=1)
    return dfg


def binary_tree_dfg(depth: int) -> DFG:
    """A reduction tree of depth ``depth`` (2**depth leaves)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dfg = DFG(name=f"tree{depth}")
    num_leaves = 2 ** depth
    leaves = [dfg.add_node(opcode=Opcode.INPUT, name=f"in{i}").id
              for i in range(num_leaves)]
    level = leaves
    while len(level) > 1:
        next_level: List[int] = []
        for i in range(0, len(level), 2):
            node = dfg.add_node(opcode=Opcode.ADD)
            dfg.add_data_edge(level[i], node.id, operand_index=0)
            dfg.add_data_edge(level[i + 1], node.id, operand_index=1)
            next_level.append(node.id)
        level = next_level
    return dfg


def random_dfg(
    num_nodes: int,
    edge_probability: float = 0.15,
    num_loop_carried: int = 1,
    max_distance: int = 1,
    seed: Optional[int] = None,
) -> DFG:
    """A random connected DFG whose data subgraph is a DAG.

    Nodes are created in a fixed order and data edges only go from lower to
    higher ids, which guarantees acyclicity. Every node (except node 0)
    receives at least one incoming data edge so the graph is connected.
    Loop-carried edges go from higher to lower ids so that each one closes a
    recurrence cycle.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    dfg = DFG(name=f"random{num_nodes}")
    for i in range(num_nodes):
        dfg.add_node(i, rng.choice(_ALU_OPCODES), name=f"r{i}")
    for dst in range(1, num_nodes):
        # ensure connectivity with one mandatory predecessor
        src = rng.randrange(0, dst)
        dfg.add_data_edge(src, dst)
        for other in range(0, dst):
            if other != src and rng.random() < edge_probability:
                dfg.add_data_edge(other, dst)
    existing = {(e.src, e.dst) for e in dfg.edges()}
    added = 0
    attempts = 0
    while added < num_loop_carried and attempts < 100 * (num_loop_carried + 1):
        attempts += 1
        src = rng.randrange(1, num_nodes)
        dst = rng.randrange(0, src)
        if (src, dst) in existing:
            continue
        distance = rng.randint(1, max(1, max_distance))
        dfg.add_loop_carried_edge(src, dst, distance=distance)
        existing.add((src, dst))
        added += 1
    return dfg


_BINARY_ALU_OPCODES: Sequence[Opcode] = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.MIN,
    Opcode.MAX,
)


def executable_random_dfg(
    num_nodes: int,
    num_inputs: int = 2,
    seed: Optional[int] = None,
    loop_carried: bool = True,
    opcodes: Optional[Sequence[Opcode]] = None,
) -> DFG:
    """A random DFG that is *arity-consistent*, hence executable.

    Unlike :func:`random_dfg` (whose opcodes are decorative), every compute
    node here is a binary ALU operation with exactly two operands, so the
    graph runs on both :class:`repro.sim.reference.ReferenceInterpreter`
    and the cycle-level executor -- the property the differential test
    harness relies on. ``num_inputs`` INPUT nodes with deterministic values
    feed the DAG; with ``loop_carried`` the last compute node feeds the
    first one's second operand across one iteration (an accumulator-style
    recurrence).
    """
    if num_inputs < 1:
        raise ValueError("need at least 1 input node")
    if num_nodes < num_inputs + 1:
        raise ValueError("need at least one compute node")
    rng = random.Random(seed)
    pool = tuple(opcodes) if opcodes is not None else _BINARY_ALU_OPCODES
    dfg = DFG(name=f"executable_random{num_nodes}")
    for i in range(num_inputs):
        dfg.add_node(i, Opcode.INPUT, name=f"in{i}", value=rng.randint(-8, 8))
    first_compute = num_inputs
    for node_id in range(num_inputs, num_nodes):
        dfg.add_node(node_id, rng.choice(pool), name=f"e{node_id}",
                     value=rng.randint(-4, 4))
        lhs = rng.randrange(0, node_id)
        dfg.add_data_edge(lhs, node_id, operand_index=0)
        if loop_carried and node_id == first_compute:
            continue  # operand 1 arrives through the recurrence below
        rhs = rng.randrange(0, node_id)
        dfg.add_data_edge(rhs, node_id, operand_index=1)
    if loop_carried:
        dfg.add_loop_carried_edge(num_nodes - 1, first_compute, distance=1,
                                  operand_index=1)
    return dfg


def layered_dfg(
    layers: Sequence[int],
    seed: Optional[int] = None,
    loop_carried: bool = True,
) -> DFG:
    """A layered DAG: every node has one or two predecessors in the previous layer.

    ``layers`` gives the number of nodes per layer. Useful for building DFGs
    with a controlled parallelism profile (wide layers stress the per-slot
    capacity constraint).
    """
    if not layers or any(width < 1 for width in layers):
        raise ValueError("layers must be a non-empty sequence of positive widths")
    rng = random.Random(seed)
    dfg = DFG(name="layered")
    previous: List[int] = []
    all_layers: List[List[int]] = []
    for layer_index, width in enumerate(layers):
        current: List[int] = []
        for _ in range(width):
            opcode = Opcode.INPUT if layer_index == 0 else rng.choice(_ALU_OPCODES)
            node = dfg.add_node(opcode=opcode)
            current.append(node.id)
            if previous:
                preds = rng.sample(previous, k=min(len(previous), rng.randint(1, 2)))
                for op_index, pred in enumerate(preds):
                    dfg.add_data_edge(pred, node.id, operand_index=op_index)
        all_layers.append(current)
        previous = current
    if loop_carried and len(all_layers) > 1:
        # close the recurrence onto a compute node (layer 1), not onto a
        # zero-arity INPUT leaf of layer 0
        dfg.add_loop_carried_edge(all_layers[-1][0], all_layers[1][0], distance=1)
    return dfg
