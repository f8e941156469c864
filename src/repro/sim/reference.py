"""Sequential reference interpretation of a DFG.

Executes the loop one iteration at a time, nodes in (data-)topological
order; loop-carried operands read the value produced ``distance`` iterations
earlier (or the declared initial value for the first iterations). The mapped
execution of :mod:`repro.sim.executor` must produce exactly the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.isa import Opcode, arity as opcode_arity, evaluate as evaluate_alu
from repro.graphs.dfg import DFG, DFGNode
from repro.sim.machine import DataMemory, SimulationError


@dataclass
class ReferenceTrace:
    """Per-iteration node values plus the final memory state."""

    values: Dict[Tuple[int, int], int] = field(default_factory=dict)
    memory: Optional[DataMemory] = None
    iterations: int = 0

    def value(self, node_id: int, iteration: int) -> int:
        return self.values[(node_id, iteration)]

    def last_value(self, node_id: int) -> int:
        if self.iterations == 0:
            raise ValueError("no iterations were executed")
        return self.values[(node_id, self.iterations - 1)]


def evaluate_node(
    node: DFGNode,
    operand_values: List[int],
    iteration: int,
    memory: DataMemory,
    loop_start: int = 0,
    inputs: Optional[Dict[str, int]] = None,
) -> int:
    """Shared node semantics used by both the reference and the executor."""
    opcode = node.opcode
    if opcode is Opcode.CONST:
        return int(node.value or 0)
    if opcode is Opcode.INPUT:
        if inputs and node.name in inputs:
            return int(inputs[node.name])
        return int(node.value or 0)
    if opcode is Opcode.INDUCTION:
        return loop_start + iteration
    if opcode in (Opcode.PHI, Opcode.ROUTE, Opcode.OUTPUT):
        return operand_values[0] if operand_values else int(node.value or 0)
    if opcode is Opcode.NOP:
        return 0
    if opcode is Opcode.LOAD:
        if node.array is None:
            raise SimulationError(f"load node {node.id} has no array")
        return memory.load(node.array, operand_values[0])
    if opcode is Opcode.STORE:
        if node.array is None:
            raise SimulationError(f"store node {node.id} has no array")
        memory.store(node.array, operand_values[0], operand_values[1])
        return operand_values[1]
    return evaluate_alu(opcode, operand_values[: opcode_arity(opcode)])


class ReferenceInterpreter:
    """Executes a DFG sequentially for a given number of iterations."""

    def __init__(
        self,
        dfg: DFG,
        memory: Optional[DataMemory] = None,
        initial_values: Optional[Dict[int, int]] = None,
        inputs: Optional[Dict[str, int]] = None,
        loop_start: int = 0,
    ) -> None:
        self.dfg = dfg
        self.memory = memory if memory is not None else DataMemory()
        self.initial_values = dict(initial_values or {})
        self.inputs = dict(inputs or {})
        self.loop_start = loop_start
        self._order = dfg.topological_order()
        self._declare_missing_arrays()

    def _declare_missing_arrays(self) -> None:
        """Give every memory node an array to talk to (default size 64)."""
        for node in self.dfg.nodes():
            if node.array and not self.memory.has_array(node.array):
                self.memory.declare(node.array, 64)

    def _initial_operand(self, src: int) -> int:
        if src in self.initial_values:
            return self.initial_values[src]
        value = self.dfg.node(src).value
        return int(value) if value is not None else 0

    def run(self, iterations: int) -> ReferenceTrace:
        """Execute ``iterations`` loop iterations and return the trace."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        trace = ReferenceTrace(memory=self.memory, iterations=iterations)
        values = trace.values
        for iteration in range(iterations):
            for node_id in self._order:
                node = self.dfg.node(node_id)
                operand_values: List[int] = []
                for edge in self.dfg.operands(node_id):
                    if edge.operand_index >= opcode_arity(node.opcode):
                        continue  # memory-ordering edge
                    source_iteration = iteration - edge.distance
                    if source_iteration < 0:
                        operand_values.append(self._initial_operand(edge.src))
                    else:
                        operand_values.append(values[(edge.src, source_iteration)])
                values[(node_id, iteration)] = evaluate_node(
                    node,
                    operand_values,
                    iteration,
                    self.memory,
                    loop_start=self.loop_start,
                    inputs=self.inputs,
                )
        return trace
