"""Kernel configuration derived from a mapping.

A CGRA executes a modulo-scheduled loop by cycling through ``II``
configuration words; each word tells every PE which operation to perform and
where its operands live. :class:`ConfigurationMemory` reconstructs that view
from a :class:`~repro.core.mapping.Mapping` -- it is what the instruction
memory of Fig. 1 would contain -- and is what the cycle-level executor runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.isa import Opcode, arity as opcode_arity
from repro.core.mapping import Mapping


@dataclass(frozen=True)
class OperandSource:
    """Where one operand of a kernel instruction comes from."""

    producer_node: int
    producer_pe: int
    distance: int          # iteration distance of the dependence
    operand_index: int


@dataclass(frozen=True)
class KernelInstruction:
    """One operation of the kernel configuration."""

    node: int
    opcode: Opcode
    pe: int
    slot: int
    stage: int             # pipeline stage (start time div II)
    start_time: int        # absolute start time within the schedule
    operands: Tuple[OperandSource, ...]
    array: Optional[str] = None
    rotating_copies: int = 1


class ConfigurationMemory:
    """The per-slot, per-PE instruction table of a mapped kernel."""

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping
        self.instructions: Dict[int, KernelInstruction] = {}
        self._by_slot_pe: Dict[Tuple[int, int], KernelInstruction] = {}
        self._build()

    def _rotating_copies(self, node_id: int) -> int:
        """Number of rotating registers the producer's value needs.

        A value produced in iteration ``k`` must survive until its last
        consumer in iteration ``k + d`` reads it; with one new value produced
        every ``II`` cycles that lifetime spans ``ceil(lifetime / II)``
        kernel iterations, plus the copy being written.
        """
        mapping = self.mapping
        produced = mapping.time(node_id)
        last_use = produced
        for edge in mapping.dfg.out_edges(node_id):
            use = mapping.time(edge.dst) + edge.distance * mapping.ii
            last_use = max(last_use, use)
        lifetime = last_use - produced
        return lifetime // mapping.ii + 1

    def _build(self) -> None:
        mapping = self.mapping
        dfg = mapping.dfg
        for node in dfg.nodes():
            operands: List[OperandSource] = []
            for edge in dfg.operands(node.id):
                if edge.operand_index >= opcode_arity(node.opcode):
                    continue  # memory-ordering edges carry no value
                operands.append(
                    OperandSource(
                        producer_node=edge.src,
                        producer_pe=mapping.pe(edge.src),
                        distance=edge.distance,
                        operand_index=edge.operand_index,
                    )
                )
            instruction = KernelInstruction(
                node=node.id,
                opcode=node.opcode,
                pe=mapping.pe(node.id),
                slot=mapping.slot(node.id),
                stage=mapping.stage(node.id),
                start_time=mapping.time(node.id),
                operands=tuple(sorted(operands, key=lambda o: o.operand_index)),
                array=node.array,
                rotating_copies=self._rotating_copies(node.id),
            )
            self.instructions[node.id] = instruction
            self._by_slot_pe[(instruction.slot, instruction.pe)] = instruction

    # ------------------------------------------------------------------ #
    def instruction(self, node_id: int) -> KernelInstruction:
        return self.instructions[node_id]

    def at(self, slot: int, pe: int) -> Optional[KernelInstruction]:
        """Instruction executed by ``pe`` at kernel slot ``slot`` (or None)."""
        return self._by_slot_pe.get((slot, pe))

    def slot_table(self) -> List[List[Optional[KernelInstruction]]]:
        """``II x num_pes`` configuration table."""
        table: List[List[Optional[KernelInstruction]]] = [
            [None] * self.mapping.cgra.num_pes for _ in range(self.mapping.ii)
        ]
        for instruction in self.instructions.values():
            table[instruction.slot][instruction.pe] = instruction
        return table

    def max_rotating_copies(self) -> int:
        return max(i.rotating_copies for i in self.instructions.values())

    def __len__(self) -> int:
        return len(self.instructions)
