"""DFG extraction from a parsed loop kernel.

This is the reproduction's stand-in for the paper's LLVM-based flow: the
loop body is converted into a DFG whose nodes are operations and whose edges
are data dependencies; reads of ``acc`` variables that happen before their
re-definition become loop-carried dependencies with distance 1 (the value
comes from the previous iteration), exactly like the back edges the paper's
flow derives from LLVM phi nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.isa import Opcode
from repro.frontend.ast_nodes import (
    Assignment,
    BinaryOp,
    CallExpr,
    Declaration,
    Expression,
    LoadExpr,
    NumberLiteral,
    Program,
    StoreStatement,
    Ternary,
    UnaryOp,
    VariableRef,
)
from repro.frontend.parser import parse_program
from repro.graphs.dfg import DFG


class ExtractionError(ValueError):
    """Raised when the kernel cannot be converted into a DFG."""


_BINARY_OPCODES: Dict[str, Opcode] = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.REM,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "<": Opcode.LT,
    "<=": Opcode.LE,
    ">": Opcode.GT,
    ">=": Opcode.GE,
    "==": Opcode.EQ,
    "!=": Opcode.NE,
}

_UNARY_OPCODES: Dict[str, Opcode] = {
    "-": Opcode.NEG,
    "~": Opcode.NOT,
}

_CALL_OPCODES: Dict[str, Opcode] = {
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "abs": Opcode.ABS,
}


@dataclass
class ExtractedProgram:
    """The result of DFG extraction.

    Attributes:
        program: the parsed AST.
        dfg: the extracted data flow graph (ready for the mapper).
        arrays: array name -> declared size.
        accumulators: accumulator name -> initial value.
        initial_values: loop-carried source node -> value used for the first
            iteration (consumed by the simulators).
        outputs: live-out name -> node producing its final value.
        induction_node: node id of the induction variable, if used.
        trip_count: loop trip count.
    """

    program: Program
    dfg: DFG
    arrays: Dict[str, int] = field(default_factory=dict)
    accumulators: Dict[str, int] = field(default_factory=dict)
    initial_values: Dict[int, int] = field(default_factory=dict)
    outputs: Dict[str, int] = field(default_factory=dict)
    induction_node: Optional[int] = None
    trip_count: int = 0
    loop_start: int = 0

    def remapped(self, opt_result) -> "ExtractedProgram":
        """Rebind this program to an optimized DFG.

        ``opt_result`` is the :class:`repro.opt.pipeline.OptResult` of a
        pre-mapping pass pipeline run on :attr:`dfg`. Per-node metadata
        (initial values of loop-carried sources, live-out bindings, the
        induction node) is translated through its node map so the
        simulators can execute the optimized graph: the pass legality
        rules guarantee every loop-carried source survives under its own
        id, and bindings to erased nodes are dropped.
        """
        node_map = opt_result.node_map
        return ExtractedProgram(
            program=self.program,
            dfg=opt_result.optimized,
            arrays=dict(self.arrays),
            accumulators=dict(self.accumulators),
            initial_values={
                node_map[node_id]: value
                for node_id, value in self.initial_values.items()
                if node_map.get(node_id) is not None
            },
            outputs={
                name: node_map[node_id]
                for name, node_id in self.outputs.items()
                if node_map.get(node_id) is not None
            },
            induction_node=(
                node_map.get(self.induction_node)
                if self.induction_node is not None else None
            ),
            trip_count=self.trip_count,
            loop_start=self.loop_start,
        )


class _Extractor:
    def __init__(self, program: Program, name: str, order_memory: bool) -> None:
        self.program = program
        self.order_memory = order_memory
        self.dfg = DFG(name=name)
        self.environment: Dict[str, int] = {}
        self.constants: Dict[int, int] = {}
        self.induction_node: Optional[int] = None
        self.pending_acc_uses: List[Tuple[str, int, int]] = []  # (acc, node, op idx)
        self.acc_decls: Dict[str, Declaration] = {}
        self.input_decls: Dict[str, Declaration] = {}
        self.const_decls: Dict[str, Declaration] = {}
        self.arrays: Dict[str, int] = {}
        self.assigned_in_body: Dict[str, int] = {}
        self.last_store: Dict[str, int] = {}

        for decl in program.declarations:
            if decl.kind == "acc":
                self.acc_decls[decl.name] = decl
            elif decl.kind == "input":
                self.input_decls[decl.name] = decl
            elif decl.kind == "const":
                self.const_decls[decl.name] = decl
            elif decl.kind == "array":
                if decl.size is None or decl.size < 1:
                    raise ExtractionError(f"array {decl.name!r} needs a positive size")
                self.arrays[decl.name] = decl.size

    # ------------------------------------------------------------------ #
    # Value lookup
    # ------------------------------------------------------------------ #
    def _constant_node(self, value: int) -> int:
        if value not in self.constants:
            node = self.dfg.add_node(opcode=Opcode.CONST, name=f"c{value}",
                                     value=value)
            self.constants[value] = node.id
        return self.constants[value]

    def _induction(self) -> int:
        if self.induction_node is None:
            node = self.dfg.add_node(
                opcode=Opcode.INDUCTION,
                name=self.program.loop.induction_variable,
                value=self.program.loop.start,
            )
            self.induction_node = node.id
        return self.induction_node

    def _lookup(self, name: str) -> Tuple[Optional[int], bool]:
        """Resolve a variable reference.

        Returns ``(node_id, is_pending_acc)``; a pending accumulator use has
        no node yet (the loop-carried edge is added once the defining
        assignment has been seen).
        """
        if name == self.program.loop.induction_variable:
            return self._induction(), False
        if name in self.environment:
            return self.environment[name], False
        if name in self.acc_decls:
            return None, True
        if name in self.input_decls:
            decl = self.input_decls[name]
            node = self.dfg.add_node(opcode=Opcode.INPUT, name=name,
                                     value=decl.value if decl.value is not None else 0)
            self.environment[name] = node.id
            return node.id, False
        if name in self.const_decls:
            decl = self.const_decls[name]
            if decl.value is None:
                raise ExtractionError(f"const {name!r} needs a value")
            node_id = self._constant_node(decl.value)
            self.environment[name] = node_id
            return node_id, False
        raise ExtractionError(f"use of undefined variable {name!r}")

    # ------------------------------------------------------------------ #
    # Expression lowering
    # ------------------------------------------------------------------ #
    def _operation(self, expression: Expression
                   ) -> Tuple[Opcode, List[Expression], Optional[str]]:
        """``(opcode, operands, array)`` of an operator expression; the
        array is a load's, which the load is ordered after stores to."""
        if isinstance(expression, BinaryOp):
            opcode = _BINARY_OPCODES.get(expression.op)
            if opcode is None:
                raise ExtractionError(f"unsupported operator {expression.op!r}")
            return opcode, [expression.left, expression.right], None
        if isinstance(expression, UnaryOp):
            opcode = _UNARY_OPCODES.get(expression.op)
            if opcode is None:
                raise ExtractionError(f"unsupported unary operator {expression.op!r}")
            return opcode, [expression.operand], None
        if isinstance(expression, Ternary):
            return Opcode.SELECT, [expression.condition, expression.if_true,
                                   expression.if_false], None
        if isinstance(expression, CallExpr):
            opcode = _CALL_OPCODES.get(expression.function)
            if opcode is None:
                raise ExtractionError(f"unknown builtin {expression.function!r}")
            return opcode, list(expression.arguments), None
        if isinstance(expression, LoadExpr):
            if expression.array not in self.arrays:
                raise ExtractionError(f"load from undeclared array {expression.array!r}")
            return Opcode.LOAD, [expression.index], expression.array
        raise ExtractionError(f"cannot lower expression {expression!r}")

    def _new_op(self, opcode: Opcode, operands: List[Expression],
                array: Optional[str] = None) -> int:
        """Add an ``opcode`` node and lower its operands into it.

        Nodes are created parent first and operands left to right, as a
        recursive descent would, but the descent keeps its own stack of
        ``[node, operands, next operand, load array]`` frames: an operator
        chain of any length lowers without recursion.
        """
        root = self.dfg.add_node(opcode=opcode, array=array).id
        stack = [[root, operands, 0, None]]
        while stack:
            frame = stack[-1]
            consumer, pending, index, _ = frame
            if index == len(pending):
                stack.pop()
                if frame[3] is not None:
                    self._order_after_store(frame[3], consumer)
                if stack:
                    parent = stack[-1]
                    self.dfg.add_data_edge(consumer, parent[0],
                                           operand_index=parent[2] - 1)
                continue
            frame[2] = index + 1
            operand = pending[index]
            if isinstance(operand, VariableRef):
                node_id, is_pending = self._lookup(operand.name)
                if is_pending:
                    self.pending_acc_uses.append(
                        (operand.name, consumer, index))
                else:
                    self.dfg.add_data_edge(node_id, consumer,
                                           operand_index=index)
            elif isinstance(operand, NumberLiteral):
                self.dfg.add_data_edge(self._constant_node(operand.value),
                                       consumer, operand_index=index)
            else:
                opcode, children, load_array = self._operation(operand)
                node = self.dfg.add_node(opcode=opcode, array=load_array)
                stack.append([node.id, children, 0, load_array])
        return root

    def _lower(self, expression: Expression) -> int:
        if isinstance(expression, NumberLiteral):
            return self._constant_node(expression.value)
        if isinstance(expression, VariableRef):
            node_id, pending = self._lookup(expression.name)
            if pending:
                # A bare accumulator read used as a statement value: lower it
                # through a ROUTE node so the loop-carried edge has a target.
                route = self.dfg.add_node(opcode=Opcode.ROUTE,
                                          name=f"{expression.name}_prev")
                self.pending_acc_uses.append((expression.name, route.id, 0))
                return route.id
            return node_id
        opcode, operands, array = self._operation(expression)
        node_id = self._new_op(opcode, operands, array=array)
        if array is not None:
            self._order_after_store(array, node_id)
        return node_id

    def _order_after_store(self, array: str, node_id: int) -> None:
        if not self.order_memory:
            return
        previous_store = self.last_store.get(array)
        if previous_store is not None:
            # intra-iteration memory ordering edge (store before later access)
            self.dfg.add_data_edge(previous_store, node_id,
                                   operand_index=len(self.dfg.in_edges(node_id)))

    # ------------------------------------------------------------------ #
    # Statement lowering
    # ------------------------------------------------------------------ #
    def _lower_statement(self, statement) -> None:
        if isinstance(statement, Assignment):
            target = statement.target
            if target == self.program.loop.induction_variable:
                raise ExtractionError("cannot assign to the induction variable")
            if target in self.arrays or target in self.input_decls \
                    or target in self.const_decls:
                raise ExtractionError(f"cannot assign to {target!r}")
            node_id = self._lower(statement.value)
            self.environment[target] = node_id
            self.assigned_in_body[target] = node_id
            return
        if isinstance(statement, StoreStatement):
            if statement.array not in self.arrays:
                raise ExtractionError(
                    f"store to undeclared array {statement.array!r}"
                )
            node_id = self._new_op(Opcode.STORE,
                                   [statement.index, statement.value],
                                   array=statement.array)
            self._order_after_store(statement.array, node_id)
            self.last_store[statement.array] = node_id
            return
        raise ExtractionError(f"unsupported statement {statement!r}")

    # ------------------------------------------------------------------ #
    def run(self) -> ExtractedProgram:
        loop = self.program.loop
        for statement in loop.body:
            self._lower_statement(statement)

        initial_values: Dict[int, int] = {}
        for acc_name, consumer, operand_index in self.pending_acc_uses:
            if acc_name not in self.assigned_in_body:
                raise ExtractionError(
                    f"accumulator {acc_name!r} is read but never assigned in the loop"
                )
            source = self.assigned_in_body[acc_name]
            self.dfg.add_loop_carried_edge(source, consumer, distance=1,
                                           operand_index=operand_index)
            decl = self.acc_decls[acc_name]
            initial_values[source] = decl.value if decl.value is not None else 0

        if self.dfg.num_nodes == 0:
            raise ExtractionError("the loop body produced no operations")
        self.dfg.validate()
        outputs = {
            name: self.assigned_in_body[name]
            for name in self.acc_decls
            if name in self.assigned_in_body
        }
        return ExtractedProgram(
            program=self.program,
            dfg=self.dfg,
            arrays=dict(self.arrays),
            accumulators={
                name: (decl.value if decl.value is not None else 0)
                for name, decl in self.acc_decls.items()
            },
            initial_values=initial_values,
            outputs=outputs,
            induction_node=self.induction_node,
            trip_count=loop.trip_count,
            loop_start=loop.start,
        )


def extract_dfg(source_or_program, name: str = "kernel",
                order_memory: bool = True) -> ExtractedProgram:
    """Extract a DFG from kernel source text (or an already-parsed AST)."""
    program = (
        source_or_program
        if isinstance(source_or_program, Program)
        else parse_program(source_or_program)
    )
    return _Extractor(program, name=name, order_memory=order_memory).run()
