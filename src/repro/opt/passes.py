"""Semantics-preserving DFG-to-DFG optimization passes.

Every pass consumes a :class:`~repro.graphs.dfg.DFG` and produces a new one
plus a node map (see :mod:`repro.opt.rewrite`). The shared legality rules --
what keeps a rewrite *observably* equivalent under the reference semantics
of :mod:`repro.sim.reference` -- are:

* a node may only be **erased or forwarded** if it is not the source of a
  loop-carried edge (its ``value`` field doubles as the operand read by
  consumers in the first iterations, which a replacement would change);
* a node may only be **rewritten to a different value-equivalent form**
  (constant folding, identity replacement) under the same restriction,
  because those rewrites overwrite the ``value`` field;
* a rewrite that changes what a node *computes* (reassociation interiors)
  must allocate a fresh node id, so the differential verifier never
  compares it against the original;
* patterns only match through intra-iteration ``DATA`` edges -- a
  loop-carried operand carries a different iteration's value and disables
  the local rewrite.

Passes are registered in :data:`PASS_REGISTRY` by short name; the
``O0``/``O1``/``O2`` pipelines of :mod:`repro.opt.pipeline` are built from
that registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.arch.cgra import CGRA
from repro.arch.isa import (
    OPCODE_INFO,
    Opcode,
    evaluate as evaluate_alu,
)
from repro.graphs.dfg import DFG, DFGEdge, DFGNode, DependenceKind
from repro.opt.rewrite import (
    GraphEdit,
    NodeMap,
    ancestors_of,
    observable_ids,
    rebuild,
)

#: associative *and* commutative opcodes (exact over python integers).
AC_OPCODES = frozenset({
    Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.MIN, Opcode.MAX,
})

#: commutative opcodes (operand order is irrelevant to the value).
COMMUTATIVE_OPCODES = AC_OPCODES | frozenset({Opcode.EQ, Opcode.NE})


@dataclass
class PassContext:
    """Shared state threaded through one pipeline run.

    ``target`` gates architecture-dependent rewrites (strength reduction
    only fires when the replacement opcode is at least as available on the
    fabric as the original). ``observables`` are the current-graph ids of
    the *original* graph's observable nodes (sinks, stores, outputs) --
    dead-node elimination keeps exactly their ancestors, so pass-created
    garbage dies while originally-observable values always survive.
    """

    target: Optional[CGRA] = None
    observables: Set[int] = field(default_factory=set)

    @classmethod
    def for_dfg(cls, dfg: DFG, target: Optional[CGRA] = None) -> "PassContext":
        return cls(target=target, observables=observable_ids(dfg))

    def remap(self, node_map: NodeMap) -> None:
        self.observables = {
            node_map[o] for o in self.observables
            if node_map.get(o) is not None
        }


#: what a pass returns when it changed something.
PassOutcome = Tuple[DFG, NodeMap, str]


class Pass:
    """Base class: stateless, deterministic DFG-to-DFG transform."""

    name: str = "pass"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        """Apply the pass; return ``None`` when nothing matched."""
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Shared pattern-matching helpers
# ---------------------------------------------------------------------- #
def _is_lc_source(dfg: DFG, node_id: int) -> bool:
    return any(e.is_loop_carried for e in dfg.out_edges(node_id))


def _const_value(node: DFGNode) -> int:
    return int(node.value or 0)


def _exact_data_operands(dfg: DFG, node_id: int,
                         count: int) -> Optional[List[DFGEdge]]:
    """The node's operand edges iff they are exactly ``count`` DATA edges
    with operand indices ``0..count-1``; ``None`` otherwise."""
    edges = dfg.in_edges(node_id)
    if len(edges) != count:
        return None
    if any(e.is_loop_carried for e in edges):
        return None
    ordered = sorted(edges, key=lambda e: e.operand_index)
    if [e.operand_index for e in ordered] != list(range(count)):
        return None
    return ordered


# ---------------------------------------------------------------------- #
# Constant folding
# ---------------------------------------------------------------------- #
class ConstantFoldingPass(Pass):
    """Evaluate nodes whose operands are all literal constants.

    Cascades within one run (a fold feeding a fold) by tracking values of
    nodes already folded this sweep. ``OUTPUT`` markers are left alone;
    loop-carried sources are excluded (see module legality notes).
    """

    name = "constfold"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        edit = GraphEdit()
        folded: Dict[int, int] = {}
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            info = OPCODE_INFO[node.opcode]
            if info.evaluate is None or node.opcode is Opcode.OUTPUT:
                continue
            if info.arity == 0 or _is_lc_source(dfg, node_id):
                continue
            operands = _exact_data_operands(dfg, node_id, info.arity)
            if operands is None:
                continue
            values: List[int] = []
            for e in operands:
                source = dfg.node(e.src)
                if e.src in folded:
                    values.append(folded[e.src])
                elif source.opcode is Opcode.CONST:
                    values.append(_const_value(source))
                else:
                    break
            if len(values) != info.arity:
                continue
            value = evaluate_alu(node.opcode, values)
            folded[node_id] = value
            edit.overrides[node_id] = DFGNode(
                id=node_id, opcode=Opcode.CONST, name=node.name, value=value
            )
            edit.drop_in_edges.add(node_id)
        if edit.is_empty():
            return None
        new_dfg, node_map = rebuild(dfg, edit)
        return new_dfg, node_map, f"folded {len(folded)} node(s)"


# ---------------------------------------------------------------------- #
# Algebraic simplification
# ---------------------------------------------------------------------- #
class AlgebraicSimplificationPass(Pass):
    """Identity / annihilator / involution rewrites, exact over integers.

    ``x+0``, ``x-0``, ``x*1``, ``x|0``, ``x^0`` forward to ``x``;
    ``x-x``, ``x^x``, ``x&0``, ``x*0`` become the constant 0; ``x&x``,
    ``x|x``, ``min(x,x)``, ``max(x,x)`` forward to ``x``;
    ``neg(neg(x))`` / ``not(not(x))`` forward to ``x``, ``abs(abs(x))``
    forwards to the inner ``abs``; a ``select`` with a literal condition
    forwards to the taken operand.

    Deliberately absent, because each diverges from this ISA's semantics
    on some input and the differential verifier would (rightly) reject it:

    * ``x*2 -> x<<1`` and ``x<<0`` / ``x>>0`` -> ``x`` -- the shifter
      masks to 32 bits while the value domain is unbounded python ints,
      so even a zero-bit shift is a truncation, not an identity (see
      :class:`StrengthReductionPass` for the exact alternative);
    * ``x/1 -> x`` and ``x%1 -> 0`` -- DIV/REM evaluate through float
      true division (``int(a / b)``), which loses precision beyond 2**53.
    """

    name = "algebraic"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        edit = GraphEdit()
        rewrites = 0
        for node_id in dfg.node_ids():
            node = dfg.node(node_id)
            action = self._match(dfg, node)
            if action is None:
                continue
            kind, payload = action
            if _is_lc_source(dfg, node_id):
                continue  # value field / initial-operand semantics at stake
            if kind == "forward":
                edit.forward[node_id] = payload
            else:  # constant replacement
                edit.overrides[node_id] = DFGNode(
                    id=node_id, opcode=Opcode.CONST, name=node.name,
                    value=payload,
                )
                edit.drop_in_edges.add(node_id)
            rewrites += 1
        if edit.is_empty():
            return None
        new_dfg, node_map = rebuild(dfg, edit)
        return new_dfg, node_map, f"simplified {rewrites} node(s)"

    # ------------------------------------------------------------------ #
    def _match(self, dfg: DFG, node: DFGNode):
        op = node.opcode
        if op in (Opcode.NEG, Opcode.NOT, Opcode.ABS):
            return self._match_unary(dfg, node)
        if op is Opcode.SELECT:
            operands = _exact_data_operands(dfg, node.id, 3)
            if operands is None:
                return None
            condition = dfg.node(operands[0].src)
            if condition.opcode is not Opcode.CONST:
                return None
            taken = operands[1] if _const_value(condition) else operands[2]
            return ("forward", taken.src)
        operands = _exact_data_operands(dfg, node.id, 2)
        if operands is None:
            return None
        a_id, b_id = operands[0].src, operands[1].src
        a, b = dfg.node(a_id), dfg.node(b_id)
        a_const = _const_value(a) if a.opcode is Opcode.CONST else None
        b_const = _const_value(b) if b.opcode is Opcode.CONST else None
        same = a_id == b_id
        if op is Opcode.ADD:
            if b_const == 0:
                return ("forward", a_id)
            if a_const == 0:
                return ("forward", b_id)
        elif op is Opcode.SUB:
            if same:
                return ("const", 0)
            if b_const == 0:
                return ("forward", a_id)
        elif op is Opcode.MUL:
            if a_const == 0 or b_const == 0:
                return ("const", 0)
            if b_const == 1:
                return ("forward", a_id)
            if a_const == 1:
                return ("forward", b_id)
        elif op is Opcode.AND:
            if a_const == 0 or b_const == 0:
                return ("const", 0)
            if same:
                return ("forward", a_id)
        elif op is Opcode.OR:
            if same or b_const == 0:
                return ("forward", a_id)
            if a_const == 0:
                return ("forward", b_id)
        elif op is Opcode.XOR:
            if same:
                return ("const", 0)
            if b_const == 0:
                return ("forward", a_id)
            if a_const == 0:
                return ("forward", b_id)
        elif op in (Opcode.MIN, Opcode.MAX):
            if same:
                return ("forward", a_id)
        return None

    @staticmethod
    def _match_unary(dfg: DFG, node: DFGNode):
        operands = _exact_data_operands(dfg, node.id, 1)
        if operands is None:
            return None
        inner = dfg.node(operands[0].src)
        if inner.opcode is not node.opcode:
            return None
        if node.opcode is Opcode.ABS:
            # abs is idempotent: the outer application is redundant
            return ("forward", inner.id)
        # neg/not are involutions: two applications cancel
        inner_operands = _exact_data_operands(dfg, inner.id, 1)
        if inner_operands is None:
            return None
        return ("forward", inner_operands[0].src)


# ---------------------------------------------------------------------- #
# Strength reduction
# ---------------------------------------------------------------------- #
class StrengthReductionPass(Pass):
    """Replace expensive opcodes with cheaper exact equivalents.

    ``x * 2`` becomes ``x + x`` (exact over integers, unlike ``x << 1``
    whose 32-bit masked shifter diverges for negative or wide values).
    The rewrite is gated on the target fabric: it only fires when ``ADD``
    is supported on at least as many PEs as ``MUL``, so it never trades a
    mappable multiply for an unmappable add, and on mul-sparse fabrics it
    actively relieves pressure on the few multiplier-capable PEs.
    """

    name = "strength"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        if not self._profitable(ctx.target):
            return None
        edit = GraphEdit()
        rewrites = 0
        for node_id in dfg.node_ids():
            node = dfg.node(node_id)
            if node.opcode is not Opcode.MUL:
                continue
            operands = _exact_data_operands(dfg, node_id, 2)
            if operands is None:
                continue
            a, b = dfg.node(operands[0].src), dfg.node(operands[1].src)
            if b.opcode is Opcode.CONST and _const_value(b) == 2:
                doubled = operands[0].src
            elif a.opcode is Opcode.CONST and _const_value(a) == 2:
                doubled = operands[1].src
            else:
                continue
            # same id, same value field: per-iteration and initial-operand
            # semantics are both preserved, so LC endpoints are fine
            edit.overrides[node_id] = DFGNode(
                id=node_id, opcode=Opcode.ADD, name=node.name, value=node.value
            )
            edit.drop_in_edges.add(node_id)
            edit.extra_edges.append(DFGEdge(doubled, node_id, operand_index=0))
            edit.extra_edges.append(DFGEdge(doubled, node_id, operand_index=1))
            rewrites += 1
        if edit.is_empty():
            return None
        new_dfg, node_map = rebuild(dfg, edit)
        return new_dfg, node_map, f"reduced {rewrites} multiply(ies)"

    @staticmethod
    def _profitable(target: Optional[CGRA]) -> bool:
        if target is None:
            return True
        return len(target.supporting_pes(Opcode.ADD)) >= \
            len(target.supporting_pes(Opcode.MUL))


# ---------------------------------------------------------------------- #
# Common-subexpression elimination
# ---------------------------------------------------------------------- #
class CommonSubexpressionEliminationPass(Pass):
    """Merge structurally identical pure nodes (hash-consing in topo order).

    Two nodes are identical when they share the opcode and the same operand
    sources through DATA edges (order-insensitive for commutative ops);
    literals by value, inputs by (name, value), inductions outright.
    Memory operations, PHIs and OUTPUT markers never merge; a duplicate is
    only erased if it is not a loop-carried source.
    """

    name = "cse"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        edit = GraphEdit()
        seen: Dict[tuple, int] = {}
        merged = 0
        for node_id in dfg.topological_order():
            key = self._key(dfg, node_id, edit.forward)
            if key is None:
                continue
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = node_id
                continue
            if _is_lc_source(dfg, node_id):
                continue
            edit.forward[node_id] = survivor
            merged += 1
        if edit.is_empty():
            return None
        new_dfg, node_map = rebuild(dfg, edit)
        return new_dfg, node_map, f"merged {merged} duplicate(s)"

    @staticmethod
    def _key(dfg: DFG, node_id: int,
             forward: Dict[int, int]) -> Optional[tuple]:
        node = dfg.node(node_id)
        op = node.opcode
        if op is Opcode.CONST:
            return ("const", _const_value(node))
        if op is Opcode.INPUT:
            return ("input", node.name, _const_value(node))
        if op is Opcode.INDUCTION:
            return ("induction",)
        info = OPCODE_INFO[op]
        if info.evaluate is None or op is Opcode.OUTPUT or info.arity == 0:
            return None
        operands = _exact_data_operands(dfg, node_id, info.arity)
        if operands is None:
            return None
        sources = tuple(forward.get(e.src, e.src) for e in operands)
        if op in COMMUTATIVE_OPCODES:
            sources = tuple(sorted(sources))
        return ("op", op, sources)


# ---------------------------------------------------------------------- #
# Dead-node elimination
# ---------------------------------------------------------------------- #
class DeadNodeEliminationPass(Pass):
    """Drop nodes that no longer reach an observable node.

    Observability is anchored at the *original* graph's sinks, stores and
    outputs (threaded through :class:`PassContext`), so constants orphaned
    by folding or forwarding die while every originally-live value stays.
    """

    name = "dce"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        roots = {n for n in ctx.observables if dfg.has_node(n)}
        for node in dfg.nodes():
            if node.opcode in (Opcode.STORE, Opcode.OUTPUT):
                roots.add(node.id)
        live = ancestors_of(dfg, roots)
        dead = set(dfg.node_ids()) - live
        if not dead:
            return None
        new_dfg, node_map = rebuild(dfg, GraphEdit(drop=dead))
        return new_dfg, node_map, f"removed {len(dead)} dead node(s)"


# ---------------------------------------------------------------------- #
# Associativity rebalancing
# ---------------------------------------------------------------------- #
class ReassociationPass(Pass):
    """Rebalance same-opcode reduction chains into shallow trees.

    A *chain* is a maximal single-use run of one associative-commutative
    opcode. Rebalancing replaces its interior nodes with a fresh balanced
    tree (critical path ``ceil(log2 n)`` instead of ``n``), keeping the
    root's id and value. When the chain is itself a loop recurrence -- the
    root feeds a chain interior through a loop-carried edge -- the carried
    operand is hoisted to the root, collapsing the recurrence cycle to a
    single node and cutting RecII to its floor (the classic accumulator
    reassociation: ``(((acc+a)+b)+c)`` becomes ``acc + ((a+b)+c)``).

    Leaves that lie on a dependence cycle (members of a non-trivial SCC of
    the full digraph) are pinned near the root, never deeper than their
    original position, so rebalancing can only shorten recurrences --
    without this, a cycle entering the chain through a deep-repositioned
    leaf would *raise* RecII.

    Interiors get fresh ids (their values change); the pass only fires
    when it strictly shortens the chain depth or the recurrence, so it is
    idempotent.
    """

    name = "reassoc"

    def run(self, dfg: DFG, ctx: PassContext) -> Optional[PassOutcome]:
        edit = GraphEdit()
        next_id = max(dfg.node_ids(), default=-1) + 1
        cyclic = self._cyclic_nodes(dfg)
        rebuilt = 0
        for root_id in dfg.node_ids():
            root = dfg.node(root_id)
            if root.opcode not in AC_OPCODES:
                continue
            if self._interior_info(dfg, root_id, root.opcode, None) is not None:
                continue  # handled as part of its parent's chain
            chain = self._collect(dfg, root_id, root.opcode)
            if chain is None:
                continue
            leaves, interiors, lc_edge, old_depth = chain
            if not interiors:
                continue
            plain = [n for n, _ in leaves if n not in cyclic]
            pinned = sorted(
                ((depth, n) for n, depth in leaves if n in cyclic)
            )
            # a pinned leaf i (1-based, shallowest first) ends up at depth
            # i (i+1 under a hoisted carry); bail out unless every one
            # stays at or above its original depth
            offset = 2 if lc_edge is not None else 1
            if any(depth < index + offset
                   for index, (depth, _) in enumerate(pinned)):
                continue
            if lc_edge is None and self._new_depth(
                len(pinned), len(plain)
            ) >= old_depth:
                continue  # no critical-path gain: nothing to rebalance for
            next_id = self._rebuild_chain(
                edit, root_id, root.opcode, plain,
                [n for _, n in pinned], interiors, lc_edge, next_id,
            )
            rebuilt += 1
        if edit.is_empty():
            return None
        new_dfg, node_map = rebuild(dfg, edit)
        return new_dfg, node_map, f"rebalanced {rebuilt} chain(s)"

    # ------------------------------------------------------------------ #
    @staticmethod
    def _cyclic_nodes(dfg: DFG) -> Set[int]:
        """Nodes on some dependence cycle (loop-carried edges included):
        those that reach themselves again along successor edges."""
        cyclic: Set[int] = set()
        for start in dfg.node_ids():
            seen: Set[int] = set()
            frontier = dfg.successors(start)
            while frontier:
                node_id = frontier.pop()
                if node_id == start:
                    cyclic.add(start)
                    break
                if node_id not in seen:
                    seen.add(node_id)
                    frontier.extend(dfg.successors(node_id))
        return cyclic

    @staticmethod
    def _new_depth(num_pinned: int, num_plain: int) -> int:
        """Maximum leaf depth of the rebalanced tree (no hoisted carry)."""
        if num_plain == 0:
            return max(1, num_pinned - 1)
        core = math.ceil(math.log2(num_plain)) if num_plain >= 2 else 0
        return num_pinned + core

    # ------------------------------------------------------------------ #
    @staticmethod
    def _interior_info(dfg: DFG, node_id: int, op: Opcode,
                       root_id: Optional[int]):
        """(data_operand_edges, lc_edge_or_None) if ``node_id`` can be a
        chain interior under ``op``; ``None`` otherwise.

        With ``root_id=None`` the loop-carried special case is judged
        against *any* source (used to decide whether a node belongs to
        some parent's chain rather than starting its own)."""
        node = dfg.node(node_id)
        if node.opcode is not op:
            return None
        out = dfg.out_edges(node_id)
        if len(out) != 1 or out[0].is_loop_carried:
            return None
        consumer = dfg.node(out[0].dst)
        if consumer.opcode is not op:
            return None
        in_edges = dfg.in_edges(node_id)
        lc = [e for e in in_edges if e.is_loop_carried]
        data = sorted((e for e in in_edges if not e.is_loop_carried),
                      key=lambda e: e.operand_index)
        if lc:
            if len(lc) != 1 or len(data) != 1:
                return None
            if root_id is not None and lc[0].src != root_id:
                return None
            return data, lc[0]
        if len(data) != 2:
            return None
        return data, None

    def _collect(self, dfg: DFG, root_id: int, op: Opcode):
        """Walk the chain below ``root_id``; return
        ``(leaves_with_depth, interiors, lc_edge, old_depth)`` or ``None``."""
        root_operands = _exact_data_operands(dfg, root_id, 2)
        if root_operands is None:
            return None
        leaves: List[Tuple[int, int]] = []
        interiors: List[int] = []
        lc_edge: Optional[DFGEdge] = None
        old_depth = 1

        stack = [(e.src, 1) for e in reversed(root_operands)]
        while stack:
            node_id, depth = stack.pop()
            info = self._interior_info(dfg, node_id, op, root_id)
            if info is None:
                leaves.append((node_id, depth))
                old_depth = max(old_depth, depth)
                continue
            data, lc = info
            if lc is not None:
                if lc_edge is not None:
                    # a second carried operand cannot be hoisted; keep the
                    # node intact as a leaf of the chain
                    leaves.append((node_id, depth))
                    old_depth = max(old_depth, depth)
                    continue
                lc_edge = lc
            interiors.append(node_id)
            stack.extend((e.src, depth + 1) for e in reversed(data))
        return leaves, interiors, lc_edge, old_depth

    @staticmethod
    def _rebuild_chain(edit: GraphEdit, root_id: int, op: Opcode,
                       plain: List[int], pinned: List[int],
                       interiors: List[int],
                       lc_edge: Optional[DFGEdge], next_id: int) -> int:
        """Emit the balanced replacement tree.

        Plain leaves reduce pairwise into a balanced core; cycle-pinned
        leaves (shallowest-constraint first) nest directly under the root;
        a hoisted loop-carried operand becomes a self-edge on the root.
        """
        def combine(a: int, b: int) -> int:
            nonlocal next_id
            node_id = next_id
            next_id += 1
            edit.extra_nodes.append(DFGNode(id=node_id, opcode=op))
            edit.extra_edges.append(DFGEdge(a, node_id, operand_index=0))
            edit.extra_edges.append(DFGEdge(b, node_id, operand_index=1))
            return node_id

        def reduce_to(level: List[int], width: int) -> List[int]:
            while len(level) > width:
                paired: List[int] = []
                for i in range(0, len(level) - 1, 2):
                    paired.append(combine(level[i], level[i + 1]))
                if len(level) % 2:
                    paired.append(level[-1])
                level = paired
            return level

        def nest(items: List[int]) -> int:
            tree = items[-1]
            for item in reversed(items[:-1]):
                tree = combine(item, tree)
            return tree

        edit.drop.update(interiors)
        edit.drop_in_edges.add(root_id)
        if lc_edge is not None:
            items = pinned + reduce_to(plain, 1)
            edit.extra_edges.append(DFGEdge(nest(items), root_id,
                                            operand_index=0))
            edit.extra_edges.append(DFGEdge(
                root_id, root_id, kind=DependenceKind.LOOP_CARRIED,
                distance=lc_edge.distance, operand_index=1,
            ))
            return next_id
        if pinned:
            items = pinned + reduce_to(plain, 1)
            first, rest = items[0], items[1:]
            second = rest[0] if len(rest) == 1 else nest(rest)
        else:
            first, second = reduce_to(plain, 2)
        edit.extra_edges.append(DFGEdge(first, root_id, operand_index=0))
        edit.extra_edges.append(DFGEdge(second, root_id, operand_index=1))
        return next_id


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
PASS_REGISTRY: Dict[str, Type[Pass]] = {
    cls.name: cls
    for cls in (
        ConstantFoldingPass,
        AlgebraicSimplificationPass,
        StrengthReductionPass,
        CommonSubexpressionEliminationPass,
        DeadNodeEliminationPass,
        ReassociationPass,
    )
}


def pass_names() -> List[str]:
    return sorted(PASS_REGISTRY)


def make_pass(name: str) -> Pass:
    try:
        return PASS_REGISTRY[name]()
    except KeyError as exc:
        raise ValueError(
            f"unknown optimization pass {name!r}; "
            f"available: {', '.join(pass_names())}"
        ) from exc
