"""Per-pass unit tests for the repro.opt optimization subsystem."""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import DEFAULT_PE_OPERATIONS, Opcode
from repro.arch.spec import build_preset
from repro.graphs.dfg import DFG, DFGNode
from repro.opt import (
    AlgebraicSimplificationPass,
    CommonSubexpressionEliminationPass,
    ConstantFoldingPass,
    DeadNodeEliminationPass,
    GraphEdit,
    OptVerificationError,
    PassContext,
    ReassociationPass,
    StrengthReductionPass,
    build_pipeline,
    compose_maps,
    make_pass,
    observable_ids,
    optimize_dfg,
    parse_opt_level,
    pass_names,
    rebuild,
    verify_equivalence,
)
from repro.graphs.analysis import critical_path_length, rec_ii
from repro.sim.reference import ReferenceInterpreter


def _run(opt_pass, dfg, target=None):
    return opt_pass.run(dfg, PassContext.for_dfg(dfg, target=target))


def _reference_values(dfg, node_id, iterations=4):
    trace = ReferenceInterpreter(dfg).run(iterations)
    return [trace.value(node_id, k) for k in range(iterations)]


# ---------------------------------------------------------------------- #
# Rewrite plumbing
# ---------------------------------------------------------------------- #
class TestRewrite:
    def test_forward_chains_resolve_transitively(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=1)
        b = dfg.add_node(opcode=Opcode.ROUTE)
        c = dfg.add_node(opcode=Opcode.ROUTE)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(a.id, b.id)
        dfg.add_data_edge(b.id, c.id)
        dfg.add_data_edge(c.id, sink.id)
        new_dfg, node_map = rebuild(
            dfg, GraphEdit(forward={c.id: b.id, b.id: a.id})
        )
        assert node_map == {a.id: a.id, b.id: a.id, c.id: a.id,
                            sink.id: sink.id}
        assert new_dfg.predecessors(sink.id) == [a.id]

    def test_dangling_edge_is_rejected(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT)
        b = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(a.id, b.id)
        with pytest.raises(ValueError, match="dangling"):
            rebuild(dfg, GraphEdit(drop={a.id}))

    def test_override_must_keep_the_id(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT)
        dfg.add_node(opcode=Opcode.OUTPUT)
        with pytest.raises(ValueError, match="carries id"):
            rebuild(dfg, GraphEdit(
                overrides={a.id: DFGNode(id=99, opcode=Opcode.CONST)}
            ))

    def test_compose_maps(self):
        first = {0: 0, 1: 2, 3: None}
        second = {0: 5, 2: None}
        assert compose_maps(first, second) == {0: 5, 1: None, 3: None}

    def test_observables_include_accumulator_cycles(self):
        dfg = DFG()
        x = dfg.add_node(opcode=Opcode.INPUT, value=3)
        acc = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(x.id, acc.id, operand_index=0)
        dfg.add_loop_carried_edge(acc.id, acc.id, distance=1, operand_index=1)
        # acc's only out-edge is loop-carried: it is the live-out value
        assert acc.id in observable_ids(dfg)


# ---------------------------------------------------------------------- #
# Constant folding
# ---------------------------------------------------------------------- #
class TestConstantFolding:
    def test_folds_cascading_constants(self):
        dfg = DFG()
        c2 = dfg.add_node(opcode=Opcode.CONST, value=2)
        c3 = dfg.add_node(opcode=Opcode.CONST, value=3)
        mul = dfg.add_node(opcode=Opcode.MUL)
        neg = dfg.add_node(opcode=Opcode.NEG)
        out = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(c2.id, mul.id, operand_index=0)
        dfg.add_data_edge(c3.id, mul.id, operand_index=1)
        dfg.add_data_edge(mul.id, neg.id)
        dfg.add_data_edge(neg.id, out.id)
        new_dfg, node_map, _ = _run(ConstantFoldingPass(), dfg)
        assert new_dfg.node(mul.id).opcode is Opcode.CONST
        assert new_dfg.node(mul.id).value == 6
        assert new_dfg.node(neg.id).opcode is Opcode.CONST
        assert new_dfg.node(neg.id).value == -6
        assert node_map[neg.id] == neg.id
        verify_equivalence(dfg, new_dfg, node_map)

    def test_loop_carried_sources_are_not_folded(self):
        dfg = DFG()
        c1 = dfg.add_node(opcode=Opcode.CONST, value=1)
        c2 = dfg.add_node(opcode=Opcode.CONST, value=2)
        add = dfg.add_node(opcode=Opcode.ADD, value=7)  # initial operand: 7
        route = dfg.add_node(opcode=Opcode.ROUTE)
        dfg.add_data_edge(c1.id, add.id, operand_index=0)
        dfg.add_data_edge(c2.id, add.id, operand_index=1)
        dfg.add_loop_carried_edge(add.id, route.id, distance=1)
        outcome = _run(ConstantFoldingPass(), dfg)
        if outcome is not None:
            new_dfg, node_map, _ = outcome
            assert new_dfg.node(add.id).opcode is Opcode.ADD
            verify_equivalence(dfg, new_dfg, node_map)

    def test_input_nodes_are_not_constants(self):
        dfg = DFG()
        x = dfg.add_node(opcode=Opcode.INPUT, value=5)
        c = dfg.add_node(opcode=Opcode.CONST, value=1)
        add = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(x.id, add.id, operand_index=0)
        dfg.add_data_edge(c.id, add.id, operand_index=1)
        assert _run(ConstantFoldingPass(), dfg) is None


# ---------------------------------------------------------------------- #
# Algebraic simplification
# ---------------------------------------------------------------------- #
class TestAlgebraicSimplification:
    def _one_op(self, opcode, a_value=None, b_value=None, a_op=Opcode.INPUT,
                b_op=Opcode.INPUT):
        dfg = DFG()
        a = dfg.add_node(opcode=a_op, value=a_value, name="a")
        b = dfg.add_node(opcode=b_op, value=b_value, name="b")
        op = dfg.add_node(opcode=opcode)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(a.id, op.id, operand_index=0)
        dfg.add_data_edge(b.id, op.id, operand_index=1)
        dfg.add_data_edge(op.id, sink.id)
        return dfg, a, b, op, sink

    @pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.SUB, Opcode.OR,
                                        Opcode.XOR])
    def test_zero_identity_forwards(self, opcode):
        dfg, a, _, op, sink = self._one_op(opcode, a_value=9,
                                           b_op=Opcode.CONST, b_value=0)
        new_dfg, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
        assert node_map[op.id] == a.id
        assert new_dfg.predecessors(sink.id) == [a.id]
        verify_equivalence(dfg, new_dfg, node_map)

    def test_zero_shift_is_not_an_identity_here(self):
        # the ISA's shifter masks to 32 bits, so x<<0 truncates negative
        # and wide values: the tempting rewrite must never fire
        for opcode in (Opcode.SHL, Opcode.SHR):
            dfg, a, _, op, _ = self._one_op(opcode, a_value=-1,
                                            b_op=Opcode.CONST, b_value=0)
            assert _run(AlgebraicSimplificationPass(), dfg) is None
            assert _reference_values(dfg, op.id)[0] == 0xFFFFFFFF
            assert _reference_values(dfg, a.id)[0] == -1

    def test_div_rem_by_one_are_not_simplified(self):
        # DIV/REM evaluate through float true division (int(a / b)),
        # which loses precision beyond 2**53: x/1 != x for huge x
        for opcode in (Opcode.DIV, Opcode.REM):
            dfg, _, _, _, _ = self._one_op(opcode, a_value=9,
                                           b_op=Opcode.CONST, b_value=1)
            assert _run(AlgebraicSimplificationPass(), dfg) is None

    def test_self_cancellation_becomes_zero(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=12)
        sub = dfg.add_node(opcode=Opcode.SUB)
        dfg.add_data_edge(a.id, sub.id, operand_index=0)
        dfg.add_data_edge(a.id, sub.id, operand_index=1)
        new_dfg, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
        assert new_dfg.node(sub.id).opcode is Opcode.CONST
        assert new_dfg.node(sub.id).value == 0
        verify_equivalence(dfg, new_dfg, node_map)

    def test_mul_by_one_and_zero(self):
        dfg, a, _, op, _ = self._one_op(Opcode.MUL, a_value=9,
                                        b_op=Opcode.CONST, b_value=1)
        _, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
        assert node_map[op.id] == a.id
        dfg, _, _, op, _ = self._one_op(Opcode.MUL, a_value=9,
                                        b_op=Opcode.CONST, b_value=0)
        new_dfg, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
        assert new_dfg.node(op.id).opcode is Opcode.CONST
        assert new_dfg.node(op.id).value == 0

    def test_involutions_cancel(self):
        for opcode in (Opcode.NEG, Opcode.NOT):
            dfg = DFG()
            x = dfg.add_node(opcode=Opcode.INPUT, value=-5)
            inner = dfg.add_node(opcode=opcode)
            outer = dfg.add_node(opcode=opcode)
            sink = dfg.add_node(opcode=Opcode.OUTPUT)
            dfg.add_data_edge(x.id, inner.id)
            dfg.add_data_edge(inner.id, outer.id)
            dfg.add_data_edge(outer.id, sink.id)
            new_dfg, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
            assert node_map[outer.id] == x.id
            verify_equivalence(dfg, new_dfg, node_map)

    def test_select_with_literal_condition(self):
        dfg = DFG()
        cond = dfg.add_node(opcode=Opcode.CONST, value=1)
        a = dfg.add_node(opcode=Opcode.INPUT, value=4, name="a")
        b = dfg.add_node(opcode=Opcode.INPUT, value=6, name="b")
        select = dfg.add_node(opcode=Opcode.SELECT)
        dfg.add_data_edge(cond.id, select.id, operand_index=0)
        dfg.add_data_edge(a.id, select.id, operand_index=1)
        dfg.add_data_edge(b.id, select.id, operand_index=2)
        _, node_map, _ = _run(AlgebraicSimplificationPass(), dfg)
        assert node_map[select.id] == a.id

    def test_loop_carried_source_is_kept(self):
        # acc = acc + 0 is an accumulator: erasing the ADD would lose the
        # node that carries the recurrence and its initial value
        dfg = DFG()
        zero = dfg.add_node(opcode=Opcode.CONST, value=0)
        acc = dfg.add_node(opcode=Opcode.ADD, value=5)
        dfg.add_data_edge(zero.id, acc.id, operand_index=0)
        dfg.add_loop_carried_edge(acc.id, acc.id, distance=1, operand_index=1)
        assert _run(AlgebraicSimplificationPass(), dfg) is None


# ---------------------------------------------------------------------- #
# Strength reduction
# ---------------------------------------------------------------------- #
class TestStrengthReduction:
    def _mul_by_two(self):
        dfg = DFG()
        x = dfg.add_node(opcode=Opcode.INPUT, value=-7, name="x")
        two = dfg.add_node(opcode=Opcode.CONST, value=2)
        mul = dfg.add_node(opcode=Opcode.MUL)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(x.id, mul.id, operand_index=0)
        dfg.add_data_edge(two.id, mul.id, operand_index=1)
        dfg.add_data_edge(mul.id, sink.id)
        return dfg, x, mul

    def test_mul_by_two_becomes_add(self):
        dfg, x, mul = self._mul_by_two()
        new_dfg, node_map, _ = _run(StrengthReductionPass(), dfg)
        assert new_dfg.node(mul.id).opcode is Opcode.ADD
        assert new_dfg.predecessors(mul.id) == [x.id, x.id]
        # exact for negative values, unlike a 32-bit masked shift
        assert _reference_values(new_dfg, mul.id) == \
            _reference_values(dfg, mul.id)
        verify_equivalence(dfg, new_dfg, node_map)

    def test_gated_on_target_op_support(self):
        dfg, _, mul = self._mul_by_two()
        # mul-sparse fabric: ADD everywhere, MUL on half the PEs -> fires
        checker = build_preset("mul_sparse_checkerboard", 4, 4).build()
        assert _run(StrengthReductionPass(), dfg, target=checker) is not None
        # pathological fabric where ADD is rarer than MUL -> must not fire
        add_free = CGRA(2, 2, pe_operations={
            0: DEFAULT_PE_OPERATIONS - {Opcode.ADD},
            1: DEFAULT_PE_OPERATIONS - {Opcode.ADD},
        })
        assert _run(StrengthReductionPass(), dfg, target=add_free) is None


# ---------------------------------------------------------------------- #
# Common-subexpression elimination
# ---------------------------------------------------------------------- #
class TestCSE:
    def test_merges_identical_and_commutative_duplicates(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=2, name="a")
        b = dfg.add_node(opcode=Opcode.INPUT, value=3, name="b")
        first = dfg.add_node(opcode=Opcode.ADD)
        swapped = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(a.id, first.id, operand_index=0)
        dfg.add_data_edge(b.id, first.id, operand_index=1)
        dfg.add_data_edge(b.id, swapped.id, operand_index=0)
        dfg.add_data_edge(a.id, swapped.id, operand_index=1)
        consumer = dfg.add_node(opcode=Opcode.SUB)
        dfg.add_data_edge(first.id, consumer.id, operand_index=0)
        dfg.add_data_edge(swapped.id, consumer.id, operand_index=1)
        new_dfg, node_map, _ = _run(CommonSubexpressionEliminationPass(), dfg)
        assert node_map[swapped.id] == first.id
        assert not new_dfg.has_node(swapped.id)
        assert new_dfg.predecessors(consumer.id) == [first.id, first.id]
        verify_equivalence(dfg, new_dfg, node_map)

    def test_noncommutative_order_matters(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=9, name="a")
        b = dfg.add_node(opcode=Opcode.INPUT, value=4, name="b")
        sub_ab = dfg.add_node(opcode=Opcode.SUB)
        sub_ba = dfg.add_node(opcode=Opcode.SUB)
        dfg.add_data_edge(a.id, sub_ab.id, operand_index=0)
        dfg.add_data_edge(b.id, sub_ab.id, operand_index=1)
        dfg.add_data_edge(b.id, sub_ba.id, operand_index=0)
        dfg.add_data_edge(a.id, sub_ba.id, operand_index=1)
        assert _run(CommonSubexpressionEliminationPass(), dfg) is None

    def test_duplicate_constants_merge(self):
        dfg = DFG()
        c1 = dfg.add_node(opcode=Opcode.CONST, value=5)
        c2 = dfg.add_node(opcode=Opcode.CONST, value=5)
        add = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(c1.id, add.id, operand_index=0)
        dfg.add_data_edge(c2.id, add.id, operand_index=1)
        new_dfg, node_map, _ = _run(CommonSubexpressionEliminationPass(), dfg)
        assert node_map[c2.id] == c1.id
        assert new_dfg.predecessors(add.id) == [c1.id, c1.id]

    def test_loop_carried_source_duplicate_is_kept(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=1)
        b = dfg.add_node(opcode=Opcode.INPUT, value=2)
        keep = dfg.add_node(opcode=Opcode.ADD)
        lc_source = dfg.add_node(opcode=Opcode.ADD, value=42)
        route = dfg.add_node(opcode=Opcode.ROUTE)
        for node in (keep, lc_source):
            dfg.add_data_edge(a.id, node.id, operand_index=0)
            dfg.add_data_edge(b.id, node.id, operand_index=1)
        dfg.add_loop_carried_edge(lc_source.id, route.id, distance=1)
        outcome = _run(CommonSubexpressionEliminationPass(), dfg)
        if outcome is not None:
            new_dfg, node_map, _ = outcome
            assert node_map[lc_source.id] == lc_source.id
            assert new_dfg.has_node(lc_source.id)


# ---------------------------------------------------------------------- #
# Dead-node elimination
# ---------------------------------------------------------------------- #
class TestDeadNodeElimination:
    def test_orphans_die_but_observables_survive(self):
        dfg = DFG()
        live = dfg.add_node(opcode=Opcode.INPUT, value=1)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(live.id, sink.id)
        orphan = dfg.add_node(opcode=Opcode.CONST, value=9)

        # anchor observability on the graph *before* the orphan appeared:
        # the orphan is pass-created garbage, not an original sink
        ctx = PassContext(observables={sink.id})
        outcome = DeadNodeEliminationPass().run(dfg, ctx)
        assert outcome is not None
        new_dfg, node_map, _ = outcome
        assert not new_dfg.has_node(orphan.id)
        assert node_map[orphan.id] is None
        assert new_dfg.has_node(live.id) and new_dfg.has_node(sink.id)

    def test_stores_are_always_roots(self):
        dfg = DFG()
        addr = dfg.add_node(opcode=Opcode.INDUCTION)
        value = dfg.add_node(opcode=Opcode.INPUT, value=3)
        store = dfg.add_node(opcode=Opcode.STORE, array="out")
        dfg.add_data_edge(addr.id, store.id, operand_index=0)
        dfg.add_data_edge(value.id, store.id, operand_index=1)
        ctx = PassContext(observables=set())  # even with no anchors
        assert DeadNodeEliminationPass().run(dfg, ctx) is None


# ---------------------------------------------------------------------- #
# Reassociation
# ---------------------------------------------------------------------- #
class TestReassociation:
    def _chain(self, length, opcode=Opcode.ADD):
        dfg = DFG()
        leaves = [dfg.add_node(opcode=Opcode.INPUT, value=i + 1,
                               name=f"l{i}").id
                  for i in range(length + 1)]
        current = leaves[0]
        chain = []
        for leaf in leaves[1:]:
            node = dfg.add_node(opcode=opcode)
            dfg.add_data_edge(current, node.id, operand_index=0)
            dfg.add_data_edge(leaf, node.id, operand_index=1)
            current = node.id
            chain.append(node.id)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(current, sink.id)
        return dfg, chain, sink

    def test_linear_chain_is_balanced(self):
        dfg, chain, _ = self._chain(6)
        root = chain[-1]
        before = _reference_values(dfg, root)
        new_dfg, node_map, _ = _run(ReassociationPass(), dfg)
        assert critical_path_length(new_dfg) < critical_path_length(dfg)
        assert node_map[root] == root
        # interiors were replaced by fresh ids
        for interior in chain[:-1]:
            assert node_map[interior] is None
        assert _reference_values(new_dfg, root) == before
        verify_equivalence(dfg, new_dfg, node_map)

    def test_idempotent(self):
        dfg, _, _ = self._chain(6)
        new_dfg, _, _ = _run(ReassociationPass(), dfg)
        assert _run(ReassociationPass(), new_dfg) is None

    def test_accumulator_recurrence_is_hoisted(self):
        # acc = (((acc + a) + b) + c) + d  -> RecII 4 collapses to 1
        dfg = DFG()
        leaves = [dfg.add_node(opcode=Opcode.INPUT, value=i + 1).id
                  for i in range(4)]
        first = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(leaves[0], first.id, operand_index=0)
        current = first.id
        for leaf in leaves[1:]:
            node = dfg.add_node(opcode=Opcode.ADD)
            dfg.add_data_edge(current, node.id, operand_index=0)
            dfg.add_data_edge(leaf, node.id, operand_index=1)
            current = node.id
        dfg.add_loop_carried_edge(current, first.id, distance=1,
                                  operand_index=1)
        assert rec_ii(dfg) == 4
        before = _reference_values(dfg, current, iterations=6)
        new_dfg, node_map, _ = _run(ReassociationPass(), dfg)
        assert rec_ii(new_dfg) == 1
        assert node_map[current] == current
        assert _reference_values(new_dfg, current, iterations=6) == before
        verify_equivalence(dfg, new_dfg, node_map, iterations=6)

    def test_cycle_pinned_leaf_never_sinks_deeper(self):
        # a recurrence entering the chain through a leaf: rebalancing must
        # keep that leaf at its depth or shallower, or RecII would grow
        dfg = DFG()
        phi = dfg.add_node(opcode=Opcode.MUL, name="cycle")  # on the cycle
        seed = dfg.add_node(opcode=Opcode.INPUT, value=3)
        dfg.add_data_edge(seed.id, phi.id, operand_index=0)
        leaves = [dfg.add_node(opcode=Opcode.INPUT, value=i + 1).id
                  for i in range(5)]
        current = phi.id
        chain = []
        for leaf in leaves:
            node = dfg.add_node(opcode=Opcode.ADD)
            dfg.add_data_edge(current, node.id, operand_index=0)
            dfg.add_data_edge(leaf, node.id, operand_index=1)
            current = node.id
            chain.append(node.id)
        dfg.add_loop_carried_edge(current, phi.id, distance=1,
                                  operand_index=1)
        baseline = rec_ii(dfg)
        outcome = _run(ReassociationPass(), dfg)
        if outcome is not None:
            new_dfg, node_map, _ = outcome
            assert rec_ii(new_dfg) <= baseline
            verify_equivalence(dfg, new_dfg, node_map, iterations=6)

    def test_non_associative_chains_untouched(self):
        dfg, _, _ = self._chain(5, opcode=Opcode.SUB)
        assert _run(ReassociationPass(), dfg) is None


# ---------------------------------------------------------------------- #
# Pipeline / registry plumbing
# ---------------------------------------------------------------------- #
class TestPipelinePlumbing:
    def test_parse_opt_level(self):
        assert parse_opt_level(None) == 0
        assert parse_opt_level("O2") == 2
        assert parse_opt_level("o1") == 1
        assert parse_opt_level("2") == 2
        assert parse_opt_level(0) == 0
        with pytest.raises(ValueError):
            parse_opt_level(3)
        for bad in ("fast", 1.5, True, [1]):
            with pytest.raises(ValueError):
                parse_opt_level(bad)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown optimization pass"):
            make_pass("loop-unrolling")
        with pytest.raises(ValueError):
            build_pipeline(passes=["constfold", "nope"])

    def test_registry_names(self):
        assert set(pass_names()) == {
            "constfold", "algebraic", "strength", "cse", "dce", "reassoc",
        }

    def test_o0_is_identity(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=1)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(a.id, sink.id)
        result = optimize_dfg(dfg, opt_level=0)
        assert result.optimized is dfg
        assert not result.changed

    def test_explicit_pass_list_overrides_level(self):
        dfg = DFG()
        c1 = dfg.add_node(opcode=Opcode.CONST, value=1)
        c2 = dfg.add_node(opcode=Opcode.CONST, value=2)
        add = dfg.add_node(opcode=Opcode.ADD)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(c1.id, add.id, operand_index=0)
        dfg.add_data_edge(c2.id, add.id, operand_index=1)
        dfg.add_data_edge(add.id, sink.id)
        only_cse = optimize_dfg(dfg, opt_level=0, passes=["cse"])
        assert only_cse.nodes_after == dfg.num_nodes
        folded = optimize_dfg(dfg, opt_level=0, passes=["constfold", "dce"])
        assert folded.optimized.node(add.id).opcode is Opcode.CONST
        assert folded.nodes_after < dfg.num_nodes

    def test_verifier_catches_a_broken_rewrite(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=3)
        b = dfg.add_node(opcode=Opcode.INPUT, value=4)
        add = dfg.add_node(opcode=Opcode.ADD)
        dfg.add_data_edge(a.id, add.id, operand_index=0)
        dfg.add_data_edge(b.id, add.id, operand_index=1)
        broken, _ = rebuild(dfg, GraphEdit(
            overrides={add.id: DFGNode(id=add.id, opcode=Opcode.CONST,
                                       value=999)},
            drop_in_edges={add.id},
        ))
        with pytest.raises(OptVerificationError, match="diverges"):
            verify_equivalence(dfg, broken,
                               {n: n for n in dfg.node_ids()})

    def test_verifier_catches_a_lost_observable(self):
        dfg = DFG()
        a = dfg.add_node(opcode=Opcode.INPUT, value=3)
        sink = dfg.add_node(opcode=Opcode.OUTPUT)
        dfg.add_data_edge(a.id, sink.id)
        smaller, _ = rebuild(dfg, GraphEdit(drop={sink.id}))
        with pytest.raises(OptVerificationError, match="optimized away"):
            verify_equivalence(dfg, smaller, {a.id: a.id, sink.id: None})
