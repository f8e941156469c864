"""Op-compatibility-aware mapping on heterogeneous fabrics.

The acceptance tests of the heterogeneity subsystem: neither the decoupled
mapper nor the SAT-MapIt-style baseline may ever place an operation on a PE
that does not implement it, infeasible kernels are reported cleanly, and
the feasibility analysis tightens mII on restricted fabrics.
"""

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import DEFAULT_PE_OPERATIONS, Opcode
from repro.arch.spec import MUL_FAMILY, build_preset
from repro.baseline.satmapit import SatMapItMapper
from repro.core.config import BaselineConfig, MapperConfig
from repro.core.feasibility import analyze_feasibility, heterogeneous_res_ii
from repro.core.mapper import MappingStatus, MonomorphismMapper
from repro.core.validation import validate_mapping
from repro.graphs.dfg import DFG
from repro.graphs.generators import executable_random_dfg


def _mul_heavy_dfg(seed: int) -> DFG:
    return executable_random_dfg(
        9, seed=seed, opcodes=(Opcode.MUL, Opcode.ADD, Opcode.MUL)
    )


def _memory_dfg() -> DFG:
    """i -> load a[i] -> +1 -> store b[i] (a tiny streaming kernel)."""
    dfg = DFG(name="stream")
    dfg.add_node(0, Opcode.INDUCTION, name="i")
    dfg.add_node(1, Opcode.LOAD, name="x", array="a")
    dfg.add_node(2, Opcode.CONST, name="one", value=1)
    dfg.add_node(3, Opcode.ADD, name="y")
    dfg.add_node(4, Opcode.STORE, name="out", array="b")
    dfg.add_data_edge(0, 1, operand_index=0)
    dfg.add_data_edge(1, 3, operand_index=0)
    dfg.add_data_edge(2, 3, operand_index=1)
    dfg.add_data_edge(0, 4, operand_index=0)
    dfg.add_data_edge(3, 4, operand_index=1)
    return dfg


@pytest.fixture
def checkerboard():
    return build_preset("mul_sparse_checkerboard", 3, 3).build()


class TestOpPlacementRespected:
    """Acceptance: a mul-less PE is never assigned a mul node."""

    @pytest.mark.parametrize("seed", range(4))
    def test_decoupled_mapper_respects_mul_support(self, checkerboard, seed):
        dfg = _mul_heavy_dfg(seed)
        result = MonomorphismMapper(
            checkerboard, MapperConfig(budget_seconds=30)
        ).map(dfg)
        assert result.success, result.summary()
        assert validate_mapping(result.mapping) == []
        mul_pes = checkerboard.supporting_pes(Opcode.MUL)
        for node in dfg.nodes():
            if node.opcode in MUL_FAMILY:
                assert result.mapping.pe(node.id) in mul_pes

    @pytest.mark.parametrize("seed", range(2))
    def test_baseline_respects_mul_support(self, checkerboard, seed):
        dfg = _mul_heavy_dfg(seed)
        result = SatMapItMapper(
            checkerboard, BaselineConfig(budget_seconds=30)
        ).map(dfg)
        assert result.success, result.summary()
        assert validate_mapping(result.mapping) == []
        mul_pes = checkerboard.supporting_pes(Opcode.MUL)
        for node in dfg.nodes():
            if node.opcode in MUL_FAMILY:
                assert result.mapping.pe(node.id) in mul_pes

    def test_memory_ops_stay_in_the_memory_column(self):
        cgra = build_preset("memory_column_mesh", 3, 3).build()
        dfg = _memory_dfg()
        result = MonomorphismMapper(
            cgra, MapperConfig(budget_seconds=30)
        ).map(dfg)
        assert result.success, result.summary()
        memory_pes = cgra.supporting_pes(Opcode.LOAD)
        assert result.mapping.pe(1) in memory_pes   # the load
        assert result.mapping.pe(4) in memory_pes   # the store

    def test_validator_flags_unsupported_placement(self, checkerboard):
        # Map on a homogeneous array, then re-validate the same placement
        # against the heterogeneous fabric: every misplaced mul node must
        # surface as an op-support violation.
        from repro.core.mapping import Mapping

        dfg = _mul_heavy_dfg(0)
        result = MonomorphismMapper(
            CGRA(3, 3), MapperConfig(budget_seconds=30)
        ).map(dfg)
        assert result.success
        forged = Mapping(
            dfg=dfg,
            cgra=checkerboard,
            schedule=result.mapping.schedule,
            placement=dict(result.mapping.placement),
        )
        violations = validate_mapping(forged)
        mul_pes = checkerboard.supporting_pes(Opcode.MUL)
        misplaced = [
            node.id for node in dfg.nodes()
            if node.opcode in MUL_FAMILY
            and result.mapping.pe(node.id) not in mul_pes
        ]
        op_violations = [v for v in violations if v.startswith("op-support")]
        assert len(op_violations) == len(misplaced)


class TestInfeasibilityReporting:
    """Acceptance: unsupported opcodes report infeasible, never crash."""

    def test_decoupled_mapper_reports_infeasible(self):
        cgra = build_preset("mul_free_torus", 4, 4).build()
        dfg = _mul_heavy_dfg(1)
        result = MonomorphismMapper(cgra).map(dfg)
        assert result.status is MappingStatus.INFEASIBLE
        assert not result.success and result.mapping is None
        assert "mul" in result.message
        assert "supported by no PE" in result.message

    def test_baseline_reports_infeasible(self):
        cgra = build_preset("mul_free_torus", 4, 4).build()
        dfg = _mul_heavy_dfg(1)
        result = SatMapItMapper(cgra).map(dfg)
        assert result.status is MappingStatus.INFEASIBLE
        assert not result.success and result.mapping is None
        assert "mul" in result.message

    def test_infeasible_is_immediate(self):
        # No solver work may happen: the report comes back in milliseconds
        # even with a generous budget.
        cgra = build_preset("mul_free_torus", 4, 4).build()
        result = MonomorphismMapper(
            cgra, MapperConfig(budget_seconds=3600)
        ).map(_mul_heavy_dfg(2))
        assert result.status is MappingStatus.INFEASIBLE
        assert result.total_seconds < 5.0
        assert result.schedules_tried == 0


class TestFeasibilityAnalysis:
    def test_homogeneous_array_is_always_feasible(self):
        report = analyze_feasibility(_mul_heavy_dfg(0), CGRA(3, 3))
        assert report.feasible
        assert report.restricted_classes == {}
        assert report.message() == ""

    def test_unsupported_opcodes_are_grouped(self):
        cgra = build_preset("mul_free_torus", 2, 2).build()
        dfg = _mul_heavy_dfg(0)
        report = analyze_feasibility(dfg, cgra)
        assert not report.feasible
        muls = sorted(
            n.id for n in dfg.nodes() if n.opcode is Opcode.MUL
        )
        assert sorted(report.unsupported[Opcode.MUL]) == muls

    def test_restricted_class_tightens_res_ii(self):
        # 6 muls on a fabric with 2 mul-capable PEs need at least 3 slots.
        cgra = CGRA(2, 2, pe_operations={
            1: DEFAULT_PE_OPERATIONS - MUL_FAMILY,
            3: DEFAULT_PE_OPERATIONS - MUL_FAMILY,
        })
        dfg = DFG(name="muls")
        dfg.add_node(0, Opcode.INPUT, value=1)
        for i in range(1, 7):
            dfg.add_node(i, Opcode.MUL)
            dfg.add_data_edge(0, i, operand_index=0)
            dfg.add_data_edge(0, i, operand_index=1)
        assert heterogeneous_res_ii(dfg, cgra) == 3
        # II=3 packs the two mul PEs completely, leaving no slot for the
        # input next to both of them; allow the mapper to relax to II=4+
        result = MonomorphismMapper(
            cgra, MapperConfig(budget_seconds=30, max_ii=6)
        ).map(dfg)
        assert result.success, result.summary()
        assert result.mii >= 3
        assert result.ii >= 3
        assert validate_mapping(result.mapping) == []

    def test_equal_on_homogeneous(self):
        dfg = _mul_heavy_dfg(3)
        assert heterogeneous_res_ii(dfg, CGRA(2, 2)) == -(-dfg.num_nodes // 4)
