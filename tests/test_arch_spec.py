"""Tests for the declarative architecture spec and the heterogeneous CGRA.

Covers the JSON round trip (load -> dump -> load), the preset library, the
per-PE operation threading through CGRA and MRRG, and the cache-key
satellite fix (``CGRA.__eq__``/``__hash__`` include the PE operation sets).
"""

import json

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import DEFAULT_PE_OPERATIONS, Opcode
from repro.arch.mrrg import MRRG
from repro.arch.spec import (
    MEMORY_FAMILY,
    MUL_FAMILY,
    PRESETS,
    ArchSpec,
    build_preset,
    preset_names,
    resolve_arch,
    spec_of,
)
from repro.arch.topology import Topology


class TestArchSpecBasics:
    def test_defaults_are_the_papers_fabric(self):
        spec = ArchSpec(name="plain", rows=4, cols=4)
        assert spec.topology is Topology.TORUS
        assert spec.is_homogeneous
        assert spec.operations_of(0) == DEFAULT_PE_OPERATIONS
        cgra = spec.build()
        assert cgra.is_homogeneous
        assert cgra == CGRA(4, 4)

    def test_rejects_degenerate_specs(self):
        with pytest.raises(ValueError):
            ArchSpec(name="bad", rows=0, cols=4)
        with pytest.raises(ValueError):
            ArchSpec(name="bad", rows=1, cols=1)
        with pytest.raises(ValueError):
            ArchSpec(name="bad", rows=2, cols=2,
                     pe_operations={7: frozenset({Opcode.ADD})})

    def test_per_pe_overrides_reach_the_cgra(self):
        spec = ArchSpec(
            name="one-odd", rows=2, cols=2,
            pe_operations={3: frozenset({Opcode.ADD, Opcode.CONST})},
        )
        assert not spec.is_homogeneous
        cgra = spec.build()
        assert not cgra.is_homogeneous
        assert cgra.pe(3).operations == frozenset({Opcode.ADD, Opcode.CONST})
        assert cgra.pe(0).operations == DEFAULT_PE_OPERATIONS
        assert cgra.supporting_pes(Opcode.MUL) == frozenset({0, 1, 2})
        assert cgra.supporting_pes(Opcode.ADD) == frozenset({0, 1, 2, 3})

    def test_uniform_overrides_count_as_homogeneous(self):
        # overrides covering every PE with one identical set describe a
        # homogeneous fabric; spec and built CGRA must agree
        ops = frozenset({Opcode.ADD, Opcode.CONST})
        spec = ArchSpec(name="uniform", rows=2, cols=2,
                        pe_operations={i: ops for i in range(4)})
        assert spec.is_homogeneous
        assert spec.build().is_homogeneous

    def test_specs_are_hashable_and_usable_as_keys(self):
        a = build_preset("memory_column_mesh", 2, 2)
        b = build_preset("memory_column_mesh", 2, 2)
        c = build_preset("mul_sparse_checkerboard", 2, 2)
        assert hash(a) == hash(b) and a == b
        assert len({a, b, c}) == 2

    def test_describe_mentions_overrides(self):
        spec = build_preset("memory_column_mesh", 3, 3)
        text = spec.describe()
        assert "memory_column_mesh" in text
        assert "PE1" in text  # an override PE is listed


class TestJsonRoundTrip:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_load_dump_load_fixpoint(self, preset, tmp_path):
        spec = build_preset(preset, 4, 4)
        path = tmp_path / f"{preset}.json"
        spec.dump(str(path))
        loaded = ArchSpec.load(str(path))
        assert loaded == spec
        # dump -> load -> dump is byte-stable (the CI round-trip smoke)
        again = tmp_path / "again.json"
        loaded.dump(str(again))
        assert path.read_text() == again.read_text()

    def test_json_uses_all_sentinel_for_full_isa(self):
        spec = build_preset("homogeneous_torus", 2, 2)
        data = json.loads(spec.to_json())
        assert data["default_operations"] == "all"
        assert data["pe_operations"] == {}

    def test_explicit_op_lists_round_trip(self):
        spec = ArchSpec(
            name="tiny", rows=2, cols=2,
            default_operations=frozenset({Opcode.ADD, Opcode.SUB}),
            pe_operations={1: frozenset({Opcode.ADD, Opcode.MUL})},
        )
        assert ArchSpec.from_json(spec.to_json()) == spec

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec.from_dict({"name": "x", "rows": 2})

    def test_bad_operation_set_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec.from_dict(
                {"rows": 2, "cols": 2, "default_operations": "some"}
            )

    def test_spec_of_inverts_build(self):
        for preset in sorted(PRESETS):
            spec = build_preset(preset, 3, 4)
            recovered = spec_of(spec.build(), name=spec.name)
            assert recovered.build() == spec.build()


class TestPresets:
    def test_preset_names_and_resolution(self):
        assert "memory_column_mesh" in preset_names()
        spec = resolve_arch("mul_sparse_checkerboard", 4, 4)
        assert spec.rows == 4 and spec.cols == 4

    def test_resolve_arch_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_arch("does_not_exist", 4, 4)

    def test_resolve_arch_loads_spec_files(self, tmp_path):
        path = tmp_path / "fabric.json"
        build_preset("memory_column_mesh", 5, 3).dump(str(path))
        spec = resolve_arch(str(path), 2, 2)  # file size is authoritative
        assert (spec.rows, spec.cols) == (5, 3)

    def test_memory_column_mesh_layout(self):
        cgra = build_preset("memory_column_mesh", 3, 3).build()
        assert cgra.topology is Topology.MESH
        assert cgra.supporting_pes(Opcode.LOAD) == frozenset({0, 3, 6})
        assert cgra.supporting_pes(Opcode.STORE) == frozenset({0, 3, 6})
        assert cgra.supporting_pes(Opcode.ADD) == frozenset(range(9))

    def test_mul_sparse_checkerboard_layout(self):
        cgra = build_preset("mul_sparse_checkerboard", 3, 3).build()
        expected = frozenset(
            r * 3 + c for r in range(3) for c in range(3) if (r + c) % 2 == 0
        )
        for opcode in MUL_FAMILY:
            assert cgra.supporting_pes(opcode) == expected
        assert cgra.supports_everywhere(Opcode.ADD)

    def test_mul_free_torus_has_no_multiplier(self):
        cgra = build_preset("mul_free_torus", 2, 2).build()
        assert cgra.supporting_pes(Opcode.MUL) == frozenset()
        assert cgra.is_homogeneous  # uniformly restricted is homogeneous

    def test_families_are_disjoint(self):
        assert not (MUL_FAMILY & MEMORY_FAMILY)


class TestHeterogeneousCGRAIdentity:
    """Satellite: eq/hash must include the PE operation sets."""

    def test_heterogeneous_arrays_do_not_collide(self):
        plain = CGRA(4, 4)
        checker = build_preset("mul_sparse_checkerboard", 4, 4).build()
        memcol = build_preset("memory_column_mesh", 4, 4).build()
        assert plain != checker
        assert len({plain, checker, memcol}) == 3  # usable as dict keys
        assert checker == build_preset("mul_sparse_checkerboard", 4, 4).build()
        assert hash(checker) == hash(
            build_preset("mul_sparse_checkerboard", 4, 4).build()
        )

    def test_homogeneous_restriction_differs_from_full_isa(self):
        full = CGRA(2, 2)
        restricted = CGRA(2, 2, operations=[Opcode.ADD, Opcode.CONST])
        assert full != restricted


class TestMRRGCompatibility:
    def test_vertex_compatibility_follows_the_pe(self):
        cgra = build_preset("mul_sparse_checkerboard", 3, 3).build()
        mrrg = MRRG(cgra, ii=2)
        for vertex in mrrg.vertices():
            assert mrrg.supports(vertex, Opcode.MUL) == cgra.supports(
                mrrg.pe_of(vertex), Opcode.MUL
            )
            assert mrrg.supports(vertex, Opcode.ADD)

    def test_compatible_vertices_filters_by_op(self):
        cgra = build_preset("mul_sparse_checkerboard", 3, 3).build()
        mrrg = MRRG(cgra, ii=3)
        for slot in range(3):
            muls = list(mrrg.compatible_vertices(slot, Opcode.MUL))
            assert muls == [
                v for v in mrrg.vertices_with_label(slot)
                if mrrg.supports(v, Opcode.MUL)
            ]
            adds = list(mrrg.compatible_vertices(slot, Opcode.ADD))
            assert adds == list(mrrg.vertices_with_label(slot))
