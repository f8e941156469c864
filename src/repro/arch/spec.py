"""Declarative CGRA architecture specification (``repro.arch.spec``).

An :class:`ArchSpec` is a JSON-serialisable description of a fabric:
dimensions, interconnect topology, register-file size, the default ISA
subset of a PE, and per-PE operation-set overrides. It is the single
source of truth for *heterogeneous* arrays: memory-capable columns,
mul-capable subsets, arbitrary per-PE restrictions.

JSON format (``"all"`` expands to the full ISA)::

    {
      "name": "memory_column_mesh",
      "rows": 4,
      "cols": 4,
      "topology": "mesh",
      "register_file_size": 32,
      "default_operations": ["add", "sub", "..."],
      "pe_operations": {"0": ["load", "store", "add"], "4": "all"}
    }

A small preset library parameterised by array size is provided (see
:data:`PRESETS`); ``repro-map map/sweep --arch <preset|spec.json>`` and the
experiment drivers resolve either a preset name or a spec file through
:func:`resolve_arch`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Tuple, Union

from repro.arch.cgra import CGRA
from repro.arch.isa import DEFAULT_PE_OPERATIONS, Opcode, is_memory_op
from repro.arch.topology import Topology

#: opcodes a "multiplier-capable" PE provides on top of the plain ALU set.
MUL_FAMILY: FrozenSet[Opcode] = frozenset(
    {Opcode.MUL, Opcode.MAC, Opcode.DIV, Opcode.REM}
)

#: opcodes that access the shared data memory.
MEMORY_FAMILY: FrozenSet[Opcode] = frozenset(
    op for op in Opcode if is_memory_op(op)
)


def _ops_to_json(ops: FrozenSet[Opcode]) -> Union[str, List[str]]:
    if ops == DEFAULT_PE_OPERATIONS:
        return "all"
    return sorted(op.value for op in ops)


def _ops_from_json(data: Union[str, List[str]]) -> FrozenSet[Opcode]:
    if data == "all":
        return DEFAULT_PE_OPERATIONS
    if not isinstance(data, list):
        raise ValueError(
            f"operation set must be 'all' or a list of opcode names, got {data!r}"
        )
    return frozenset(Opcode(name) for name in data)


def _int_from_json(data: object, what: str) -> int:
    # an int, or a string of one (the pe_operations keys); never a bool
    # or a float, which int() would truncate silently
    if isinstance(data, (int, str)) and not isinstance(data, bool):
        try:
            return int(data)
        except ValueError:
            pass
    raise ValueError(f"arch spec {what} must be an integer, got {data!r}")


@dataclass(frozen=True)
class ArchSpec:
    """A declarative, serialisable CGRA description.

    Attributes:
        name: human-readable fabric name (shows up in tables and labels).
        rows, cols: grid dimensions.
        topology: interconnect topology.
        register_file_size: per-PE register file capacity.
        default_operations: ISA subset of every PE without an override.
        pe_operations: per-PE overrides, keyed by row-major PE index.
    """

    name: str
    rows: int
    cols: int
    topology: Topology = Topology.TORUS
    register_file_size: int = 32
    default_operations: FrozenSet[Opcode] = DEFAULT_PE_OPERATIONS
    pe_operations: Mapping[int, FrozenSet[Opcode]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("ArchSpec dimensions must be positive")
        if self.rows * self.cols < 2:
            raise ValueError("an ArchSpec needs at least 2 PEs")
        object.__setattr__(
            self,
            "pe_operations",
            {index: frozenset(ops) for index, ops in self.pe_operations.items()},
        )
        for index in self.pe_operations:
            if not (0 <= index < self.rows * self.cols):
                raise ValueError(
                    f"pe_operations index {index} outside a "
                    f"{self.rows}x{self.cols} array"
                )

    def __hash__(self) -> int:
        # the generated hash would choke on the pe_operations dict; hash a
        # canonical immutable view instead so specs work as set/dict keys
        return hash((
            self.name,
            self.rows,
            self.cols,
            self.topology,
            self.register_file_size,
            self.default_operations,
            tuple(sorted(self.pe_operations.items())),
        ))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def size_label(self) -> str:
        return f"{self.rows}x{self.cols}"

    @property
    def is_homogeneous(self) -> bool:
        """True if every PE ends up with the same operation set.

        Matches ``CGRA.is_homogeneous`` of the built fabric, including the
        case where overrides cover every PE with one identical set.
        """
        first = self.operations_of(0)
        return all(
            self.operations_of(index) == first for index in range(self.num_pes)
        )

    def operations_of(self, pe_index: int) -> FrozenSet[Opcode]:
        """Operation set of one PE (override or default)."""
        return self.pe_operations.get(pe_index, self.default_operations)

    def build(self) -> CGRA:
        """Instantiate the described fabric."""
        return CGRA(
            self.rows,
            self.cols,
            topology=self.topology,
            register_file_size=self.register_file_size,
            operations=self.default_operations,
            pe_operations=dict(self.pe_operations),
        )

    def describe(self) -> str:
        """Human-readable summary used by ``repro-map arch show``."""
        lines = [
            f"{self.name}: {self.size_label} {self.topology} CGRA, "
            f"register file {self.register_file_size}",
            f"  default operations: {_ops_to_json(self.default_operations)}",
        ]
        for index in sorted(self.pe_operations):
            row, col = divmod(index, self.cols)
            lines.append(
                f"  PE{index} ({row},{col}): "
                f"{_ops_to_json(self.pe_operations[index])}"
            )
        if not self.pe_operations:
            lines.append("  (homogeneous: no per-PE overrides)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "rows": self.rows,
            "cols": self.cols,
            "topology": self.topology.value,
            "register_file_size": self.register_file_size,
            "default_operations": _ops_to_json(self.default_operations),
            "pe_operations": {
                str(index): _ops_to_json(ops)
                for index, ops in sorted(self.pe_operations.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ArchSpec":
        """The spec a JSON document describes; ``ValueError`` if malformed."""
        if not isinstance(data, Mapping):
            raise ValueError(f"arch spec must be a JSON object, got {data!r}")
        try:
            rows = _int_from_json(data["rows"], "rows")
            cols = _int_from_json(data["cols"], "cols")
        except KeyError as exc:
            raise ValueError(f"arch spec misses required key {exc}") from exc
        name = data.get("name", f"{rows}x{cols}")
        if not isinstance(name, str):
            raise ValueError(f"arch spec name must be a string, got {name!r}")
        overrides = data.get("pe_operations", {})
        if not isinstance(overrides, Mapping):
            raise ValueError(
                f"arch spec pe_operations must be an object, got {overrides!r}")
        return cls(
            name=name,
            rows=rows,
            cols=cols,
            topology=Topology(data.get("topology", Topology.TORUS.value)),
            register_file_size=_int_from_json(
                data.get("register_file_size", 32), "register_file_size"),
            default_operations=_ops_from_json(
                data.get("default_operations", "all")
            ),
            pe_operations={
                _int_from_json(index, "PE index"): _ops_from_json(ops)
                for index, ops in overrides.items()
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchSpec":
        return cls.from_dict(json.loads(text))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ArchSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------- #
# Preset library
# ---------------------------------------------------------------------- #
def homogeneous_torus(rows: int, cols: int) -> ArchSpec:
    """The paper's fabric: full ISA on every PE, torus interconnect."""
    return ArchSpec(name="homogeneous_torus", rows=rows, cols=cols)


def memory_column_mesh(rows: int, cols: int) -> ArchSpec:
    """Open mesh whose leftmost column holds the only memory-capable PEs.

    This mirrors the classic ADRES/SAT-MapIt arrangement where load/store
    units sit on the array edge next to the data memory: column 0 keeps the
    full ISA, every other PE loses LOAD/STORE.
    """
    compute_ops = DEFAULT_PE_OPERATIONS - MEMORY_FAMILY
    overrides = {
        r * cols + c: compute_ops
        for r in range(rows)
        for c in range(1, cols)
    }
    return ArchSpec(
        name="memory_column_mesh",
        rows=rows,
        cols=cols,
        topology=Topology.MESH,
        pe_operations=overrides,
    )


def mul_sparse_checkerboard(rows: int, cols: int) -> ArchSpec:
    """Torus where only the even checkerboard cells own a multiplier.

    PEs with ``(row + col)`` even keep the full ISA; the odd cells drop the
    multiplier family (MUL/MAC/DIV/REM), modelling fabrics that share
    expensive functional units across neighbouring PEs.
    """
    alu_ops = DEFAULT_PE_OPERATIONS - MUL_FAMILY
    overrides = {
        r * cols + c: alu_ops
        for r in range(rows)
        for c in range(cols)
        if (r + c) % 2 == 1
    }
    return ArchSpec(
        name="mul_sparse_checkerboard",
        rows=rows,
        cols=cols,
        pe_operations=overrides,
    )


def mul_free_torus(rows: int, cols: int) -> ArchSpec:
    """Torus with no multiplier anywhere: kernels using MUL are infeasible.

    Used by tests and the CLI smoke to exercise the clean-infeasibility
    path (a kernel needing an op no PE supports must report infeasible,
    not crash).
    """
    alu_ops = DEFAULT_PE_OPERATIONS - MUL_FAMILY
    return ArchSpec(
        name="mul_free_torus",
        rows=rows,
        cols=cols,
        default_operations=alu_ops,
    )


PRESETS: Dict[str, Callable[[int, int], ArchSpec]] = {
    "homogeneous_torus": homogeneous_torus,
    "memory_column_mesh": memory_column_mesh,
    "mul_sparse_checkerboard": mul_sparse_checkerboard,
    "mul_free_torus": mul_free_torus,
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def build_preset(name: str, rows: int, cols: int) -> ArchSpec:
    """Instantiate a preset at the requested array size."""
    try:
        factory = PRESETS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown architecture preset {name!r}; "
            f"expected one of {preset_names()} or a spec-file path"
        ) from exc
    return factory(rows, cols)


def resolve_arch(arch: str, rows: int, cols: int) -> ArchSpec:
    """Resolve ``--arch``: a preset name (sized ``rows x cols``) or a path.

    A spec file's own dimensions are authoritative -- the requested size is
    only used for presets, which are size-parametric.
    """
    if arch in PRESETS:
        return build_preset(arch, rows, cols)
    if arch.endswith(".json"):
        return ArchSpec.load(arch)
    raise ValueError(
        f"unknown architecture {arch!r}; expected one of {preset_names()} "
        "or a path to a .json spec file"
    )


def spec_of(cgra: CGRA, name: str = "custom") -> ArchSpec:
    """Reverse-engineer an :class:`ArchSpec` from a live :class:`CGRA`.

    PEs whose operation set equals the most common one become the default;
    the rest become per-PE overrides, so ``spec_of(spec.build())`` round
    trips the heterogeneity map (modulo the default/override split).
    """
    op_sets = cgra.operation_sets()
    counts: Dict[FrozenSet[Opcode], int] = {}
    for ops in op_sets:
        counts[ops] = counts.get(ops, 0) + 1
    default = max(counts, key=lambda ops: (counts[ops], len(ops)))
    overrides: Dict[int, FrozenSet[Opcode]] = {
        index: ops for index, ops in enumerate(op_sets) if ops != default
    }
    return ArchSpec(
        name=name,
        rows=cgra.rows,
        cols=cgra.cols,
        topology=cgra.topology,
        register_file_size=cgra.register_file_size,
        default_operations=default,
        pe_operations=overrides,
    )


__all__: Tuple[str, ...] = (
    "ArchSpec",
    "MUL_FAMILY",
    "MEMORY_FAMILY",
    "PRESETS",
    "preset_names",
    "build_preset",
    "resolve_arch",
    "spec_of",
    "homogeneous_torus",
    "memory_column_mesh",
    "mul_sparse_checkerboard",
    "mul_free_torus",
)
