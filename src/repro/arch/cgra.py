"""The CGRA array: a 2D grid of PEs plus its spatial interconnect graph.

This is the *spatial* half of the mapping problem. The temporal expansion
(``II`` stacked copies of this graph) lives in :mod:`repro.arch.mrrg`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.arch.isa import DEFAULT_PE_OPERATIONS, Opcode
from repro.arch.pe import ProcessingElement
from repro.arch.topology import Topology, grid_neighbors


class CGRA:
    """A rows x cols Coarse-Grain Reconfigurable Array.

    PEs are indexed in row-major order. The spatial graph has one vertex per
    PE and an undirected edge between PEs that can exchange data through the
    interconnect; in the architecture assumed by the paper a PE can also read
    its *own* register file, which is modelled by the "adjacent or self"
    relation (:meth:`adjacent_or_self`) and by the self-loop counted in the
    connectivity degree ``D_M`` (paper Sec. IV-A).

    Args:
        rows, cols: grid dimensions (both >= 1, at least 2 PEs total).
        topology: interconnect topology; the default torus matches the
            paper's uniform-degree assumption (``D_M`` = 3 for 2x2, 5 for
            3x3 and larger).
        register_file_size: per-PE register file capacity.
        operations: ISA subset supported by every PE not covered by
            ``pe_operations`` (the homogeneous default).
        pe_operations: optional per-PE operation sets, keyed by row-major
            PE index; PEs absent from the mapping fall back to
            ``operations``. This is what makes the array *heterogeneous*
            (memory-capable columns, mul-capable subsets, ...); the mapper,
            the baseline, and the validator all consult it.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        topology: Topology = Topology.TORUS,
        register_file_size: int = 32,
        operations: Optional[Iterable[Opcode]] = None,
        pe_operations: Optional[Dict[int, Iterable[Opcode]]] = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("CGRA dimensions must be positive")
        if rows * cols < 2:
            raise ValueError("a CGRA needs at least 2 PEs")
        self.rows = rows
        self.cols = cols
        self.topology = topology
        self.register_file_size = register_file_size
        ops: FrozenSet[Opcode] = (
            frozenset(operations) if operations is not None else DEFAULT_PE_OPERATIONS
        )
        overrides: Dict[int, FrozenSet[Opcode]] = {}
        if pe_operations is not None:
            for index, op_set in pe_operations.items():
                if not (0 <= index < rows * cols):
                    raise ValueError(
                        f"pe_operations index {index} outside a {rows}x{cols} CGRA"
                    )
                overrides[index] = frozenset(op_set)
        # per-PE operation sets; the PE objects are built on first use
        self._operations: List[FrozenSet[Opcode]] = [
            overrides.get(index, ops) for index in range(rows * cols)
        ]
        # PEs grouped by their distinct operation set: one group on a
        # homogeneous fabric, a handful on the heterogeneous presets
        groups: Dict[FrozenSet[Opcode], List[int]] = {}
        for index, op_set in enumerate(self._operations):
            groups.setdefault(op_set, []).append(index)
        self._groups: List[Tuple[FrozenSet[Opcode], FrozenSet[int]]] = [
            (op_set, frozenset(indices)) for op_set, indices in groups.items()
        ]
        self._supporting: Dict[Opcode, FrozenSet[int]] = {}
        # neighbour sets, built on first use: a case pays for the PEs its
        # search touches, not for the whole fabric
        self._neighbors: List[Optional[FrozenSet[int]]] = [None] * rows * cols
        self._neighbors_or_self: List[Optional[FrozenSet[int]]] = [None] * rows * cols

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> int:
        """Number of PEs in the array (``|V_Mi|`` in the paper)."""
        return len(self._operations)

    @cached_property
    def pes(self) -> Sequence[ProcessingElement]:
        return tuple(
            ProcessingElement(
                index=index,
                row=index // self.cols,
                col=index % self.cols,
                operations=op_set,
                register_file_size=self.register_file_size,
            )
            for index, op_set in enumerate(self._operations)
        )

    def pe(self, index: int) -> ProcessingElement:
        return self.pes[index]

    def pe_index(self, row: int, col: int) -> int:
        """Linear (row-major) index of the PE at ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"({row}, {col}) outside a {self.rows}x{self.cols} CGRA")
        return row * self.cols + col

    def pe_position(self, index: int) -> Tuple[int, int]:
        """Grid coordinates of PE ``index``."""
        if not (0 <= index < self.num_pes):
            raise ValueError(f"PE index {index} out of range")
        return divmod(index, self.cols)

    # ------------------------------------------------------------------ #
    # Spatial adjacency
    # ------------------------------------------------------------------ #
    def neighbors(self, index: int) -> FrozenSet[int]:
        """Indices of the PEs adjacent to PE ``index`` (self excluded).

        Built on first use from the :func:`grid_neighbors` position set, in
        the order the space search's candidate order has always followed.
        """
        cached = self._neighbors[index]
        if cached is None:
            row, col = divmod(index, self.cols)
            cached = self._neighbors[index] = frozenset([
                r * self.cols + c for r, c in
                grid_neighbors(self.rows, self.cols, row, col, self.topology)])
        return cached

    def neighbors_or_self(self, index: int) -> FrozenSet[int]:
        """Indices of PEs whose register file PE ``index`` can read."""
        cached = self._neighbors_or_self[index]
        if cached is None:
            cached = self._neighbors_or_self[index] = self.neighbors(index) | {index}
        return cached

    def adjacent(self, a: int, b: int) -> bool:
        """True if distinct PEs ``a`` and ``b`` are connected."""
        return b in self.neighbors(a)

    def adjacent_or_self(self, a: int, b: int) -> bool:
        """True if PE ``a`` can read data produced on PE ``b``."""
        return a == b or b in self.neighbors(a)

    @cached_property
    def connectivity_degree(self) -> int:
        """The paper's ``D_M``: max neighbour count *including* the self-loop."""
        if self.topology is Topology.TORUS:  # vertex-transitive: PE 0 stands for all
            return self.degree(0)
        return max(map(self.degree, range(self.num_pes)))

    @cached_property
    def has_uniform_degree(self) -> bool:
        """True if every PE has the same degree (required by the proof)."""
        return (self.topology is Topology.TORUS
                or len(set(map(self.degree, range(self.num_pes)))) == 1)

    def degree(self, index: int) -> int:
        """Connectivity degree of one PE, including its self-loop."""
        return len(self.neighbors(index)) + 1

    # ------------------------------------------------------------------ #
    # Operation support (heterogeneity)
    # ------------------------------------------------------------------ #
    def supports_everywhere(self, opcode: Opcode) -> bool:
        """True if every PE of the array can execute ``opcode``."""
        return len(self.supporting_pes(opcode)) == self.num_pes

    def supports(self, pe_index: int, opcode: Opcode) -> bool:
        """True if PE ``pe_index`` can execute ``opcode``."""
        return opcode in self._operations[pe_index]

    def supporting_pes(self, opcode: Opcode) -> FrozenSet[int]:
        """Indices of the PEs able to execute ``opcode`` (cached).

        The union of the operation-set groups built once per CGRA that
        contain ``opcode``, so a lookup costs O(#groups), not O(#PEs).
        When a single group supports ``opcode`` its own set is returned,
        so on a homogeneous fabric every supported opcode shares one
        object.
        """
        cached = self._supporting.get(opcode)
        if cached is None:
            matching = [pes for op_set, pes in self._groups if opcode in op_set]
            # several groups: insert in index order, as one group was built
            cached = (matching[0] if len(matching) == 1
                      else frozenset(sorted(i for pes in matching for i in pes)))
            self._supporting[opcode] = cached
        return cached

    @property
    def is_homogeneous(self) -> bool:
        """True if every PE supports the same operation set."""
        return len(self._groups) == 1

    def operation_sets(self) -> Tuple[FrozenSet[Opcode], ...]:
        """Per-PE operation sets in row-major order (the heterogeneity map)."""
        return tuple(self._operations)

    @property
    def size_label(self) -> str:
        return f"{self.rows}x{self.cols}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CGRA({self.rows}x{self.cols}, topology={self.topology}, "
            f"D_M={self.connectivity_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CGRA):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.topology == other.topology
            and self.register_file_size == other.register_file_size
            and self.operation_sets() == other.operation_sets()
        )

    def __hash__(self) -> int:
        return hash((
            self.rows,
            self.cols,
            self.topology,
            self.register_file_size,
            self.operation_sets(),
        ))
