"""Modulo Routing Resource Graph (MRRG).

The MRRG (paper Sec. IV-A, Fig. 3) consists of ``II`` stacked copies of the
CGRA spatial graph. Vertex ``(pe, slot)`` represents PE ``pe`` at kernel time
step ``slot`` and carries the label ``slot``; a DFG whose vertices are
labelled with their kernel slot is mapped into the MRRG by a monomorphism.

Two time-adjacency models are provided:

* ``TimeAdjacency.ALL_PAIRS`` (default, the paper's architecture): because a
  value written to a PE's register file stays readable by that PE and its
  neighbours until overwritten, PE ``u`` at slot ``i`` is connected to PE
  ``v`` at *every* slot ``j`` whenever ``v`` is ``u`` itself or one of its
  spatial neighbours (this is what Fig. 3 depicts with the green/red/yellow
  adjacencies from PE0 at T=0 to all other time steps).
* ``TimeAdjacency.CONSECUTIVE``: the classic MRRG where time adjacencies only
  connect consecutive slots (modulo ``II``). Used for ablations; it models a
  CGRA whose neighbour values must be consumed on the very next cycle.

Vertices are encoded as integers ``slot * num_pes + pe`` so that the
monomorphism search can treat them as plain ints. Adjacency is computed
implicitly from the CGRA's spatial adjacency, which keeps 20x20 x II=16
instances (6400 vertices) cheap to handle.
"""

from __future__ import annotations

import enum
from typing import Iterator, List

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode


class TimeAdjacency(enum.Enum):
    """How time steps of the MRRG are linked (see module docstring)."""

    ALL_PAIRS = "all_pairs"
    CONSECUTIVE = "consecutive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MRRG:
    """Time-expanded resource graph of a CGRA for a given ``II``."""

    def __init__(
        self,
        cgra: CGRA,
        ii: int,
        time_adjacency: TimeAdjacency = TimeAdjacency.ALL_PAIRS,
    ) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.cgra = cgra
        self.ii = ii
        self.time_adjacency = time_adjacency
        self._num_pes = cgra.num_pes

    # ------------------------------------------------------------------ #
    # Vertex encoding
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """``|V_M| = II * |V_Mi|``."""
        return self.ii * self._num_pes

    def vertex(self, pe: int, slot: int) -> int:
        """Encode ``(pe, slot)`` as an integer vertex id."""
        if not (0 <= pe < self._num_pes):
            raise ValueError(f"PE index {pe} out of range")
        if not (0 <= slot < self.ii):
            raise ValueError(f"slot {slot} out of range for II={self.ii}")
        return slot * self._num_pes + pe

    def pe_of(self, vertex: int) -> int:
        return vertex % self._num_pes

    def slot_of(self, vertex: int) -> int:
        return vertex // self._num_pes

    def label(self, vertex: int) -> int:
        """The paper's ``l_M``: the time step a vertex belongs to."""
        return self.slot_of(vertex)

    def vertices(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def vertices_with_label(self, slot: int) -> Iterator[int]:
        """All vertices of the architecture copy at time step ``slot``."""
        if not (0 <= slot < self.ii):
            raise ValueError(f"slot {slot} out of range for II={self.ii}")
        base = slot * self._num_pes
        return iter(range(base, base + self._num_pes))

    # ------------------------------------------------------------------ #
    # Operation compatibility (heterogeneous arrays)
    # ------------------------------------------------------------------ #
    def supports(self, vertex: int, opcode: Opcode) -> bool:
        """True if the PE behind ``vertex`` can execute ``opcode``.

        Every time-step copy of a PE inherits the PE's operation set, so
        compatibility is a per-vertex attribute of the time-extended graph.
        """
        return self.cgra.supports(self.pe_of(vertex), opcode)

    def compatible_vertices(self, slot: int, opcode: Opcode) -> Iterator[int]:
        """Vertices of time step ``slot`` whose PE supports ``opcode``."""
        if not (0 <= slot < self.ii):
            raise ValueError(f"slot {slot} out of range for II={self.ii}")
        base = slot * self._num_pes
        supporting = self.cgra.supporting_pes(opcode)
        if len(supporting) == self._num_pes:
            return iter(range(base, base + self._num_pes))
        return iter(base + pe for pe in sorted(supporting))

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #
    def _slots_adjacent(self, slot_a: int, slot_b: int) -> bool:
        if self.time_adjacency is TimeAdjacency.ALL_PAIRS:
            return True
        if slot_a == slot_b:
            return True
        diff = (slot_a - slot_b) % self.ii
        return diff == 1 or diff == self.ii - 1

    def has_edge(self, a: int, b: int) -> bool:
        """True if distinct vertices ``a`` and ``b`` are MRRG-adjacent."""
        if a == b:
            return False
        pe_a, pe_b = self.pe_of(a), self.pe_of(b)
        if not self.cgra.adjacent_or_self(pe_a, pe_b):
            return False
        return self._slots_adjacent(self.slot_of(a), self.slot_of(b))

    def neighbors(self, vertex: int) -> Iterator[int]:
        """All vertices adjacent to ``vertex`` (lazily generated)."""
        pe = self.pe_of(vertex)
        slot = self.slot_of(vertex)
        reachable_pes = self.cgra.neighbors_or_self(pe)
        for other_slot in range(self.ii):
            if not self._slots_adjacent(slot, other_slot):
                continue
            base = other_slot * self._num_pes
            for other_pe in reachable_pes:
                other = base + other_pe
                if other != vertex:
                    yield other

    def degree(self, vertex: int) -> int:
        """Number of MRRG neighbours of ``vertex``."""
        return sum(1 for _ in self.neighbors(vertex))

    @property
    def connectivity_degree(self) -> int:
        """The per-time-step connectivity degree ``D_M`` (incl. self-loop)."""
        return self.cgra.connectivity_degree

    @property
    def num_edges(self) -> int:
        """Total number of (undirected) MRRG edges."""
        total = sum(self.degree(v) for v in self.vertices())
        return total // 2

    def capacity_per_slot(self) -> List[int]:
        """``|V_Mi|`` for every time step (constant for homogeneous arrays)."""
        return [self._num_pes] * self.ii

    def describe(self) -> str:
        """Human-readable summary used by examples and the CLI."""
        return (
            f"MRRG: {self.cgra.size_label} CGRA, II={self.ii}, "
            f"{self.num_vertices} vertices, {self.num_edges} edges, "
            f"time adjacency={self.time_adjacency}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MRRG(cgra={self.cgra.size_label}, ii={self.ii}, "
            f"time_adjacency={self.time_adjacency})"
        )
