"""Interconnect topologies for the 2D CGRA array.

The paper assumes that every MRRG vertex has the same connectivity degree
``D_M`` (3 for a 2x2 array, 5 for 3x3 and larger). Counting the self-loop
(a PE can always keep data in its own register file), this uniform degree
holds for a *torus* (mesh with wrap-around links) but not for an open mesh,
whose corner PEs have fewer neighbours. We therefore provide both:

* ``Topology.TORUS`` (default, matches the paper's degree figures), and
* ``Topology.MESH`` (open mesh, used in tests and ablations; the uniform
  degree assumption of the existence proof does not hold there).

A ``DIAGONAL`` variant (king-move mesh) is included as an architectural
extension point; it is exercised only by tests.
"""

from __future__ import annotations

import enum
from typing import List, Set, Tuple


class Topology(enum.Enum):
    """Supported PE interconnect topologies."""

    MESH = "mesh"
    TORUS = "torus"
    DIAGONAL = "diagonal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_ORTHOGONAL_OFFSETS: Tuple[Tuple[int, int], ...] = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIAGONAL_OFFSETS: Tuple[Tuple[int, int], ...] = _ORTHOGONAL_OFFSETS + (
    (-1, -1),
    (-1, 1),
    (1, -1),
    (1, 1),
)


def grid_neighbors(
    rows: int, cols: int, row: int, col: int, topology: Topology
) -> Set[Tuple[int, int]]:
    """Return the set of neighbouring grid positions of ``(row, col)``.

    The PE itself is never included; callers that need the "adjacent or
    self" relation (used throughout the mapping formulation because a PE can
    read its own register file) add the identity explicitly.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"position ({row}, {col}) outside a {rows}x{cols} grid")
    offsets = _DIAGONAL_OFFSETS if topology is Topology.DIAGONAL else _ORTHOGONAL_OFFSETS
    wrap = topology is Topology.TORUS
    here = (row, col)
    neighbors: Set[Tuple[int, int]] = set()
    for dr, dc in offsets:
        r, c = row + dr, col + dc
        if wrap:
            r %= rows
            c %= cols
        elif not (0 <= r < rows and 0 <= c < cols):
            continue
        if (r, c) != here:
            neighbors.add((r, c))
    return neighbors


def all_positions(rows: int, cols: int) -> List[Tuple[int, int]]:
    """Enumerate grid positions in row-major order."""
    return [(r, c) for r in range(rows) for c in range(cols)]
