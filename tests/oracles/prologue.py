"""Eager and quadratic forms of two per-case prologue passes.

The package builds a PE's neighbour set on first use and orders pattern
vertices with incrementally kept counts; these are the whole-fabric
table and the rescanning ordering they replaced, kept as the oracles
that the lazy and incremental forms must reproduce exactly (iteration
order included, since the space search's candidate order follows it).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set

from repro.arch.topology import Topology, grid_neighbors


def neighbor_table(rows: int, cols: int, topology: Topology) -> List[FrozenSet[int]]:
    """Row-major neighbour indices of every PE (self excluded), in one pass.

    Each set is filled from the :func:`grid_neighbors` position set, so
    its iteration order is the one the space search has always seen.
    """
    return [
        frozenset([r * cols + c
                   for r, c in grid_neighbors(rows, cols, row, col, topology)])
        for row in range(rows)
        for col in range(cols)
    ]


def most_constrained_first_order(
    vertices: Sequence[int], adjacency: Dict[int, Set[int]]
) -> List[int]:
    """GreatestConstrainedFirst ordering, rescanning every vertex per step.

    Start from the highest-degree vertex; repeatedly append the vertex with
    the most neighbours already in the ordering, breaking ties by the
    number of neighbours adjacent to the ordered set's frontier and then by
    total degree. Disconnected components are started again from their
    highest-degree vertex.
    """
    remaining: Set[int] = set(vertices)
    order: List[int] = []
    ordered: Set[int] = set()
    while remaining:
        if not order or all(
            not (adjacency.get(v, set()) & ordered) for v in remaining
        ):
            seed = max(remaining, key=lambda v: (len(adjacency.get(v, ())), -v))
            order.append(seed)
            ordered.add(seed)
            remaining.discard(seed)
            continue
        best = None
        best_key = None
        for v in remaining:
            neighbors = adjacency.get(v, set())
            in_ordered = len(neighbors & ordered)
            if in_ordered == 0:
                continue
            frontier = sum(
                1 for u in neighbors - ordered if adjacency.get(u, set()) & ordered
            )
            key = (in_ordered, frontier, len(neighbors), -v)
            if best_key is None or key > best_key:
                best_key = key
                best = v
        order.append(best)
        ordered.add(best)
        remaining.discard(best)
    return order
