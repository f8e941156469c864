"""Pattern-vertex ordering for the monomorphism search.

A good static ordering is the main lever for search performance in
RI / VF3-style matchers: placing highly connected vertices early maximises
the pruning obtained from the adjacency checks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


def most_constrained_first_order(
    vertices: Sequence[int], adjacency: Dict[int, Set[int]]
) -> List[int]:
    """GreatestConstrainedFirst ordering (RI-style).

    Start from the highest-degree vertex; repeatedly append the vertex with
    the most neighbours already in the ordering (so every new vertex is
    maximally constrained when the search reaches it), breaking ties by the
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
