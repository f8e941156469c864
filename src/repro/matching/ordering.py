"""Pattern-vertex ordering for the monomorphism search.

A good static ordering is the main lever for search performance in
RI / VF3-style matchers: placing highly connected vertices early maximises
the pruning obtained from the adjacency checks.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple


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

    The two counts are kept per vertex and updated as vertices are placed;
    the largest ``(in_ordered, frontier, degree, -v)`` key comes off a heap
    whose stale entries are skipped, so the ordering costs O((V+E) log V).
    """
    remaining = set(vertices)
    degree = {v: len(adjacency.get(v, ())) for v in remaining}
    listed_by: Dict[int, List[int]] = defaultdict(list)  # u -> v with u in adjacency[v]
    for v, neighbors in adjacency.items():
        for u in neighbors:
            listed_by[u].append(v)
    in_ordered: Dict[int, int] = defaultdict(int)
    frontier: Dict[int, int] = defaultdict(int)

    def key(v: int) -> Tuple[int, int, int, int]:
        return (-in_ordered[v], -frontier[v], -degree[v], v)

    seeds = iter(sorted(remaining, key=lambda v: (-degree[v], v)))
    heap: List[Tuple[int, int, int, int]] = []
    order: List[int] = []
    ordered: Set[int] = set()
    while remaining:
        best = None
        while heap and best is None:
            entry = heapq.heappop(heap)
            if entry[3] in remaining and entry == key(entry[3]):
                best = entry[3]
        if best is None:  # nothing touches the ordering: seed a component
            best = next(v for v in seeds if v in remaining)
        order.append(best)
        ordered.add(best)
        remaining.discard(best)
        # best leaves the frontier it was in; each vertex it gives a first
        # ordered neighbour joins the frontier of every vertex listing it
        was_frontier = in_ordered[best] > 0
        changed = set(listed_by[best])
        for v in listed_by[best]:
            in_ordered[v] += 1
            frontier[v] -= was_frontier
            if in_ordered[v] == 1 and v not in ordered:
                for w in listed_by[v]:
                    frontier[w] += 1
                    changed.add(w)
        for v in changed:
            if v in remaining and in_ordered[v]:
                heapq.heappush(heap, key(v))
    return order
