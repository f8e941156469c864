"""Subgraph monomorphism search with conflict-directed backjumping.

The searched function ``f`` must satisfy the paper's three properties:

* **mono1** -- ``f`` is injective (one operation per PE per time step),
* **mono2** -- labels are preserved (``l_G(v) == l_M(f(v))``),
* **mono3** -- every pattern edge maps onto a target edge.

The search is generic over the target graph: it only needs, per label, the
candidate target vertices, and an adjacency oracle. The MRRG adapter in
:mod:`repro.core.space_solver` provides both implicitly, so even a 20x20 CGRA
with II = 16 (6400 target vertices) is handled without materialising the
target graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Protocol, Sequence, Set

from repro.matching.ordering import most_constrained_first_order


class TargetGraph(Protocol):
    """Adjacency/candidate oracle the search runs against."""

    def candidates(self, label: Hashable) -> Iterable[int]:
        """All target vertices carrying ``label``."""
        ...

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether two distinct target vertices are connected."""
        ...

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        """Target neighbours of ``vertex`` carrying ``label``."""
        ...

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        """Candidates for the very first placed vertex.

        Targets with symmetries (e.g. a torus CGRA, which is
        vertex-transitive within a time step) may return a reduced set here
        to prune equivalent branches; returning ``candidates(label)`` is
        always correct.
        """
        ...


@dataclass
class PatternGraph:
    """The labelled undirected pattern (the scheduled DFG).

    Attributes:
        vertices: pattern vertex ids.
        labels: vertex -> label (the kernel slot in the mapper's use).
        adjacency: vertex -> set of adjacent vertices (undirected).

    The search's placement order (:attr:`order`) depends only on the
    vertices and the adjacency, so it is computed once per graph, and
    :meth:`relabel` hands it on to every relabelling.
    """

    vertices: List[int]
    labels: Dict[int, Hashable]
    adjacency: Dict[int, Set[int]]
    _order: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls, labels: Dict[int, Hashable], edges: Iterable[Sequence[int]]
    ) -> "PatternGraph":
        vertices = sorted(labels)
        adjacency: Dict[int, Set[int]] = {v: set() for v in vertices}
        for a, b in edges:
            if a == b:
                continue
            if a not in adjacency or b not in adjacency:
                raise ValueError(f"edge ({a}, {b}) references unknown vertices")
            adjacency[a].add(b)
            adjacency[b].add(a)
        return cls(vertices=vertices, labels=dict(labels), adjacency=adjacency)

    @property
    def order(self) -> List[int]:
        """The most-constrained-first placement order, built on first use."""
        if self._order is None:
            self._order = most_constrained_first_order(
                self.vertices, self.adjacency)
        return self._order

    def relabel(self, labels: Dict[int, Hashable]) -> "PatternGraph":
        """The same graph, and the same placement order, under ``labels``.

        ``labels`` must label exactly this graph's vertices. The copy
        shares the adjacency, which neither graph may change afterwards.
        """
        if labels.keys() != self.labels.keys():
            raise ValueError("labels must cover exactly the pattern's vertices")
        clone = PatternGraph(self.vertices, dict(labels), self.adjacency)
        clone._order = self.order
        return clone

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self.adjacency.values()) // 2

    def degree(self, vertex: int) -> int:
        return len(self.adjacency[vertex])


class ExplicitTargetGraph:
    """A target backed by explicit adjacency sets (tests, small examples)."""

    def __init__(self, labels: Dict[int, Hashable],
                 edges: Iterable[Sequence[int]]) -> None:
        self._labels = dict(labels)
        self._adjacency: Dict[int, Set[int]] = {v: set() for v in self._labels}
        for a, b in edges:
            if a == b:
                continue
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._by_label: Dict[Hashable, List[int]] = {}
        for v, label in self._labels.items():
            self._by_label.setdefault(label, []).append(v)

    def candidates(self, label: Hashable) -> Iterable[int]:
        return list(self._by_label.get(label, ()))

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        return self.candidates(label)

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, ())

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        return [u for u in self._adjacency.get(vertex, ())
                if self._labels.get(u) == label]

    def label(self, vertex: int) -> Hashable:
        return self._labels[vertex]


@dataclass
class SearchStats:
    """Counters describing one monomorphism search."""

    nodes_explored: int = 0
    backtracks: int = 0
    timed_out: bool = False


@dataclass
class SearchOutcome:
    """Result of :meth:`MonomorphismSearch.search`."""

    mapping: Optional[Dict[int, int]]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.mapping is not None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


class MonomorphismSearch:
    """Depth-first monomorphism search with conflict-directed backjumping.

    Pattern vertices are placed in a static most-constrained-first order.
    A vertex's candidates are the labelled target neighbours of its last
    mapped pattern neighbour (the *anchor*), filtered by injectivity and by
    adjacency to its other mapped neighbours. When a subtree fails, the
    search jumps straight back to the deepest placement that caused the
    failure (Prosser's CBJ, Comput. Intell. 1993) instead of retrying the
    placements in between. It skips only subtrees that contain no
    solution, so it returns the first mapping in the depth-first order.
    """

    def __init__(
        self,
        pattern: PatternGraph,
        target: TargetGraph,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.timeout_seconds = timeout_seconds
        self.order = pattern.order

    # ------------------------------------------------------------------ #
    def search(self) -> SearchOutcome:
        """Find one monomorphism, or report failure / timeout."""
        stats = SearchStats()
        deadline = (
            time.monotonic() + self.timeout_seconds
            if self.timeout_seconds is not None else None
        )
        target = self.target
        order = self.order
        labels = [self.pattern.labels[v] for v in order]
        depth_of = {v: d for d, v in enumerate(order)}
        # per depth: the depths of the already-placed pattern neighbours, in
        # adjacency order; the last one is the anchor
        earlier = [
            [depth_of[u] for u in self.pattern.adjacency[v] if depth_of[u] < d]
            for d, v in enumerate(order)
        ]
        images: List[int] = [0] * len(order)
        occupant: Dict[int, int] = {}  # target vertex -> depth placed there

        def extend(depth: int) -> Optional[int]:
            """Place ``order[depth:]``: None on success, else a conflict set.

            The conflict set is a bitmask of earlier depths whose placements
            together rule out every completion of this subtree.
            """
            if depth == len(order):
                return None
            if deadline is not None and stats.nodes_explored % 256 == 0:
                if time.monotonic() >= deadline:
                    stats.timed_out = True
                    return 0
            near = earlier[depth]
            conflicts = 0  # the label pool and the seed pin blame no placement
            if near:
                anchor = near[-1]
                conflicts = 1 << anchor
                pool = target.neighbors_with_label(images[anchor], labels[depth])
            elif depth == 0:
                pool = target.seed_candidates(labels[depth])
            else:
                pool = target.candidates(labels[depth])
            others = near[:-1]
            bit = 1 << depth
            for candidate in pool:
                holder = occupant.get(candidate)
                if holder is not None:
                    conflicts |= 1 << holder
                    continue
                for other in others:
                    if not target.are_adjacent(images[other], candidate):
                        conflicts |= 1 << other
                        break
                else:
                    stats.nodes_explored += 1
                    images[depth] = candidate
                    occupant[candidate] = depth
                    failed = extend(depth + 1)
                    if failed is None or stats.timed_out:
                        return failed
                    del occupant[candidate]
                    stats.backtracks += 1
                    if not failed & bit:
                        return failed  # this placement is not to blame
                    conflicts |= failed ^ bit
            return conflicts

        found = extend(0) is None
        mapping = {v: images[d] for d, v in enumerate(order)} if found else None
        return SearchOutcome(mapping=mapping, stats=stats)

    # ------------------------------------------------------------------ #
    def verify(self, mapping: Dict[int, int]) -> List[str]:
        """Check mono1/mono2/mono3 for a given mapping; return violations."""
        violations: List[str] = []
        if set(mapping) != set(self.pattern.vertices):
            violations.append("mapping does not cover all pattern vertices")
        images = list(mapping.values())
        if len(set(images)) != len(images):
            violations.append("mono1 violated: mapping is not injective")
        for vertex, image in mapping.items():
            label = self.pattern.labels[vertex]
            if image not in set(self.target.candidates(label)):
                violations.append(
                    f"mono2 violated: vertex {vertex} (label {label}) "
                    f"mapped to {image}"
                )
        for vertex in self.pattern.vertices:
            for other in self.pattern.adjacency[vertex]:
                if vertex < other and vertex in mapping and other in mapping:
                    if not self.target.are_adjacent(mapping[vertex], mapping[other]):
                        violations.append(
                            f"mono3 violated: edge ({vertex}, {other}) not preserved"
                        )
        return violations


def find_monomorphism(
    pattern: PatternGraph,
    target: TargetGraph,
    timeout_seconds: Optional[float] = None,
) -> SearchOutcome:
    """Convenience wrapper: build a search object and run it."""
    return MonomorphismSearch(pattern, target, timeout_seconds).search()
