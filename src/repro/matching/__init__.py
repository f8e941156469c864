"""Subgraph monomorphism search.

The space phase of the mapper needs an *injective*, *label-preserving*,
*edge-preserving* function from the labelled DFG into the MRRG (paper
Sec. IV-A, properties mono1/mono2/mono3). This subpackage provides:

* :mod:`repro.matching.monomorphism` -- a depth-first search with
  conflict-directed backjumping that works against any target exposing
  label-indexed candidates and an adjacency oracle (the MRRG implements
  this implicitly, so the 20x20 CGRA never has to be materialised as an
  explicit graph).
* :mod:`repro.matching.ordering` -- the most-constrained-first
  pattern-vertex ordering (as in RI/VF3).

The networkx cross-check the test-suite runs on small instances lives
with the tests, in ``tests/oracles/graphs.py``.
"""

from repro.matching.monomorphism import (
    MonomorphismSearch,
    PatternGraph,
    ExplicitTargetGraph,
    SearchStats,
    SearchOutcome,
    find_monomorphism,
)
from repro.matching.ordering import most_constrained_first_order

__all__ = [
    "MonomorphismSearch",
    "PatternGraph",
    "ExplicitTargetGraph",
    "SearchStats",
    "SearchOutcome",
    "find_monomorphism",
    "most_constrained_first_order",
]
