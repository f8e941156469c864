"""The space phase's neighbour query, computed afresh on every call.

``MRRGTarget.neighbors_with_label`` answers repeated queries from a
table on heterogeneous fabrics. This is the per-query computation the
table replaced; every answer of the tabled query must equal it as a
sequence, order included, since the space search's candidate order
follows it.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.arch.mrrg import MRRG, TimeAdjacency


def neighbors_with_label(mrrg: MRRG, vertex: int, label: Hashable) -> List[int]:
    """MRRG neighbours of ``vertex`` carrying ``label`` (``(slot, opcode)``
    or a plain slot), in the iteration order of the PE's neighbour set."""
    if isinstance(label, tuple):
        slot, opcode = int(label[0]), label[1]
    else:
        slot, opcode = int(label), None
    if mrrg.time_adjacency is TimeAdjacency.CONSECUTIVE:
        diff = (mrrg.slot_of(vertex) - slot) % mrrg.ii
        if diff not in (0, 1, mrrg.ii - 1):
            return []
    base = slot * mrrg.cgra.num_pes
    reachable = mrrg.cgra.neighbors_or_self(mrrg.pe_of(vertex))
    if not mrrg.cgra.is_homogeneous and opcode is not None:
        reachable = reachable & mrrg.cgra.supporting_pes(opcode)
    return [base + pe for pe in reachable if base + pe != vertex]
