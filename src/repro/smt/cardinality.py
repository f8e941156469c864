"""Cardinality constraint encodings.

The time-phase formulation needs two cardinality families (paper Sec. IV-B):

* **capacity** -- at most ``|V_Mi|`` nodes per kernel slot, and
* **connectivity** -- at most ``D_M`` neighbours of a node per kernel slot.

Both are encoded here as CNF clauses over indicator literals. Small bounds
use the pairwise encoding; larger ones use the sequential-counter (Sinz)
encoding, which is linear in ``n * k`` and propagates well with unit
propagation.

Every encoder writes its clauses into the :class:`~repro.smt.cnf.CNF`
buffer as whole blocks: the clause shapes are fixed, so each literal
column of a block is a ``range`` over a reserved variable block, assigned
by one extended-slice store.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence

from repro.smt.cnf import CNF, SIZE_1, SIZE_2, TRUE_LIT

#: pairwise at-most-one over ``m <= 6`` literals: the literal index pairs
#: ``(i, j)``, ``i < j``, in emission order, flattened
_PAIRS: Dict[int, List[int]] = {
    m: [index for i in range(m) for j in range(i + 1, m) for index in (i, j)]
    for m in range(7)
}


def at_least_one(cnf: CNF, literals: Sequence[int]) -> None:
    """At least one of ``literals`` is true."""
    cnf.add_clause(list(literals))


def at_most_one(cnf: CNF, literals: Sequence[int]) -> None:
    """At most one of ``literals`` is true (pairwise/sequential hybrid)."""
    lits = [l for l in literals if type(l) is int]
    if len(lits) < len(literals) and TRUE_LIT in literals:
        cnf.add_block([-l for l in lits], SIZE_1 * len(lits))
        return
    if len(lits) <= 6:
        pairs = _PAIRS[len(lits)]
        cnf.add_block([-lits[index] for index in pairs], SIZE_2 * (len(pairs) // 2))
        return
    at_most_k(cnf, lits, 1)


def exactly_one(cnf: CNF, literals: Sequence[int]) -> None:
    """Exactly one of ``literals`` is true."""
    at_least_one(cnf, literals)
    at_most_one(cnf, literals)


def at_most_k(cnf: CNF, literals: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of ``sum(literals) <= k``.

    Register ``R(i, j)`` ("at least ``j+1`` of the first ``i+1`` literals
    are true") is variable ``base + i*k + j`` of one reserved block. Row 0
    is ``[-l0, R(0,0)]`` plus the units ``[-R(0,j)]``; every later row
    ``i`` is ``2k + 1`` clauses over ``-l_i``, row ``i-1`` and row ``i``::

        [-l_i, R(i,0)]  [-R(i-1,0), R(i,0)]
        [-l_i, -R(i-1,j-1), R(i,j)]  [-R(i-1,j), R(i,j)]   for 1 <= j < k
        [-l_i, -R(i-1,k-1)]

    so each literal column of the rows is a stride-``k`` range.
    """
    lits = [l for l in literals if type(l) is int]
    if len(lits) < len(literals):
        k -= sum(1 for l in literals if l == TRUE_LIT)
    n = len(lits)
    if k < 0:
        cnf.add_clause([])  # contradiction
        return
    if k >= n:
        return
    negated = [-l for l in lits]
    if k == 0:
        cnf.add_block(negated, SIZE_1 * n)
        return
    # after the sentinel filtering every literal is a plain int and every
    # register is fresh, so the counter clauses are clean by construction
    base = cnf.pool.reserve(n * k)
    head = [negated[0], base]
    head.extend(range(-(base + 1), -(base + k), -1))
    cnf.add_block(head, SIZE_2 + SIZE_1 * (k - 1))
    rows = n - 1
    width = 5 * k + 1
    block = [0] * (rows * width)
    tail = negated[1:]
    stop = base + n * k

    def reg(j: int) -> range:
        """``R(i, j)`` for rows ``i = 1 .. n-1``."""
        return range(base + k + j, stop + j, k)

    def not_prev(j: int) -> range:
        """``-R(i-1, j)`` for rows ``i = 1 .. n-1``."""
        return range(-(base + j), -(stop - k + j), -k)

    block[0::width] = tail
    block[1::width] = block[3::width] = reg(0)
    block[2::width] = not_prev(0)
    for j in range(1, k):
        col = 5 * j - 1
        block[col::width] = tail
        block[col + 1::width] = not_prev(j - 1)
        block[col + 2::width] = block[col + 4::width] = reg(j)
        block[col + 3::width] = not_prev(j)
    block[width - 2::width] = tail
    block[width - 1::width] = not_prev(k - 1)
    cnf.add_block(block, _row_sizes(k) * rows)


_ROW_SIZES: Dict[int, array] = {}


def _row_sizes(k: int) -> array:
    """Clause sizes of one counter row: ``2, 2, (3, 2) * (k-1), 2``."""
    sizes = _ROW_SIZES.get(k)
    if sizes is None:
        sizes = _ROW_SIZES[k] = array("i", [2, 2] + [3, 2] * (k - 1) + [2])
    return sizes
