"""Cardinality constraint encodings.

The time-phase formulation needs two cardinality families (paper Sec. IV-B):

* **capacity** -- at most ``|V_Mi|`` nodes per kernel slot, and
* **connectivity** -- at most ``D_M`` neighbours of a node per kernel slot.

Both are encoded here as CNF clauses over indicator literals. Small bounds
use the pairwise encoding; larger ones use the sequential-counter (Sinz)
encoding, which is linear in ``n * k`` and propagates well with unit
propagation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.smt.cnf import CNF, FALSE_LIT, TRUE_LIT, negate


def at_least_one(cnf: CNF, literals: Sequence[int]) -> None:
    """At least one of ``literals`` is true."""
    cnf.add_clause(list(literals))


def at_most_one(cnf: CNF, literals: Sequence[int]) -> None:
    """At most one of ``literals`` is true (pairwise/sequential hybrid)."""
    lits = [l for l in literals if l != FALSE_LIT]
    if any(l == TRUE_LIT for l in lits):
        concrete = [l for l in lits if l != TRUE_LIT]
        for lit in concrete:
            cnf.add_clause([negate(lit)])
        return
    if len(lits) <= 6:
        add_clean = cnf.add_clause_clean
        negated = [negate(l) for l in lits]
        for i in range(len(negated)):
            for j in range(i + 1, len(negated)):
                add_clean([negated[i], negated[j]])
        return
    at_most_k(cnf, lits, 1)


def exactly_one(cnf: CNF, literals: Sequence[int]) -> None:
    """Exactly one of ``literals`` is true."""
    at_least_one(cnf, literals)
    at_most_one(cnf, literals)


def at_most_k(cnf: CNF, literals: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of ``sum(literals) <= k``."""
    lits = [l for l in literals if l != FALSE_LIT]
    forced_true = sum(1 for l in lits if l == TRUE_LIT)
    lits = [l for l in lits if l != TRUE_LIT]
    k = k - forced_true
    n = len(lits)
    if k < 0:
        cnf.add_clause([])  # contradiction
        return
    if k >= n:
        return
    if k == 0:
        for lit in lits:
            cnf.add_clause([negate(lit)])
        return
    # registers[i][j] is true if at least j+1 of the first i+1 literals are
    # true; after the sentinel filtering above every literal is a plain int
    # and every register is fresh, so the counter clauses are clean by
    # construction and take the CNF fast path
    base = cnf.pool.reserve(n * k)
    registers: List[List[int]] = [
        list(range(base + i * k, base + (i + 1) * k)) for i in range(n)
    ]
    add_clean = cnf.add_clause_clean
    negated = [negate(l) for l in lits]
    add_clean([negated[0], registers[0][0]])
    for j in range(1, k):
        add_clean([-registers[0][j]])
    for i in range(1, n):
        neg_lit = negated[i]
        row = registers[i]
        prev = registers[i - 1]
        add_clean([neg_lit, row[0]])
        add_clean([-prev[0], row[0]])
        for j in range(1, k):
            add_clean([neg_lit, -prev[j - 1], row[j]])
            add_clean([-prev[j], row[j]])
        add_clean([neg_lit, -prev[k - 1]])
