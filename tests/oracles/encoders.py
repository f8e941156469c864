"""The per-clause time-phase encoders, kept as a differential oracle.

:mod:`repro.smt.csp` and :mod:`repro.smt.cardinality` write their clauses
into the flat :class:`~repro.smt.cnf.CNF` buffer as whole blocks computed
by index arithmetic. This module is the clause-at-a-time formulation they
replaced, transcribed: the regular encoding of an integer's domain, the
sequential counter, the residue-class indicators and the difference
constraint, each emitting one Python list per clause into a list of
lists. ``tests/test_encoder_properties.py`` checks that the bulk encoders
emit exactly the same literal stream, clause sizes, variable numbering
and indicator cache.

Do not optimise this module: its value is being the obvious form.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.smt.cnf import FALSE_LIT, TRUE_LIT, VariablePool, negate
from repro.smt.csp import IntVar


class ListCNF:
    """A CNF as a list of clause lists, with the constant simplification."""

    def __init__(self) -> None:
        self.pool = VariablePool()
        self.clauses: List[List[int]] = []
        self.contradiction = False

    @property
    def num_vars(self) -> int:
        return self.pool.num_vars

    def add_clause(self, literals: Iterable) -> None:
        clause: List[int] = []
        seen = set()
        for lit in literals:
            if lit == TRUE_LIT:
                return
            if lit == FALSE_LIT:
                continue
            if lit not in seen:
                if -lit in seen:
                    return  # tautology
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self.contradiction = True
            return
        self.clauses.append(clause)

    def add_clause_clean(self, clause: List[int]) -> None:
        self.clauses.append(clause)

    def flat(self) -> Tuple[List[int], List[int]]:
        """The clauses as the flat ``(lits, sizes)`` pair."""
        return ([lit for clause in self.clauses for lit in clause],
                [len(clause) for clause in self.clauses])


def at_least_one(cnf: ListCNF, literals: Sequence) -> None:
    cnf.add_clause(list(literals))


def at_most_one(cnf: ListCNF, literals: Sequence) -> None:
    lits = [l for l in literals if l != FALSE_LIT]
    if any(l == TRUE_LIT for l in lits):
        for lit in [l for l in lits if l != TRUE_LIT]:
            cnf.add_clause([negate(lit)])
        return
    if len(lits) <= 6:
        negated = [negate(l) for l in lits]
        for i in range(len(negated)):
            for j in range(i + 1, len(negated)):
                cnf.add_clause_clean([negated[i], negated[j]])
        return
    at_most_k(cnf, lits, 1)


def at_most_k(cnf: ListCNF, literals: Sequence, k: int) -> None:
    """Sinz's sequential counter, one clause per call."""
    lits = [l for l in literals if l != FALSE_LIT]
    forced_true = sum(1 for l in lits if l == TRUE_LIT)
    lits = [l for l in lits if l != TRUE_LIT]
    k = k - forced_true
    n = len(lits)
    if k < 0:
        cnf.add_clause([])
        return
    if k >= n:
        return
    if k == 0:
        for lit in lits:
            cnf.add_clause([negate(lit)])
        return
    base = cnf.pool.reserve(n * k)
    registers = [list(range(base + i * k, base + (i + 1) * k))
                 for i in range(n)]
    negated = [negate(l) for l in lits]
    cnf.add_clause_clean([negated[0], registers[0][0]])
    for j in range(1, k):
        cnf.add_clause_clean([-registers[0][j]])
    for i in range(1, n):
        row, prev = registers[i], registers[i - 1]
        cnf.add_clause_clean([negated[i], row[0]])
        cnf.add_clause_clean([-prev[0], row[0]])
        for j in range(1, k):
            cnf.add_clause_clean([negated[i], -prev[j - 1], row[j]])
            cnf.add_clause_clean([-prev[j], row[j]])
        cnf.add_clause_clean([negated[i], -prev[k - 1]])


def new_int(cnf: ListCNF, name: str, lo: int, hi: int) -> IntVar:
    """Reserve the direct and order blocks, then encode the domain."""
    size = hi - lo + 1
    var = IntVar(name, lo, hi, direct=cnf.pool.reserve(size),
                 order=cnf.pool.reserve(size - 1))
    encode_domain(cnf, var)
    return var


def encode_domain(cnf: ListCNF, var: IntVar) -> None:
    """Order ladder, direct <-> order channeling, exactly-one."""
    direct, order = var.direct, var.order
    num_order = var.hi - var.lo
    for le_v in range(order, order + num_order - 1):
        cnf.add_clause_clean([-le_v, le_v + 1])
    for rank in range(num_order + 1):
        lit = direct + rank
        le_v = order + rank
        has_le = rank < num_order
        has_prev = rank > 0
        if has_le:
            cnf.add_clause_clean([-lit, le_v])
        if has_prev:
            cnf.add_clause_clean([-lit, -(le_v - 1)])
        if has_le and has_prev:
            cnf.add_clause_clean([-le_v, le_v - 1, lit])
        elif has_le:
            cnf.add_clause_clean([-le_v, lit])
        elif has_prev:
            cnf.add_clause_clean([le_v - 1, lit])
        else:
            cnf.add_clause_clean([lit])
    literals = list(range(direct, direct + num_order + 1))
    at_least_one(cnf, literals)
    at_most_one(cnf, literals)


def value_literal(var: IntVar, value: int):
    if value < var.lo or value > var.hi:
        return FALSE_LIT
    return var.direct + value - var.lo


def le_literal(var: IntVar, value: int):
    if value < var.lo:
        return FALSE_LIT
    if value >= var.hi:
        return TRUE_LIT
    return var.order + value - var.lo


def mod_indicator(cnf: ListCNF, cache: Dict[Tuple[str, int, int], int],
                  var: IntVar, modulus: int, residue: int):
    """``[var == t] -> indicator`` for every ``t`` of the residue class."""
    residue %= modulus
    key = (var.name, modulus, residue)
    if key in cache:
        return cache[key]
    first = var.lo + (residue - var.lo) % modulus
    if first > var.hi:
        return FALSE_LIT
    indicator = cnf.pool.new_var()
    for t in range(first, var.hi + 1, modulus):
        cnf.add_clause([negate(value_literal(var, t)), indicator])
    cache[key] = indicator
    return indicator


def add_ge(cnf: ListCNF, y: IntVar, x: IntVar, delta: int) -> None:
    """``[y <= t] -> [x <= t - delta]`` for every value ``t`` of ``y``."""
    for t in range(y.lo, y.hi + 1):
        lhs = le_literal(y, t)
        rhs = le_literal(x, t - delta)
        if rhs is TRUE_LIT:
            continue
        if type(lhs) is int and type(rhs) is int and lhs != rhs:
            cnf.add_clause_clean([-lhs, rhs])
        else:
            cnf.add_clause([negate(lhs), rhs])
