"""CNF clause buffer and variable pool.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negation of the corresponding variable. Two
pseudo-literals, :data:`TRUE_LIT` and :data:`FALSE_LIT`, are provided so that
encoders can return constants without special-casing call sites; they are
resolved when clauses are added.

A :class:`CNF` is a flat send buffer, the exact input of the SAT tiers'
bulk loaders: ``lits`` holds the literals of every clause back to back and
``sizes`` the length of each clause, both as ``array('i')``. The encoders
of :mod:`repro.smt.csp` and :mod:`repro.smt.cardinality` write whole
blocks of clauses into it by index arithmetic, one ``extend`` per block;
:class:`~repro.smt.csp.FiniteDomainProblem` hands the pair to its solver's
``add_clauses(lits, sizes)`` unchanged (the C tier reads the two arrays in
place) and clears it. :attr:`CNF.clauses` is a read view for inspection
and tests.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional

TRUE_LIT = "TRUE"
FALSE_LIT = "FALSE"


class VariablePool:
    """Allocates SAT variables ``1, 2, ...`` in order."""

    def __init__(self) -> None:
        self._next = 1

    @property
    def num_vars(self) -> int:
        return self._next - 1

    def new_var(self) -> int:
        """Allocate one fresh variable."""
        var = self._next
        self._next += 1
        return var

    def reserve(self, count: int) -> int:
        """Allocate ``count`` consecutive variables; returns the first one.

        The bulk path for encoders that need blocks of variables (an
        integer's literal blocks, sequential counters, occupancy
        indicators): one call instead of ``count`` :meth:`new_var` round
        trips.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._next
        self._next += count
        return first

    def rollback(self, num_vars: int) -> None:
        """Forget every variable above ``num_vars`` (scope retraction)."""
        if num_vars < 0 or num_vars > self.num_vars:
            raise ValueError(f"cannot roll back to {num_vars} variables")
        self._next = num_vars + 1


#: ``SIZE_1 * count`` / ``SIZE_2 * count``: the sizes of a block of
#: ``count`` unit / binary clauses
SIZE_1 = array("i", [1])
SIZE_2 = array("i", [2])


class CNF:
    """A growable CNF formula with constant-literal simplification.

    Clause ``i`` is ``lits[off_i : off_i + sizes[i]]`` where ``off_i`` is
    the sum of the sizes before it. Every buffered clause is clean: int
    literals only, non-empty, no duplicate or complementary literals.
    """

    def __init__(self, pool: Optional[VariablePool] = None) -> None:
        self.pool = pool if pool is not None else VariablePool()
        self.lits = array("i")
        self.sizes = array("i")
        self.contradiction = False

    @property
    def num_vars(self) -> int:
        return self.pool.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.sizes)

    @property
    def clauses(self) -> List[List[int]]:
        """The buffered clauses as literal lists (a read view)."""
        lits = self.lits.tolist()
        view: List[List[int]] = []
        offset = 0
        for size in self.sizes:
            view.append(lits[offset:offset + size])
            offset += size
        return view

    def clear(self) -> None:
        """Empty the buffer (after a drain into a solver, or a pop)."""
        del self.lits[:]
        del self.sizes[:]

    def new_var(self) -> int:
        return self.pool.new_var()

    def add_clause(self, literals: Iterable) -> None:
        """Add a clause, simplifying TRUE/FALSE pseudo-literals.

        A clause containing :data:`TRUE_LIT` is dropped; :data:`FALSE_LIT`
        literals are removed. An empty resulting clause marks the formula as
        contradictory.
        """
        clause: List[int] = []
        seen = set()
        seen_add = seen.add
        append = clause.append
        for lit in literals:
            # int literals first: they are the overwhelmingly common case,
            # and comparing an int against the TRUE/FALSE string sentinels
            # costs a slow cross-type dispatch per literal
            if type(lit) is int:
                if lit == 0:
                    raise ValueError(f"invalid literal {lit!r}")
                if lit not in seen:
                    if -lit in seen:
                        return  # tautology
                    seen_add(lit)
                    append(lit)
            elif lit == TRUE_LIT:
                return
            elif lit == FALSE_LIT:
                continue
            elif isinstance(lit, int):  # bool is an int subclass
                raise ValueError(f"invalid literal {lit!r}")
            else:
                raise ValueError(f"invalid literal {lit!r}")
        if not clause:
            self.contradiction = True
            return
        self.lits.fromlist(clause)
        self.sizes.append(len(clause))

    def add_clause_clean(self, clause: List[int]) -> None:
        """Append a pre-validated clause, skipping the simplification pass.

        The caller guarantees what :meth:`add_clause` normally establishes:
        only int literals (no TRUE/FALSE sentinels), non-empty, no
        duplicate or complementary literals.
        """
        self.lits.fromlist(clause)
        self.sizes.append(len(clause))

    def add_block(self, lits: List[int], sizes: array) -> None:
        """Append a block of clean clauses in one go.

        ``lits`` is the block's literals back to back and ``sizes`` its
        clause lengths, under the guarantees of :meth:`add_clause_clean`.
        The bulk encoders compute both by index arithmetic.
        """
        self.lits.fromlist(lits)
        self.sizes += sizes

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"


def negate(literal):
    """Negate a literal, handling the TRUE/FALSE pseudo-literals."""
    if literal == TRUE_LIT:
        return FALSE_LIT
    if literal == FALSE_LIT:
        return TRUE_LIT
    return -literal
