"""CNF formula container and named variable pool.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negation of the corresponding variable. Two
pseudo-literals, :data:`TRUE_LIT` and :data:`FALSE_LIT`, are provided so that
encoders can return constants without special-casing call sites; they are
resolved when clauses are added.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

TRUE_LIT = "TRUE"
FALSE_LIT = "FALSE"


class VariablePool:
    """Allocates SAT variables, optionally associated with hashable keys."""

    def __init__(self) -> None:
        self._next = 1
        self._by_key: Dict[Hashable, int] = {}
        self._key_of: Dict[int, Hashable] = {}

    @property
    def num_vars(self) -> int:
        return self._next - 1

    def new_var(self, key: Optional[Hashable] = None) -> int:
        """Allocate a fresh variable, optionally registering it under ``key``."""
        var = self._next
        self._next += 1
        if key is not None:
            if key in self._by_key:
                raise ValueError(f"variable key {key!r} already allocated")
            self._by_key[key] = var
            self._key_of[var] = key
        return var

    def var(self, key: Hashable) -> int:
        """Return the variable registered under ``key`` (allocating if new)."""
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        return self.new_var(key)

    def reserve(self, count: int) -> int:
        """Allocate ``count`` anonymous variables; returns the first one.

        The bulk path for encoders that need blocks of auxiliary variables
        (sequential counters, occupancy indicators): one call instead of
        ``count`` :meth:`new_var` round trips.
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
        for var in range(num_vars + 1, self._next):
            key = self._key_of.pop(var, None)
            if key is not None:
                del self._by_key[key]
        self._next = num_vars + 1

    def lookup(self, key: Hashable) -> Optional[int]:
        return self._by_key.get(key)

    def key_of(self, var: int) -> Optional[Hashable]:
        return self._key_of.get(var)


class CNF:
    """A growable CNF formula with constant-literal simplification."""

    def __init__(self, pool: Optional[VariablePool] = None) -> None:
        self.pool = pool if pool is not None else VariablePool()
        self.clauses: List[List[int]] = []
        self.contradiction = False

    @property
    def num_vars(self) -> int:
        return self.pool.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def new_var(self, key: Optional[Hashable] = None) -> int:
        return self.pool.new_var(key)

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
        self.clauses.append(clause)

    def add_clause_clean(self, clause: List[int]) -> None:
        """Append a pre-validated clause, skipping the simplification pass.

        The caller guarantees what :meth:`add_clause` normally establishes:
        only int literals (no TRUE/FALSE sentinels), non-empty, no
        duplicate or complementary literals, and ownership of ``clause``
        (it is stored, not copied). Encoders whose construction rules make
        those properties structural (fresh auxiliary variables, distinct
        source literals) ship their high-volume clause streams through
        here.
        """
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def extend_implication(self, antecedent: int, consequent: int) -> None:
        """Add ``antecedent -> consequent``."""
        self.add_clause([negate(antecedent), consequent])

    def to_dimacs(self) -> str:
        """Serialise to DIMACS text (useful for debugging and tests)."""
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"


def negate(literal):
    """Negate a literal, handling the TRUE/FALSE pseudo-literals."""
    if literal == TRUE_LIT:
        return FALSE_LIT
    if literal == FALSE_LIT:
        return TRUE_LIT
    return -literal
