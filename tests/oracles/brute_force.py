"""Exhaustive model search: the SAT oracle for tiny formulas."""

from __future__ import annotations

import itertools

from repro.smt.cnf import CNF
from repro.smt.sat import SolveResult, SolveStatus


def solve_brute_force(cnf: CNF, max_vars: int = 22) -> SolveResult:
    """Exhaustive model search for tiny formulas."""
    if cnf.contradiction:
        return SolveResult(SolveStatus.UNSAT)
    n = cnf.num_vars
    if n > max_vars:
        raise ValueError(f"brute force limited to {max_vars} variables, got {n}")
    clauses = cnf.clauses
    for bits in itertools.product([False, True], repeat=n):
        assignment = {v: bits[v - 1] for v in range(1, n + 1)}
        ok = True
        for clause in clauses:
            if not any(
                assignment[abs(l)] if l > 0 else not assignment[abs(l)]
                for l in clause
            ):
                ok = False
                break
        if ok:
            return SolveResult(SolveStatus.SAT, model=assignment)
    return SolveResult(SolveStatus.UNSAT)
