"""SAT / SMT solving substrate.

The paper formulates the time phase as an SMT problem and solves it with Z3.
Z3 is not available in this offline reproduction, so this subpackage provides
the solver stack the rest of the library is built on:

* :mod:`repro.smt.cnf` -- CNF formula container and named variable pool.
* :mod:`repro.smt.sat` -- the flat-arena CDCL SAT solver (two-watched
  literals with a binary fast path, 1UIP clause learning, VSIDS branching,
  phase saving, Luby restarts with Glucose-style blocking, LBD-driven
  learnt-clause reduction, incremental push/pop and assumptions).
* :mod:`repro.smt.sat_reference` -- the pre-rewrite kernel, kept as the
  differential-testing oracle and the ``BENCH_solver.json`` baseline.
* :mod:`repro.smt.cardinality` -- at-most-k / at-least-k / exactly-k clause
  encodings (pairwise and sequential-counter).
* :mod:`repro.smt.csp` -- a finite-domain integer layer ("mini SMT"): integer
  variables with direct + order encoding, difference constraints and
  cardinality constraints, with model enumeration. This is the interface the
  time solver and the SAT-MapIt-style baseline are written against.
* :mod:`repro.smt.native` -- the cffi-compiled C tier of the arena kernel,
  which every SAT engine runs whenever it loads.
"""

from repro.smt.cnf import CNF, VariablePool, TRUE_LIT, FALSE_LIT
from repro.smt.sat import SATSolver, SolveStatus, SolveResult, solve_brute_force
from repro.smt.cardinality import (
    at_most_one,
    at_least_one,
    exactly_one,
    at_most_k,
    at_least_k,
    exactly_k,
)
from repro.smt.csp import (
    FiniteDomainProblem,
    IntVar,
    FDSolution,
)

__all__ = [
    "CNF",
    "VariablePool",
    "TRUE_LIT",
    "FALSE_LIT",
    "SATSolver",
    "SolveStatus",
    "SolveResult",
    "solve_brute_force",
    "at_most_one",
    "at_least_one",
    "exactly_one",
    "at_most_k",
    "at_least_k",
    "exactly_k",
    "FiniteDomainProblem",
    "IntVar",
    "FDSolution",
]
