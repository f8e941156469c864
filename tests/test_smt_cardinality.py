"""Property tests for the cardinality encodings (capacity / connectivity)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.cardinality import at_most_k, at_most_one, exactly_one
from repro.smt.cnf import CNF, TRUE_LIT, FALSE_LIT
from repro.smt.sat import SATSolver


def _count_models(cnf: CNF, variables):
    """Count models projected onto ``variables`` by enumeration."""
    solver = SATSolver.from_cnf(cnf)
    count = 0
    while True:
        result = solver.solve()
        if not result.is_sat:
            return count
        count += 1
        solver.add_clause([
            -v if result.value(v) else v for v in variables
        ])
        if count > 4096:  # pragma: no cover - safety net
            raise AssertionError("runaway enumeration")


def _expected_models(n: int, predicate):
    return sum(
        1 for bits in itertools.product([False, True], repeat=n)
        if predicate(sum(bits))
    )


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       k=st.integers(min_value=0, max_value=8))
def test_at_most_k_model_count(n, k):
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(n)]
    at_most_k(cnf, variables, k)
    assert _count_models(cnf, variables) == _expected_models(n, lambda s: s <= k)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_exactly_one_model_count(n):
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(n)]
    exactly_one(cnf, variables)
    assert _count_models(cnf, variables) == n


@pytest.mark.parametrize("n", [2, 3, 7, 9])
def test_at_most_one_model_count(n):
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(n)]
    at_most_one(cnf, variables)
    assert _count_models(cnf, variables) == n + 1


def test_constant_literals_are_handled():
    cnf = CNF()
    variables = [cnf.new_var() for _ in range(3)]
    # one TRUE literal consumes one unit of the bound
    at_most_k(cnf, variables + [TRUE_LIT], 1)
    assert _count_models(cnf, variables) == 1  # all three must be false... plus
    # FALSE literals are ignored entirely
    cnf2 = CNF()
    variables2 = [cnf2.new_var() for _ in range(3)]
    at_most_one(cnf2, variables2 + [FALSE_LIT])
    assert _count_models(cnf2, variables2) == 4


def test_impossible_bounds_produce_contradiction():
    cnf = CNF()
    at_most_k(cnf, [TRUE_LIT, TRUE_LIT], 1)
    assert cnf.contradiction
    assert SATSolver.from_cnf(cnf).solve().is_unsat
