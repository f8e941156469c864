"""Test oracles: independent (slow or networkx-based) reference answers.

None of this ships in the installed package; the test-suite and
``benchmarks/bench_solver.py`` import it as ``oracles`` with ``tests/`` on
the import path (pytest's ``pythonpath`` setting in ``pyproject.toml``).

* :mod:`oracles.sat_reference` -- the pre-rewrite CDCL kernel, the
  differential-testing oracle and the ``BENCH_solver.json`` baseline.
* :mod:`oracles.brute_force` -- exhaustive model search for tiny CNFs.
* :mod:`oracles.graphs` -- networkx views of DFGs and MRRGs, RecII by
  simple-cycle enumeration and networkx's monomorphism matcher.
* :mod:`oracles.prologue` -- the whole-fabric neighbour table and the
  quadratic most-constrained-first ordering, which the lazy neighbour
  sets and the incremental ordering must reproduce exactly.
* :mod:`oracles.space` -- the space phase's neighbour query computed
  afresh per call, which the MRRG target's neighbour table must answer
  identically.
"""
