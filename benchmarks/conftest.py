"""Configuration shared by the gated benchmark suites.

Each module here asserts a ratio claim and appends a per-commit record to
a ``BENCH_*.json`` artifact's ``history`` list, which
``tools/check_bench.py`` judges; docs/performance.md maps every claim to
its module, label and CI step. Run one with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_opt.py

The paper exhibits themselves are regenerated by ``repro-map table1``,
``table3``, ``fig5`` and ``ablation``; end-to-end and per-layer timings
belong to ``perfbench/``.
"""

from __future__ import annotations

import pytest

#: Per-case compilation budget used throughout the harness (seconds).
BENCH_TIMEOUT_SECONDS = 12.0


@pytest.fixture(scope="session")
def bench_timeout() -> float:
    return BENCH_TIMEOUT_SECONDS
