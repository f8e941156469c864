"""Experiment drivers regenerating the paper's tables and figures.

Every table and figure of the paper's evaluation section has a driver here:

* Table I / Table II -- :mod:`repro.experiments.table1_table2`
  (ASAP/ALAP/MobS and KMS of the running example).
* Table III -- :mod:`repro.experiments.table3` (II and compilation time of
  the decoupled mapper vs. the SAT-MapIt-style baseline on the 17 benchmarks
  and four CGRA sizes).
* Fig. 5 -- :mod:`repro.experiments.fig5` (compilation time vs. CGRA size
  for the ``aes`` benchmark).
* Design ablations (not a paper exhibit, but the design choices of
  Sec. IV-B/IV-C) -- :mod:`repro.experiments.ablation`.
* Architecture-scenario sweep (beyond the paper: II across heterogeneous
  fabrics described by :mod:`repro.arch.spec`) --
  :mod:`repro.experiments.arch_sweep`.
* Opt-level sweep (beyond the paper: II / compile-time deltas of the
  :mod:`repro.opt` pre-mapping pass pipelines) --
  :mod:`repro.experiments.opt_sweep`.

The drivers print ASCII tables/figures, can emit CSV, and are callable both
as modules (``python -m repro.experiments.table3``) and from the benchmark
harness under ``benchmarks/``. The values reported in the paper are kept in
:mod:`repro.experiments.paper_data` so every run shows paper-vs-measured
side by side.
"""

from repro.experiments.batch import (
    BatchCase,
    BatchReport,
    BatchRunner,
    build_cases,
    results_by_case,
)
from repro.experiments.arch_sweep import build_arch_cases
from repro.experiments.opt_sweep import build_opt_cases
from repro.experiments.runner import (
    CaseResult,
    build_cgra,
    build_cgra_from_arch,
    run_case,
)
from repro.experiments.paper_data import PAPER_TABLE3, PaperEntry

__all__ = [
    "BatchCase",
    "BatchReport",
    "BatchRunner",
    "CaseResult",
    "build_arch_cases",
    "build_cases",
    "build_opt_cases",
    "build_cgra",
    "build_cgra_from_arch",
    "results_by_case",
    "run_case",
    "PAPER_TABLE3",
    "PaperEntry",
]
