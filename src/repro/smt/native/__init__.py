"""Tier selection: the C kernel when it loads, else the arena kernel.

Every SAT engine runs ``solver_backend="native"`` unless it is pinned to
arena, and ``"native"`` resolves to the fastest available implementation
of the arena CDCL solver:

1. ``native-c`` -- :class:`.csolver.CSATSolver`, a thin wrapper whose
   whole solver state lives in one object of the cffi-compiled C kernel
   (:mod:`.ckernel`), built lazily on first use and cached on disk;
2. ``arena`` -- the pure-Python flat-arena solver itself, when cffi or a
   C compiler is missing (one degradation is counted).

Both tiers produce results bit-identical to the arena solver (statuses,
failed cores, enumeration model sets, statistics), so degrading is silent
and safe. Selection happens once per engine run, at solve time, never at
import or listing time -- probing the C tier compiles the extension,
which ``repro-map list`` must not trigger.
"""

from __future__ import annotations

from repro.obs import metrics

from ..sat import SATSolver
from . import ckernel

__all__ = [
    "c_solver_class",
    "selected_tier",
    "native_solver_class",
]


def c_solver_class() -> type:
    """The C-kernel solver class (may compile).

    Raises :class:`RuntimeError`, naming the build error, when the C
    kernel cannot be built or loaded: the differential tests that pin the
    C tier fail loudly rather than silently compare arena with itself.
    """
    if ckernel.load_kernel() is None:
        raise RuntimeError(
            "native solver tier 'native-c' is unavailable: "
            f"{ckernel.kernel_error() or 'C kernel unavailable'}"
        )
    from .csolver import CSATSolver

    return CSATSolver


def selected_tier() -> str:
    """Name of the tier ``solver_backend="native"`` resolves to.

    Counts one selection, like :func:`native_solver_class`. May compile
    the C extension on first call; call only when actually solving (or
    explicitly probing), never from listing code paths.
    """
    return native_solver_class().tier


def native_solver_class() -> type:
    """Solver class for the best available tier (may compile).

    Counts one selection, and one degradation when the C kernel is
    unavailable.
    """
    if ckernel.load_kernel() is not None:
        cls = c_solver_class()
    else:
        cls = SATSolver
        # the C kernel could not be built or loaded: a silent-but-safe
        # downgrade worth counting
        metrics.inc("repro_solver_tier_degradations_total")
    metrics.inc("repro_solver_tier_selected_total", tier=cls.tier)
    return cls
