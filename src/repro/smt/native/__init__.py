"""Tier selection for the ``native`` solver backend.

``solver_backend="native"`` is a *request for the fastest available
implementation* of the arena CDCL solver, not a single implementation:

1. ``native-c`` -- the cffi-compiled C kernel (:mod:`.ckernel` /
   :mod:`.csolver`), built lazily on first use and cached on disk;
2. ``arena`` -- the pure-Python flat-arena solver itself.

Both tiers produce results bit-identical to the arena solver (statuses,
failed cores, enumeration model sets, statistics), so degrading is silent
and safe. Selection happens at solve time, never at import or listing
time -- probing the C tier compiles the extension, which ``repro-map
list`` must not trigger. The ``native-c`` backend spelling forces the C
tier and raises when it is unavailable.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.obs import metrics

from ..sat import SATSolver
from . import ckernel

__all__ = [
    "c_solver_class",
    "selected_tier",
    "native_solver_class",
    "resolved_tier",
]


def c_solver_class() -> Type[SATSolver]:
    """The C-kernel solver class (may compile).

    Raises :class:`RuntimeError`, naming the build error, when the C
    kernel cannot be built or loaded: ``native-c`` and the differential
    backend matrix fail loudly rather than silently run a fallback.
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

    May compile the C extension on first call; call only when actually
    solving (or explicitly probing), never from listing code paths.
    """
    if ckernel.load_kernel() is not None:
        tier = "native-c"
    else:
        tier = "arena"
        # the C kernel could not be built or loaded: a silent-but-safe
        # downgrade worth counting
        metrics.inc("repro_solver_tier_degradations_total")
    metrics.inc("repro_solver_tier_selected_total", tier=tier)
    return tier


def resolved_tier(backend) -> Optional[str]:
    """Tier name a ``solver_backend`` value resolves to, or ``None``.

    ``"native"`` resolves to the selected tier (this may compile the C
    extension, so only call from solving code paths); the explicit tier
    spellings resolve to themselves; every other backend -- including the
    plain arena and reference kernels -- returns ``None`` because no tier
    selection takes place.
    """
    if backend == "native":
        return selected_tier()
    if backend == "native-c":
        return backend
    return None


def native_solver_class() -> Type[SATSolver]:
    """Solver class for the best available tier (may compile)."""
    return c_solver_class() if selected_tier() == "native-c" else SATSolver
