"""Tier selection for the ``native`` solver backend.

``solver_backend="native"`` is a *request for the fastest available
implementation* of the arena CDCL solver, not a single implementation:

1. ``native-c`` -- the cffi-compiled C kernel (:mod:`.ckernel` /
   :mod:`.csolver`), built lazily on first use and cached on disk;
2. ``arena`` -- the pure-Python flat-arena solver itself.

Each tier is described by a :class:`NativeKernel` and produces results
bit-identical to the arena solver (statuses, failed cores, enumeration
model sets, statistics), so degrading is silent and safe. Selection
happens at solve time, never at import or listing time -- probing the C
tier compiles the extension, which ``repro-map list`` must not trigger.

``REPRO_NATIVE_TIER`` overrides the selection order: ``c`` or ``arena``
force a tier (raising if it is unavailable, for CI and
differential tests), ``auto`` (or unset) keeps the default order.
"""

from __future__ import annotations

import os
from typing import List, Optional, Type

from repro.obs import metrics

from ..sat import SATSolver
from . import ckernel

__all__ = [
    "NativeKernel",
    "KERNEL_TIERS",
    "selected_tier",
    "native_solver_class",
    "tier_solver_class",
    "tier_names",
    "resolved_tier",
]


class NativeKernel:
    """One implementation tier of the native solver backend."""

    #: tier name as reported in stats and accepted by REPRO_NATIVE_TIER
    name: str = ""

    def available(self) -> bool:
        raise NotImplementedError

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is False (None when available)."""
        return None if self.available() else "unavailable"

    def solver_class(self) -> Type[SATSolver]:
        raise NotImplementedError


class _CKernel(NativeKernel):
    name = "native-c"

    def available(self) -> bool:
        return ckernel.load_kernel() is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None
        return ckernel.kernel_error() or "C kernel unavailable"

    def solver_class(self) -> Type[SATSolver]:
        from .csolver import CSATSolver

        return CSATSolver


class _ArenaKernel(NativeKernel):
    name = "arena"

    def available(self) -> bool:
        return True

    def solver_class(self) -> Type[SATSolver]:
        return SATSolver


#: selection order, best first; "arena" is the always-available floor
KERNEL_TIERS: List[NativeKernel] = [
    _CKernel(),
    _ArenaKernel(),
]

_ENV_VAR = "REPRO_NATIVE_TIER"
_ENV_ALIASES = {
    "c": "native-c",
    "native-c": "native-c",
    "arena": "arena",
}


def tier_names() -> List[str]:
    """Tier names in selection order (no availability probing)."""
    return [tier.name for tier in KERNEL_TIERS]


def _tier_by_name(name: str) -> NativeKernel:
    for tier in KERNEL_TIERS:
        if tier.name == name:
            return tier
    raise ValueError(
        f"unknown native solver tier {name!r}; "
        f"expected one of {', '.join(tier_names())}"
    )


def _forced_tier() -> Optional[NativeKernel]:
    raw = os.environ.get(_ENV_VAR, "").strip().lower()
    if not raw or raw == "auto":
        return None
    if raw not in _ENV_ALIASES:
        raise ValueError(
            f"{_ENV_VAR}={raw!r} is not a valid tier; expected "
            "c|arena|auto"
        )
    tier = _tier_by_name(_ENV_ALIASES[raw])
    if not tier.available():
        raise RuntimeError(
            f"{_ENV_VAR}={raw!r} forces the {tier.name!r} tier, "
            f"which is unavailable: {tier.unavailable_reason()}"
        )
    return tier


def _select() -> NativeKernel:
    forced = _forced_tier()
    if forced is not None:
        metrics.inc("repro_solver_tier_selected_total", tier=forced.name)
        return forced
    for index, tier in enumerate(KERNEL_TIERS):
        if tier.available():
            metrics.inc("repro_solver_tier_selected_total", tier=tier.name)
            if index > 0:
                # the C kernel could not be built or loaded: a
                # silent-but-safe downgrade worth counting
                metrics.inc("repro_solver_tier_degradations_total")
            return tier
    return KERNEL_TIERS[-1]  # pragma: no cover - arena is always available


def selected_tier() -> str:
    """Name of the tier ``solver_backend="native"`` resolves to.

    May compile the C extension on first call; call only when actually
    solving (or explicitly probing), never from listing code paths.
    """
    return _select().name


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
    return _select().solver_class()


def tier_solver_class(name: str) -> Type[SATSolver]:
    """Solver class for an explicitly named tier.

    Raises :class:`RuntimeError` when the tier exists but is unavailable
    (used by the differential backend matrix to fail loudly rather than
    silently testing a fallback).
    """
    tier = _tier_by_name(name)
    if not tier.available():
        raise RuntimeError(
            f"native solver tier {name!r} is unavailable: "
            f"{tier.unavailable_reason()}"
        )
    return tier.solver_class()
