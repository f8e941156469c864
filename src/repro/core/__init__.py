"""Core of the reproduction: the decoupled space/time CGRA mapper.

The mapping flow (paper Sec. IV) is:

1. compute ``mII = max(ResII, RecII)`` for the DFG and target CGRA;
2. **time phase** (:mod:`repro.core.time_solver`): find a modulo schedule
   satisfying the modulo-scheduling, capacity and connectivity constraints,
   formulated over the Kernel Mobility Schedule and solved with the SAT/SMT
   substrate;
3. **space phase** (:mod:`repro.core.space_solver`): search a monomorphism
   from the slot-labelled DFG into the MRRG;
4. on failure, ask the time phase for the next schedule, or increase ``II``.

:class:`repro.core.mapper.MonomorphismMapper` drives the loop and returns a
:class:`repro.core.mapping.Mapping`, which :mod:`repro.core.validation` can
check against all paper properties (mono1/2/3 plus dependence timing).
"""

from repro.core.config import (
    BaselineConfig,
    HeuristicConfig,
    MapperConfig,
    PortfolioConfig,
)
from repro.core.engine import (
    ENGINE_ALIASES,
    ENGINE_DESCRIPTIONS,
    ENGINE_NAMES,
    Engine,
    create_engine,
    engine_choices,
    normalize_engine,
)
from repro.core.feasibility import (
    FeasibilityReport,
    analyze_feasibility,
    heterogeneous_res_ii,
)
from repro.core.exceptions import (
    MappingError,
    NoScheduleError,
    NoMappingError,
    PhaseTimeoutError,
    InvalidMappingError,
)
from repro.core.time_solver import IncrementalTimeSolver, Schedule
from repro.core.space_solver import SpaceSolver, MRRGTarget, SpaceResult
from repro.core.mapping import Mapping
from repro.core.mapper import MonomorphismMapper, MappingResult, MappingStatus
from repro.core.validation import validate_mapping, assert_valid_mapping

__all__ = [
    "BaselineConfig",
    "HeuristicConfig",
    "MapperConfig",
    "PortfolioConfig",
    "ENGINE_ALIASES",
    "ENGINE_DESCRIPTIONS",
    "ENGINE_NAMES",
    "Engine",
    "create_engine",
    "engine_choices",
    "normalize_engine",
    "FeasibilityReport",
    "analyze_feasibility",
    "heterogeneous_res_ii",
    "MappingError",
    "NoScheduleError",
    "NoMappingError",
    "PhaseTimeoutError",
    "InvalidMappingError",
    "Schedule",
    "IncrementalTimeSolver",
    "SpaceSolver",
    "MRRGTarget",
    "SpaceResult",
    "Mapping",
    "MonomorphismMapper",
    "MappingResult",
    "MappingStatus",
    "validate_mapping",
    "assert_valid_mapping",
]
