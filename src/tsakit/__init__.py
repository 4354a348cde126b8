"""Quasi-static modeling toolkit for two-phase twisted string actuators.

A twisted string actuator converts motor rotation into linear contraction.
Driven far enough, the twisted bundle wraps onto itself and forms coils;
that second regime roughly doubles the stroke at a higher transmission
ratio. This package models both regimes with a shared parameter set,
calibrates the parameters from endpoint measurements, simulates twist
profiles (optionally with hysteresis and self-sensing), and solves the
sizing and linkage problems that come up when building actuators.
"""

from .bicep import (
    BicepFit,
    BicepGeometry,
    angle_from_length,
    fit_bicep,
    length_from_angle,
    string_tension,
    sweep,
)
from .calibration import (
    FitResult,
    ObservedEndpoints,
    ParamBounds,
    fit_two_phase,
    grid_oracle,
    predict_endpoints,
    residual,
)
from .errors import (
    CoilCapacityError,
    ConfigError,
    ConvergenceError,
    CsvFormatError,
    DomainError,
    GridCapError,
    InputError,
    NonInvertibleError,
    ParameterError,
    SingularConfigurationError,
    TrainingGateError,
    TriangleRangeError,
    TsaError,
    UnderdeterminedError,
)
from .hysteresis import (
    PIModel,
    hysteretic_length,
    identify_length_correction,
    pi_apply,
    pi_identify,
)
from .model import (
    LoadCase,
    Material,
    Phase,
    StringSpec,
    TwoPhaseParams,
    bundle_diameter,
    contraction,
    effective_length,
    size_for_displacement,
    strain,
    twist_profile,
)
from .sensing import (
    ResistanceParams,
    creep_component,
    detrend_creep,
    estimate_strain,
    length_baseline,
    resistance_forward,
)
from .training import (
    TrainingStage,
    TrainingState,
    advance_cycle,
    coiling_available,
    operating_length,
    stage_of,
)

__version__ = "0.1.0"

__all__ = [
    "BicepFit",
    "BicepGeometry",
    "CoilCapacityError",
    "ConfigError",
    "ConvergenceError",
    "CsvFormatError",
    "DomainError",
    "FitResult",
    "GridCapError",
    "InputError",
    "LoadCase",
    "Material",
    "NonInvertibleError",
    "ObservedEndpoints",
    "PIModel",
    "ParamBounds",
    "ParameterError",
    "Phase",
    "ResistanceParams",
    "SingularConfigurationError",
    "StringSpec",
    "TrainingGateError",
    "TrainingStage",
    "TrainingState",
    "TriangleRangeError",
    "TsaError",
    "TwoPhaseParams",
    "UnderdeterminedError",
    "advance_cycle",
    "angle_from_length",
    "bundle_diameter",
    "coiling_available",
    "contraction",
    "creep_component",
    "detrend_creep",
    "effective_length",
    "estimate_strain",
    "fit_bicep",
    "fit_two_phase",
    "grid_oracle",
    "hysteretic_length",
    "identify_length_correction",
    "length_baseline",
    "length_from_angle",
    "operating_length",
    "pi_apply",
    "pi_identify",
    "predict_endpoints",
    "residual",
    "resistance_forward",
    "size_for_displacement",
    "stage_of",
    "strain",
    "string_tension",
    "sweep",
    "twist_profile",
]
