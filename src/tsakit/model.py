"""Quasi-static kinematics of a two-phase twisted string actuator.

A twisted string actuator (TSA) converts motor rotation into linear
contraction by winding a pair of strings into a double helix. Ordinary
operation stops when the helix is fully wound. Twisting further buckles
the bundle into coils, one coil per extra revolution, which keeps
shortening the transmission far beyond the regular limit at the price of
a steeper torque requirement. This module models both regimes:

* Regular phase (theta <= theta_star): the loaded string pair of
  effective length L_eff winds into a helix of effective radius r_eff,
  so the axial length is L(theta) = sqrt(L_eff^2 - (theta * r_eff)^2).

* Overtwist phase (theta > theta_star): each extra revolution rolls one
  coil of centerline diameter coil_diameter and axial pitch coil_pitch.
  A coil consumes sqrt((pi * coil_diameter)^2 + coil_pitch^2) of bundle
  while occupying only coil_pitch axially, so the length drops linearly
  with the coil count.

Lengths are millimeters, angles radians, masses grams, torques newton
meters. Twist below zero is rejected rather than wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    CoilCapacityError,
    DomainError,
    KinkError,
    ParameterError,
    TrainingGateError,
)
from .units import TWO_PI, grams_to_newtons

# Lower clamp used where a strictly positive length is required.
LENGTH_FLOOR = 1e-9

# Default bundle growth factors relative to the string diameter.
BUNDLE_FACTOR_REGULAR = 2.0
BUNDLE_FACTOR_OVERTWIST = 4.0


class Material(Enum):
    STIFF = "stiff"
    COMPLIANT = "compliant"


class Phase(Enum):
    REGULAR = "regular"
    OVERTWIST = "overtwist"


@dataclass(frozen=True)
class StringSpec:
    """Geometry and material of one actuated string pair."""

    diameter: float        # single string diameter (mm)
    initial_length: float  # loaded, untwisted length L0 (mm)
    material: Material = Material.STIFF
    ply: int = 1           # strand count per string (1 for monofilament)

    def __post_init__(self):
        if not 0.0 < self.diameter < math.inf:
            raise ParameterError("string diameter must be positive and finite")
        if not 0.0 < self.initial_length < math.inf:
            raise ParameterError("initial length must be positive and finite")
        # Slenderness keeps the helix model meaningful.
        if self.initial_length < 20.0 * self.diameter:
            raise ParameterError(
                "initial length must be at least 20 times the string diameter"
            )
        if not 1 <= self.ply < math.inf or int(self.ply) != self.ply:
            raise ParameterError("ply must be a positive integer")


@dataclass(frozen=True)
class LoadCase:
    """Payload suspended from the actuator."""

    mass: float            # g
    gravity: float = 9.81  # m/s^2, fixed

    def __post_init__(self):
        if not 0.0 <= self.mass < math.inf:
            raise ParameterError("load mass must be nonnegative and finite")

    @property
    def force(self) -> float:
        """Weight in newtons."""
        return self.mass * 1e-3 * self.gravity


@dataclass(frozen=True)
class TwoPhaseParams:
    """Calibrated parameters of the two-phase transmission model."""

    r_eff: float          # effective helix radius (mm)
    theta_star: float     # phase transition twist (rad)
    coil_diameter: float  # coil centerline diameter (mm)
    coil_pitch: float     # axial advance per coil (mm)
    eta: float = 1.0      # torque transfer efficiency, in (0, 1]
    compliance: float = 0.0  # elastic stretch per force (mm/N), 0 for stiff

    def __post_init__(self):
        if not 0.0 < self.r_eff < math.inf:
            raise ParameterError("r_eff must be positive and finite")
        if not 0.0 < self.theta_star < math.inf:
            raise ParameterError("theta_star must be positive and finite")
        if not 0.0 < self.coil_diameter < math.inf:
            raise ParameterError("coil_diameter must be positive and finite")
        if not 0.0 <= self.coil_pitch < math.inf:
            raise ParameterError("coil_pitch must be nonnegative and finite")
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError("eta must lie in (0, 1]")
        if not 0.0 <= self.compliance < math.inf:
            raise ParameterError("compliance must be nonnegative and finite")

    @property
    def coil_circumference(self) -> float:
        """Bundle length consumed by one coil (mm), one coil per revolution."""
        return math.hypot(math.pi * self.coil_diameter, self.coil_pitch)

    @property
    def per_coil_shortening(self) -> float:
        """Net axial length lost per coil (mm)."""
        return self.coil_circumference - self.coil_pitch

    @property
    def theta_star_rev(self) -> float:
        return self.theta_star / TWO_PI

    def validate_for(self, spec: StringSpec) -> None:
        """Check the invariants that tie parameters to a specific string."""
        if not spec.diameter / 2.0 <= self.r_eff <= 2.0 * spec.diameter:
            raise ParameterError(
                "r_eff must lie between half and twice the string diameter"
            )
        if self.theta_star * self.r_eff >= spec.initial_length:
            raise ParameterError(
                "theta_star exceeds the kinematic limit of the regular phase"
            )
        if self.coil_circumference <= self.coil_pitch:
            raise ParameterError("coil must consume more bundle than its pitch")


@dataclass(frozen=True)
class ActuatorState:
    """Snapshot of the actuator at a given twist."""

    theta: float       # rad
    phase: Phase
    length: float      # mm
    coil_count: float  # coils formed past theta_star, 0 in the regular phase


def effective_length(spec: StringSpec, params: TwoPhaseParams, load: LoadCase) -> float:
    """Untwisted length including the elastic stretch under load (mm)."""
    return spec.initial_length + params.compliance * load.force


def _gate_open(spec, load, training) -> bool:
    # Gate is enforced only when a training state is supplied; a missing
    # state models an actuator that has already been broken in.
    if training is None:
        return True
    from .training import coiling_available

    return coiling_available(spec, training, load)


def _check_gate(spec, load, training) -> None:
    if not _gate_open(spec, load, training):
        raise TrainingGateError(
            "overtwisting a stiff string requires training to the uniform "
            "stage at a load no larger than the operating load"
        )


def length_regular(
    spec: StringSpec, params: TwoPhaseParams, load: LoadCase, theta: float
) -> float:
    """Axial length during regular twisting (mm), 0 <= theta <= theta_star."""
    if theta < 0:
        raise DomainError("twist must be nonnegative")
    if theta > params.theta_star:
        raise DomainError("theta beyond the regular phase; use length_overtwist")
    l_eff = effective_length(spec, params, load)
    wound = theta * params.r_eff
    if wound >= l_eff:
        raise DomainError(
            "helix winding consumed the whole string before theta was reached"
        )
    return math.sqrt(l_eff * l_eff - wound * wound)


def max_theta(spec: StringSpec, params: TwoPhaseParams, load: LoadCase) -> float:
    """Largest admissible twist before coils consume the whole bundle (rad)."""
    l1 = length_regular(spec, params, load, params.theta_star)
    return params.theta_star + TWO_PI * l1 / params.coil_circumference


def length_overtwist(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta: float,
    training=None,
) -> float:
    """Axial length during overtwisting (mm), theta >= theta_star.

    One coil forms per revolution past theta_star. Raises
    CoilCapacityError (carrying the maximum admissible twist) once the
    coils would consume more bundle than the regular phase left over.
    """
    if theta < params.theta_star:
        raise DomainError("theta below the phase transition; use length_regular")
    _check_gate(spec, load, training)
    l1 = length_regular(spec, params, load, params.theta_star)
    coils = (theta - params.theta_star) / TWO_PI
    if coils * params.coil_circumference > l1:
        limit = max_theta(spec, params, load)
        raise CoilCapacityError(
            f"twist {theta:.6g} rad exceeds the coil capacity limit "
            f"{limit:.6g} rad",
            theta_max=limit,
        )
    return l1 - coils * params.per_coil_shortening


def length(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta: float,
    training=None,
) -> float:
    """Axial length at any admissible twist (mm). Piecewise two-phase law."""
    if theta < 0:
        raise DomainError("twist must be nonnegative")
    if theta <= params.theta_star:
        return length_regular(spec, params, load, theta)
    return length_overtwist(spec, params, load, theta, training=training)


def state_at(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta: float,
    training=None,
) -> ActuatorState:
    """Full actuator state at a given twist."""
    l = length(spec, params, load, theta, training=training)
    if theta <= params.theta_star:
        return ActuatorState(theta=theta, phase=Phase.REGULAR, length=l, coil_count=0.0)
    coils = (theta - params.theta_star) / TWO_PI
    return ActuatorState(theta=theta, phase=Phase.OVERTWIST, length=l, coil_count=coils)


def strain(length_mm: float, initial_length_mm: float) -> float:
    """Engineering strain in percent, negative when contracted."""
    if initial_length_mm <= 0:
        raise DomainError("initial length must be positive")
    return (length_mm - initial_length_mm) / initial_length_mm * 100.0


def contraction(length_mm: float, initial_length_mm: float) -> float:
    """Contraction in percent of the initial length (positive when shorter)."""
    return -strain(length_mm, initial_length_mm)


def transmission_ratio(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta: float,
    side: str | None = None,
) -> float:
    """Transmission ratio dL/dtheta (mm/rad), negative while contracting.

    The ratio is discontinuous at theta_star. Exactly at the kink the
    caller must pick a side, "regular" or "overtwist"; anywhere else the
    side argument is ignored.
    """
    if theta < 0:
        raise DomainError("twist must be nonnegative")
    if theta == params.theta_star:
        if side == "regular":
            branch = Phase.REGULAR
        elif side == "overtwist":
            branch = Phase.OVERTWIST
        else:
            raise KinkError(
                "transmission ratio at theta_star is one-sided; "
                "pass side='regular' or side='overtwist'"
            )
    elif theta < params.theta_star:
        branch = Phase.REGULAR
    else:
        branch = Phase.OVERTWIST

    if branch is Phase.REGULAR:
        l = length_regular(spec, params, load, theta)
        return -theta * params.r_eff**2 / l
    # Constant slope inside the admissible overtwist range.
    length_overtwist(spec, params, load, theta)
    return -params.per_coil_shortening / TWO_PI


class TwistProfile(NamedTuple):
    """Per-sample columns of a twist history (arrays of equal shape)."""

    length: np.ndarray      # mm
    overtwist: np.ndarray   # bool, theta > theta_star
    coil_count: np.ndarray  # coils formed past theta_star, 0 in the regular phase
    ratio: np.ndarray       # dL/dtheta (mm/rad), regular side at theta_star
    torque: np.ndarray      # quasi-static motor torque (N m), as force * |ratio| / eta


def twist_profile(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    thetas,
    training=None,
) -> TwistProfile:
    """The two-phase law over a whole twist array, in one numpy pass.

    Each column equals the scalar functions (length, state_at,
    transmission_ratio) applied sample by sample. An inadmissible sample
    raises the error the scalar length raises at the first such sample.
    """
    theta = np.asarray(thetas, dtype=float)
    # NaN twist takes the overtwist branch, as in length().
    over = ~(theta <= params.theta_star)
    l_eff = effective_length(spec, params, load)
    # Overtwisted samples start from the regular length at theta_star.
    wound = np.where(over, params.theta_star, theta) * params.r_eff
    coils = np.where(over, (theta - params.theta_star) / TWO_PI, 0.0)
    with np.errstate(invalid="ignore"):
        regular = np.sqrt(l_eff * l_eff - wound * wound)
    bad = (theta < 0) | (wound >= l_eff) | (coils * params.coil_circumference > regular)
    if over.any() and not _gate_open(spec, load, training):
        bad |= over
    if bad.any():  # the scalar law raises at the first inadmissible sample
        length(spec, params, load, float(theta.flat[bad.argmax()]), training=training)
    lengths = regular - coils * params.per_coil_shortening
    ratio = np.where(
        over, -params.per_coil_shortening / TWO_PI, -theta * params.r_eff**2 / lengths
    )
    torque = load.force * np.abs(ratio) * 1e-3 / params.eta
    return TwistProfile(lengths, over, coils, ratio, torque)


def size_for_displacement(required_displacement: float, contraction_fraction: float) -> float:
    """Untwisted length (mm) needed to realize a displacement (mm).

    contraction_fraction is the usable fractional contraction in (0, 1);
    overtwisting shrinks the required package dramatically.
    """
    if required_displacement < 0:
        raise DomainError("required displacement must be nonnegative")
    if not 0.0 < contraction_fraction < 1.0:
        raise DomainError("contraction fraction must lie in (0, 1)")
    return required_displacement / contraction_fraction


def bundle_diameter(
    spec: StringSpec,
    phase: Phase,
    measured_regular: float | None = None,
    measured_overtwist: float | None = None,
) -> float:
    """Bundle envelope diameter (mm) in the given phase.

    Defaults to twice the string diameter for a regular two-string
    bundle and twice that again once coils stack; measured values
    override the defaults when provided.
    """
    if phase is Phase.REGULAR:
        if measured_regular is not None:
            return measured_regular
        return BUNDLE_FACTOR_REGULAR * spec.diameter
    if measured_overtwist is not None:
        return measured_overtwist
    return BUNDLE_FACTOR_OVERTWIST * spec.diameter
