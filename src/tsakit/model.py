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

One private kernel, _law, states the law elementwise, with the rounding
the fits depend on (squares as x * x, math.hypot for the coil). Its
body takes one of two op sets for what goes beyond + - * /: _FLOAT_OPS
runs it in Python floats, _ARRAY_OPS in numpy floats and arrays, and
both give the same bits. twist_profile evaluates it over a twist array
in one pass, with phase, coil count, ratio dL/dtheta (its regular side
at theta_star, where it jumps) and torque per sample; the calibration
endpoints are the same kernel at theta_star and theta_max, in floats
where the fit scores its iterates.

Lengths are millimeters, angles radians, masses grams, torques newton
meters. Twist below zero or NaN is rejected rather than wrapped.

The law is physics only and assumes a broken-in string. Whether an
untrained stiff string may be overtwisted at all is the training gate's
question, which the command line asks before it evaluates the law.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import CoilCapacityError, DomainError, ParameterError
from .units import TWO_PI, grams_to_newtons

# Lower clamp used where a strictly positive length is required.
LENGTH_FLOOR = 1e-9


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
            raise ParameterError("string diameter must be positive and finite", field="diameter")
        if not 0.0 < self.initial_length < math.inf:
            raise ParameterError("initial length must be positive and finite",
                                 field="initial_length")
        # Slenderness keeps the helix model meaningful.
        if self.initial_length < 20.0 * self.diameter:
            raise ParameterError(
                "initial length must be at least 20 times the string diameter"
            )
        if not 1 <= self.ply < math.inf or int(self.ply) != self.ply:
            raise ParameterError("ply must be a positive integer", field="ply")


@dataclass(frozen=True)
class LoadCase:
    """Payload suspended from the actuator."""

    mass: float            # g

    def __post_init__(self):
        if not 0.0 <= self.mass < math.inf:
            raise ParameterError("load mass must be nonnegative and finite", field="mass")

    @property
    def force(self) -> float:
        """Weight in newtons."""
        return grams_to_newtons(self.mass)


_hypot = np.frompyfunc(math.hypot, 2, 1)


def _array_hypot(x, y):
    """math.hypot as numpy floats, per element on arrays.

    np.hypot differs from math.hypot in the last bit for some values.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.asarray(_hypot(x, y), dtype=float)
    return np.float64(math.hypot(x, y))


def _float_sqrt(x):
    try:
        return math.sqrt(x)
    except ValueError:  # a negative: numpy's NaN
        return math.nan


def _float_div(x, y):
    try:
        return x / y
    except ZeroDivisionError:  # numpy's signed inf, or NaN for 0 / 0 and NaN / 0
        return x * math.copysign(math.inf, y) if x else math.nan


def _float_where(condition, x, y):
    return x if condition else y


class _Ops(NamedTuple):
    """What the law's kernels need beyond + - * and division by constants.

    Two sets round alike: hypot as math.hypot, and where Python raises
    (the square root of a negative, a zero divisor), the float set returns
    numpy's NaN or inf. The kernels square as x * x, which IEEE
    multiplication rounds alike in Python and numpy.
    """

    sqrt: Callable
    hypot: Callable
    div: Callable     # x / y for a divisor that may be zero
    where: Callable   # elementwise x if condition else y


# Python floats in and out, as calibration's fit scores its iterates.
_FLOAT_OPS = _Ops(_float_sqrt, math.hypot, _float_div, _float_where)
# numpy floats and broadcasting arrays; callers set the numpy error state.
_ARRAY_OPS = _Ops(np.sqrt, _array_hypot, operator.truediv, np.where)


def _coil(ops, coil_diameter, coil_pitch):
    """(circumference, per-coil shortening) of one coil (mm).

    The bundle one coil consumes, the law's one hypot, and the axial
    length it takes off.
    """
    circumference = ops.hypot(math.pi * coil_diameter, coil_pitch)
    return circumference, circumference - coil_pitch


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
            raise ParameterError("r_eff must be positive and finite", field="r_eff")
        if not 0.0 < self.theta_star < math.inf:
            raise ParameterError("theta_star must be positive and finite", field="theta_star")
        if not 0.0 < self.coil_diameter < math.inf:
            raise ParameterError("coil_diameter must be positive and finite", field="coil_diameter")
        if not 0.0 <= self.coil_pitch < math.inf:
            raise ParameterError("coil_pitch must be nonnegative and finite", field="coil_pitch")
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError("eta must lie in (0, 1]", field="eta")
        if not 0.0 <= self.compliance < math.inf:
            raise ParameterError("compliance must be nonnegative and finite", field="compliance")
        # pi * coil_diameter overflows from about 5.7e307 mm.
        if not self.coil_circumference < math.inf:
            raise ParameterError("coil_diameter must give a finite coil circumference",
                                 field="coil_diameter")

    @property
    def coil_circumference(self) -> float:
        """Bundle length consumed by one coil (mm), one coil per revolution."""
        return _coil(_FLOAT_OPS, self.coil_diameter, self.coil_pitch)[0]


class _Law(NamedTuple):
    """What the two-phase law states at a point, as floats or arrays."""

    l_eff: np.ndarray            # untwisted length under load L_eff (mm)
    wound: np.ndarray            # twist * r_eff (mm)
    helix: np.ndarray            # sqrt(L_eff^2 - wound^2), the helix length (mm)
    circumference: np.ndarray    # bundle one coil consumes (mm)
    coiled: np.ndarray           # bundle the coils consume (mm)
    length: np.ndarray           # helix less the coils' shortening (mm)
    slope_regular: np.ndarray    # twist * r_eff^2 / helix, |dL/dtheta| up to theta_star (mm/rad)
    slope_overtwist: np.ndarray  # per-coil shortening / 2 pi, |dL/dtheta| past it (mm/rad)


def _law(ops, initial_length, force, twist, coils, r_eff, coil_diameter, coil_pitch,
         compliance):
    """The two-phase law, elementwise over floats or broadcasting arrays.

    initial_length is the untwisted L0 (mm) and force the load's weight
    (N), numbers that a caller scoring many points reads once. twist is
    the regular-phase twist, theta_star once it is passed, and coils the
    coil count past theta_star. This is the one statement of the law:
    twist_profile, effective_length and the calibration endpoints all
    read it from here. ops is _FLOAT_OPS for Python floats
    and _ARRAY_OPS for numpy floats and arrays; the body is the same and
    so are the bits. It checks nothing and sets no numpy error state;
    where the helix is wound past L_eff its values are NaN, and callers
    mask them.
    """
    l_eff = initial_length + compliance * force
    wound = twist * r_eff
    helix = ops.sqrt(l_eff * l_eff - wound * wound)
    circumference, shortening = _coil(ops, coil_diameter, coil_pitch)
    return _Law(l_eff, wound, helix, circumference, coils * circumference,
                helix - coils * shortening, ops.div(twist * (r_eff * r_eff), helix),
                shortening / TWO_PI)


def effective_length(spec: StringSpec, params: TwoPhaseParams, load: LoadCase) -> float:
    """Untwisted length including the elastic stretch under load (mm)."""
    # The law's L_eff, read at zero twist.
    return _law(_ARRAY_OPS, spec.initial_length, load.force, 0.0, 0.0, params.r_eff,
                params.coil_diameter, params.coil_pitch, params.compliance).l_eff


def strain(length_mm: float, initial_length_mm: float) -> float:
    """Engineering strain in percent, negative when contracted."""
    if initial_length_mm <= 0:
        raise DomainError("initial length must be positive")
    return (length_mm - initial_length_mm) / initial_length_mm * 100.0


def contraction(length_mm: float, initial_length_mm: float) -> float:
    """Contraction in percent of the initial length (positive when shorter)."""
    return -strain(length_mm, initial_length_mm)


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
) -> TwistProfile:
    """The two-phase law over a whole twist array, in one pass of _law.

    The length is sqrt(L_eff^2 - (theta r_eff)^2) up to theta_star and
    falls by one coil's shortening, its circumference less its pitch, per
    revolution past it; the ratio is -theta * r_eff^2 / length in the
    regular phase and minus that shortening / 2 pi past theta_star. The
    first inadmissible sample raises, checked in this order: a negative
    or NaN twist (DomainError), a helix wound past L_eff (DomainError),
    and coils that would consume more bundle than the regular phase left
    (CoilCapacityError, whose message states the largest admissible
    twist). The law knows nothing of training: the string is taken as
    broken in.
    """
    theta = np.asarray(thetas, dtype=float)
    over = theta > params.theta_star
    # Overtwisted samples start from the regular length at theta_star.
    twist = np.where(over, params.theta_star, theta)
    coils = np.where(over, (theta - params.theta_star) / TWO_PI, 0.0)
    with np.errstate(all="ignore"):
        law = _law(_ARRAY_OPS, spec.initial_length, load.force, twist, coils,
                   params.r_eff, params.coil_diameter, params.coil_pitch, params.compliance)
    bad = ~(theta >= 0) | (law.wound >= law.l_eff) | (law.coiled > law.helix)
    if bad.any():
        k = bad.argmax()
        if not theta.flat[k] >= 0:
            raise DomainError("twist must be nonnegative")
        if law.wound.flat[k] >= law.l_eff:
            raise DomainError(
                "helix winding consumed the whole string before theta was reached"
            )
        limit = params.theta_star + TWO_PI * float(law.helix.flat[k]) / params.coil_circumference
        raise CoilCapacityError(
            f"twist {float(theta.flat[k]):.6g} rad exceeds the coil capacity limit "
            f"{limit:.6g} rad"
        )
    ratio = np.where(over, -law.slope_overtwist, -law.slope_regular)
    torque = load.force * np.abs(ratio) * 1e-3 / params.eta
    return TwistProfile(law.length, over, coils, ratio, torque)


def size_for_displacement(required_displacement: float, contraction_fraction: float) -> float:
    """Untwisted length (mm) needed to realize a displacement (mm).

    contraction_fraction is the usable fractional contraction in (0, 1);
    overtwisting shrinks the required package dramatically.
    """
    if not 0.0 <= required_displacement < math.inf:
        raise DomainError("required displacement must be nonnegative and finite")
    if not 0.0 < contraction_fraction < 1.0:
        raise DomainError("contraction fraction must lie in (0, 1)")
    return required_displacement / contraction_fraction

