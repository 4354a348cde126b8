"""Single joint bicep driven by a twisted string.

The linkage is a triangle: the motor anchor sits a distance ``a`` up a
vertically suspended upper arm, the string anchor a distance ``b`` out
along the forearm, and the string of current length ``l`` closes the
triangle. The interior angle at the elbow follows the law of cosines,
and the reported bending angle adds a mounting offset gamma:

    phi = gamma - acos((a^2 + b^2 - l^2) / (2 a b))    [degrees]

Shortening the string flexes the joint, so phi is strictly decreasing
in l. The quasi-static string tension balances the payload's gravity
moment about the elbow; the sine of the elbow angle cancels between the
two moment arms, leaving tension = weight * forearm_length * l / (a b),
valid everywhere except the singular poses where the string line passes
through the joint. These maps between length, angle and tension work
elementwise: each takes a float or an array, checks the whole input at
once, and refuses the first sample out of range.

Fitting the linkage to measured (length, angle) pairs is an exact
reduction: for fixed arms the angle SSE is a convex quadratic in gamma,
minimised at a clipped mean, and the arms that close on every observed
length form a box in (b - a, a + b), so a lattice scan and one
Nelder-Mead polish over that box fit the two arms alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import minimize
from .errors import (
    ParameterError,
    SingularConfigurationError,
    TriangleRangeError,
    UnderdeterminedError,
)
from .model import LoadCase, StringSpec, TwoPhaseParams, twist_profile
from .units import grams_to_newtons, rev_to_rad

# A fit is inconsistent with the linkage model when any observation
# misses by more than this many degrees.
CONSISTENCY_LIMIT_DEG = 1.5

_SINGULAR_SIN = 1e-9

# Longest arm (mm) of fit_bicep's 4 mm arm lattice, so the longest string
# length any lattice cell closes on is twice this.
_ARM_MAX = 400.0


@dataclass(frozen=True)
class BicepGeometry:
    """Triangle linkage of the bicep testbed."""

    a: float                    # joint to motor anchor, up the upper arm (mm)
    b: float                    # joint to string anchor, along the forearm (mm)
    gamma: float                # bending angle offset (deg)
    payload: float = 0.0        # mass at the forearm tip (g)
    forearm_length: float = 0.0  # joint to payload (mm)

    def __post_init__(self):
        for name in ("a", "b", "gamma", "payload", "forearm_length"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}",
                                     field=name)
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("lever arms must be positive", field="a" if self.a <= 0 else "b")
        if self.payload < 0 or self.forearm_length < 0:
            raise ParameterError("payload and forearm length must be nonnegative")

    @property
    def admissible_lengths(self) -> tuple:
        """Closed interval of string lengths the triangle can close on."""
        return (abs(self.a - self.b), self.a + self.b)


def _elbow_deg(a, b, string_length):
    """Law-of-cosines elbow angle (deg), elementwise; the cosine is clipped."""
    c = (a * a + b * b - string_length * string_length) / (2.0 * a * b)
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def angle_from_length(geom: BicepGeometry, string_length):
    """Bending angle (deg) at each string length (mm), elementwise.

    Takes a float or an array. Every length must lie in the admissible
    interval; the first that does not raises TriangleRangeError.
    """
    lo, hi = geom.admissible_lengths
    lengths = np.asarray(string_length, dtype=float)
    bad = ~((lo <= lengths) & (lengths <= hi))
    if bad.any():
        raise TriangleRangeError(
            f"string length {lengths[bad][0]:.6g} mm outside the admissible "
            f"interval [{lo:.6g}, {hi:.6g}] mm"
        )
    return geom.gamma - _elbow_deg(geom.a, geom.b, lengths)


def length_from_angle(geom: BicepGeometry, angle):
    """String length (mm) at each bending angle (deg), elementwise.

    Takes a float or an array. The elbow angle gamma - angle must lie in
    [0, 180] deg; the first angle for which it does not raises
    TriangleRangeError.
    """
    angles = np.asarray(angle, dtype=float)
    psi = geom.gamma - angles
    bad = ~((0.0 <= psi) & (psi <= 180.0))
    if bad.any():
        raise TriangleRangeError(
            f"bending angle {angles[bad][0]:.6g} deg outside the admissible interval "
            f"[{geom.gamma - 180.0:.6g}, {geom.gamma:.6g}] deg"
        )
    return np.sqrt(
        geom.a**2 + geom.b**2 - 2.0 * geom.a * geom.b * np.cos(np.radians(psi))
    )


@dataclass(frozen=True)
class BicepFit:
    geometry: BicepGeometry
    sse_deg2: float          # summed squared angle error over the pairs
    errors_deg: tuple        # per-pair signed angle errors
    consistent: bool         # all pairs within CONSISTENCY_LIMIT_DEG


def _pair_arrays(pairs):
    """(lengths, angles) of (string length mm, bending angle deg) pairs, validated.

    Every refusal fit_bicep makes is made here, so that [bicep] pairs are
    refused when the config is read. Numbers near the float limit are
    refused where the fit's squared angle errors or the slope of angle on
    length would overflow, so no pairs that pass make the fit overflow.
    A length longer than 2 * _ARM_MAX leaves fit_bicep's arm lattice no
    admissible cell, and is refused last.
    """
    pts = np.array([(float(l), float(phi)) for l, phi in pairs], dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise UnderdeterminedError("need at least three (length, angle) pairs", field="pairs")
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        l, phi = pts[int(np.argmax(bad))]
        raise ParameterError(f"pairs must be finite, got {l:g}:{phi:g}", field="pairs")
    lengths, angles = np.ascontiguousarray(pts.T)
    if len(set(lengths.tolist())) < 3:    # np.unique imports numpy.ma, about 15 ms
        raise UnderdeterminedError("pairs must cover at least three distinct lengths",
                                   field="pairs")
    if np.any(lengths <= 0):
        raise ParameterError("string lengths must be positive", field="pairs")
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is refused below
        slope = (lengths - lengths.mean()) @ (angles - angles.mean())
        # Twice a bound on the fit's sum of squared angle errors: each error
        # is gamma less the elbow angle, in [-180, 360] deg, less the angle.
        error_bound = 2.0 * (np.abs(angles) + 360.0) @ (np.abs(angles) + 360.0)
    if not math.isfinite(error_bound):
        raise ParameterError("bending angles are too large: the fit's squared angle "
                             "errors (deg^2) would overflow", field="pairs")
    if not math.isfinite(slope):
        raise ParameterError("pairs are too large: the least-squares slope of angle "
                             "on length overflows", field="pairs")
    if slope >= 0:
        raise UnderdeterminedError(
            "bending angles do not fall as the string lengthens "
            "(least-squares slope of angle on length is not negative); "
            "the linkage angle falls with length, so such pairs are refused",
            field="pairs",
        )
    if lengths.max() > 2.0 * _ARM_MAX:
        raise UnderdeterminedError("no admissible geometry covers the observed lengths",
                                   field="pairs")
    return lengths, angles


def _fit_errors(a, b, lengths: np.ndarray, angles: np.ndarray):
    """Best offset gamma and per-pair angle errors (deg) for the arms (a, b).

    Broadcasts over leading axes of a and b, with the pairs along the
    last axis. For fixed arms the SSE is the convex quadratic
    sum((gamma - t_k)^2), t_k = elbow_k + angle_k, so the best gamma in
    [0, 360] deg is the clipped mean of t.
    """
    elbow = _elbow_deg(a, b, lengths)
    gamma = np.clip(np.mean(elbow + angles, axis=-1, keepdims=True), 0.0, 360.0)
    return gamma, gamma - elbow - angles


def _arms(u: float, v: float, lo: float, hi: float):
    """Float arms a <= b for the box point u = b - a <= lo, v = a + b >= hi.

    Rounding can leave the computed b - a a float above lo, or a + b one
    below hi. Raising a shortens the first and lengthens the second, and
    a = b is admissible, so a rises until every length in [lo, hi] is.
    """
    b = 0.5 * (v + u)
    a = b - u
    while a < b and not (b - a <= lo and hi <= a + b):
        a = min(b, math.nextafter(a + max(b - a - lo, hi - (a + b)), b))
    return a, b


def fit_bicep(pairs, payload: float = 0.0, forearm_length: float = 0.0) -> BicepFit:
    """Fit (a, b, gamma) to (string length mm, bending angle deg) pairs.

    Exact reduction, deterministic. For fixed arms the best gamma is the
    clipped mean of elbow_k + angle_k. The arms that close on every
    observed length form a box in u = b - a and v = a + b: u in [0, l_min]
    and v >= l_max, with a <= b canonical. The admissible cells of a 4 mm
    arm lattice in (0, 400] mm are scored in one pass, ties going to the
    smallest (a, b), and the best starts one Nelder-Mead polish over the
    box, so the fit never loses to a grid scan of that lattice. A length
    above 800 mm, on which no cell closes, raises UnderdeterminedError.
    An optimum on the folded (b - a = l_min) or fully extended
    (a + b = l_max) boundary is a face of the box, and the reported arms
    admit every observed length in floating point. When any observation
    misses by more than 1.5 deg the linkage model cannot explain the data
    and the fit is flagged inconsistent. The angle of every linkage
    strictly falls with length, and as the arms grow every elbow flattens,
    so angles that do not fall can pull the arms away without bound. By
    policy, pairs whose least-squares slope of angle on length is not
    negative raise UnderdeterminedError. The rule is not exact: some such
    pairs have a finite best fit, and are refused all the same.
    """
    lengths, angles = _pair_arrays(pairs)
    lo, hi = float(lengths.min()), float(lengths.max())

    # The a <= b half of the 4 mm lattice: the SSE is symmetric in
    # the arms, bit for bit, so C-order ties already go to a <= b. As
    # _pair_arrays refused hi > 2 * _ARM_MAX, a = b = _ARM_MAX is a cell.
    axis = np.arange(4.0, _ARM_MAX + 1e-9, 4.0)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    keep = (a <= b) & (b - a <= lo) & (hi <= a + b)
    a, b = a[keep], b[keep]
    _, err = _fit_errors(a[:, None], b[:, None], lengths, angles)
    k = int(np.argmin(np.sum(err * err, axis=1)))

    # The polish runs unconstrained over (tau, s) with u = |lo cos tau|
    # and v = hi + s^2, which stay in the box. Both maps square away the
    # square-root cusp of the elbow angle at the box faces, where a
    # simplex clipped to the bounds collapses onto the face instead.
    def arms(x):
        tau, s = x
        return _arms(abs(lo * math.cos(tau)), hi + s * s, lo, hi)

    def sse(x):
        _, err = _fit_errors(*arms(x), lengths, angles)
        return float(np.sum(err * err))

    polish = minimize(
        sse, (math.acos((b[k] - a[k]) / lo), math.sqrt(a[k] + b[k] - hi)),
        xatol=1e-10, fatol=1e-12, maxfev=20000,
    )
    a, b = arms(polish.x.tolist())
    gamma, errors = _fit_errors(a, b, lengths, angles)
    geometry = BicepGeometry(
        a=a, b=b, gamma=float(gamma[0]), payload=payload, forearm_length=forearm_length
    )
    return BicepFit(
        geometry=geometry,
        sse_deg2=float(np.sum(errors * errors)),
        errors_deg=tuple(errors.tolist()),
        consistent=bool(np.all(np.abs(errors) <= CONSISTENCY_LIMIT_DEG)),
    )


def string_tension(geom: BicepGeometry, angle):
    """Quasi-static string tension (N) holding each bending angle (deg).

    Takes a float or an array. Moment balance about the joint. Both the
    gravity moment and the string's moment arm scale with sin of the
    elbow angle, which cancels into tension = weight * forearm_length *
    l / (a b). The checks run over the whole input, in this order: an
    angle outside the admissible interval (TriangleRangeError, the first
    such angle), a singular pose with the string line through the joint
    (SingularConfigurationError), and a tension that overflows
    (ParameterError).
    """
    l = length_from_angle(geom, angle)
    psi = geom.gamma - np.asarray(angle, dtype=float)
    if np.any(np.abs(np.sin(np.radians(psi))) < _SINGULAR_SIN):
        raise SingularConfigurationError(
            "string line passes through the joint; tension is indeterminate"
        )
    weight = grams_to_newtons(geom.payload)
    with np.errstate(over="ignore"):    # an overflow to inf is refused below
        tension = weight * geom.forearm_length * l / (geom.a * geom.b)
    if not np.all(np.isfinite(tension)):
        raise ParameterError(
            f"payload {geom.payload:g} g at forearm length {geom.forearm_length:g} mm "
            "gives a non-finite string tension"
        )
    return tension


def sweep(
    geom: BicepGeometry,
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta_rev_values,
) -> np.ndarray:
    """Bending angle (deg) at each motor twist (rev) of a schedule.

    One twist_profile pass gives the string lengths, and angle_from_length
    maps them all at once. Angles are monotone non-decreasing in twist,
    because the string only shortens.
    """
    theta = rev_to_rad(np.asarray(theta_rev_values, dtype=float))
    return angle_from_length(geom, twist_profile(spec, params, load, theta).length)
