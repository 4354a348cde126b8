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
through the joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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


@dataclass(frozen=True)
class BicepGeometry:
    """Triangle linkage of the bicep testbed."""

    a: float                    # joint to motor anchor, up the upper arm (mm)
    b: float                    # joint to string anchor, along the forearm (mm)
    gamma: float                # bending angle offset (deg)
    payload: float = 0.0        # mass at the forearm tip (g)
    forearm_length: float = 0.0  # joint to payload (mm)

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("lever arms must be positive")
        if self.payload < 0 or self.forearm_length < 0:
            raise ParameterError("payload and forearm length must be nonnegative")

    @property
    def admissible_lengths(self) -> tuple:
        """Closed interval of string lengths the triangle can close on."""
        return (abs(self.a - self.b), self.a + self.b)


def _check_length(geom: BicepGeometry, string_length: float) -> None:
    lo, hi = geom.admissible_lengths
    if not lo <= string_length <= hi:
        raise TriangleRangeError(
            f"string length {string_length:.6g} mm outside the admissible "
            f"interval [{lo:.6g}, {hi:.6g}] mm",
            lo=lo,
            hi=hi,
        )


def elbow_angle(geom: BicepGeometry, string_length: float) -> float:
    """Interior angle at the joint (deg) for a given string length."""
    _check_length(geom, string_length)
    c = (geom.a**2 + geom.b**2 - string_length**2) / (2.0 * geom.a * geom.b)
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def angle_from_length(geom: BicepGeometry, string_length: float) -> float:
    """Bending angle (deg) at a given string length (mm)."""
    return geom.gamma - elbow_angle(geom, string_length)


def length_from_angle(geom: BicepGeometry, angle: float) -> float:
    """String length (mm) at a given bending angle (deg)."""
    psi = geom.gamma - angle
    if not 0.0 <= psi <= 180.0:
        raise TriangleRangeError(
            f"bending angle {angle:.6g} deg outside the admissible interval "
            f"[{geom.gamma - 180.0:.6g}, {geom.gamma:.6g}] deg",
            lo=geom.gamma - 180.0,
            hi=geom.gamma,
        )
    psi_rad = math.radians(psi)
    return math.sqrt(
        geom.a**2 + geom.b**2 - 2.0 * geom.a * geom.b * math.cos(psi_rad)
    )


@dataclass(frozen=True)
class BicepFit:
    geometry: BicepGeometry
    sse_deg2: float          # summed squared angle error over the pairs
    errors_deg: tuple        # per-pair signed angle errors
    consistent: bool         # all pairs within CONSISTENCY_LIMIT_DEG


def _pair_sse(a: float, b: float, gamma: float, lengths: np.ndarray, angles: np.ndarray):
    if a <= 0 or b <= 0:
        return None
    lo, hi = abs(a - b), a + b
    if lengths.min() < lo or lengths.max() > hi:
        return None
    c = (a * a + b * b - lengths**2) / (2.0 * a * b)
    pred = gamma - np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    err = pred - angles
    return float(np.sum(err * err)), err


# Penalty weight on triangle-inequality violations in the polish
# objective (deg^2 per squared unit of cosine overshoot). Large enough
# that any leftover violation at the optimum is far below float noise.
_BOUNDARY_PENALTY = 1e10


def _soft_sse(x, lengths: np.ndarray, angles: np.ndarray) -> float:
    """Polish objective: clipped-cosine SSE plus graded boundary penalty.

    The least-squares optimum can sit exactly on a triangle-degenerate
    boundary (an observed length equal to |a - b| or a + b), where the
    true SSE has a square-root cusp. A hard infeasibility wall makes
    simplex descent stall short of such a boundary, so infeasible
    iterates are scored by clipping the cosine and charging the
    violation quadratically instead.
    """
    a, b, gamma = x
    if a <= 0 or b <= 0 or not 0.0 < gamma < 360.0:
        return 1e12
    c = (a * a + b * b - lengths**2) / (2.0 * a * b)
    pred = gamma - np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    err = pred - angles
    overshoot = np.maximum(np.abs(c) - 1.0, 0.0)
    return float(np.sum(err * err) + _BOUNDARY_PENALTY * np.sum(overshoot**2))


def _snap_feasible(a: float, b: float, lengths: np.ndarray):
    """Nudge (a, b) minimally so every observed length is admissible.

    The graded boundary penalty can leave the polished geometry a float
    hair outside the closed admissible interval; shift both lever arms
    toward feasibility with a relative margin so the reported geometry
    evaluates every observation.
    """
    for _ in range(3):
        gap_lo = abs(a - b) - lengths.min()
        if gap_lo > 0:
            shift = 0.5 * gap_lo * (1.0 + 1e-12) + 1e-15
            if a > b:
                a, b = a - shift, b + shift
            else:
                a, b = a + shift, b - shift
        gap_hi = lengths.max() - (a + b)
        if gap_hi > 0:
            grow = 0.5 * gap_hi * (1.0 + 1e-12) + 1e-15
            a, b = a + grow, b + grow
        if abs(a - b) <= lengths.min() and lengths.max() <= a + b:
            break
    return a, b


def _grid_scan(lengths: np.ndarray, angles: np.ndarray, arm_step: float, gamma_step: float):
    # Vectorized over gamma via sse(g) = sum((g - t_k)^2), t_k = elbow_k + phi_k.
    arm_axis = np.arange(arm_step, 400.0 + 1e-9, arm_step)
    gamma_axis = np.arange(gamma_step, 360.0, gamma_step)
    best = None
    for a in arm_axis:
        for b in arm_axis:
            lo, hi = abs(a - b), a + b
            if lengths.min() < lo or lengths.max() > hi:
                continue
            c = (a * a + b * b - lengths**2) / (2.0 * a * b)
            t = np.degrees(np.arccos(np.clip(c, -1.0, 1.0))) + angles
            sse = ((gamma_axis[:, None] - t[None, :]) ** 2).sum(axis=1)
            i = int(np.argmin(sse))
            key = (float(sse[i]), (float(a), float(b), float(gamma_axis[i])))
            if best is None or key < best:
                best = key
    return best


def fit_bicep(
    pairs,
    payload: float = 0.0,
    forearm_length: float = 0.0,
    arm_step: float = 4.0,
    gamma_step: float = 2.0,
) -> BicepFit:
    """Fit (a, b, gamma) to (string length mm, bending angle deg) pairs.

    Dense 3-d grid search over a, b in (0, 400] mm and gamma in
    (0, 360) deg, polished by Nelder-Mead descent; deterministic, with
    grid ties resolved toward the lexicographically smallest (a, b,
    gamma). The lever arms enter the model symmetrically, so the result
    is canonicalized to a <= b. When any observation misses by more than
    1.5 deg the linkage model cannot explain the data and the fit is
    flagged inconsistent.
    """
    pts = [(float(l), float(phi)) for l, phi in pairs]
    if len(pts) < 3:
        raise UnderdeterminedError("need at least three (length, angle) pairs")
    lengths = np.array([p[0] for p in pts])
    angles = np.array([p[1] for p in pts])
    if len(set(lengths.tolist())) < 3:
        raise UnderdeterminedError("pairs must cover at least three distinct lengths")
    if np.any(lengths <= 0):
        raise ParameterError("string lengths must be positive")

    best = _grid_scan(lengths, angles, arm_step, gamma_step)
    if best is None:
        raise UnderdeterminedError("no admissible geometry covers the observed lengths")

    options = {"maxiter": 20000, "maxfev": 20000, "xatol": 1e-10, "fatol": 1e-12}
    start = np.array(best[1])
    # Restarted simplex descent: a second pass from the first optimum
    # recovers the progress a collapsed simplex leaves on the table.
    for _ in range(2):
        polish = minimize(
            _soft_sse, start, args=(lengths, angles), method="Nelder-Mead",
            options=options,
        )
        start = polish.x
    a, b, gamma = (float(v) for v in polish.x)
    if a > b:
        a, b = b, a
    a, b = _snap_feasible(a, b, lengths)
    sse, errors = _pair_sse(a, b, gamma, lengths, angles)
    geometry = BicepGeometry(
        a=a, b=b, gamma=gamma, payload=payload, forearm_length=forearm_length
    )
    return BicepFit(
        geometry=geometry,
        sse_deg2=sse,
        errors_deg=tuple(float(e) for e in errors),
        consistent=bool(np.all(np.abs(errors) <= CONSISTENCY_LIMIT_DEG)),
    )


def bicep_grid_oracle(pairs, arm_step: float = 4.0, gamma_step: float = 2.0):
    """Best grid cell of the 3-d scan, without polishing.

    Independent check for fit_bicep: the polished solution must never be
    worse than the best grid cell. Returns ((a, b, gamma), sse_deg2).
    """
    lengths = np.array([float(l) for l, _ in pairs])
    angles = np.array([float(phi) for _, phi in pairs])
    best = _grid_scan(lengths, angles, arm_step, gamma_step)
    if best is None:
        raise UnderdeterminedError("no admissible geometry covers the observed lengths")
    return best[1], best[0]


def gravity_torque(geom: BicepGeometry, angle: float) -> float:
    """Payload gravity moment about the joint (N mm) at a bending angle.

    The upper arm hangs vertically, so the payload lever is the forearm
    length times the cosine of the forearm's inclination from the
    horizontal, which equals sin of the elbow angle.
    """
    psi = math.radians(geom.gamma - angle)
    return grams_to_newtons(geom.payload) * geom.forearm_length * abs(math.sin(psi))


def string_tension(geom: BicepGeometry, angle: float) -> float:
    """Quasi-static string tension (N) holding a bending angle (deg).

    Moment balance about the joint. Both the gravity moment and the
    string's moment arm scale with sin of the elbow angle, which cancels
    into tension = weight * forearm_length * l / (a b); poses with the
    string line through the joint are singular and rejected.
    """
    psi = geom.gamma - angle
    l = length_from_angle(geom, angle)
    if abs(math.sin(math.radians(psi))) < _SINGULAR_SIN:
        raise SingularConfigurationError(
            "string line passes through the joint; tension is indeterminate"
        )
    weight = grams_to_newtons(geom.payload)
    return weight * geom.forearm_length * l / (geom.a * geom.b)


def dlength_dangle(geom: BicepGeometry, angle: float) -> float:
    """Analytic dl/dphi (mm per degree) at a bending angle."""
    psi_rad = math.radians(geom.gamma - angle)
    l = length_from_angle(geom, angle)
    if l == 0:
        raise SingularConfigurationError("degenerate triangle")
    return -(geom.a * geom.b * math.sin(psi_rad) / l) * math.pi / 180.0


def sweep(
    geom: BicepGeometry,
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta_rev_values,
    training=None,
) -> list:
    """Bending angle trajectory over a motor twist schedule.

    Returns (theta_rev, angle_deg) tuples; angles are monotone
    non-decreasing in twist because the string only shortens.
    """
    theta_rev = np.asarray(theta_rev_values, dtype=float)
    lengths = twist_profile(spec, params, load, rev_to_rad(theta_rev), training=training).length
    return [
        (t, angle_from_length(geom, l)) for t, l in zip(theta_rev.tolist(), lengths.tolist())
    ]
