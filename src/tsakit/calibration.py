"""Endpoint calibration of the two-phase transmission model.

Characterizing a string pair yields a handful of endpoint measurements:
contraction at the end of regular twisting, total contraction at full
twist, and optionally peak speeds and torques per phase. This module
turns those endpoints into TwoPhaseParams via a weighted normalized
least squares residual, minimized inside a parameter box without random
starts: the contraction endpoints fix every parameter but r_eff in
closed form, a bounded 1-D search over r_eff follows, and one
Nelder-Mead polish finishes the fit. A brute-force grid oracle provides
an independent check of the solver.

Speed endpoints constrain the model through the overtwist-to-regular
speed ratio unless a constant motor speed is supplied, in which case
they are matched absolutely. Torque endpoints are always matched
absolutely; they are what pins down the efficiency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import GridCapError, ParameterError, TsaError
from .model import (
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    bundle_diameter,
    Phase,
    contraction,
    length,
    length_regular,
    transmission_ratio,
)
from .units import TWO_PI, rev_to_rad

# Residual returned when a parameter draw is infeasible. Documented
# constant so penalty plateaus are recognizable in solver traces.
PENALTY_RESIDUAL = 1e9

# Weighted residual terms: contractions anchor the fit, speed and torque
# endpoints refine it.
WEIGHT_CONTRACTION = 1.0
WEIGHT_SECONDARY = 0.2

PARAM_ORDER = ("r_eff", "theta_star", "coil_diameter", "coil_pitch", "eta", "compliance")

GRID_CELL_CAP = 10_000_000

# ObservedEndpoints fields that may be left out (None), in column order.
OPTIONAL_ENDPOINTS = (
    "max_speed_regular_mm_s",
    "max_speed_overtwist_mm_s",
    "max_torque_regular_nm",
    "max_torque_overtwist_nm",
    "motor_speed_rev_s",
)


@dataclass(frozen=True)
class ObservedEndpoints:
    """Measured endpoints for one string pair under one load."""

    spec: StringSpec
    load: LoadCase
    theta_max_rev: float             # full characterization twist (rev)
    contraction_regular_pct: float   # at the end of the regular phase
    contraction_total_pct: float     # at theta_max
    max_speed_regular_mm_s: float | None = None
    max_speed_overtwist_mm_s: float | None = None
    max_torque_regular_nm: float | None = None
    max_torque_overtwist_nm: float | None = None
    motor_speed_rev_s: float | None = None  # constant motor speed, if known

    def __post_init__(self):
        if not 0.0 < self.theta_max_rev < math.inf:
            raise ParameterError("theta_max must be positive and finite")
        if not 0.0 < self.contraction_regular_pct < self.contraction_total_pct < 100.0:
            raise ParameterError(
                "contractions must satisfy 0 < regular < total < 100"
            )
        # The residual divides by each given endpoint and predicts magnitudes.
        for name in OPTIONAL_ENDPOINTS:
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ParameterError(f"{name} must be positive and finite when given")

    @property
    def theta_max(self) -> float:
        """Full twist in radians."""
        return rev_to_rad(self.theta_max_rev)


def predict_endpoints(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta_max_rev: float,
    motor_speed_rev_s: float | None = None,
) -> dict:
    """Model endpoints for a parameter set (raises on infeasible params).

    Returns contractions in percent, phase speed maxima in mm/s when a
    motor speed is given (otherwise the transmission maxima in mm/rad
    under the key 'speed_...'), and phase torque maxima in N m.
    """
    theta_max = rev_to_rad(theta_max_rev)
    l0 = spec.initial_length
    l1 = length_regular(spec, params, load, params.theta_star)
    l_end = length(spec, params, load, theta_max)
    # Regular phase slope magnitude grows monotonically, peaking at the kink.
    slope_reg = abs(transmission_ratio(spec, params, load, params.theta_star, side="regular"))
    slope_over = abs(transmission_ratio(spec, params, load, params.theta_star, side="overtwist"))
    omega = None if motor_speed_rev_s is None else rev_to_rad(motor_speed_rev_s)
    scale = 1.0 if omega is None else omega
    return {
        "contraction_regular_pct": contraction(l1, l0),
        "contraction_total_pct": contraction(l_end, l0),
        "speed_regular": slope_reg * scale,
        "speed_overtwist": slope_over * scale,
        "torque_regular_nm": load.force * slope_reg * 1e-3 / params.eta,
        "torque_overtwist_nm": load.force * slope_over * 1e-3 / params.eta,
    }


def residual(params: TwoPhaseParams, obs: ObservedEndpoints) -> float:
    """Weighted sum of squared normalized endpoint errors.

    Any infeasible parameter draw (invariant violation, twist beyond the
    coil capacity, theta_star at or past theta_max) maps to the penalty
    constant instead of raising.
    """
    if params.theta_star >= obs.theta_max:
        return PENALTY_RESIDUAL
    try:
        params.validate_for(obs.spec)
        pred = predict_endpoints(
            obs.spec, params, obs.load, obs.theta_max_rev, obs.motor_speed_rev_s
        )
    except TsaError:
        return PENALTY_RESIDUAL

    def rel(p, o):
        return (p - o) / o

    total = WEIGHT_CONTRACTION * rel(pred["contraction_regular_pct"], obs.contraction_regular_pct) ** 2
    total += WEIGHT_CONTRACTION * rel(pred["contraction_total_pct"], obs.contraction_total_pct) ** 2

    v_reg, v_over = obs.max_speed_regular_mm_s, obs.max_speed_overtwist_mm_s
    if obs.motor_speed_rev_s is not None:
        if v_reg is not None:
            total += WEIGHT_SECONDARY * rel(pred["speed_regular"], v_reg) ** 2
        if v_over is not None:
            total += WEIGHT_SECONDARY * rel(pred["speed_overtwist"], v_over) ** 2
    elif v_reg is not None and v_over is not None:
        # No motor profile: only the between-phase speed ratio is informative.
        total += WEIGHT_SECONDARY * rel(
            pred["speed_overtwist"] / pred["speed_regular"], v_over / v_reg
        ) ** 2

    if obs.max_torque_regular_nm is not None:
        total += WEIGHT_SECONDARY * rel(pred["torque_regular_nm"], obs.max_torque_regular_nm) ** 2
    if obs.max_torque_overtwist_nm is not None:
        total += WEIGHT_SECONDARY * rel(pred["torque_overtwist_nm"], obs.max_torque_overtwist_nm) ** 2
    return float(total)


@dataclass(frozen=True)
class ParamBounds:
    """Per-parameter closed intervals; a degenerate interval pins a value."""

    r_eff: tuple
    theta_star: tuple          # rad
    coil_diameter: tuple
    coil_pitch: tuple
    eta: tuple
    compliance: tuple

    def __post_init__(self):
        for name in PARAM_ORDER:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ParameterError(f"{name}: bounds must be finite")
            if lo > hi:
                raise ParameterError(f"{name}: lower bound exceeds upper bound")
        if self.eta[0] <= 0 or self.eta[1] > 1:
            raise ParameterError("eta bounds must lie in (0, 1]")
        for name in ("r_eff", "theta_star", "coil_diameter"):
            if getattr(self, name)[0] <= 0:
                raise ParameterError(f"{name} bounds must be positive")
        if self.coil_pitch[0] < 0 or self.compliance[0] < 0:
            raise ParameterError("coil_pitch and compliance bounds must be nonnegative")

    @classmethod
    def default(cls, obs: ObservedEndpoints) -> "ParamBounds":
        """Physically motivated box for a given observation."""
        d = obs.spec.diameter
        pitch = bundle_diameter(obs.spec, Phase.REGULAR)  # close packed coils
        theta_max = obs.theta_max
        stiff = obs.spec.material is Material.STIFF
        return cls(
            r_eff=(d / 2.0, 2.0 * d),
            theta_star=(0.02 * theta_max, 0.98 * theta_max),
            coil_diameter=(0.5 * d, 10.0 * d),
            coil_pitch=(pitch, pitch),
            eta=(0.02, 1.0),
            compliance=(0.0, 0.0) if stiff else (0.0, 5.0),
        )

    def arrays(self):
        lo = np.array([getattr(self, n)[0] for n in PARAM_ORDER])
        hi = np.array([getattr(self, n)[1] for n in PARAM_ORDER])
        return lo, hi

    def clip(self, vector: np.ndarray) -> np.ndarray:
        lo, hi = self.arrays()
        return np.minimum(np.maximum(vector, lo), hi)


def params_from_vector(vector) -> TwoPhaseParams:
    v = np.asarray(vector, dtype=float)
    return TwoPhaseParams(**dict(zip(PARAM_ORDER, (float(x) for x in v))))


def params_to_vector(params: TwoPhaseParams) -> np.ndarray:
    return np.array([getattr(params, n) for n in PARAM_ORDER])


@dataclass(frozen=True)
class FitResult:
    params: TwoPhaseParams
    residual: float
    iterations: int
    converged: bool


def _reduction(obs: ObservedEndpoints, bounds: ParamBounds):
    """Everything but r_eff in closed form, and the r_eff window.

    At the pinned pitch and the lowest compliance, the regular
    contraction fixes theta_star * r_eff, the total contraction then
    fixes the per-coil shortening and so coil_diameter, and 1/eta is the
    least-squares fit of the torque endpoints. Returns point(r), the
    full parameter vector at r_eff = r, and the window (r_lo, r_hi) in
    which every box bound and the coil capacity hold; r_lo > r_hi when
    there is none.
    """
    l0, force, theta_max = obs.spec.initial_length, obs.load.force, obs.theta_max
    l1 = l0 * (1.0 - obs.contraction_regular_pct / 100.0)
    l_end = l0 * (1.0 - obs.contraction_total_pct / 100.0)
    pitch, compliance = bounds.coil_pitch[0], bounds.compliance[0]
    wound = math.sqrt((l0 + compliance * force) ** 2 - l1 * l1)  # theta_star * r_eff
    drop = TWO_PI * (l1 - l_end)  # per-coil shortening times the overtwist span
    torques = (obs.max_torque_regular_nm, obs.max_torque_overtwist_nm)

    def point(r):
        theta_star = wound / r
        shortening = drop / (theta_max - theta_star)
        coil_diameter = math.sqrt((shortening + pitch) ** 2 - pitch * pitch) / math.pi
        slopes = (wound * r / l1, shortening / TWO_PI)
        q = [force * s * 1e-3 / t for s, t in zip(slopes, torques) if t is not None]
        eta = sum(x * x for x in q) / sum(q) if any(q) else bounds.eta[1]
        eta = min(max(eta, bounds.eta[0]), bounds.eta[1])
        return np.array([r, theta_star, coil_diameter, pitch, eta, compliance])

    def theta_star_at(coil_diameter):
        return theta_max - drop / (math.hypot(math.pi * coil_diameter, pitch) - pitch)

    # Each bound is monotone in theta_star = wound / r_eff.
    t_lo = max(
        bounds.theta_star[0],
        wound / bounds.r_eff[1],
        theta_star_at(bounds.coil_diameter[0]),
        theta_max - TWO_PI * l_end / pitch if pitch > 0 else 0.0,  # coil capacity
    )
    t_hi = min(
        bounds.theta_star[1],
        wound / bounds.r_eff[0],
        theta_star_at(bounds.coil_diameter[1]),
    )
    # A window that rounding alone empties is the single point t_lo.
    if not (wound < l0 and 0.0 < t_lo <= t_hi * (1.0 + 1e-9)):
        return point, 1.0, 0.0
    return point, wound / max(t_hi, t_lo), wound / t_lo


def fit_two_phase(
    obs: ObservedEndpoints,
    bounds: ParamBounds | None = None,
    max_iter: int = 4000,
) -> FitResult:
    """Fit TwoPhaseParams to measured endpoints, deterministically.

    The contraction endpoints reduce the fit to r_eff alone (see
    _reduction); a bounded Brent search over the feasible r_eff window
    scores each reduced point with the full residual. One Nelder-Mead
    polish over all free parameters, capped at max_iter iterations,
    then starts from the best point (from the box centre if the window
    is empty), and the better of the two is returned. Iterates are
    projected onto the bounds box before being scored, so the returned
    parameters always satisfy the bounds.
    """
    if bounds is None:
        bounds = ParamBounds.default(obs)
    lo, hi = bounds.arrays()
    free = hi > lo

    def score(vector: np.ndarray) -> float:
        try:
            return residual(params_from_vector(bounds.clip(vector)), obs)
        except TsaError:
            return PENALTY_RESIDUAL

    if not free.any():
        point = params_from_vector(lo)
        value = residual(point, obs)
        return FitResult(point, value, 0, value < PENALTY_RESIDUAL)

    point, r_lo, r_hi = _reduction(obs, bounds)
    iterations = 0
    best, best_value = 0.5 * (lo + hi), PENALTY_RESIDUAL
    if r_lo <= r_hi:
        search = minimize_scalar(
            lambda r: score(point(r)), bounds=(r_lo, r_hi), method="bounded",
            options={"xatol": 1e-12},
        )
        iterations += int(search.nit)
        best, best_value = bounds.clip(point(search.x)), float(search.fun)

    def objective(z):
        full = lo.copy()
        full[free] = z
        return score(full)

    polish = minimize(
        objective,
        best[free],
        method="Nelder-Mead",
        options={"maxiter": max_iter, "maxfev": max_iter, "xatol": 1e-10, "fatol": 1e-14},
    )
    iterations += int(polish.nit)
    if polish.fun <= best_value:
        best[free] = polish.x
        best, best_value = bounds.clip(best), float(polish.fun)
    # Nelder-Mead meets its tolerance on the flat penalty plateau too.
    return FitResult(
        params_from_vector(best),
        best_value,
        iterations,
        bool(polish.success) and best_value < PENALTY_RESIDUAL,
    )


def grid_oracle(
    obs: ObservedEndpoints, grid: dict, cell_cap: int = GRID_CELL_CAP
) -> tuple[TwoPhaseParams, float]:
    """Exhaustive residual evaluation over an explicit parameter grid.

    grid maps each parameter name to the values to scan (singletons pin
    a parameter). Refuses grids above cell_cap. Ties are broken toward
    the lexicographically smallest parameter tuple, so the winner does
    not depend on evaluation order.
    """
    unknown = set(grid) - set(PARAM_ORDER)
    if unknown:
        raise ParameterError(f"unknown grid parameters: {sorted(unknown)}")
    missing = set(PARAM_ORDER) - set(grid)
    if missing:
        raise ParameterError(f"grid is missing parameters: {sorted(missing)}")
    axes = [sorted(float(v) for v in grid[name]) for name in PARAM_ORDER]
    cells = math.prod(len(a) for a in axes)
    if cells > cell_cap:
        raise GridCapError(f"grid has {cells} cells, above the cap of {cell_cap}")

    best = None
    for combo in itertools.product(*axes):
        try:
            r = residual(params_from_vector(np.array(combo)), obs)
        except TsaError:
            r = PENALTY_RESIDUAL
        key = (r, combo)
        if best is None or key < best:
            best = key
    return params_from_vector(np.array(best[1])), best[0]


def endpoints_from_params(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta_max_rev: float,
    motor_speed_rev_s: float | None = None,
    include_speeds: bool = True,
    include_torques: bool = True,
) -> ObservedEndpoints:
    """Synthesize the endpoints a given model would produce (for tests
    and round-trip checks)."""
    pred = predict_endpoints(spec, params, load, theta_max_rev, motor_speed_rev_s)
    return ObservedEndpoints(
        spec=spec,
        load=load,
        theta_max_rev=theta_max_rev,
        contraction_regular_pct=pred["contraction_regular_pct"],
        contraction_total_pct=pred["contraction_total_pct"],
        max_speed_regular_mm_s=pred["speed_regular"] if include_speeds else None,
        max_speed_overtwist_mm_s=pred["speed_overtwist"] if include_speeds else None,
        max_torque_regular_nm=pred["torque_regular_nm"] if include_torques else None,
        max_torque_overtwist_nm=pred["torque_overtwist_nm"] if include_torques else None,
        motor_speed_rev_s=motor_speed_rev_s,
    )
