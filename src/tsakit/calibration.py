"""Endpoint calibration of the two-phase transmission model.

Characterizing a string pair yields a handful of endpoint measurements:
contraction at the end of regular twisting, total contraction at full
twist, and optionally peak speeds and torques per phase. This module
turns those endpoints into TwoPhaseParams via a weighted normalized
least squares residual, minimized without random starts inside one fixed
box per observation (_box), which pins the pitch at the two-string
bundle and a stiff string's compliance at 0. The contraction endpoints
fix every parameter but r_eff in closed form, a bounded 1-D search over
r_eff follows, and one Nelder-Mead polish finishes the fit. A
brute-force grid oracle provides an independent check of the solver.

The model endpoints come from the two-phase law as the model states it
once, in model._law, the kernel twist_profile evaluates for simulate:
the law at theta_star with the coils formed by theta_max gives both
contractions and the slopes either side of theta_star. _endpoints adds
the feasibility mask and _residual_kernel the weighted terms, each one
body run with the model's op sets: in Python floats where residual and
the fit score one point at a time, in numpy where grid_oracle scores
slabs of cells and predict_endpoints reports. Both give the same bits;
infeasible points score the penalty from the mask.

The residual is staged per observation. _residual_kernel reads once what
the observation alone fixes (the string's length and diameter, the
load's force, theta_max, the observed endpoints and which optional terms
are present) and returns score, a function of the six parameters alone.
fit_two_phase builds one score for its Brent search and polish, and
grid_oracle one for all its slabs, so each evaluation runs only the law,
the mask and the terms.

Speed endpoints constrain the model through the overtwist-to-regular
speed ratio unless a constant motor speed is supplied, in which case
they are matched absolutely. Torque endpoints are always matched
absolutely; they are what pins down the efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import minimize, minimize_scalar
from .errors import GridCapError, ParameterError
from .model import (
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    _ARRAY_OPS,
    _FLOAT_OPS,
    _coil,
    _law,
    contraction,
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

# Most cells grid_oracle scores in one array pass; bounds its working
# memory to about 20 MB whatever the grid size.
GRID_SLAB_CELLS = 65_536

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
        # In radians, so that no theta_max_rev past about 2.9e307 overflows
        # the fit's theta_star interval.
        if not 0.0 < self.theta_max < math.inf:
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


def _endpoints(ops, initial_length, force, diameter, theta_max, r_eff, theta_star,
               coil_diameter, coil_pitch, eta, compliance):
    """Model endpoints, elementwise over floats or broadcasting arrays.

    The model's one law kernel at theta_star with the coils formed by
    theta_max, in the op set ops, plus the parameter-box mask. The
    string's initial length and diameter (mm), the load's force (N) and
    theta_max (rad) come as numbers. Returns (feasible,
    contraction_regular_pct, contraction_total_pct, slope_regular,
    slope_overtwist), the slopes being |dL/dtheta| (mm/rad) on either
    side of theta_star. feasible holds where the parameters pass every
    TwoPhaseParams check, r_eff lies within half and twice the string
    diameter, theta_star lies below theta_max and winds less than the
    unloaded length, a coil consumes more bundle than its pitch, and the
    coils formed by theta_max fit in the bundle left at theta_star; each
    test is false on NaN. Where it fails, the other values are
    meaningless, and callers silence numpy's warnings about them.
    """
    law = _law(ops, initial_length, force, theta_star, (theta_max - theta_star) / TWO_PI,
               r_eff, coil_diameter, coil_pitch, compliance)
    feasible = (
        (0.5 * diameter <= r_eff) & (r_eff <= 2.0 * diameter)
        & (0.0 < theta_star) & (theta_star < theta_max)
        & (0.0 < coil_diameter) & (coil_diameter < math.inf)
        & (0.0 <= coil_pitch) & (coil_pitch < math.inf)
        & (0.0 < eta) & (eta <= 1.0)
        & (0.0 <= compliance) & (compliance < math.inf)
        & (law.wound < initial_length)  # as L_eff >= L0, also below the helix limit
        & (law.circumference > coil_pitch)
        & (law.coiled <= law.helix)
    )
    return (feasible, contraction(law.helix, initial_length),
            contraction(law.length, initial_length), law.slope_regular, law.slope_overtwist)


@np.errstate(all="ignore")
def predict_endpoints(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    theta_max_rev: float,
    motor_speed_rev_s: float | None = None,
) -> dict:
    """Model endpoints for a parameter set.

    Returns contractions in percent, phase speed maxima in mm/s when a
    motor speed is given (otherwise the transmission maxima in mm/rad
    under the key 'speed_...'), and phase torque maxima in N m. Raises
    ParameterError where residual would score the penalty.
    """
    feasible, c_reg, c_tot, slope_reg, slope_over = _endpoints(
        _ARRAY_OPS, spec.initial_length, load.force, spec.diameter, rev_to_rad(theta_max_rev),
        *(getattr(params, n) for n in PARAM_ORDER)
    )
    if not feasible:
        raise ParameterError("parameters are infeasible for this string, load and twist")
    scale = 1.0 if motor_speed_rev_s is None else rev_to_rad(motor_speed_rev_s)
    return {
        "contraction_regular_pct": float(c_reg),
        "contraction_total_pct": float(c_tot),
        "speed_regular": float(slope_reg * scale),
        "speed_overtwist": float(slope_over * scale),
        "torque_regular_nm": float(load.force * slope_reg * 1e-3 / params.eta),
        "torque_overtwist_nm": float(load.force * slope_over * 1e-3 / params.eta),
    }


def _term(weight, predicted, observed):
    """One weighted squared normalized error of the residual."""
    error = (predicted - observed) / observed
    return weight * (error * error)


def _residual_kernel(ops, obs: ObservedEndpoints):
    """The residual of obs, staged: score(r_eff, theta_star, coil_diameter,
    coil_pitch, eta, compliance).

    What depends on the observation alone is read here, once: the
    string's length and diameter, the load's force, theta_max, the
    observed endpoints and which of the optional terms are present.
    score then runs elementwise in the op set ops, over floats or
    broadcasting arrays, and gives infeasible points PENALTY_RESIDUAL.
    The one statement of the residual's terms.
    """
    l0, diameter = obs.spec.initial_length, obs.spec.diameter
    force, theta_max = obs.load.force, obs.theta_max
    c_reg_obs, c_tot_obs = obs.contraction_regular_pct, obs.contraction_total_pct
    v_reg, v_over = obs.max_speed_regular_mm_s, obs.max_speed_overtwist_mm_s
    omega = ratio = None
    if obs.motor_speed_rev_s is not None:
        omega = rev_to_rad(obs.motor_speed_rev_s)
    elif v_reg is not None and v_over is not None:
        # No motor profile: only the between-phase speed ratio is informative.
        ratio = v_over / v_reg
    torque_reg, torque_over = obs.max_torque_regular_nm, obs.max_torque_overtwist_nm

    def score(r_eff, theta_star, coil_diameter, coil_pitch, eta, compliance):
        feasible, c_reg, c_tot, slope_reg, slope_over = _endpoints(
            ops, l0, force, diameter, theta_max,
            r_eff, theta_star, coil_diameter, coil_pitch, eta, compliance,
        )
        total = (_term(WEIGHT_CONTRACTION, c_reg, c_reg_obs)
                 + _term(WEIGHT_CONTRACTION, c_tot, c_tot_obs))
        if omega is not None:
            if v_reg is not None:
                total = total + _term(WEIGHT_SECONDARY, slope_reg * omega, v_reg)
            if v_over is not None:
                total = total + _term(WEIGHT_SECONDARY, slope_over * omega, v_over)
        elif ratio is not None:
            total = total + _term(WEIGHT_SECONDARY, ops.div(slope_over, slope_reg), ratio)
        if torque_reg is not None:
            total = total + _term(WEIGHT_SECONDARY, ops.div(force * slope_reg * 1e-3, eta),
                                  torque_reg)
        if torque_over is not None:
            total = total + _term(WEIGHT_SECONDARY, ops.div(force * slope_over * 1e-3, eta),
                                  torque_over)
        return ops.where(feasible, total, PENALTY_RESIDUAL)

    return score


def residual(params: TwoPhaseParams, obs: ObservedEndpoints) -> float:
    """Weighted sum of squared normalized endpoint errors.

    Any infeasible parameter set (invariant violation, twist beyond the
    coil capacity, theta_star at or past theta_max) scores the penalty
    constant instead of raising.
    """
    return _residual_kernel(_FLOAT_OPS, obs)(*(float(getattr(params, n)) for n in PARAM_ORDER))


def _box(obs: ObservedEndpoints) -> tuple:
    """The closed interval (lo, hi) of each parameter, in PARAM_ORDER, that
    the fit searches for obs.

    r_eff lies within half and twice the string diameter d, theta_star
    within 2 % and 98 % of theta_max, the coil diameter within 0.5 d and
    10 d, and eta in [0.02, 1]. The pitch is pinned at the two-string
    bundle, 2 d, and the compliance at 0 for a stiff string; a compliant
    one may stretch up to 5 mm/N.
    """
    d = obs.spec.diameter
    pitch = 2.0 * d  # close-packed coils: one pitch is the two-string bundle
    theta_max = obs.theta_max
    return (
        (d / 2.0, 2.0 * d),
        (0.02 * theta_max, 0.98 * theta_max),
        (0.5 * d, 10.0 * d),
        (pitch, pitch),
        (0.02, 1.0),
        (0.0, 0.0) if obs.spec.material is Material.STIFF else (0.0, 5.0),
    )


def params_from_vector(vector) -> TwoPhaseParams:
    v = np.asarray(vector, dtype=float)
    return TwoPhaseParams(**dict(zip(PARAM_ORDER, (float(x) for x in v))))


@dataclass(frozen=True)
class FitResult:
    params: TwoPhaseParams
    residual: float
    iterations: int
    converged: bool


def _reduction(obs: ObservedEndpoints):
    """Everything but r_eff in closed form, and the r_eff window.

    At the box's pinned pitch and lowest compliance, the regular
    contraction fixes theta_star * r_eff, the total contraction then
    fixes the per-coil shortening and so coil_diameter, and 1/eta is the
    least-squares fit of the torque endpoints. Returns point(r), the
    full parameter vector at r_eff = r as a list of floats, and the
    window (r_lo, r_hi) in which every box bound and the coil capacity
    hold; r_lo > r_hi when there is none.
    """
    l0, force, theta_max = obs.spec.initial_length, obs.load.force, obs.theta_max
    l1 = l0 * (1.0 - obs.contraction_regular_pct / 100.0)
    l_end = l0 * (1.0 - obs.contraction_total_pct / 100.0)
    r_box, t_box, c_box, (pitch, _), (eta_lo, eta_hi), (compliance, _) = _box(obs)
    wound = math.sqrt((l0 + compliance * force) ** 2 - l1 * l1)  # theta_star * r_eff
    drop = TWO_PI * (l1 - l_end)  # per-coil shortening times the overtwist span
    torques = (obs.max_torque_regular_nm, obs.max_torque_overtwist_nm)

    def point(r):
        r = float(r)
        theta_star = wound / r
        shortening = drop / (theta_max - theta_star)
        coil_diameter = math.sqrt((shortening + pitch) ** 2 - pitch * pitch) / math.pi
        slopes = (wound * r / l1, shortening / TWO_PI)
        q = [force * s * 1e-3 / t for s, t in zip(slopes, torques) if t is not None]
        eta = sum(x * x for x in q) / sum(q) if any(q) else eta_hi
        eta = min(max(eta, eta_lo), eta_hi)
        return [r, theta_star, coil_diameter, pitch, eta, compliance]

    def theta_star_at(coil_diameter):
        return theta_max - drop / _coil(_ARRAY_OPS, coil_diameter, pitch)[1]

    # Each bound is monotone in theta_star = wound / r_eff.
    t_lo = max(
        t_box[0],
        wound / r_box[1],
        theta_star_at(c_box[0]),
        theta_max - TWO_PI * l_end / pitch,  # coil capacity
    )
    t_hi = min(
        t_box[1],
        wound / r_box[0],
        theta_star_at(c_box[1]),
    )
    # A window that rounding alone empties is the single point t_lo.
    if not (wound < l0 and 0.0 < t_lo <= t_hi * (1.0 + 1e-9)):
        return point, 1.0, 0.0
    return point, wound / max(t_hi, t_lo), wound / t_lo


def fit_two_phase(obs: ObservedEndpoints, *, max_iter: int = 4000) -> FitResult:
    """Fit TwoPhaseParams to measured endpoints, deterministically.

    The contraction endpoints reduce the fit to r_eff alone (see
    _reduction); a bounded Brent search over the feasible r_eff window
    scores each reduced point with the full residual. One Nelder-Mead
    polish over all free parameters, capped at max_iter iterations,
    then starts from the best point (from the box centre if the window
    is empty), and the better of the two is returned. Iterates are
    projected onto the box of _box(obs) before being scored, so the
    returned parameters always lie in it.
    """
    lo, hi = ([float(v) for v in side] for side in zip(*_box(obs)))
    free = [k for k in range(len(PARAM_ORDER)) if hi[k] > lo[k]]

    def clip(vector: list) -> list:
        # np.minimum(np.maximum(v, lo), hi) per element: NaN passes
        # through, and a tie takes the bound, signed zero included.
        clipped = []
        for v, a, b in zip(vector, lo, hi):
            v = a if v <= a else v
            clipped.append(b if v >= b else v)
        return clipped

    box = [(k, lo[k], hi[k]) for k in free]

    def place(z: list) -> list:
        # clip(z placed at the free coordinates of lo): the rest are pinned.
        full = lo.copy()
        for (k, a, b), v in zip(box, z):
            v = a if v <= a else v
            full[k] = b if v >= b else v
        return full

    score = _residual_kernel(_FLOAT_OPS, obs)
    point, r_lo, r_hi = _reduction(obs)
    iterations = 0
    best, best_value = [0.5 * (a + b) for a, b in zip(lo, hi)], PENALTY_RESIDUAL
    if r_lo <= r_hi:
        search = minimize_scalar(lambda r: score(*clip(point(r))), (r_lo, r_hi), xatol=1e-12)
        iterations += int(search.nit)
        best, best_value = clip(point(search.x)), float(search.fun)

    polish = minimize(
        lambda z: score(*place(z)), [best[k] for k in free],
        maxiter=max_iter, maxfev=max_iter, xatol=1e-10, fatol=1e-14,
    )
    iterations += int(polish.nit)
    if polish.fun <= best_value:
        best, best_value = place(polish.x.tolist()), float(polish.fun)
    # Nelder-Mead meets its tolerance on the flat penalty plateau too.
    return FitResult(
        params_from_vector(best),
        best_value,
        iterations,
        bool(polish.success) and best_value < PENALTY_RESIDUAL,
    )


def grid_oracle(obs: ObservedEndpoints, grid: dict) -> tuple[TwoPhaseParams, float]:
    """Exhaustive residual evaluation over an explicit parameter grid.

    grid maps each parameter name to the values to scan (singletons pin
    a parameter); every axis must be non-empty and finite. Refuses grids
    above GRID_CELL_CAP cells before scoring any. Cells are scored in
    slabs of at most GRID_SLAB_CELLS, in the C order of the sorted axes,
    which is the lexicographic order of the parameter tuples, and the
    first minimum wins: ties go to the smallest parameter tuple.
    """
    unknown = set(grid) - set(PARAM_ORDER)
    if unknown:
        raise ParameterError(f"unknown grid parameters: {sorted(unknown)}")
    missing = set(PARAM_ORDER) - set(grid)
    if missing:
        raise ParameterError(f"grid is missing parameters: {sorted(missing)}")
    axes = [np.array(sorted(float(v) for v in grid[name])) for name in PARAM_ORDER]
    for name, axis in zip(PARAM_ORDER, axes):
        if axis.size == 0 or not np.isfinite(axis).all():
            raise ParameterError(f"{name}: grid axis must be non-empty and finite")
    shape = tuple(axis.size for axis in axes)
    cells = math.prod(shape)
    if cells > GRID_CELL_CAP:
        raise GridCapError(f"grid has {cells} cells, above the cap of {GRID_CELL_CAP}")

    # A slab is a run of `step` combinations of the leading axes, each with
    # the whole sub-grid of `block` cells over the trailing axes. Those
    # reach the kernel as broadcast axes, so whatever depends on few axes
    # is computed once per value, not once per cell.
    lead = next(k for k in range(1, len(shape) + 1) if math.prod(shape[k:]) <= GRID_SLAB_CELLS)
    block = math.prod(shape[lead:])
    heads = math.prod(shape[:lead])
    step = GRID_SLAB_CELLS // block
    best, best_value = 0, math.inf
    score = _residual_kernel(_ARRAY_OPS, obs)
    for start in range(0, heads, step):
        mesh = np.ix_(np.arange(start, min(start + step, heads)), *axes[lead:])
        index = np.unravel_index(mesh[0], shape[:lead])
        with np.errstate(all="ignore"):
            values = score(*(axis[i] for axis, i in zip(axes, index)), *mesh[1:])
        k = int(np.argmin(values))
        if values.flat[k] < best_value:
            best, best_value = start * block + k, float(values.flat[k])
    winner = [axis[i] for axis, i in zip(axes, np.unravel_index(best, shape))]
    return params_from_vector(winner), best_value
