"""Closed-form reference model used to generate inputs and check outputs.

Everything here is written from the documented physics in numpy, without
importing tsakit, so a change to the package can change neither the
benchmark's inputs nor the oracle its outputs are checked against.

Units follow the package: millimetres, grams, radians, seconds.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
GRAVITY = 9.81
PENALTY_RESIDUAL = 1e9
PARAM_ORDER = ("r_eff", "theta_star", "coil_diameter", "coil_pitch", "eta", "compliance")


def weight_n(mass_g):
    return mass_g * 1e-3 * GRAVITY


def two_phase(theta, initial_length, mass_g, r_eff, theta_star, coil_diameter,
              coil_pitch, eta, compliance=0.0):
    """Backbone length, |dL/dtheta|, torque, coil count and phase mask.

    Regular phase (theta <= theta_star): helix law
    L = sqrt(L_eff^2 - (theta r_eff)^2). Overtwist: one coil per revolution
    past theta_star, each shortening the string by hypot(pi D, p) - p.
    """
    theta = np.asarray(theta, dtype=float)
    force = weight_n(mass_g)
    l_eff = initial_length + compliance * force
    regular = theta <= theta_star
    wound = np.where(regular, theta, theta_star) * r_eff
    l_reg = np.sqrt(l_eff * l_eff - wound * wound)
    l1 = math.sqrt(l_eff * l_eff - (theta_star * r_eff) ** 2)
    per_coil = math.hypot(math.pi * coil_diameter, coil_pitch) - coil_pitch
    coils = np.where(regular, 0.0, (theta - theta_star) / TWO_PI)
    length = np.where(regular, l_reg, l1 - coils * per_coil)
    slope = np.where(regular, theta * r_eff**2 / l_reg, per_coil / TWO_PI)
    torque = force * slope * 1e-3 / eta
    return length, slope, torque, coils, regular


def play_stop_sum(x, thresholds, weights):
    """Weighted stop-operator sum, sum_i w_i (x - play_i(x)), from zero state."""
    out = np.zeros(len(x))
    xs = [float(v) for v in x]
    for r, w in zip(thresholds, weights):
        state = 0.0
        stop = np.empty(len(xs))
        for k, v in enumerate(xs):
            state = max(v - r, min(v + r, state))
            stop[k] = v - state
        out += w * stop
    return out


def endpoints(row, p, slack=0.0):
    """Feasibility mask and model endpoints of one observation row.

    row holds the observation columns; p maps PARAM_ORDER to values (scalars
    or equally shaped arrays). The feasibility rules are those the package
    documents: theta_star below theta_max, r_eff within [d/2, 2d], the
    regular winding shorter than the string, a coil consuming more than its
    pitch, and the coils at theta_max fitting in the regular-phase length
    (give or take a relative slack).
    """
    d, l0 = row["diameter_mm"], row["initial_length_mm"]
    theta_max = row["theta_max_rev"] * TWO_PI
    r, ts, cd, pitch = p["r_eff"], p["theta_star"], p["coil_diameter"], p["coil_pitch"]
    eta, comp = p["eta"], p["compliance"]
    force = weight_n(row["mass_g"])
    l_eff = l0 + comp * force
    circ = np.hypot(np.pi * cd, pitch)
    wound = ts * r
    l1 = np.sqrt(l_eff * l_eff - wound * wound)
    coils = (theta_max - ts) / TWO_PI
    feasible = (
        (ts < theta_max) & (d / 2.0 <= r) & (r <= 2.0 * d) & (wound < l0)
        & (circ > pitch) & (wound < l_eff) & (coils * circ <= l1 * (1.0 + slack))
    )
    per_coil = circ - pitch
    l_end = l1 - coils * per_coil
    slope_reg = ts * r * r / l1
    slope_over = per_coil / TWO_PI
    return feasible, {
        "contraction_regular_pct": (l0 - l1) / l0 * 100.0,
        "contraction_total_pct": (l0 - l_end) / l0 * 100.0,
        "slope_regular": slope_reg,
        "slope_overtwist": slope_over,
        "torque_regular_nm": force * slope_reg * 1e-3 / eta,
        "torque_overtwist_nm": force * slope_over * 1e-3 / eta,
    }


def residual(row, p, slack=0.0):
    """Weighted normalized endpoint residual; PENALTY_RESIDUAL where infeasible.

    Contractions weigh 1.0; the overtwist/regular speed ratio and both
    torques weigh 0.2 when observed (speeds only as a ratio, since the
    rows carry no motor speed).
    """
    with np.errstate(all="ignore"):
        feasible, pred = endpoints(row, p, slack)

        pred["speed_ratio"] = pred["slope_overtwist"] / pred["slope_regular"]

        def rel(key, observed):
            return ((pred[key] - observed) / observed) ** 2

        total = rel("contraction_regular_pct", row["contraction_regular_pct"])
        total = total + rel("contraction_total_pct", row["contraction_total_pct"])
        v_reg, v_over = row.get("max_speed_regular_mm_s"), row.get("max_speed_overtwist_mm_s")
        if v_reg is not None and v_over is not None:
            total = total + 0.2 * rel("speed_ratio", v_over / v_reg)
        for key, column in (("torque_regular_nm", "max_torque_regular_nm"),
                            ("torque_overtwist_nm", "max_torque_overtwist_nm")):
            if row.get(column) is not None:
                total = total + 0.2 * rel(key, row[column])
    return np.where(feasible, total, PENALTY_RESIDUAL)


def grid_best(row, grid):
    """Best cell of an exhaustive scan: (params tuple, residual).

    Ties go to the lexicographically smallest parameter tuple, which is the
    first minimum of a C-ordered scan over ascending axes.
    """
    axes = [np.array(sorted(grid[name]), dtype=float) for name in PARAM_ORDER]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = residual(row, dict(zip(PARAM_ORDER, mesh))).ravel()
    best = int(np.argmin(values))
    cell = tuple(float(m.ravel()[best]) for m in mesh)
    feasible_share = float(np.mean(values < PENALTY_RESIDUAL))
    return cell, float(values[best]), values.size, feasible_share


def bicep_angle(a, b, gamma, string_length):
    """Bending angle (deg) of the triangle linkage at a string length (mm)."""
    c = (a * a + b * b - string_length**2) / (2.0 * a * b)
    return gamma - np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def transient(gain, tau, strains, times):
    """First-order transient: each strain step injects gain, decaying with tau."""
    out = np.empty(len(strains))
    state = gain * strains[0]
    out[0] = state
    decay = np.exp(-np.diff(times) / tau)
    steps = gain * np.diff(strains)
    for k in range(1, len(strains)):
        state = state * decay[k - 1] + steps[k - 1]
        out[k] = state
    return out


def creep(rate, saturation, cycles):
    """Saturating creep: slope rate at zero cycles, asymptote saturation."""
    return saturation * (1.0 - np.exp(-rate * np.asarray(cycles) / saturation))


def moving_average(x, window):
    """Centred moving average over an odd window, edges padded with end values."""
    padded = np.pad(x, (window // 2, window // 2), mode="edge")
    sums = np.cumsum(np.concatenate(([0.0], padded)))
    return (sums[window:] - sums[:-window]) / window


def close(actual, expected, rel=1e-9, scale=0.0):
    """Elementwise agreement within the precision of a .10g CSV field."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    tol = rel * np.abs(expected) + 1e-12 * max(scale, 1.0)
    return bool(np.all(np.isfinite(actual)) and np.all(np.abs(actual - expected) <= tol))
