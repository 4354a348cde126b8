"""Resistance based self-sensing of conductive string pairs.

Conductive strings double as their own stretch sensor: resistance
follows strain through an affine baseline, disturbed by a first-order
transient after each strain step and by a slow creep that accumulates
with actuation cycles and saturates. The inverse estimator peels those
effects off in reverse order: detrend the creep, deconvolve the
transient, invert the baseline.

The same saturating creep law doubles as the length-baseline drift of a
long duration cycling test, where the untwisted length shortens cycle
by cycle until it levels off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import InputError, NonInvertibleError, ParameterError

_MIN_POINTS = 3
# Minimum cycle anchors before the saturating baseline fit is attempted.
_MIN_ANCHORS = 4


@dataclass(frozen=True)
class ResistanceParams:
    """Electrical model of one conductive string pair."""

    r0: float                     # untwisted baseline resistance (ohm)
    sensitivity: float            # ohm per percent strain
    tau_transient: float          # transient time constant (s)
    transient_gain: float = 0.0   # ohm injected per percent strain step
    creep_rate: float = 0.0       # initial creep slope (ohm per cycle)
    creep_saturation: float = math.inf  # creep asymptote (ohm)

    def __post_init__(self):
        if not 0.0 < self.r0 < math.inf:
            raise ParameterError("baseline resistance must be positive and finite")
        if not 0.0 < abs(self.sensitivity) < math.inf:
            raise ParameterError("sensitivity must be nonzero and finite for invertibility")
        if not 0.0 < self.tau_transient < math.inf:
            raise ParameterError("transient time constant must be positive and finite")
        if not math.isfinite(self.transient_gain):
            raise ParameterError("transient gain must be finite")
        if not 0.0 <= self.creep_rate < math.inf:
            raise ParameterError("creep rate must be nonnegative and finite")
        if not 0.0 < self.creep_saturation <= math.inf:
            raise ParameterError("creep saturation must be positive or inf")


def creep_component(rate: float, saturation: float, cycles) -> np.ndarray:
    """Saturating-exponential creep after a (possibly fractional) cycle count.

    Starts at zero with slope ``rate`` and approaches ``saturation``;
    an infinite saturation degenerates to a pure linear drift.
    """
    c = np.asarray(cycles, dtype=float)
    if np.any(c < 0):
        raise ParameterError("cycle counts must be nonnegative")
    if rate == 0.0:
        return np.zeros_like(c)
    if math.isinf(saturation):
        return rate * c
    return saturation * (1.0 - np.exp(-rate * c / saturation))


def transient_component(gain: float, tau: float, strains, times) -> np.ndarray:
    """First-order response to strain steps, decaying toward zero.

    Each strain increment injects ``gain`` ohm per percent of step; the
    accumulated state decays with time constant ``tau``. The strain
    history before the first sample is taken as zero.
    """
    s = np.asarray(strains, dtype=float)
    t = np.asarray(times, dtype=float)
    _check_series(s, t)
    out = np.empty_like(s)
    state = gain * s[0]  # step from the zero pre-history
    out[0] = state
    for k in range(1, s.size):
        state *= math.exp(-(t[k] - t[k - 1]) / tau)
        state += gain * (s[k] - s[k - 1])
        out[k] = state
    return out


def _check_series(*series):
    n = {np.asarray(x).shape for x in series}
    if len(n) != 1 or any(np.asarray(x).ndim != 1 for x in series):
        raise InputError("series must be 1-d and of equal length")
    t = np.asarray(series[-1], dtype=float)
    if np.any(np.diff(t) <= 0):
        raise InputError("time must be strictly increasing")


def resistance_forward(params: ResistanceParams, strains, times, cycles) -> np.ndarray:
    """Resistance trace for a strain history (ohm).

    cycles maps each sample to its accumulated actuation cycle count.
    """
    s = np.asarray(strains, dtype=float)
    t = np.asarray(times, dtype=float)
    c = np.asarray(cycles, dtype=float)
    _check_series(s, c, t)
    return (
        params.r0
        + params.sensitivity * s
        + transient_component(params.transient_gain, params.tau_transient, s, t)
        + creep_component(params.creep_rate, params.creep_saturation, c)
    )


def _cycle_anchors(values: np.ndarray) -> np.ndarray:
    """Sample indices where the trace touches its cycle floor.

    Interior strict local minima are the trusted anchors: each marks a
    completed cycle's slack return, where the floor moves by creep
    alone. When fewer than two exist, boundary samples that sit no
    higher than their neighbor fill in — trailing end first (a finished
    run ends slack), start sample last (it carries no cycling history,
    so its floor is offset from the periodic ones).
    """
    v = values
    idx = list(np.nonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))[0] + 1)
    if len(idx) < 2 and v[-1] <= v[-2]:
        idx.append(v.size - 1)
    if len(idx) < 2 and v[0] <= v[1]:
        idx.insert(0, 0)
    return np.array(sorted(set(idx)), dtype=int)


def _saturating(t, amplitude, rate, offset):
    return offset + amplitude * (1.0 - np.exp(-rate * t))


def detrend_creep(resistances, times) -> np.ndarray:
    """Remove the slow creep trend from a resistance trace.

    The baseline is fitted through the cycle minima (every actuation
    cycle revisits its slack point, where only creep moves the floor),
    as a saturating exponential with a linear fallback; whichever fits
    the anchors better wins. The fitted baseline is subtracted relative
    to its initial value, so a trend-free trace passes through unchanged.
    """
    r = np.asarray(resistances, dtype=float)
    t = np.asarray(times, dtype=float)
    _check_series(r, t)
    if r.size < _MIN_POINTS:
        raise InputError(f"need at least {_MIN_POINTS} points to detrend")

    # Fewer than two cycle floors means the trace never cycles; only
    # then is the whole trace treated as drift (the linear fallback
    # that makes a pure ramp come out flat).
    anchors = _cycle_anchors(r)
    if anchors.size < 2:
        anchors = np.arange(r.size)
    ra = r[anchors]
    ts = t[anchors] - t[0]

    # Linear fallback, exact for drift-free and purely linear traces.
    slope, intercept = np.polyfit(ts, ra, 1)
    lin_sse = float(np.sum((intercept + slope * ts - ra) ** 2))
    best = ("linear", lin_sse)

    # The three-parameter saturating baseline needs enough anchors to
    # be determined; below that the linear form always stands.
    sat_popt = None
    span = float(ra[-1] - ra[0])
    if anchors.size >= _MIN_ANCHORS and ts[-1] > 0:
        try:
            sat_popt, _ = curve_fit(
                _saturating,
                ts,
                ra,
                p0=(span if span != 0 else 1.0, 2.0 / ts[-1], float(ra[0])),
                maxfev=10000,
            )
            sat_sse = float(np.sum((_saturating(ts, *sat_popt) - ra) ** 2))
            if np.all(np.isfinite(sat_popt)) and sat_sse < lin_sse:
                best = ("saturating", sat_sse)
        except (RuntimeError, ValueError):
            sat_popt = None

    if best[0] == "saturating":
        baseline = _saturating(t - t[0], *sat_popt)
    else:
        baseline = intercept + slope * (t - t[0])
    return r - (baseline - baseline[0])


def estimate_strain(params: ResistanceParams, resistances, times) -> np.ndarray:
    """Strain history (percent) recovered from a resistance trace.

    Runs detrend_creep, then deconvolves the first-order transient
    sample by sample, then inverts the affine baseline.
    """
    if abs(params.sensitivity + params.transient_gain) < 1e-12:
        raise NonInvertibleError(
            "sensitivity and transient gain cancel; strain steps are unobservable"
        )
    r = detrend_creep(resistances, times)
    t = np.asarray(times, dtype=float)
    y = r - params.r0

    gain = params.transient_gain
    tau = params.tau_transient
    denom = params.sensitivity + gain
    s = np.empty_like(y)
    s_prev = 0.0
    state = 0.0  # transient state carried between samples
    for k in range(y.size):
        decayed = state * math.exp(-(t[k] - t[k - 1]) / tau) if k else 0.0
        s[k] = (y[k] - decayed + gain * s_prev) / denom
        state = decayed + gain * (s[k] - s_prev)
        s_prev = s[k]
    return s


def length_baseline(
    initial_length: float, rate: float, saturation: float, cycles
) -> np.ndarray:
    """Untwisted length over a long cycling test (mm).

    The length floor creeps down with the same saturating law as the
    electrical creep: fastest on early cycles, leveling off at
    ``initial_length - saturation``.
    """
    if initial_length <= 0:
        raise ParameterError("initial length must be positive")
    return initial_length - creep_component(rate, saturation, cycles)
