"""Resistance based self-sensing of conductive string pairs.

Conductive strings double as their own stretch sensor: resistance
follows strain through an affine baseline, disturbed by a first-order
transient after each strain step and by a slow creep that accumulates
with actuation cycles and saturates. The inverse estimator peels those
effects off in reverse order, each by an exact reduction. The creep
baseline is fitted through one floor per cycle, where the trace returns
to slack and only creep moves it: a floor counts once the trace has
fallen to it and risen from it by h, half the smaller of its largest
draw-down and largest run-up, which noise and transient dips, far
smaller than a stroke, do not span. The log's end is a floor only when
its last fall is nearly as deep as the one before, not when the log
stops partway back to slack. The baseline is one family,
c0 + c1 * phi_k(t) with phi_k(x) = -expm1(-k x) / k and the straight
line phi_0(x) = x. For each rate k, (c0, c1) is a closed-form least
squares (variable projection), so only k is searched: on a fixed log
grid, then by golden-section search. The transient and its inversion
are first-order recursions, each solved by one affine doubling scan.

The same saturating creep law doubles as the length-baseline drift of a
long duration cycling test, where the untwisted length shortens cycle
by cycle until it levels off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonInvertibleError, ParameterError
from .hysteresis import _clamp_scan, _run_ends

_MIN_POINTS = 3
# Minimum cycle anchors before the saturating creep members are fitted.
_MIN_ANCHORS = 4
# Creep rates scored before refinement, as k times the mean anchor spacing.
# Creep that saturates within one cycle is unobserved before the first
# floor, where a faster member only extrapolates noise into an offset.
_RATE_GRID = np.logspace(-4.0, 0.0, 41)
_GOLDEN_STEPS = 60
# Least depth of a log's last fall, as a share of the fall before it, for
# its end to count as a floor. Creep and noise change one fall from the
# next by a few percent of a stroke; a log that stops short of slack by
# more leaves a floor above slack, which the creep fit would bend toward.
_FALL_SHARE = 0.95


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
            raise ParameterError("baseline resistance must be positive and finite", field="r0")
        if not 0.0 < abs(self.sensitivity) < math.inf:
            raise ParameterError("sensitivity must be nonzero and finite for invertibility",
                                 field="sensitivity")
        if not 0.0 < self.tau_transient < math.inf:
            raise ParameterError("transient time constant must be positive and finite",
                                 field="tau_transient")
        if not math.isfinite(self.transient_gain):
            raise ParameterError("transient gain must be finite", field="transient_gain")
        if not 0.0 <= self.creep_rate < math.inf:
            raise ParameterError("creep rate must be nonnegative and finite", field="creep_rate")
        if not 0.0 < self.creep_saturation <= math.inf:
            raise ParameterError("creep saturation must be positive or inf",
                                 field="creep_saturation")


def creep_component(rate: float, saturation: float, cycles) -> np.ndarray:
    """Saturating-exponential creep after a (possibly fractional) cycle count.

    Starts at zero with slope ``rate`` and approaches ``saturation``;
    an infinite saturation degenerates to a pure linear drift.
    """
    c = np.asarray(cycles, dtype=float)
    if not np.all(c >= 0):
        raise ParameterError("cycle counts must be nonnegative numbers")
    if rate == 0.0:
        return np.zeros_like(c)
    if math.isinf(saturation):
        return rate * c
    return saturation * (1.0 - np.exp(-rate * c / saturation))


def _affine_scan(c, u) -> np.ndarray:
    """s_k = c_k * s_{k-1} + u_k from s_{-1} = 0, by recursive doubling.

    Maps s -> c s + u compose as (c_a, u_a) o (c_b, u_b) = (c_a c_b,
    c_a u_b + u_a); the pass at stride d composes each sample's map with
    the one d samples earlier. The sums are grouped by pass, so the
    result matches a sample loop to rounding, not bit for bit.
    """
    c = np.array(c, dtype=float)
    s = np.array(u, dtype=float)
    # Each pass writes into the other buffer of a pair, so that no
    # operand overlaps its output, which numpy would first copy.
    c_next, s_next = np.empty_like(c), np.empty_like(s)
    stride = 1
    while stride < s.size:
        np.multiply(c[stride:], s[:-stride], out=s_next[stride:])
        np.add(s_next[stride:], s[stride:], out=s_next[stride:])
        np.multiply(c[stride:], c[:-stride], out=c_next[stride:])
        s_next[:stride], c_next[:stride] = s[:stride], c[:stride]
        s, s_next, c, c_next = s_next, s, c_next, c
        stride *= 2
    return s


def _decay(times: np.ndarray, tau: float) -> np.ndarray:
    """Transient decay factor exp(-dt / tau) into each sample (1 at the first)."""
    return np.exp(-np.diff(times, prepend=times[:1]) / tau)


def transient_component(gain: float, tau: float, strains, times) -> np.ndarray:
    """First-order response to strain steps, decaying toward zero.

    Each strain increment injects ``gain`` ohm per percent of step; the
    accumulated state decays with time constant ``tau``. The strain
    history before the first sample is taken as zero.
    """
    s = np.asarray(strains, dtype=float)
    t = np.asarray(times, dtype=float)
    _check_series(s, t)
    return _affine_scan(_decay(t, tau), gain * np.diff(s, prepend=0.0))


def _check_series(*series):
    arrays = [np.asarray(x, dtype=float) for x in series]
    if len({a.shape for a in arrays}) != 1 or any(a.ndim != 1 for a in arrays):
        raise InputError("series must be 1-d and of equal length")
    if not all(np.isfinite(a).all() for a in arrays):
        raise InputError("series must be finite (no NaN or inf)")
    if np.any(np.diff(arrays[-1]) <= 0):
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


def _cycle_anchors(v: np.ndarray) -> np.ndarray:
    """Sample indices of the cycle floors of a trace whose slack is its floor.

    One play operator of half-width h/2, started at the first sample and
    scanned alone, turns only after the trace reverses by h, so a floor
    ends each of its downward runs. Inside a strictly monotone run of the
    trace the operator moves only the run's way, and if it moves at all,
    it moves at the run's end; so it is scanned over the run ends alone,
    found by the one helper play_responses uses too, and turns at the
    same samples as over the whole trace. The last run may stop partway
    back to slack, above the floor; it ends a floor only when it falls at
    least _FALL_SHARE as deep as the run before it. The first sample, a
    floor when the trace rises first, carries no cycling history and
    counts only when fewer than two other floors exist.
    """
    h = 0.5 * min(np.max(np.maximum.accumulate(v) - v), np.max(v - np.minimum.accumulate(v)))
    if not h > 0:
        return np.empty(0, dtype=int)
    runs = _run_ends(v)
    steps = np.diff(_clamp_scan(v[runs], [0.5 * h], [v[0]])[:, 0])
    moves = np.flatnonzero(steps)
    down = steps[moves] < 0
    last = np.append(down[:-1] != down[1:], True)
    ends, falls = runs[moves[last] + 1], down[last]
    floors = ends[falls]
    depth = -np.diff(v[ends])[falls[1:]]
    if falls[-1] and depth.size >= 2 and depth[-1] < _FALL_SHARE * depth[-2]:
        floors = floors[:-1]
    if floors.size < 2 and not down[0]:
        floors = np.insert(floors, 0, 0)
    return floors


def _phi(rate: float, x: np.ndarray) -> np.ndarray:
    """Creep shape -expm1(-rate x) / rate, the straight line x at rate 0."""
    return x if rate == 0.0 else -np.expm1(-rate * x) / rate


def _fit_creep(x: np.ndarray, r: np.ndarray):
    """(rate, c1) of the least-squares c0 + c1 * phi_rate(x) through (x, r).

    The rate is 0 or the best of the grid, refined between its grid
    neighbours; fewer than _MIN_ANCHORS points fit the line only.
    """
    rc = r - r.mean()

    def fit(rate):
        p = _phi(rate, x)
        p = p - p.mean()
        c1 = (p @ rc) / (p @ p) if p @ p > 0 else 0.0
        res = rc - c1 * p
        return float(res @ res), rate, c1

    if x.size < _MIN_ANCHORS:
        return fit(0.0)[1:]
    rates = np.concatenate(([0.0], _RATE_GRID * (x.size - 1) / (x[-1] - x[0])))
    i = int(np.argmin([fit(k)[0] for k in rates]))
    best = fit(rates[i])
    if i > 0:
        lo, hi = np.log(rates[[max(i - 1, 1), min(i + 1, rates.size - 1)]])
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(_GOLDEN_STEPS):
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, b) if fit(math.exp(a)) <= fit(math.exp(b)) else (a, hi)
        best = min(best, fit(math.exp(0.5 * (lo + hi))))
    return best[1:]


def detrend_creep(resistances, times) -> np.ndarray:
    """Remove the slow creep trend from a resistance trace.

    The creep baseline is fitted through the cycle floors, the trace's
    minima, or through the whole trace when fewer than two floors show
    that it never cycles. It is subtracted relative to its initial value,
    so a trend-free trace passes through unchanged.
    """
    r = np.asarray(resistances, dtype=float)
    t = np.asarray(times, dtype=float)
    _check_series(r, t)
    if r.size < _MIN_POINTS:
        raise InputError(f"need at least {_MIN_POINTS} points to detrend")
    anchors = _cycle_anchors(r)
    if anchors.size < 2:
        anchors = np.arange(r.size)
    x = t - t[0]
    rate, c1 = _fit_creep(x[anchors], r[anchors])
    return r - c1 * _phi(rate, x)


def estimate_strain(params: ResistanceParams, resistances, times) -> np.ndarray:
    """Strain history (percent) recovered from a resistance trace.

    Strains are negative when contracted, so slack is the floor of the
    trace times -sign(S + g), S the sensitivity and g the transient gain,
    and the trace is detrended in that orientation. With y the detrended
    trace minus r0 and a_k the transient decay into sample k, the
    transient and the baseline invert as one recursion, s_k = ((a_k S +
    g) s_{k-1} + y_k - a_k y_{k-1}) / (S + g). A strain outside
    (-100, 100) % raises NonInvertibleError.
    """
    gain = params.transient_gain
    denom = params.sensitivity + gain
    if abs(denom) < 1e-12:
        raise NonInvertibleError(
            "sensitivity and transient gain cancel; strain steps are unobservable"
        )
    sign = -1.0 if denom > 0 else 1.0
    t = np.asarray(times, dtype=float)
    # Resistances near the largest double can overflow; the strain check
    # below refuses what that makes inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        y = sign * detrend_creep(sign * np.asarray(resistances, dtype=float), t) - params.r0
        a = _decay(t, params.tau_transient)
        u = (y - a * np.append(0.0, y[:-1])) / denom
        s = _affine_scan((a * params.sensitivity + gain) / denom, u)
    # No string shortens to zero length, and no toolkit model stretches
    # one to double its length.
    outside = np.flatnonzero(~(np.abs(s) < 100.0))
    if outside.size:
        k = outside[0]
        raise NonInvertibleError(
            f"recovered strain {s[k]:.6g}% at time {t[k]:.6g} s is outside (-100, 100)%; "
            "the sensing parameters do not explain this log"
        )
    return s


def length_baseline(
    initial_length: float, rate: float, saturation: float, cycles
) -> np.ndarray:
    """Untwisted length over a long cycling test (mm).

    The length floor creeps down with the same saturating law as the
    electrical creep: fastest on early cycles, leveling off at
    ``initial_length - saturation``.
    """
    if not 0.0 < initial_length < math.inf:
        raise ParameterError("initial length must be positive and finite")
    return initial_length - creep_component(rate, saturation, cycles)
