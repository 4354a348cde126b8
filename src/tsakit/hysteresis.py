"""Prandtl-Ishlinskii hysteresis on top of the two-phase backbone.

The twist-to-length map of a real actuator traces a loop: at equal twist
the string is a little longer while winding up (friction delays coil
formation) and a little shorter while unwinding (coils persist). A
weighted superposition of play operators captures this memory. Weights
are identified from data by nonnegative least squares, which keeps the
operator monotone and rate independent by construction.

A PIModel is a frozen value that holds thresholds and weights only:
pi_apply and hysteretic_length start its operators from the virgin state
on every call. A sequence split across calls resumes through
play_responses, whose last row is the states to pass to the next call.

One play step with threshold t is a clamp of the previous output,
y_k = max(x_k - t, min(x_k + t, y_{k-1})). Clamps compose into clamps:
applying [lo_a, hi_a] after [lo_b, hi_b] is the clamp to
[max(lo_a, min(hi_a, lo_b)), max(lo_a, min(hi_a, hi_b))]. So the whole
recursion is a prefix scan over clamp bounds, evaluated in log2(r)
whole-array passes over the r ends of the input's strictly monotone runs;
inside a run each output is the clamp of the one at the run's start (see
play_responses). Min and max only select one of their arguments, so the
scan returns the recursion's own floats and never rounds; the one freedom
is which of +0.0 and -0.0 a tie selects. The run ends depend on the
inputs alone and every column is scanned on its own, so a subset of the
thresholds gives those columns of the full call bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnderdeterminedError
from .model import (
    LENGTH_FLOOR,
    LoadCase,
    StringSpec,
    TwoPhaseParams,
    effective_length,
    twist_profile,
)


class IllConditionedFit(UserWarning):
    """Identification regressor matrix is rank deficient."""


def _validate_thresholds(thresholds) -> np.ndarray:
    t = np.asarray(thresholds, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ParameterError("thresholds must be a nonempty 1-d sequence", field="thresholds")
    if not np.isfinite(t).all():
        raise ParameterError("thresholds must be finite", field="thresholds")
    if np.any(np.diff(t) <= 0):
        raise ParameterError("thresholds must be strictly ascending", field="thresholds")
    if t[0] < 0.0:
        raise ParameterError("thresholds must be nonnegative", field="thresholds")
    return t


def _pi_thresholds(thresholds) -> np.ndarray:
    """Thresholds of a PI model: the first one is 0, the identity operator."""
    t = _validate_thresholds(thresholds)
    if t[0] != 0.0:
        raise ParameterError("first threshold must be 0", field="thresholds")
    return t


def _validate_states(states, thresholds: np.ndarray) -> np.ndarray:
    if states is None:
        return np.zeros_like(thresholds)
    s = np.asarray(states, dtype=float)
    if s.shape != thresholds.shape:
        raise ParameterError("states and thresholds must have equal length")
    if not np.isfinite(s).all():
        raise ParameterError("states must be finite")
    return s


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PIModel:
    """Superposition of play operators: ascending thresholds from 0, and
    their nonnegative weights. Read-only; every call starts from the
    virgin state."""

    thresholds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = _frozen(_pi_thresholds(self.thresholds))
        w = _frozen(self.weights)
        if w.shape != t.shape:
            raise ParameterError("weights and thresholds must have equal length")
        if not ((w >= 0) & (w < np.inf)).all():
            raise ParameterError("weights must be nonnegative and finite", field="weights")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "weights", w)


def pi_apply(model: PIModel, inputs) -> np.ndarray:
    """Run an input sequence through the model from the virgin state."""
    return play_responses(model.thresholds, inputs) @ model.weights


def play_responses(thresholds, inputs, states=None) -> np.ndarray:
    """Matrix of play operator outputs, one column per threshold.

    Thresholds are nonnegative and strictly ascending. The operators start
    from states (one per threshold), or fresh at 0. Thresholds, inputs and
    states must be finite.

    Inside a strictly monotone run of inputs the play step never reads the
    clamp bound behind the input: rising from a run end a, y_k = max(x_k -
    t, y_a), and falling, y_k = min(x_k + t, y_a), both the clamp of y_a to
    [x_k - t, x_k + t]. So the recursion runs only over the samples of
    _run_ends, in _clamp_scan, and each sample is then the clamp of the
    output at the last run end at or before it. The cost is O(n m) plus
    the scan's O(r m log2 r) over r run ends. A triangle of c cycles has
    about 2c; white noise turns at about two samples in three; and an
    input that turns at every sample makes every sample a run end, which
    costs the full scan plus a few O(n m) passes. Work memory is the n x m
    result, a few n-long arrays and the scan's three r x m arrays.

    Min and max only select, so the outputs equal the recursion's floats,
    up to which signed zero a tie between +0.0 and -0.0 keeps.
    """
    t = _validate_thresholds(thresholds)
    xs = np.asarray(inputs, dtype=float)
    if xs.ndim != 1:
        raise ParameterError("inputs must be a 1-d sequence")
    if not np.isfinite(xs).all():
        raise ParameterError("inputs must be finite")
    states = _validate_states(states, t)
    ends = _run_ends(xs)
    out = np.repeat(_clamp_scan(xs[ends], t, states), np.diff(ends, append=xs.size), axis=0)
    bound = np.empty_like(xs)
    for threshold, column in zip(t, out.T):    # n-long passes, not n x m broadcasts
        np.minimum(np.add(xs, threshold, out=bound), column, out=column)
        np.maximum(np.subtract(xs, threshold, out=bound), column, out=column)
    return out


def _run_ends(xs: np.ndarray) -> np.ndarray:
    """Indices of the ends of the strictly monotone runs of xs: the first
    and last samples, and every sample whose two steps do not share a
    strict sign, plateaus included.

    play_responses scans its operators over these samples alone, and so
    does sensing's floor search, which needs only where one operator turns.
    """
    up, down = xs[1:] > xs[:-1], xs[1:] < xs[:-1]
    at_end = np.ones(xs.size, dtype=bool)
    at_end[1:-1] = ~(up[1:] & up[:-1] | down[1:] & down[:-1])
    return np.flatnonzero(at_end)


def _clamp_scan(xs: np.ndarray, t: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The play recursion over every sample of xs, as a doubling scan.

    Row k is F_k(states) with F_k = f_k o ... o f_0, where f_j is the
    clamp to [x_j - t, x_j + t]. A clamp is monotone, so f_a o f_b is the
    clamp to [f_a(lo_b), f_a(hi_b)]; as lo_a <= hi_a, f_a(y) equals both
    max(lo_a, min(hi_a, y)) and min(hi_a, max(lo_a, y)), and the scan uses
    whichever form needs no extra buffer. A Hillis-Steele pass at stride s
    composes each row's clamp with the one s rows earlier; after the passes
    at s = 1, 2, 4, ... every row holds its whole prefix F_k. Each bound
    stays one of the x_j -/+ t, selected and never recomputed. Work memory
    is three n x m arrays, the result included.
    """
    lo = np.subtract.outer(xs, t)
    hi = np.add.outer(xs, t)
    spare = np.empty_like(lo)
    stride = 1
    while stride < xs.size:
        a_lo, a_hi = lo[stride:], hi[stride:]  # clamps applied second
        b_lo, b_hi = lo[:-stride], hi[:-stride]  # clamps applied first
        # Upper bounds min(a_hi, max(a_lo, b_hi)) go to spare...
        up = spare[stride:]
        np.maximum(a_lo, b_hi, out=up)
        np.minimum(a_hi, up, out=up)
        spare[:stride] = hi[:stride]
        # ...then lower bounds max(a_lo, min(a_hi, b_lo)) over a_hi, which
        # b_hi no longer needs; the rows below stride are already whole.
        np.minimum(a_hi, b_lo, out=a_hi)
        np.maximum(a_lo, a_hi, out=a_hi)
        hi[:stride] = lo[:stride]
        lo, hi, spare = hi, spare, lo
        stride *= 2
    np.minimum(hi, states, out=hi)
    return np.maximum(lo, hi, out=hi)


def _identify(inputs, targets, thresholds, names, design) -> tuple[PIModel, float]:
    """NNLS weights of a PI model from matched sequences.

    design(t, xs, ys) gives the regressor matrix and the target, one row
    per sample it keeps. A matrix with one column fewer than t leaves out
    the zero threshold, whose weight stays 0. At least four samples per
    threshold must be kept.
    """
    # Only identification needs scipy; no CLI command reaches it.
    from scipy.optimize import nnls

    xs = np.asarray(inputs, dtype=float)
    ys = np.asarray(targets, dtype=float)
    t = _pi_thresholds(thresholds)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError(f"{names[0]} and {names[1]} must be 1-d sequences of equal length")
    if not np.isfinite(ys).all():
        raise ParameterError(f"{names[1]} must be finite")
    basis, target = design(t, xs, ys)
    if target.size < 4 * t.size:
        raise UnderdeterminedError(
            f"need at least {4 * t.size} samples to identify {t.size} weights"
        )
    if np.linalg.matrix_rank(basis) < basis.shape[1]:
        warnings.warn(
            "identification regressors are rank deficient; weights are not unique",
            IllConditionedFit,
            stacklevel=3,
        )
    fitted, residual = nnls(basis, target)
    weights = np.concatenate([np.zeros(t.size - fitted.size), fitted])
    return PIModel(thresholds=t, weights=weights), float(residual)


def pi_identify(inputs, targets, thresholds) -> tuple[PIModel, float]:
    """Identify nonnegative weights from matched input/target sequences.

    Thresholds start at 0. Returns the identified model and the residual
    2-norm. The sequences must be at least four samples per threshold.
    """
    return _identify(
        inputs, targets, thresholds, ("inputs", "targets"),
        lambda t, xs, ys: (play_responses(t, xs), ys),
    )


def identify_length_correction(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    thetas,
    lengths,
    thresholds,
) -> tuple[PIModel, float]:
    """Fit the loop-widening correction of hysteretic_length to length data.

    The correction basis is the stop operator family (input minus play),
    which vanishes on the virgin state and flips sign between winding and
    unwinding branches. The zero-threshold stop operator is identically
    zero, so its weight stays 0 and at least one positive threshold must
    follow it. Samples on the clamp of hysteretic_length (a length of at
    least L_eff, or at most LENGTH_FLOOR) carry no correction and are left
    out; the stop operators still run over the whole sequence, so they
    keep their memory, and the four-samples-per-threshold minimum counts
    the kept samples. Returns the model and the residual 2-norm of the
    corrected fit over the kept samples; compare against the
    backbone-only residual to judge whether the data carries a loop at
    all.
    """
    def design(t, xs, ys):
        if t.size < 2:
            raise ParameterError("the stop basis needs a positive threshold")
        stops = xs[:, None] - play_responses(t[1:], xs)
        target = ys - twist_profile(spec, params, load, xs).length
        kept = (ys > LENGTH_FLOOR) & (ys < effective_length(spec, params, load))
        return stops[kept], target[kept]

    return _identify(thetas, lengths, thresholds, ("thetas", "lengths"), design)


def hysteretic_length(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    model: PIModel,
    thetas,
    backbone,
) -> np.ndarray:
    """Length sequence with the hysteresis correction applied (mm).

    The backbone is the two-phase law's length at each twist,
    twist_profile(spec, params, load, thetas).length, which the caller
    already holds; the correction is the weighted stop operator sum driven
    by twist from the virgin state, so winding branches sit above the
    backbone and unwinding branches below it. Twist is in rad and the
    weights in mm per rad. Output is clamped to (0, L_eff]. With all
    weights zero this is exactly the backbone.
    """
    xs = np.asarray(thetas, dtype=float)
    correction = (xs[:, None] - play_responses(model.thresholds, xs)) @ model.weights
    return np.clip(backbone + correction, LENGTH_FLOOR, effective_length(spec, params, load))
