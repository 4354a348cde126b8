"""Prandtl-Ishlinskii hysteresis on top of the two-phase backbone.

The twist-to-length map of a real actuator traces a loop: at equal twist
the string is a little longer while winding up (friction delays coil
formation) and a little shorter while unwinding (coils persist). A
weighted superposition of play operators captures this memory. Weights
are identified from data by nonnegative least squares, which keeps the
operator monotone and rate independent by construction.

One play step with threshold t is a clamp of the previous output,
y_k = max(x_k - t, min(x_k + t, y_{k-1})). Clamps compose into clamps:
applying [lo_a, hi_a] after [lo_b, hi_b] is the clamp to
[max(lo_a, min(hi_a, lo_b)), max(lo_a, min(hi_a, hi_b))]. So the whole
recursion is a prefix scan over clamp bounds, evaluated in log2(n)
whole-array passes (see play_responses). Min and max only select one of
their arguments, so the scan returns the recursion's own floats and never
rounds; the one freedom is which of +0.0 and -0.0 a tie selects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .errors import ParameterError, UnderdeterminedError
from .model import (
    LENGTH_FLOOR,
    LoadCase,
    StringSpec,
    TwoPhaseParams,
    effective_length,
    twist_profile,
)

DEFAULT_THRESHOLD_COUNT = 8


class IllConditionedFit(UserWarning):
    """Identification regressor matrix is rank deficient."""


def _validate_thresholds(thresholds: np.ndarray) -> np.ndarray:
    t = np.asarray(thresholds, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ParameterError("thresholds must be a nonempty 1-d sequence")
    if not np.isfinite(t).all():
        raise ParameterError("thresholds must be finite")
    if t[0] != 0.0:
        raise ParameterError("first threshold must be 0")
    if np.any(np.diff(t) <= 0):
        raise ParameterError("thresholds must be strictly ascending")
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


@dataclass
class PIModel:
    """Superposition of play operators. One instance, one writer."""

    thresholds: np.ndarray
    weights: np.ndarray
    states: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.thresholds = _validate_thresholds(self.thresholds)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != self.thresholds.shape:
            raise ParameterError("weights and thresholds must have equal length")
        if not ((self.weights >= 0) & (self.weights < np.inf)).all():
            raise ParameterError("weights must be nonnegative and finite")
        self.states = _validate_states(self.states, self.thresholds)

    @classmethod
    def zeros(cls, thresholds) -> "PIModel":
        t = _validate_thresholds(np.asarray(thresholds, dtype=float))
        return cls(thresholds=t, weights=np.zeros_like(t))

    def reset(self) -> None:
        self.states = np.zeros_like(self.thresholds)

    def copy(self) -> "PIModel":
        return PIModel(self.thresholds.copy(), self.weights.copy(), self.states.copy())

    def step(self, x: float) -> float:
        """Advance every operator by one sample, return the weighted sum."""
        return float(pi_apply(self, [x])[0])


def _advance(model: PIModel, xs: np.ndarray) -> np.ndarray:
    """Play outputs of the model's operators over xs, starting from and
    then updating its memory."""
    plays = play_responses(model.thresholds, xs, model.states)
    if xs.size:
        model.states = plays[-1].copy()
    return plays


def pi_apply(model: PIModel, inputs) -> np.ndarray:
    """Run an input sequence through the model, updating its memory."""
    return _advance(model, np.asarray(inputs, dtype=float)) @ model.weights


def default_thresholds(inputs, count: int = DEFAULT_THRESHOLD_COUNT) -> np.ndarray:
    """Uniform threshold grid over the input range, starting at 0."""
    xs = np.asarray(inputs, dtype=float)
    if xs.size == 0:
        raise ParameterError("cannot derive thresholds from an empty sequence")
    span = float(xs.max() - xs.min())
    if span <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, span, count, endpoint=False)


def play_responses(thresholds, inputs, states=None) -> np.ndarray:
    """Matrix of play operator outputs, one column per threshold.

    The operators start from states (one per threshold), or fresh at 0.
    Thresholds, inputs and states must be finite.

    Row k is F_k(states) with F_k = f_k o ... o f_0, where f_j is the
    clamp to [x_j - t, x_j + t]. A clamp is monotone, so f_a o f_b is the
    clamp to [f_a(lo_b), f_a(hi_b)]; as lo_a <= hi_a, f_a(y) equals both
    max(lo_a, min(hi_a, y)) and min(hi_a, max(lo_a, y)), and the scan uses
    whichever form needs no extra buffer. A Hillis-Steele pass at stride s
    composes each row's clamp with the one s rows earlier; after the passes
    at s = 1, 2, 4, ... every row holds its whole prefix F_k. Each bound
    stays one of the x_j -/+ t, selected and never recomputed, so the
    outputs equal the recursion's exactly, up to which signed zero a tie
    between +0.0 and -0.0 keeps. Work memory is three n x m arrays, the
    result included.
    """
    t = _validate_thresholds(np.asarray(thresholds, dtype=float))
    xs = np.asarray(inputs, dtype=float)
    if xs.ndim != 1:
        raise ParameterError("inputs must be a 1-d sequence")
    if not np.isfinite(xs).all():
        raise ParameterError("inputs must be finite")
    states = _validate_states(states, t)
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


def stop_responses(thresholds, inputs) -> np.ndarray:
    """Complementary stop operator outputs, x - play(x), bounded by the threshold."""
    xs = np.asarray(inputs, dtype=float)
    return xs[:, None] - play_responses(thresholds, xs)


def _nnls_fit(regressors: np.ndarray, targets: np.ndarray):
    if np.linalg.matrix_rank(regressors) < regressors.shape[1]:
        warnings.warn(
            "identification regressors are rank deficient; weights are not unique",
            IllConditionedFit,
            stacklevel=3,
        )
    weights, residual = nnls(regressors, targets)
    return weights, float(residual)


def pi_identify(inputs, targets, thresholds) -> tuple[PIModel, float]:
    """Identify nonnegative weights from matched input/target sequences.

    Returns the identified model (memory reset) and the residual 2-norm.
    The sequences must be at least four samples per threshold.
    """
    xs = np.asarray(inputs, dtype=float)
    ys = np.asarray(targets, dtype=float)
    t = _validate_thresholds(np.asarray(thresholds, dtype=float))
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("inputs and targets must be 1-d sequences of equal length")
    if xs.size < 4 * t.size:
        raise UnderdeterminedError(
            f"need at least {4 * t.size} samples to identify {t.size} weights"
        )
    weights, residual = _nnls_fit(play_responses(t, xs), ys)
    return PIModel(thresholds=t, weights=weights), residual


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
    unwinding branches. Returns the model and the residual 2-norm of the
    corrected fit; compare against the backbone-only residual to judge
    whether the data carries a loop at all.
    """
    xs = np.asarray(thetas, dtype=float)
    ys = np.asarray(lengths, dtype=float)
    t = _validate_thresholds(np.asarray(thresholds, dtype=float))
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("thetas and lengths must be 1-d sequences of equal length")
    if xs.size < 4 * t.size:
        raise UnderdeterminedError(
            f"need at least {4 * t.size} samples to identify {t.size} weights"
        )
    backbone = twist_profile(spec, params, load, xs).length
    basis = stop_responses(t, xs)
    # The zero-threshold stop operator is identically zero (play is the
    # identity there), so that column is structurally unidentifiable;
    # pin its weight and fit the rest.
    live = t > 0.0
    fitted, residual = _nnls_fit(basis[:, live], ys - backbone)
    weights = np.zeros(t.size)
    weights[live] = fitted
    return PIModel(thresholds=t, weights=weights), residual


def hysteretic_length(
    spec: StringSpec,
    params: TwoPhaseParams,
    load: LoadCase,
    model: PIModel,
    thetas,
    training=None,
) -> np.ndarray:
    """Length sequence with the hysteresis correction applied (mm).

    The backbone is the two-phase law; the correction is the weighted
    stop operator sum driven by twist, so winding branches sit above the
    backbone and unwinding branches below it. Output is clamped to
    (0, L_eff]. With all weights zero this is exactly the backbone.
    """
    xs = np.asarray(thetas, dtype=float)
    backbone = twist_profile(spec, params, load, xs, training=training).length
    correction = (xs[:, None] - _advance(model, xs)) @ model.weights
    return np.clip(backbone + correction, LENGTH_FLOOR, effective_length(spec, params, load))
