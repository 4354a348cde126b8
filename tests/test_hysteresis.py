"""Play-operator model: recursion oracle, memory properties, identification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit.errors import ParameterError, UnderdeterminedError
from tsakit.hysteresis import (
    IllConditionedFit,
    PIModel,
    default_thresholds,
    hysteretic_length,
    identify_length_correction,
    pi_apply,
    pi_identify,
    play_responses,
)
from tsakit.model import LoadCase, Material, StringSpec, TwoPhaseParams, length
from tsakit.units import rev_to_rad


def play_reference(threshold, xs):
    """Direct transcription of the play recursion, kept separate from
    the vectorized implementation under test."""
    y = 0.0
    out = []
    for x in xs:
        y = max(x - threshold, min(x + threshold, y))
        out.append(y)
    return out


def play_oracle(thresholds, xs, states):
    """The sample-by-sample play recursion that the scan replaces."""
    out = np.empty((len(xs), len(thresholds)))
    for k, x in enumerate(xs):
        states = np.maximum(x - thresholds, np.minimum(x + thresholds, states))
        out[k] = states
    return out


# Quarter steps are exact in binary, so ties, plateaus and exact x -/+ t
# crossings are common; general floats and both signed zeros fill the rest.
QUARTERS = st.integers(-400, 400).map(lambda k: k / 4)
VALUES = st.one_of(QUARTERS, st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def play_cases(draw):
    """Thresholds (1 to 8), inputs (0 to 2000 samples) and start states.

    Inputs are either a random walk on the quarter grid, or a periodic
    repetition of segments: a plateau of one value, or a step of exactly
    one threshold up or down from the previous input.
    """
    gap = st.one_of(st.integers(1, 40).map(lambda k: k / 4), st.floats(1e-3, 50.0))
    gaps = draw(st.lists(gap, max_size=7))
    thresholds = np.cumsum([0.0] + gaps)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        steps = rng.integers(-8, 9, draw(st.integers(0, 2000))) / 4
        xs = draw(QUARTERS) + np.cumsum(steps)
    else:
        segments = draw(
            st.lists(
                st.tuples(
                    st.booleans(), VALUES, st.sampled_from(thresholds),
                    st.sampled_from([-1.0, 1.0]), st.integers(1, 60),
                ),
                max_size=40,
            )
        )
        period = []
        for step, value, t, sign, repeat in segments:
            if step and period:
                value = period[-1] + sign * t
            period.extend([value] * repeat)
        xs = np.tile(np.array(period, dtype=float), draw(st.integers(1, 30)))[:2000]
    states = np.array(draw(st.lists(VALUES, min_size=thresholds.size, max_size=thresholds.size)))
    return thresholds, xs, states


def has_negative_zero(*arrays):
    values = np.concatenate(arrays)
    return bool(np.signbit(values[values == 0.0]).any())


def assert_same_plays(got, want, exact):
    """Equal values; equal bits too unless the case holds a -0.0, where
    min and max may pick either signed zero of a tie."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if exact:
        assert got.tobytes() == want.tobytes()


def triangle(amplitude, periods, samples_per_period, start_at_peak=False):
    """Triangular sweep 0 -> A -> 0 repeated; optionally peak-first."""
    one = np.concatenate(
        [
            np.linspace(0.0, amplitude, samples_per_period // 2, endpoint=False),
            np.linspace(amplitude, 0.0, samples_per_period // 2, endpoint=False),
        ]
    )
    if start_at_peak:
        one = np.concatenate(
            [
                np.linspace(amplitude, 0.0, samples_per_period // 2, endpoint=False),
                np.linspace(0.0, amplitude, samples_per_period // 2, endpoint=False),
            ]
        )
    return np.concatenate([one] * periods)


def play(threshold, xs):
    """Outputs of one fresh play operator, the last column of play_responses."""
    thresholds = [0.0, threshold] if threshold > 0.0 else [0.0]
    return play_responses(thresholds, xs)[:, -1].tolist()


class TestPlayOperator:
    def test_zero_threshold_is_identity(self):
        xs = [0.3, -1.2, 5.0, 4.9]
        assert play(0.0, xs) == xs

    def test_textbook_sequence(self):
        assert play(1.0, [0.0, 2.0, 0.0]) == [0.0, 1.0, 1.0]

    def test_constant_input_fixed_point(self):
        first, *rest = play(0.5, [3.0] * 6)
        for y in rest:
            assert y == first

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.normal(size=300))
        for r in (0.0, 0.4, 2.5):
            got = play(r, xs)
            assert got == pytest.approx(play_reference(r, xs))

    def test_clamp_invariant(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-10, 10, 500)
        for x, y in zip(xs, play(1.7, xs)):
            assert abs(y - x) <= 1.7 + 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            play_responses([0.0, -0.1], [1.0])

    def test_resumes_from_given_states(self):
        rng = np.random.default_rng(5)
        xs = np.cumsum(rng.normal(size=200))
        t = [0.0, 0.4, 2.5]
        whole = play_responses(t, xs)
        head = play_responses(t, xs[:77])
        tail = play_responses(t, xs[77:], states=head[-1])
        assert np.array_equal(np.vstack([head, tail]), whole)

    def test_states_must_match_thresholds(self):
        with pytest.raises(ParameterError):
            play_responses([0.0, 1.0], [1.0], states=[0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ParameterError, match="thresholds must be finite"):
            play_responses([0.0, bad], [1.0])
        with pytest.raises(ParameterError, match="inputs must be finite"):
            play_responses([0.0, 1.0], [1.0, bad, 2.0])
        with pytest.raises(ParameterError, match="states must be finite"):
            play_responses([0.0, 1.0], [1.0], states=[0.0, bad])

    def test_empty_and_single_sample(self):
        t = np.array([0.0, 1.0, 2.5])
        states = np.array([0.5, -0.5, 3.0])
        empty = play_responses(t, [], states)
        assert empty.shape == (0, 3) and empty.dtype == np.float64
        one = play_responses(t, [2.0], states)
        assert one.tobytes() == play_oracle(t, [2.0], states).tobytes()
        assert one.tolist() == [[2.0, 1.0, 3.0]]


class TestPlayScan:
    """The clamp-composition scan against the sequential recursion."""

    @settings(max_examples=300)
    @given(case=play_cases())
    def test_matches_sequential_recursion(self, case):
        thresholds, xs, states = case
        assert_same_plays(
            play_responses(thresholds, xs, states),
            play_oracle(thresholds, xs, states),
            exact=not has_negative_zero(xs, states),
        )

    def test_every_short_length(self):
        # Each scan depth up to 2**6 + 1 samples, from states that the
        # first sample moves and slow inputs that rarely wipe it out.
        rng = np.random.default_rng(3)
        t = np.array([0.0, 0.75, 2.5])
        states = np.array([9.0, -9.0, 0.25])
        for n in range(70):
            xs = np.cumsum(rng.integers(-2, 3, n) / 4)
            want = play_oracle(t, xs, states)
            assert play_responses(t, xs, states).tobytes() == want.tobytes()

    @settings(max_examples=200)
    @given(case=play_cases(), data=st.data())
    def test_split_call_equals_one_call(self, case, data):
        thresholds, xs, states = case
        cut = data.draw(st.integers(0, xs.size))
        head = play_responses(thresholds, xs[:cut], states)
        tail = play_responses(thresholds, xs[cut:], head[-1] if cut else states)
        assert_same_plays(
            np.vstack([head, tail]),
            play_responses(thresholds, xs, states),
            exact=not has_negative_zero(xs, states),
        )


class TestPIModel:
    def test_identity_model(self):
        model = PIModel(thresholds=np.array([0.0]), weights=np.array([1.0]))
        xs = np.array([0.0, 1.0, 0.5, 2.0, -3.0])
        assert pi_apply(model, xs) == pytest.approx(xs)

    def test_validation(self):
        with pytest.raises(ParameterError):
            PIModel(thresholds=np.array([0.5, 1.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ParameterError):
            PIModel(thresholds=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]))
        with pytest.raises(ParameterError):
            PIModel(thresholds=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        t, ones = np.array([0.0, 1.0]), np.ones(2)
        with pytest.raises(ParameterError, match="thresholds must be finite"):
            PIModel(thresholds=np.array([0.0, bad]), weights=ones)
        with pytest.raises(ParameterError, match="weights must be nonnegative and finite"):
            PIModel(thresholds=t, weights=np.array([1.0, bad]))
        with pytest.raises(ParameterError, match="states must be finite"):
            PIModel(thresholds=t, weights=ones, states=np.array([bad, 0.0]))
        with pytest.raises(ParameterError, match="inputs must be finite"):
            PIModel(thresholds=t, weights=ones).step(bad)

    def test_empty_input_keeps_memory(self):
        model = PIModel(
            thresholds=np.array([0.0, 1.0]),
            weights=np.array([1.0, 1.0]),
            states=np.array([0.5, -0.5]),
        )
        assert pi_apply(model, []).shape == (0,)
        assert model.states.tolist() == [0.5, -0.5]

    def test_monotone_ramp_gives_monotone_output(self):
        model = PIModel(
            thresholds=np.array([0.0, 1.0, 2.0]),
            weights=np.array([0.5, 0.3, 0.8]),
        )
        ys = pi_apply(model, np.linspace(0.0, 10.0, 50))
        assert np.all(np.diff(ys) >= -1e-12)

    def test_rate_independence(self):
        model = PIModel(
            thresholds=np.array([0.0, 0.7, 1.9]),
            weights=np.array([0.4, 0.9, 0.2]),
        )
        xs = triangle(5.0, 2, 40)
        fast = pi_apply(model.copy(), xs)
        # Same path traversed with every sample tripled: outputs at the
        # corresponding points must be identical.
        slow = pi_apply(model.copy(), np.repeat(xs, 3))
        assert fast == pytest.approx(slow[2::3])

    def test_loop_closure_from_second_period(self):
        model = PIModel(
            thresholds=np.array([0.0, 1.0, 2.0, 3.0]),
            weights=np.array([0.4, 0.3, 0.2, 0.1]),
        )
        xs = triangle(8.0, 3, 60)
        ys = pi_apply(model, xs)
        period = 60
        second = ys[period : 2 * period]
        third = ys[2 * period : 3 * period]
        assert second == pytest.approx(third, abs=1e-12)

    def test_peak_start_closes_immediately(self):
        # Starting on an extremum pre-loads the operators, so even the
        # first traversal retraces the closed loop.
        model = PIModel(
            thresholds=np.array([0.0, 1.0, 2.0]),
            weights=np.array([0.4, 0.3, 0.3]),
        )
        xs = triangle(6.0, 2, 50, start_at_peak=True)
        ys = pi_apply(model, xs)
        assert ys[:50] == pytest.approx(ys[50:], abs=1e-12)

    def test_wiping_out(self):
        # A dominating extremum erases the memory of an inner sub-loop:
        # afterwards the states match a fresh model driven only by the
        # outer envelope.
        thresholds = np.array([0.0, 0.5, 1.5, 3.0])
        weights = np.array([0.3, 0.3, 0.2, 0.2])
        nested = np.array(
            [0.0, 4.0, 2.0, 3.0, 1.5, 2.5, 10.0]  # sub-loops, then outer max
        )
        envelope = np.array([0.0, 10.0])
        full = PIModel(thresholds=thresholds.copy(), weights=weights.copy())
        pi_apply(full, nested)
        fresh = PIModel(thresholds=thresholds.copy(), weights=weights.copy())
        pi_apply(fresh, envelope)
        assert full.states == pytest.approx(fresh.states, abs=1e-12)

    def test_memory_carries_across_calls(self):
        # One pass, a split pass and a tail of single steps all agree.
        model = PIModel(
            thresholds=np.array([0.0, 1.0, 2.5]),
            weights=np.array([0.2, 0.5, 0.3]),
        )
        xs = triangle(6.0, 2, 40)
        whole = pi_apply(model.copy(), xs)
        split = model.copy()
        head = pi_apply(split, xs[:33])
        tail = [split.step(float(x)) for x in xs[33:]]
        assert np.concatenate([head, tail]) == pytest.approx(whole, abs=1e-12)

    def test_reset_clears_memory(self):
        model = PIModel(thresholds=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))
        pi_apply(model, [5.0, 2.0])
        model.reset()
        assert model.states == pytest.approx([0.0, 0.0])


class TestDefaultThresholds:
    def test_spans_input_range(self):
        grid = default_thresholds(np.array([2.0, 11.0, 5.0]), count=8)
        assert len(grid) == 8
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] < 9.0  # strictly below the span

    def test_degenerate_input(self):
        assert default_thresholds(np.array([3.0, 3.0])) == pytest.approx([0.0])


class TestIdentification:
    def test_recovers_known_weights(self):
        thresholds = np.array([0.0, 1.0, 2.0, 4.0])
        weights = np.array([0.5, 0.25, 0.15, 0.4])
        truth = PIModel(thresholds=thresholds, weights=weights)
        xs = triangle(9.0, 3, 40)
        ys = pi_apply(truth, xs)
        model, residual = pi_identify(xs, ys, thresholds)
        assert model.weights == pytest.approx(weights, abs=1e-6)
        assert residual < 1e-10

    def test_identity_target(self):
        thresholds = np.array([0.0, 1.0, 2.0])
        xs = triangle(7.0, 2, 40)
        model, _ = pi_identify(xs, xs, thresholds)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-8)
        assert model.weights[1:] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_underdetermined_data(self):
        thresholds = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(UnderdeterminedError):
            pi_identify(np.arange(8.0), np.arange(8.0), thresholds)

    def test_rank_deficiency_warns(self):
        # A constant input never moves any operator off its start, so
        # every regressor column is identically zero.
        thresholds = np.array([0.0, 1.0])
        xs = np.zeros(16)
        with pytest.warns(IllConditionedFit):
            pi_identify(xs, xs, thresholds)


SPEC = StringSpec(
    diameter=1.05, initial_length=210.0, material=Material.COMPLIANT, ply=6
)
PARAMS = TwoPhaseParams(
    r_eff=1.0,
    theta_star=rev_to_rad(9.0),
    coil_diameter=3.0,
    coil_pitch=2.1,
    eta=0.6,
    compliance=0.5,
)
LOAD = LoadCase(mass=200.0)


class TestHystereticLength:
    def test_zero_weights_reproduce_backbone(self):
        thetas = rev_to_rad(triangle(20.0, 2, 40))
        model = PIModel.zeros(np.array([0.0, 1.0, 2.0]))
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas)
        backbone = np.array([length(SPEC, PARAMS, LOAD, float(t)) for t in thetas])
        assert out == pytest.approx(backbone, rel=1e-12)

    def test_loop_encloses_area(self):
        thetas = rev_to_rad(triangle(20.0, 1, 80))
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(2.0), rev_to_rad(6.0)]),
            weights=np.array([0.0, 0.4, 0.4]),
        )
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas)
        # theta rises then falls, so the path integral equals the area
        # between the winding branch (above) and the unwinding branch.
        area = float(np.trapezoid(out, thetas))
        assert area > 1e-3

    def test_cycles_two_and_three_identical(self):
        thetas = rev_to_rad(triangle(20.0, 3, 60))
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(3.0)]),
            weights=np.array([0.1, 0.5]),
        )
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas)
        period = 60
        assert out[period : 2 * period] == pytest.approx(
            out[2 * period : 3 * period], abs=1e-9
        )

    def test_memory_carries_across_calls(self):
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)]),
            weights=np.array([0.0, 0.25, 0.15]),
        )
        whole = hysteretic_length(SPEC, PARAMS, LOAD, model.copy(), thetas)
        split = model.copy()
        head = hysteretic_length(SPEC, PARAMS, LOAD, split, thetas[:47])
        tail = hysteretic_length(SPEC, PARAMS, LOAD, split, thetas[47:])
        assert np.array_equal(np.concatenate([head, tail]), whole)

    def test_output_never_exceeds_effective_length(self):
        thetas = rev_to_rad(triangle(20.0, 2, 50))
        # Absurdly large weights would overshoot without the clamp.
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(1.0)]),
            weights=np.array([0.0, 500.0]),
        )
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas)
        l_eff = 210.0 + 0.5 * LOAD.force
        assert np.all(out <= l_eff + 1e-9)
        assert np.all(out > 0.0)

    def test_identified_correction_beats_backbone(self):
        # Synthetic widened loop: the fitted correction must explain
        # strictly more of the data than the backbone alone, and the
        # noiseless weights must come back exactly.
        from tsakit.hysteresis import stop_responses

        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        truth = np.array([0.0, 0.25, 0.15])
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        backbone = np.array([length(SPEC, PARAMS, LOAD, float(t)) for t in thetas])
        observed = backbone + stop_responses(thresholds, thetas) @ truth

        fitted, fit_residual = identify_length_correction(
            SPEC, PARAMS, LOAD, thetas, observed, thresholds=thresholds
        )
        assert fitted.weights == pytest.approx(truth, abs=1e-6)
        backbone_residual = float(
            np.sqrt(np.sum((observed - backbone) ** 2))
        )
        assert fit_residual < backbone_residual
        # Replaying the identified model reproduces the data up to the
        # physical ceiling at the unloaded effective length.
        replay = hysteretic_length(SPEC, PARAMS, LOAD, fitted.copy(), thetas)
        l_eff = 210.0 + PARAMS.compliance * LOAD.force
        assert replay == pytest.approx(np.minimum(observed, l_eff), abs=1e-9)
