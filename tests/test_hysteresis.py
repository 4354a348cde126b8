"""Play-operator model: recursion oracle, memory properties, identification."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit import hysteresis
from tsakit.errors import ParameterError, UnderdeterminedError
from tsakit.hysteresis import (
    IllConditionedFit,
    PIModel,
    hysteretic_length,
    identify_length_correction,
    pi_apply,
    pi_identify,
    play_responses,
)
from scalar_law import length
from tsakit.model import (
    LENGTH_FLOOR,
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    twist_profile,
)
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


# Ascending from 0, 1 to 8 of them, on the quarter grid or general.
THRESHOLDS = st.lists(
    st.one_of(st.integers(1, 40).map(lambda k: k / 4), st.floats(1e-3, 50.0)), max_size=7
).map(lambda gaps: np.cumsum([0.0] + gaps))


@st.composite
def play_cases(draw):
    """Thresholds (1 to 8), inputs (0 to 2000 samples) and start states.

    Inputs are either a random walk on the quarter grid, or a periodic
    repetition of segments: a plateau of one value, or a step of exactly
    one threshold up or down from the previous input.
    """
    thresholds = draw(THRESHOLDS)
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


@st.composite
def run_cases(draw):
    """Thresholds, inputs made of monotone runs, and start states.

    The inputs join pieces of up to 300 samples: strictly rising or falling
    runs, plateaus of one repeated value, and zigzags that turn at every
    sample, so that long runs, plateaus and inputs of run ends alone all
    occur; one case in five keeps only the first 0, 1 or 2 samples. Each
    state lies on or outside the first sample's clamp, by up to 1e3.
    """
    thresholds = draw(THRESHOLDS)
    step = st.one_of(st.integers(1, 8).map(lambda k: k / 4), st.floats(1e-3, 10.0))
    pieces = draw(
        st.lists(
            st.tuples(st.sampled_from(["up", "down", "flat", "zigzag"]), st.integers(1, 300), step),
            max_size=12,
        )
    )
    x = start = draw(VALUES)
    xs = []
    for kind, count, size in pieces:
        for k in range(count):
            sign = {"up": 1.0, "down": -1.0, "flat": 0.0, "zigzag": (-1.0) ** k}[kind]
            x += sign * size
            xs.append(x)
    if draw(st.integers(0, 4)) == 0:
        xs = xs[: draw(st.integers(0, 2))]
    xs = np.array(xs, dtype=float)
    first = xs[0] if xs.size else start
    outside = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=thresholds.size,
                                     max_size=thresholds.size)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=thresholds.size,
                                   max_size=thresholds.size)))
    return thresholds, xs, first + signs * (thresholds + outside)


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
    """Outputs of one fresh play operator."""
    return play_responses([threshold], xs)[:, 0].tolist()


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

    def test_two_dimensional_inputs_rejected(self):
        with pytest.raises(ParameterError, match="^inputs must be a 1-d sequence$"):
            play_responses([0.0, 1.0], np.zeros((4, 2)))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            play_responses([0.0, -0.1], [1.0])
        with pytest.raises(ParameterError, match="thresholds must be nonnegative"):
            play_responses([-0.1, 1.0], [1.0])

    def test_thresholds_need_not_start_at_zero(self):
        # Starting at 0 is a rule of the PI model, not of the play operator.
        xs = [0.0, 2.0, 0.0, -3.0]
        plays = play_responses([0.5, 1.0], xs)
        assert plays.tolist() == [[0.0, 0.0], [1.5, 1.0], [0.5, 1.0], [-2.5, -2.0]]

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

    @settings(max_examples=300)
    @given(case=run_cases())
    def test_monotone_runs_match_sequential_recursion(self, case):
        thresholds, xs, states = case
        assert_same_plays(
            play_responses(thresholds, xs, states),
            play_oracle(thresholds, xs, states),
            exact=not has_negative_zero(xs, states),
        )

    def test_scan_gets_the_run_ends_alone(self, monkeypatch):
        # A triangle of c cycles has a run end at its first and last sample
        # and at each turn, about 2c: only those rows are scanned.
        rows = []

        def counting_scan(xs, t, states):
            rows.append(xs.size)
            return scan(xs, t, states)

        scan = hysteresis._clamp_scan
        monkeypatch.setattr(hysteresis, "_clamp_scan", counting_scan)
        cycles = 4
        xs = triangle(8.0, cycles, 250)
        t, states = np.array([0.0, 1.0, 2.5]), np.array([0.0, 0.5, -3.0])
        got = play_responses(t, xs, states)
        assert len(rows) == 1 and rows[0] <= 2 * cycles + 2
        assert got.tobytes() == play_oracle(t, xs, states).tobytes()

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
    @given(case=play_cases())
    def test_stop_is_bounded_by_threshold(self, case):
        # The stop operator x - play, the basis of the hysteresis
        # correction, satisfies |x - play| <= t. Stated on the clamp bounds
        # x -/+ t that the scan selects from, the check is exact in floats.
        thresholds, xs, states = case
        plays = play_responses(thresholds, xs, states)
        x = xs[:, None]
        assert np.all((x - thresholds <= plays) & (plays <= x + thresholds))

    @settings(max_examples=200)
    @given(case=play_cases(), data=st.data())
    def test_threshold_subset_gives_those_columns(self, case, data):
        # Each column is scanned on its own, so any ascending subset of the
        # thresholds, with or without 0, gives those columns bit for bit.
        thresholds, xs, states = case
        columns = range(thresholds.size)
        keep = sorted(data.draw(st.lists(st.sampled_from(columns), min_size=1, unique=True)))
        part = play_responses(thresholds[keep], xs, states[keep])
        assert part.tobytes() == play_responses(thresholds, xs, states)[:, keep].tobytes()

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
        with pytest.raises(ParameterError, match="inputs must be finite"):
            pi_apply(PIModel(thresholds=t, weights=ones), [bad])

    def test_model_is_frozen(self):
        thresholds, weights = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        model = PIModel(thresholds=thresholds, weights=weights)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.weights = np.zeros(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.thresholds = np.array([0.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            model.weights[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.thresholds[1] = 2.0
        # The model holds copies: the caller's arrays stay writable.
        weights[0] = 1.0
        assert model.weights.tolist() == [0.5, 0.5]
        assert not hasattr(model, "states")

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
        fast = pi_apply(model, xs)
        # Same path traversed with every sample tripled: outputs at the
        # corresponding points must be identical.
        slow = pi_apply(model, np.repeat(xs, 3))
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
        # afterwards the states match fresh operators driven only by the
        # outer envelope.
        thresholds = np.array([0.0, 0.5, 1.5, 3.0])
        nested = np.array(
            [0.0, 4.0, 2.0, 3.0, 1.5, 2.5, 10.0]  # sub-loops, then outer max
        )
        envelope = np.array([0.0, 10.0])
        full = play_responses(thresholds, nested)[-1]
        fresh = play_responses(thresholds, envelope)[-1]
        assert full == pytest.approx(fresh, abs=1e-12)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_targets(self, bad):
        xs = triangle(7.0, 2, 40)
        ys = xs.copy()
        ys[5] = bad
        with pytest.raises(ParameterError, match="targets must be finite"):
            pi_identify(xs, ys, np.array([0.0, 1.0, 2.0]))

    def test_rejects_unequal_lengths(self):
        xs = triangle(7.0, 2, 40)
        with pytest.raises(
            ParameterError, match="^inputs and targets must be 1-d sequences of equal length$"
        ):
            pi_identify(xs, xs[:-1], np.array([0.0, 1.0, 2.0]))

    def test_thresholds_start_at_zero(self):
        xs = triangle(7.0, 2, 40)
        with pytest.raises(ParameterError, match="first threshold must be 0"):
            pi_identify(xs, xs, np.array([1.0, 2.0]))

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


def law_length(thetas):
    """The backbone that hysteretic_length corrects."""
    return twist_profile(SPEC, PARAMS, LOAD, thetas).length


class TestHystereticLength:
    def test_zero_weights_reproduce_backbone(self):
        thetas = rev_to_rad(triangle(20.0, 2, 40))
        model = PIModel(thresholds=np.array([0.0, 1.0, 2.0]), weights=np.zeros(3))
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        backbone = np.array([length(SPEC, PARAMS, LOAD, float(t)) for t in thetas])
        assert out == pytest.approx(backbone, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2),
        offset=st.floats(-300.0, 300.0),
        periods=st.integers(1, 3),
    )
    def test_corrects_the_backbone_it_is_given(self, weights, offset, periods):
        # The backbone is taken as given, not recomputed: any array gets
        # the stop correction added and the clamp to (0, L_eff] applied.
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        model = PIModel(thresholds=thresholds, weights=np.array([0.0, *weights]))
        thetas = rev_to_rad(triangle(20.0, periods, 60))
        backbone = law_length(thetas) + offset
        stops = thetas[:, None] - play_oracle(thresholds, thetas, np.zeros(3))
        want = np.clip(backbone + stops @ model.weights, LENGTH_FLOOR, 210.0 + 0.5 * LOAD.force)
        got = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, backbone)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_loop_encloses_area(self):
        thetas = rev_to_rad(triangle(20.0, 1, 80))
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(2.0), rev_to_rad(6.0)]),
            weights=np.array([0.0, 0.4, 0.4]),
        )
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
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
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        period = 60
        assert out[period : 2 * period] == pytest.approx(
            out[2 * period : 3 * period], abs=1e-9
        )

    def test_repeat_runs_give_the_same_bytes(self):
        # Every call starts from the virgin state: a run leaves no memory
        # behind that could shift the next one.
        thetas = rev_to_rad(np.concatenate([np.linspace(0.0, 20.0, 81), np.linspace(20.0, 3.0, 69)]))
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)]),
            weights=np.array([0.0, 0.3, 0.2]),
        )
        lengths = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        again = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        assert again.tobytes() == lengths.tobytes()
        outputs = pi_apply(model, thetas)
        assert pi_apply(model, thetas).tobytes() == outputs.tobytes()

    def test_output_never_exceeds_effective_length(self):
        thetas = rev_to_rad(triangle(20.0, 2, 50))
        # Absurdly large weights would overshoot without the clamp.
        model = PIModel(
            thresholds=np.array([0.0, rev_to_rad(1.0)]),
            weights=np.array([0.0, 500.0]),
        )
        out = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        l_eff = 210.0 + 0.5 * LOAD.force
        assert np.all(out <= l_eff + 1e-9)
        assert np.all(out > 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_correction_rejects_non_finite_lengths(self, bad):
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        lengths = twist_profile(SPEC, PARAMS, LOAD, thetas).length
        lengths[-1] = bad
        with pytest.raises(ParameterError, match="lengths must be finite"):
            identify_length_correction(SPEC, PARAMS, LOAD, thetas, lengths, thresholds)

    def test_correction_rejects_unequal_lengths(self):
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        lengths = twist_profile(SPEC, PARAMS, LOAD, thetas).length
        with pytest.raises(
            ParameterError, match="^thetas and lengths must be 1-d sequences of equal length$"
        ):
            identify_length_correction(SPEC, PARAMS, LOAD, thetas, lengths[1:], thresholds)

    def test_correction_needs_a_positive_threshold(self):
        # The zero-threshold stop operator is identically 0, which leaves
        # nothing to fit.
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        lengths = twist_profile(SPEC, PARAMS, LOAD, thetas).length
        with pytest.raises(ParameterError, match="positive threshold"):
            identify_length_correction(SPEC, PARAMS, LOAD, thetas, lengths, [0.0])

    def test_identified_correction_beats_backbone(self):
        # Synthetic widened loop: the fitted correction must explain
        # strictly more of the data than the backbone alone, and the
        # noiseless weights must come back exactly.
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        truth = np.array([0.0, 0.25, 0.15])
        thetas = rev_to_rad(triangle(20.0, 2, 60))
        backbone = np.array([length(SPEC, PARAMS, LOAD, float(t)) for t in thetas])
        observed = backbone + (thetas[:, None] - play_responses(thresholds, thetas)) @ truth

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
        replay = hysteretic_length(SPEC, PARAMS, LOAD, fitted, thetas, law_length(thetas))
        l_eff = 210.0 + PARAMS.compliance * LOAD.force
        assert replay == pytest.approx(np.minimum(observed, l_eff), abs=1e-9)

    def test_clamped_samples_are_left_out(self):
        # The winding branch just above zero twist asks for a string longer
        # than L_eff, and hysteretic_length clamps it there: those samples
        # carry none of the correction and would bias the weights.
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        model = PIModel(thresholds=thresholds, weights=np.array([0.0, 0.3, 0.2]))
        thetas = rev_to_rad(triangle(20.0, 2, 200))
        lengths = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        l_eff = 210.0 + PARAMS.compliance * LOAD.force
        assert np.count_nonzero(lengths == l_eff) > 0.05 * lengths.size
        fitted, residual = identify_length_correction(
            SPEC, PARAMS, LOAD, thetas, lengths, thresholds
        )
        assert fitted.weights == pytest.approx(model.weights, abs=1e-9)
        assert residual < 1e-9

    def test_minimum_counts_kept_samples(self):
        # Twelve samples would do for three weights, but the ones at the
        # L_eff clamp (every zero-twist sample, for one) do not count.
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        thetas = rev_to_rad(np.array([0.0, 10.0, 0.0] * 4))
        lengths = twist_profile(SPEC, PARAMS, LOAD, thetas).length
        with pytest.raises(UnderdeterminedError, match="need at least 12 samples"):
            identify_length_correction(SPEC, PARAMS, LOAD, thetas, lengths, thresholds)

    @settings(max_examples=100, deadline=None)
    @given(
        w1=st.floats(0.0, 0.3),
        w2=st.floats(0.0, 0.3),
        amplitude=st.floats(12.0, 20.0),
        periods=st.integers(1, 3),
        samples=st.integers(40, 160),
    )
    def test_simulate_identify_round_trip(self, w1, w2, amplitude, periods, samples):
        thresholds = np.array([0.0, rev_to_rad(2.0), rev_to_rad(5.0)])
        model = PIModel(thresholds=thresholds, weights=np.array([0.0, w1, w2]))
        thetas = rev_to_rad(triangle(amplitude, periods, samples))
        lengths = hysteretic_length(SPEC, PARAMS, LOAD, model, thetas, law_length(thetas))
        fitted, _ = identify_length_correction(SPEC, PARAMS, LOAD, thetas, lengths, thresholds)
        assert fitted.weights == pytest.approx(model.weights, abs=1e-9)
