"""Resistance self-sensing: forward model, detrending, inverse estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit.errors import InputError, NonInvertibleError, ParameterError
from tsakit.hysteresis import play_responses
from tsakit.sensing import (
    _FALL_SHARE,
    ResistanceParams,
    _affine_scan,
    _cycle_anchors,
    creep_component,
    detrend_creep,
    estimate_strain,
    length_baseline,
    resistance_forward,
    transient_component,
)

# The affine scan groups its sums by doubling pass, not in the order of a
# sample loop, so it matches the loops below to rounding: within this
# share of the largest loop output.
SCAN_RTOL = 1e-10


def loop_transient(gain, tau, strains, times):
    """Reference oracle: the per-sample loop transient_component replaced."""
    s = np.asarray(strains, dtype=float)
    t = np.asarray(times, dtype=float)
    out = np.empty_like(s)
    state = gain * s[0]
    out[0] = state
    for k in range(1, s.size):
        state *= math.exp(-(t[k] - t[k - 1]) / tau)
        state += gain * (s[k] - s[k - 1])
        out[k] = state
    return out


def loop_inversion(params, detrended, times):
    """Reference oracle: the per-sample deconvolution estimate_strain replaced."""
    y = np.asarray(detrended, dtype=float) - params.r0
    t = np.asarray(times, dtype=float)
    gain = params.transient_gain
    denom = params.sensitivity + gain
    s = np.empty_like(y)
    s_prev = 0.0
    state = 0.0
    for k in range(y.size):
        decayed = state * math.exp(-(t[k] - t[k - 1]) / params.tau_transient) if k else 0.0
        s[k] = (y[k] - decayed + gain * s_prev) / denom
        state = decayed + gain * (s[k] - s_prev)
        s_prev = s[k]
    return s


def slack_orientation(params):
    """The sign that turns a trace so that slack, strain 0, is its floor."""
    return -1.0 if params.sensitivity + params.transient_gain > 0 else 1.0


def assert_scan_matches(scan, loop):
    assert np.max(np.abs(scan - loop)) <= SCAN_RTOL * max(np.max(np.abs(loop)), 1e-300)


def make_params(**overrides):
    defaults = dict(
        r0=120.0,
        sensitivity=-0.8,
        tau_transient=4.0,
        transient_gain=-0.25,
        creep_rate=0.0,
        creep_saturation=math.inf,
    )
    defaults.update(overrides)
    return ResistanceParams(**defaults)


def triangle_strain(times, amplitude=-35.0, period=120.0):
    position = (times / period) % 1.0
    return amplitude * (1.0 - np.abs(2.0 * position - 1.0))


def trapezoid_strain(times, amplitude, period):
    """Ramp out, hold, ramp back to slack and hold there, a quarter period each."""
    position = (times / period) % 1.0
    return amplitude * np.interp(position, [0.0, 0.25, 0.5, 0.75, 1.0], [0, 1, 1, 0, 0])


# Slack floor of cycle k (k = 0, 1, ...) as a fraction of the period.
SLACK_PHASE = {triangle_strain: 1.0, trapezoid_strain: 0.75}


def cycling_log(shape, sign, cycles, dt, noise, stroke=5.0, period=40.0, seed=0):
    """Params, times, true strains and resistance of a cycling test.

    The creep is the benchmark's: 0.9 ohm per cycle, saturating at 4.5 ohm.
    """
    params = make_params(
        sensitivity=0.8 * sign, transient_gain=0.25 * sign, creep_rate=0.9, creep_saturation=4.5
    )
    times = np.arange(round(cycles * period / dt) + 1) * dt
    strains = shape(times, -stroke, period)
    r = resistance_forward(params, strains, times, times / period)
    r = r + np.random.default_rng(seed).normal(0.0, noise, times.size)
    return params, times, strains, r


def rmse(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


class TestForwardModel:
    def test_constant_strain_no_dynamics(self):
        params = make_params(transient_gain=0.0)
        times = np.linspace(0.0, 10.0, 11)
        strains = np.full_like(times, -20.0)
        r = resistance_forward(params, strains, times, np.zeros_like(times))
        assert r == pytest.approx(np.full_like(times, 120.0 + (-0.8) * (-20.0)))

    def test_step_transient_closed_form(self):
        # A strain step at t = 0 injects gain * step and decays
        # exponentially afterwards.
        params = make_params(transient_gain=-0.25, tau_transient=4.0)
        times = np.linspace(0.0, 30.0, 301)
        strains = np.full_like(times, -10.0)
        transient = transient_component(
            params.transient_gain, params.tau_transient, strains, times
        )
        expected = (-0.25) * (-10.0) * np.exp(-times / 4.0)
        assert transient == pytest.approx(expected, rel=1e-9)

    def test_transient_decay_bound(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 60.0, 80))
        times[0] = 0.0
        strains = np.concatenate([rng.uniform(-30, 0, 40), np.full(40, -15.0)])
        transient = transient_component(-0.3, 5.0, strains, times)
        # After the last step the envelope decays at least exponentially.
        k0 = 40
        for k in range(k0 + 1, 80):
            bound = abs(transient[k0]) * math.exp(-(times[k] - times[k0]) / 5.0)
            assert abs(transient[k]) <= bound + 1e-12

    def test_creep_monotone_and_bounded(self):
        # rate * cycles / saturation = 10 puts the tail within 5e-5 of
        # the asymptote, comfortably inside the 1e-3 check.
        cycles = np.linspace(0.0, 1200.0, 300)
        creep = creep_component(0.05, 6.0, cycles)
        assert np.all(np.diff(creep) >= 0.0)
        assert np.all(creep <= 6.0)
        assert creep[-1] == pytest.approx(6.0, rel=1e-3)

    def test_creep_linear_when_unsaturated(self):
        cycles = np.linspace(0.0, 100.0, 11)
        creep = creep_component(0.05, math.inf, cycles)
        assert creep == pytest.approx(0.05 * cycles)

    def test_resistance_drifts_up_with_creep(self):
        params = make_params(transient_gain=0.0, creep_rate=0.1, creep_saturation=8.0)
        times = np.linspace(0.0, 600.0, 601)
        strains = np.zeros_like(times)
        r = resistance_forward(params, strains, times, times / 60.0)
        assert np.all(np.diff(r) >= -1e-12)
        assert r[-1] > r[0]

    def test_series_validation(self):
        params = make_params()
        with pytest.raises(InputError):
            resistance_forward(params, [0.0, 1.0], [0.0], [0.0, 0.0])
        with pytest.raises(InputError):
            resistance_forward(params, [0.0, 1.0], [1.0, 0.5], [0.0, 0.0])

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            make_params(r0=0.0)
        with pytest.raises(ParameterError):
            make_params(sensitivity=0.0)
        with pytest.raises(ParameterError):
            make_params(tau_transient=0.0)
        with pytest.raises(ParameterError):
            make_params(creep_rate=-0.1)
        with pytest.raises(ParameterError):
            make_params(creep_saturation=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["r0", "sensitivity", "tau_transient", "transient_gain", "creep_rate", "creep_saturation"],
    )
    def test_params_reject_non_finite(self, field, bad):
        if field == "creep_saturation" and bad == math.inf:
            assert make_params(creep_saturation=bad).creep_saturation == math.inf
            return
        with pytest.raises(ParameterError):
            make_params(**{field: bad})


class TestDetrendCreep:
    def test_creep_free_input_unchanged(self):
        times = np.linspace(0.0, 480.0, 961)
        params = make_params(transient_gain=0.0)
        r = resistance_forward(
            params, triangle_strain(times), times, np.zeros_like(times)
        )
        assert detrend_creep(r, times) == pytest.approx(r, abs=1e-9)

    def test_pure_linear_drift_removed_exactly(self):
        times = np.linspace(0.0, 100.0, 200)
        drift = 3.0 + 0.04 * times
        out = detrend_creep(drift, times)
        # The straight line, the creep family at rate 0, fits a ramp exactly.
        assert np.std(out - out[0]) == pytest.approx(0.0, abs=1e-9)

    def test_recovers_creep_free_trace(self):
        params = make_params(creep_rate=0.05, creep_saturation=6.0)
        clean_params = make_params()
        times = np.linspace(0.0, 720.0, 1441)
        strains = triangle_strain(times)
        cycles = times / 120.0
        with_creep = resistance_forward(params, strains, times, cycles)
        without = resistance_forward(clean_params, strains, times, np.zeros_like(times))
        detrended = detrend_creep(with_creep, times)
        rms = float(np.sqrt(np.mean((detrended - without) ** 2)))
        span = float(without.max() - without.min())
        assert rms < 0.01 * span

    def test_too_few_points(self):
        with pytest.raises(InputError):
            detrend_creep([1.0, 2.0], [0.0, 1.0])


class TestEstimateStrain:
    def test_constant_resistance_gives_zero_strain(self):
        params = make_params(transient_gain=0.0)
        times = np.linspace(0.0, 50.0, 51)
        estimated = estimate_strain(params, np.full_like(times, 120.0), times)
        assert estimated == pytest.approx(np.zeros_like(times), abs=1e-9)

    def test_round_trip_without_creep_is_exact(self):
        params = make_params()
        times = np.linspace(0.0, 240.0, 481)
        strains = triangle_strain(times)
        r = resistance_forward(params, strains, times, np.zeros_like(times))
        estimated = estimate_strain(params, r, times)
        assert estimated == pytest.approx(strains, abs=1e-7)

    def test_round_trip_with_creep_and_transient(self):
        params = make_params(creep_rate=0.05, creep_saturation=6.0)
        times = np.linspace(0.0, 720.0, 1441)
        strains = triangle_strain(times)
        r = resistance_forward(params, strains, times, times / 120.0)
        estimated = estimate_strain(params, r, times)
        rms = float(np.sqrt(np.mean((estimated - strains) ** 2)))
        assert rms < 0.02 * 35.0

    def test_non_invertible_params_rejected(self):
        # sensitivity and instant transient feedthrough cancel exactly.
        params = make_params(sensitivity=-0.25, transient_gain=0.25)
        times = np.linspace(0.0, 10.0, 41)
        with pytest.raises(NonInvertibleError):
            estimate_strain(params, np.full_like(times, 120.0), times)

    def test_tracks_two_phase_strain_profile(self):
        # Strain profile shaped like a compliant actuator cycle: slow
        # first-regime ramp, a steep coiling ramp to the total, then a
        # release back to slack so the trace cycles.
        params = make_params()
        times = np.linspace(0.0, 240.0, 481)
        strains = np.interp(
            times, [0.0, 60.0, 180.0, 240.0], [0.0, -11.25, -58.14, 0.0]
        )
        r = resistance_forward(params, strains, times, np.zeros_like(times))
        estimated = estimate_strain(params, r, times)
        assert estimated.min() == pytest.approx(strains.min(), abs=2.0)
        assert estimated[120] == pytest.approx(-11.25, abs=2.0)


class TestLengthBaseline:
    def test_never_exceeds_asymptote_and_reaches_it(self):
        # Saturation horizon: rate * H / sat = ln(100) puts the baseline
        # within 1% of its asymptote at the horizon.
        rate, sat = 0.08, 4.0
        horizon = math.log(100.0) * sat / rate
        cycles = np.linspace(0.0, horizon, 500)
        baseline = length_baseline(214.3, rate, sat, cycles)
        floor = 214.3 - sat
        assert np.all(baseline >= floor - 1e-12)
        assert np.all(np.diff(baseline) <= 1e-12)
        assert baseline[-1] - floor <= 0.01 * sat + 1e-12

    def test_zero_rate_is_flat(self):
        cycles = np.linspace(0.0, 100.0, 5)
        assert length_baseline(200.0, 0.0, 5.0, cycles) == pytest.approx(
            np.full(5, 200.0)
        )

    def test_positive_initial_length_required(self):
        with pytest.raises(ParameterError):
            length_baseline(0.0, 0.1, 5.0, [0.0])


class TestScanMatchesLoop:
    @settings(max_examples=100)
    @given(
        steps=st.lists(st.floats(1e-3, 5.0), min_size=0, max_size=300),
        strain_seed=st.integers(0, 2**32 - 1),
        gain=st.floats(-1.0, 1.0),
        tau=st.floats(0.05, 50.0),
    )
    def test_transient_component(self, steps, strain_seed, gain, tau):
        times = np.concatenate(([0.0], np.cumsum(steps)))
        strains = np.random.default_rng(strain_seed).uniform(-60.0, 0.0, times.size)
        assert_scan_matches(
            transient_component(gain, tau, strains, times),
            loop_transient(gain, tau, strains, times),
        )

    @settings(max_examples=60)
    @given(
        shape=st.sampled_from([triangle_strain, trapezoid_strain]),
        sign=st.sampled_from([-1.0, 1.0]),
        sensitivity=st.floats(0.2, 2.0),
        gain_share=st.floats(0.0, 1.0),
        tau=st.floats(0.5, 20.0),
        stroke=st.floats(1.0, 40.0),
        cycles=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_strain(
        self, shape, sign, sensitivity, gain_share, tau, stroke, cycles, seed
    ):
        # Same-sign gains keep the inversion contractive, as in the toolkit's
        # strings; the loop gets the trace estimate_strain detrends.
        params = make_params(
            sensitivity=sign * sensitivity,
            transient_gain=sign * sensitivity * gain_share,
            tau_transient=tau,
        )
        times = np.arange(40 * cycles + 1) * 0.5
        strains = shape(times, -stroke, 20.0)
        r = resistance_forward(params, strains, times, times / 20.0)
        r = r + np.random.default_rng(seed).normal(0.0, 0.01, times.size)
        orient = slack_orientation(params)
        detrended = orient * detrend_creep(orient * r, times)
        assert_scan_matches(
            estimate_strain(params, r, times), loop_inversion(params, detrended, times)
        )


def anchors_oracle(v):
    """_cycle_anchors as a play operator over every sample finds them: its
    floors end the output's last fall before each rise."""
    h = 0.5 * min(np.max(np.maximum.accumulate(v) - v), np.max(v - np.minimum.accumulate(v)))
    if not h > 0:
        return []
    steps = np.diff(play_responses([0.5 * h], v, states=[v[0]])[:, 0])
    moves = np.flatnonzero(steps)
    down = steps[moves] < 0
    last = np.append(down[:-1] != down[1:], True)
    ends, falls = moves[last] + 1, down[last]
    floors = ends[falls].tolist()
    depth = -np.diff(v[ends])[falls[1:]]
    if falls[-1] and depth.size >= 2 and depth[-1] < _FALL_SHARE * depth[-2]:
        floors.pop()
    if len(floors) < 2 and not down[0]:
        floors.insert(0, 0)
    return floors


def scan_oracle(c, u):
    """The doubling scan with each pass in place, which numpy computes from
    copies of the overlapped operands."""
    c = np.array(c, dtype=float)
    s = np.array(u, dtype=float)
    stride = 1
    while stride < s.size:
        s[stride:] += c[stride:] * s[:-stride]
        c[stride:] *= c[:-stride]
        stride *= 2
    return s


@st.composite
def floor_traces(draw):
    """Cycling traces with noise and drift, or integer walks; rounding and
    the walks' zero steps give plateaus, and repeated values ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        return np.cumsum(rng.integers(-2, 3, n)).astype(float)
    phase = np.linspace(0.0, draw(st.floats(0.2, 12.0)), n)
    v = (
        draw(st.floats(0.5, 8.0)) * (1.0 - np.cos(2.0 * np.pi * phase)) / 2.0
        + draw(st.floats(-1.0, 1.0)) * phase
        + draw(st.sampled_from([0.0, 0.003, 0.1, 1.0])) * rng.normal(size=n)
    )
    if draw(st.integers(0, 9)) < 3:
        v = np.round(v, draw(st.integers(0, 2)))
    return v


class TestScansOverRunEnds:
    @settings(max_examples=300, deadline=None)
    @given(v=floor_traces())
    def test_floors_match_a_scan_over_every_sample(self, v):
        assert _cycle_anchors(v).tolist() == anchors_oracle(v)

    @settings(max_examples=200)
    @given(
        size=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        decay=st.sampled_from([(0.0, 1.0), (0.5, 1.0), (-1.5, 1.5)]),
    )
    def test_affine_scan_matches_in_place_passes_bit_for_bit(self, size, seed, decay):
        rng = np.random.default_rng(seed)
        c, u = rng.uniform(*decay, size), rng.normal(size=size)
        assert _affine_scan(c, u).tobytes() == scan_oracle(c, u).tobytes()


class TestCycleAnchorsAndRecovery:
    # Logs the local curve fit through every strict local minimum got wrong:
    # 14 anchors and an RMSE of 596 % for the first, 356 anchors and
    # 1.54 % for the second, 53,304 anchors for the third. Now each has one
    # anchor per cycle, and RMSEs of 2.9e-5, 4.4e-3 and 3.2e-3 %.
    @pytest.mark.parametrize(
        "shape, sign, cycles, dt, noise, bound_pct",
        [
            (trapezoid_strain, 1.0, 10, 0.1, 0.0, 1e-3),
            (trapezoid_strain, -1.0, 10, 0.1, 0.003, 0.02),
            (triangle_strain, -1.0, 50, 0.01, 0.003, 0.02),
        ],
        ids=["trapezoid-positive", "trapezoid-noise", "triangle-200k-noise"],
    )
    def test_one_anchor_per_cycle(self, shape, sign, cycles, dt, noise, bound_pct):
        params, times, strains, r = cycling_log(shape, sign, cycles, dt, noise)
        anchors = _cycle_anchors(slack_orientation(params) * r)
        slack = (np.arange(cycles) + SLACK_PHASE[shape]) * 40.0
        assert times[anchors] == pytest.approx(slack, abs=1.0)
        assert rmse(estimate_strain(params, r, times), strains) < bound_pct

    @settings(max_examples=40)
    @given(
        shape=st.sampled_from([triangle_strain, trapezoid_strain]),
        sign=st.sampled_from([-1.0, 1.0]),
        cycles=st.integers(4, 60),
        end_phase=st.sampled_from([0.0, 0.6, 0.7, 0.8, 0.9]),
        stroke=st.floats(3.0, 8.0),
        noise=st.floats(0.0, 0.01),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recovery_over_signs_shapes_and_noise(
        self, shape, sign, cycles, end_phase, stroke, noise, seed
    ):
        # The benchmark's sensing parameters and stroke range; its bound is
        # 10 % of stroke. Each floor the log reaches lies at its cycle's
        # slack, and a log that stops partway back to slack adds none.
        params, times, strains, r = cycling_log(
            shape, sign, cycles + end_phase, 0.2, noise, stroke=stroke, seed=seed
        )
        anchors = _cycle_anchors(slack_orientation(params) * r)
        slack = (np.arange(cycles + 1) + SLACK_PHASE[shape]) * 40.0
        assert times[anchors] == pytest.approx(slack[slack <= times[-1]], abs=2.0)
        assert rmse(estimate_strain(params, r, times), strains) < 0.05 * stroke

    @pytest.mark.parametrize("end_phase", [0.6, 0.7, 0.8, 0.9])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("shape", [triangle_strain, trapezoid_strain])
    def test_log_ending_partway_adds_no_floor(self, shape, sign, end_phase):
        # Keeping the end of every last fall as a floor, up to half a stroke
        # above slack, once gave RMSEs up to 49 % of this 3 % stroke, against
        # 1-3 % for the same log cut at whole cycles.
        whole = cycling_log(shape, sign, 4, 0.2, 0.01, stroke=3.0)
        params, times, strains, r = cycling_log(shape, sign, 4 + end_phase, 0.2, 0.01, stroke=3.0)
        anchors = _cycle_anchors(slack_orientation(params) * r)
        slack = (np.arange(5) + SLACK_PHASE[shape]) * 40.0
        assert times[anchors] == pytest.approx(slack[slack <= times[-1]], abs=2.0)
        whole_rmse = rmse(estimate_strain(whole[0], whole[3], whole[1]), whole[2])
        assert rmse(estimate_strain(params, r, times), strains) < whole_rmse + 0.005 * 3.0

    @pytest.mark.parametrize("shape", [triangle_strain, trapezoid_strain])
    def test_three_cycles_fit_the_line(self, shape):
        # Three floors are too few for the saturating creep members, and
        # the straight line through them misses the creep's curvature back
        # to the first sample: about 9 % of a 3 % stroke.
        params, times, strains, r = cycling_log(shape, -1.0, 3, 0.2, 0.0, stroke=3.0)
        assert _cycle_anchors(r).size == 3
        assert rmse(estimate_strain(params, r, times), strains) < 0.1 * 3.0

    def test_flat_trace_has_no_anchors(self):
        assert _cycle_anchors(np.full(50, 120.0)).size == 0
        assert _cycle_anchors(np.linspace(120.0, 121.0, 50)).size == 0


class TestPlausibilityGate:
    def unexplained_log(self):
        """A 5 ohm swing read with a 0.01 ohm-per-percent sensitivity, and the
        time of the first strain the loop puts outside (-100, 100) %."""
        params = make_params(sensitivity=-0.01, transient_gain=0.0)
        times = np.linspace(0.0, 240.0, 481)
        r = 120.0 + 5.0 * (1.0 - np.abs(2.0 * ((times / 60.0) % 1.0) - 1.0))
        loop = loop_inversion(params, detrend_creep(r, times), times)
        return params, times, r, times[np.argmax(np.abs(loop) >= 100.0)]

    def test_strain_outside_physical_range_raises(self):
        params, times, r, first = self.unexplained_log()
        with pytest.raises(NonInvertibleError, match=rf"at time {first:g} s is outside"):
            estimate_strain(params, r, times)

    def test_cli_exits_two(self, tmp_path, capsys):
        from tsakit.cli import EXIT_INPUT, main

        _, times, r, first = self.unexplained_log()
        config = tmp_path / "run.ini"
        config.write_text(
            "[sensing]\nr0_ohm = 120\nsensitivity_ohm_per_pct = -0.01\ntau_transient_s = 4\n",
            encoding="utf-8",
        )
        log = tmp_path / "log.csv"
        rows = "".join(f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), r.tolist()))
        log.write_text("time_s,resistance_ohm\n" + rows, encoding="utf-8")
        out = tmp_path / "strain.csv"
        code = main(["sense", str(log), "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad [sensing] section in {config}: recovered strain ")
        assert err.endswith(
            f" at time {first:g} s is outside (-100, 100)%; "
            "the sensing parameters do not explain this log\n"
        )
        assert not out.exists()


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["resistance", "time"])
    def test_estimate_strain_rejects(self, bad, column):
        times = np.linspace(0.0, 10.0, 21)
        r = np.full_like(times, 120.0)
        (r if column == "resistance" else times)[-1] = bad
        with pytest.raises(InputError, match="finite"):
            estimate_strain(make_params(), r, times)

    def test_transient_and_forward_reject_nan(self):
        times = np.linspace(0.0, 10.0, 5)
        strains = np.array([0.0, -1.0, math.nan, -1.0, 0.0])
        with pytest.raises(InputError, match="finite"):
            transient_component(-0.25, 4.0, strains, times)
        with pytest.raises(InputError, match="finite"):
            resistance_forward(make_params(), np.zeros(5), times, [0, 1, math.nan, 3, 4])

    def test_creep_component_rejects_nan_cycles(self):
        with pytest.raises(ParameterError):
            creep_component(0.9, 4.5, [0.0, math.nan])

    @pytest.mark.parametrize("initial", [math.nan, math.inf])
    def test_length_baseline_rejects_non_finite_length(self, initial):
        with pytest.raises(ParameterError):
            length_baseline(initial, 0.1, 5.0, [0.0])
