"""Resistance self-sensing: forward model, detrending, inverse estimator."""

import math

import numpy as np
import pytest

from tsakit.errors import InputError, NonInvertibleError, ParameterError
from tsakit.sensing import (
    ResistanceParams,
    creep_component,
    detrend_creep,
    estimate_strain,
    length_baseline,
    resistance_forward,
    transient_component,
)


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
        # The linear fallback is exact: only the anchor offset remains.
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
