"""Release gate: the seven headline checks, each timed and reported.

Every test covers one shipping criterion end to end — calibration
fidelity on the bundled characterization rows, phase orderings, sizing
arithmetic, the bicep linkage fit, the invariant bundle, and creep
saturation — and prints a single PASS/FAIL line (visible with -s, or in
the failure report) plus enforcing a per-criterion runtime budget. The
budgets sum to under a minute on a desktop machine.
"""

import configparser
import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import bicep_grid_oracle, params_vector
from tsakit.bicep import fit_bicep
from tsakit.calibration import fit_two_phase, predict_endpoints
from tsakit.cli import EXIT_OK, main
from tsakit.config import (
    bundled_compliant_path,
    bundled_stiff_path,
    read_observations,
)
from tsakit.hysteresis import PIModel, pi_apply, pi_identify
from tsakit.model import (
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    size_for_displacement,
    twist_profile,
)
from tsakit.sensing import (
    ResistanceParams,
    estimate_strain,
    length_baseline,
    resistance_forward,
)
from tsakit.training import DEFAULT_STAGE_THRESHOLDS, TrainingStage, stage_of
from tsakit.units import rev_to_rad


@contextmanager
def criterion(name: str, budget_s: float):
    """Print one PASS/FAIL line for a criterion and police its budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget_s:g}s budget"
            )
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name} ({elapsed:.2f}s < {budget_s:g}s)")


# Observed contraction endpoints of the bundled characterization rows,
# keyed by string diameter: (regular-phase %, total %).
EXPECTED_CONTRACTIONS = {
    1.0: (28.90, 68.22),
    1.3: (29.08, 70.94),
    2.0: (28.53, 70.63),
}

MEASURED_ELBOW_PAIRS = ((215.0, 13.1), (135.0, 73.4), (68.0, 147.1))

SPEC = StringSpec(1.3, 214.3, Material.STIFF, ply=1)
LOAD = LoadCase(2900.0)
PARAMS = TwoPhaseParams(
    r_eff=0.86,
    theta_star=rev_to_rad(28.0),
    coil_diameter=4.3,
    coil_pitch=2.6,
    eta=0.11,
    compliance=0.0,
)


@functools.lru_cache(maxsize=1)
def calibrated_rows():
    """Fit every bundled characterization row once, shared across tests."""
    rows = []
    for obs in read_observations(bundled_stiff_path()):
        result = fit_two_phase(obs)
        assert result.converged
        rows.append((obs, result.params))
    return tuple(rows)


def test_1_contraction_reproduction(tmp_path):
    with criterion("1. contraction reproduction from calibration", 10.0):
        out = tmp_path / "params.ini"
        code = main(["calibrate", bundled_stiff_path(), "--out", str(out)])
        assert code == EXIT_OK
        parser = configparser.ConfigParser()
        assert parser.read(out)
        seen = set()
        for name in parser.sections():
            sec = parser[name]
            spec = StringSpec(
                diameter=float(sec["diameter_mm"]),
                initial_length=float(sec["initial_length_mm"]),
                material=Material(sec["material"]),
                ply=int(sec["ply"]),
            )
            params = TwoPhaseParams(
                r_eff=float(sec["r_eff_mm"]),
                theta_star=rev_to_rad(float(sec["theta_star_rev"])),
                coil_diameter=float(sec["coil_diameter_mm"]),
                coil_pitch=float(sec["coil_pitch_mm"]),
                eta=float(sec["eta"]),
                compliance=float(sec["compliance_mm_per_n"]),
            )
            load = LoadCase(float(sec["mass_g"]))
            pred = predict_endpoints(
                spec, params, load, float(sec["theta_max_rev"])
            )
            regular, total = EXPECTED_CONTRACTIONS[spec.diameter]
            assert pred["contraction_regular_pct"] == pytest.approx(
                regular, abs=0.5
            )
            assert pred["contraction_total_pct"] == pytest.approx(total, abs=0.5)
            seen.add(spec.diameter)
        assert seen == set(EXPECTED_CONTRACTIONS)


def test_2_overtwist_speed_and_torque_dominate():
    rows = calibrated_rows()
    with criterion("2. overtwist speed and torque dominate", 1.0):
        for obs, params in rows:
            # Speeds scale linearly with the motor profile, so checking
            # two representative speeds covers every common profile.
            for motor_rev_s in (0.5, 2.0):
                pred = predict_endpoints(
                    obs.spec, params, obs.load, obs.theta_max_rev, motor_rev_s
                )
                assert pred["speed_overtwist"] > pred["speed_regular"]
                assert pred["torque_overtwist_nm"] > pred["torque_regular_nm"]


def test_3_compliant_six_ply_endpoints():
    with criterion("3. compliant six-ply endpoints", 5.0):
        obs = read_observations(bundled_compliant_path())[0]
        result = fit_two_phase(obs)
        assert result.converged
        pred = predict_endpoints(
            obs.spec, result.params, obs.load, obs.theta_max_rev
        )
        assert pred["contraction_regular_pct"] == pytest.approx(11.25, abs=0.5)
        assert pred["contraction_total_pct"] == pytest.approx(58.14, abs=0.5)


def test_4_sizing_arithmetic(capsys):
    with criterion("4. sizing arithmetic", 1.0):
        assert f"{size_for_displacement(10.0, 0.70):.2f}" == "14.29"
        assert f"{size_for_displacement(10.0, 0.30):.2f}" == "33.33"
        assert main(["size", "10", "0.70"]) == EXIT_OK
        assert capsys.readouterr().out == "14.29\n"


def test_5_bicep_fit_verified_against_grid():
    with criterion("5. bicep linkage fit", 10.0):
        fit = fit_bicep(MEASURED_ELBOW_PAIRS, payload=500.0, forearm_length=120.0)
        _, grid_sse = bicep_grid_oracle(MEASURED_ELBOW_PAIRS)
        # The polished fit must never lose to the raw grid scan.
        assert fit.sse_deg2 <= grid_sse + 1e-9
        if fit.consistent:
            assert max(abs(e) for e in fit.errors_deg) <= 1.5
        else:
            # The rigid-triangle linkage cannot reproduce these measured
            # pairs to 1.5 deg; the fit must say so and report the true
            # best residual, cross-checked here against the grid scan.
            assert max(abs(e) for e in fit.errors_deg) > 1.5
            assert fit.sse_deg2 == pytest.approx(64.5859, abs=0.01)
            assert grid_sse == pytest.approx(67.8046054199, rel=1e-9)


# --- criterion 6: invariant bundle ---------------------------------------


def _refine(knots, per_segment: int) -> np.ndarray:
    """Piecewise-linear path through knots, per_segment samples each leg.

    Knot samples are exact linspace endpoints, so two refinements of the
    same knots agree bit-for-bit at every knot.
    """
    out = [float(knots[0])]
    for a, b in zip(knots, knots[1:]):
        out.extend(np.linspace(a, b, per_segment + 1)[1:].tolist())
    return np.array(out)


def _check_phase_continuity():
    ts = PARAMS.theta_star
    below, at, above = twist_profile(
        SPEC, PARAMS, LOAD, [ts * (1.0 - 1e-12), ts, ts * (1.0 + 1e-12)]
    ).length.tolist()
    assert abs(above - below) / at < 1e-9
    assert abs(at - below) / at < 1e-9


def _check_transmission_ratio_matches_finite_difference():
    h = 1e-6
    thetas = [frac * PARAMS.theta_star for frac in (0.3, 0.9, 1.1, 1.27)]
    ratios = twist_profile(SPEC, PARAMS, LOAD, thetas).ratio.tolist()
    for theta, analytic in zip(thetas, ratios):
        plus, minus = twist_profile(SPEC, PARAMS, LOAD, [theta + h, theta - h]).length.tolist()
        numeric = (plus - minus) / (2.0 * h)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def _check_hysteresis_properties():
    thresholds = np.array([0.0, 5.0, 10.0, 15.0])
    weights = np.array([0.45, 0.25, 0.20, 0.10])
    cycle = [35.0, 15.0, 25.0, 0.0]  # major loop with a nested excursion
    knots = [0.0] + cycle * 3
    n = 40
    path = _refine(knots, n)
    y = pi_apply(PIModel(thresholds=thresholds, weights=weights), path)

    # Loop closure: once the first traversal has set the memory, every
    # further identical cycle retraces the same closed loop.
    per_cycle = len(cycle) * n
    second = y[per_cycle : 2 * per_cycle + 1]
    third = y[2 * per_cycle : 3 * per_cycle + 1]
    np.testing.assert_allclose(second, third, rtol=0.0, atol=1e-12)

    # Rate independence: resampling the same path four times as densely
    # leaves the response at shared knots untouched.
    fine = pi_apply(PIModel(thresholds=thresholds, weights=weights), _refine(knots, 4 * n))
    for k in range(len(knots)):
        assert fine[k * 4 * n] == pytest.approx(y[k * n], abs=1e-12)

    # Wiping out: an inner excursion erased by re-reaching the previous
    # peak leaves no trace on the subsequent descent.
    plain = pi_apply(
        PIModel(thresholds=thresholds, weights=weights), _refine([0.0, 35.0, 5.0], n)
    )
    detoured = pi_apply(
        PIModel(thresholds=thresholds, weights=weights),
        _refine([0.0, 35.0, 20.0, 30.0, 35.0, 5.0], n),
    )
    np.testing.assert_allclose(detoured[4 * n :], plain[n:], rtol=0.0, atol=1e-12)


def _check_weight_identification():
    thresholds = np.array([0.0, 4.0, 8.0, 12.0])
    true_weights = np.array([0.50, 0.25, 0.15, 0.10])
    x = _refine([0.0, 30.0, 8.0, 22.0, 2.0, 30.0, 0.0], 25)
    target = pi_apply(PIModel(thresholds=thresholds, weights=true_weights), x)
    identified, residual = pi_identify(x, target, thresholds)
    np.testing.assert_allclose(identified.weights, true_weights, rtol=1e-6, atol=1e-9)
    assert residual < 1e-8


def _check_sensing_round_trip():
    params = ResistanceParams(
        r0=120.0,
        sensitivity=-0.8,
        tau_transient=4.0,
        transient_gain=-0.25,
        creep_rate=0.9,
        creep_saturation=4.5,
    )
    times = np.linspace(0.0, 360.0, 1441)  # six 60 s strain cycles
    position = (times / 60.0) % 1.0
    truth = -35.0 * (1.0 - np.abs(2.0 * position - 1.0))
    resistance = resistance_forward(params, truth, times, times / 60.0)
    estimated = estimate_strain(params, resistance, times)
    rms = float(np.sqrt(np.mean((estimated - truth) ** 2)))
    assert rms < 2.0


def _check_calibration_determinism():
    obs = read_observations(bundled_stiff_path())[1]
    first = fit_two_phase(obs)
    second = fit_two_phase(obs)
    assert (
        params_vector(first.params).tobytes()
        == params_vector(second.params).tobytes()
    )
    assert first.residual == second.residual
    assert first.iterations == second.iterations
    assert first.converged == second.converged


def _check_training_stages():
    assert tuple(DEFAULT_STAGE_THRESHOLDS) == (6, 11, 50)
    stages = [stage_of(c) for c in range(201)]
    assert all(b >= a for a, b in zip(stages, stages[1:]))
    assert stages[5] is TrainingStage.PERPENDICULAR
    assert stages[6] is TrainingStage.MIXED
    assert stages[10] is TrainingStage.MIXED
    assert stages[11] is TrainingStage.INLINE_UNEVEN
    assert stages[49] is TrainingStage.INLINE_UNEVEN
    assert stages[50] is TrainingStage.UNIFORM
    assert set(stages[50:]) == {TrainingStage.UNIFORM}


def test_6_invariant_bundle():
    with criterion("6. invariant bundle", 30.0):
        _check_phase_continuity()
        _check_transmission_ratio_matches_finite_difference()
        _check_hysteresis_properties()
        _check_weight_identification()
        _check_sensing_round_trip()
        _check_calibration_determinism()
        _check_training_stages()


def test_7_creep_saturation():
    with criterion("7. creep saturation", 1.0):
        rate, saturation, initial = 0.05, 6.0, 214.3
        horizon = math.log(100.0) * saturation / rate
        cycles = np.linspace(0.0, 10.0 * horizon, 5001)
        creep = initial - length_baseline(initial, rate, saturation, cycles)
        assert np.all(np.diff(creep) >= 0.0)
        assert np.all(creep <= saturation)
        at_horizon = float(
            initial - length_baseline(initial, rate, saturation, horizon)
        )
        assert at_horizon >= 0.99 * saturation * (1.0 - 1e-12)
