"""Tests for endpoint calibration: residual, solver, and grid oracle.

Oracle strategy: a known parameter set synthesizes its own endpoint
observations, so the residual has an exact zero and the solver has an
exact target to recover. An exhaustive grid scan provides an
independent bound the simplex fit must match or beat.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsakit.calibration import (
    PARAM_ORDER,
    PENALTY_RESIDUAL,
    FitResult,
    ObservedEndpoints,
    ParamBounds,
    endpoints_from_params,
    fit_two_phase,
    grid_oracle,
    params_from_vector,
    params_to_vector,
    predict_endpoints,
    residual,
)
from tsakit.config import bundled_compliant_path, bundled_stiff_path, read_observations
from tsakit.errors import GridCapError, ParameterError
from tsakit.model import (
    LoadCase,
    Material,
    Phase,
    StringSpec,
    TwoPhaseParams,
    bundle_diameter,
    max_theta,
)
from tsakit.units import rad_to_rev, rev_to_rad

SPEC = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF, ply=1)
LOAD = LoadCase(mass=2900.0)
THETA_STAR = rev_to_rad(28.0)
TRUTH = TwoPhaseParams(
    r_eff=0.86,
    theta_star=THETA_STAR,
    coil_diameter=4.3,
    coil_pitch=2.6,
    eta=0.11,
    compliance=0.0,
)
THETA_MAX_REV = 36.0


def synth_obs(**kwargs):
    """Endpoints the TRUTH parameters would produce (motor speed known)."""
    return endpoints_from_params(
        SPEC, TRUTH, LOAD, THETA_MAX_REV, motor_speed_rev_s=2.0, **kwargs
    )


def tight_bounds():
    """A box around TRUTH with the unidentifiable axes pinned.

    Coil pitch is pinned because only the per-coil shortening (a joint
    function of coil diameter and pitch) reaches the endpoints; with
    pitch fixed the remaining parameters are all identifiable.
    """
    return ParamBounds(
        r_eff=(0.73, 0.99),
        theta_star=(0.85 * THETA_STAR, 1.15 * THETA_STAR),
        coil_diameter=(3.7, 4.9),
        coil_pitch=(2.6, 2.6),
        eta=(0.09, 0.13),
        compliance=(0.0, 0.0),
    )


@st.composite
def stiff_rows(draw):
    """Noise-free stiff endpoints from parameters inside their default box.

    theta_max lies between theta_star and the coil capacity, so the
    generating parameters are feasible and reach a residual of zero.
    """
    d = draw(st.floats(0.5, 2.5))
    spec = StringSpec(diameter=d, initial_length=draw(st.floats(100.0, 400.0)))
    load = LoadCase(mass=draw(st.floats(100.0, 5000.0)))
    r_eff = draw(st.floats(d / 2.0, 2.0 * d))
    truth = TwoPhaseParams(
        r_eff=r_eff,
        theta_star=draw(st.floats(0.05, 0.95)) * spec.initial_length / r_eff,
        coil_diameter=draw(st.floats(0.5 * d, 10.0 * d)),
        coil_pitch=bundle_diameter(spec, Phase.REGULAR),
        eta=draw(st.floats(0.02, 1.0)),
    )
    capacity = max_theta(spec, truth, load)
    fraction = draw(st.floats(0.05, 0.95))
    theta_max = truth.theta_star + fraction * (capacity - truth.theta_star)
    obs = endpoints_from_params(spec, truth, load, rad_to_rev(theta_max))
    lo, hi = ParamBounds.default(obs).arrays()
    vector = params_to_vector(truth)
    assume(np.all((lo <= vector) & (vector <= hi)))
    return truth, obs


class TestObservedEndpoints:
    def test_theta_max_is_in_radians(self):
        obs = synth_obs()
        assert obs.theta_max == pytest.approx(rev_to_rad(THETA_MAX_REV), rel=1e-15)

    def test_rejects_nonpositive_theta_max(self):
        with pytest.raises(ParameterError):
            ObservedEndpoints(
                spec=SPEC,
                load=LOAD,
                theta_max_rev=0.0,
                contraction_regular_pct=29.0,
                contraction_total_pct=71.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_theta_max_and_contractions(self, bad):
        for theta_max_rev, regular, total in (
            (bad, 29.0, 71.0),
            (36.0, bad, 71.0),
            (36.0, 29.0, bad),
        ):
            with pytest.raises(ParameterError):
                ObservedEndpoints(
                    spec=SPEC,
                    load=LOAD,
                    theta_max_rev=theta_max_rev,
                    contraction_regular_pct=regular,
                    contraction_total_pct=total,
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "field",
        [
            "max_speed_regular_mm_s",
            "max_speed_overtwist_mm_s",
            "max_torque_regular_nm",
            "max_torque_overtwist_nm",
            "motor_speed_rev_s",
        ],
    )
    def test_rejects_given_optional_endpoint_unless_positive_and_finite(self, field, bad):
        with pytest.raises(ParameterError, match=field):
            dataclasses.replace(synth_obs(), **{field: bad})

    @pytest.mark.parametrize(
        "regular,total",
        [(0.0, 71.0), (29.0, 29.0), (71.0, 29.0), (29.0, 100.0)],
    )
    def test_rejects_unordered_contractions(self, regular, total):
        with pytest.raises(ParameterError):
            ObservedEndpoints(
                spec=SPEC,
                load=LOAD,
                theta_max_rev=36.0,
                contraction_regular_pct=regular,
                contraction_total_pct=total,
            )


class TestResidual:
    def test_zero_at_generating_params(self):
        assert residual(TRUTH, synth_obs()) < 1e-12

    def test_perturbed_radius_strictly_worse(self):
        obs = synth_obs()
        perturbed = TwoPhaseParams(
            r_eff=TRUTH.r_eff * 1.1,
            theta_star=TRUTH.theta_star,
            coil_diameter=TRUTH.coil_diameter,
            coil_pitch=TRUTH.coil_pitch,
            eta=TRUTH.eta,
            compliance=TRUTH.compliance,
        )
        assert residual(perturbed, obs) > residual(TRUTH, obs)

    def test_penalty_when_theta_star_reaches_theta_max(self):
        obs = synth_obs()
        for theta_star_rev in (THETA_MAX_REV, THETA_MAX_REV + 5.0):
            late = TwoPhaseParams(
                r_eff=0.86,
                theta_star=rev_to_rad(theta_star_rev),
                coil_diameter=4.3,
                coil_pitch=2.6,
                eta=0.11,
            )
            assert residual(late, obs) == PENALTY_RESIDUAL

    def test_penalty_on_invariant_violation(self):
        # r_eff above twice the string diameter fails validation.
        bad = TwoPhaseParams(
            r_eff=3.0,
            theta_star=THETA_STAR,
            coil_diameter=4.3,
            coil_pitch=2.6,
            eta=0.11,
        )
        assert residual(bad, synth_obs()) == PENALTY_RESIDUAL

    def test_penalty_when_coil_capacity_exceeded(self):
        # A huge coil diameter eats the whole string in under two turns,
        # so the model cannot even reach theta_max.
        greedy = TwoPhaseParams(
            r_eff=0.86,
            theta_star=THETA_STAR,
            coil_diameter=40.0,
            coil_pitch=2.6,
            eta=0.11,
        )
        assert residual(greedy, synth_obs()) == PENALTY_RESIDUAL

    def test_speeds_enter_as_ratio_without_motor_speed(self):
        base = endpoints_from_params(SPEC, TRUTH, LOAD, THETA_MAX_REV)
        scaled = ObservedEndpoints(
            spec=base.spec,
            load=base.load,
            theta_max_rev=base.theta_max_rev,
            contraction_regular_pct=base.contraction_regular_pct,
            contraction_total_pct=base.contraction_total_pct,
            max_speed_regular_mm_s=3.0 * base.max_speed_regular_mm_s,
            max_speed_overtwist_mm_s=3.0 * base.max_speed_overtwist_mm_s,
            max_torque_regular_nm=base.max_torque_regular_nm,
            max_torque_overtwist_nm=base.max_torque_overtwist_nm,
        )
        # Common scaling preserves the ratio, so the fit target is unmoved.
        assert residual(TRUTH, scaled) == pytest.approx(residual(TRUTH, base), abs=1e-15)

    def test_absolute_speeds_matter_with_motor_speed(self):
        base = synth_obs()
        scaled = ObservedEndpoints(
            spec=base.spec,
            load=base.load,
            theta_max_rev=base.theta_max_rev,
            contraction_regular_pct=base.contraction_regular_pct,
            contraction_total_pct=base.contraction_total_pct,
            max_speed_regular_mm_s=3.0 * base.max_speed_regular_mm_s,
            max_speed_overtwist_mm_s=3.0 * base.max_speed_overtwist_mm_s,
            max_torque_regular_nm=base.max_torque_regular_nm,
            max_torque_overtwist_nm=base.max_torque_overtwist_nm,
            motor_speed_rev_s=base.motor_speed_rev_s,
        )
        assert residual(TRUTH, scaled) > residual(TRUTH, base)


class TestParamBounds:
    def test_rejects_inverted_interval(self):
        with pytest.raises(ParameterError):
            ParamBounds(
                r_eff=(1.0, 0.5),
                theta_star=(1.0, 2.0),
                coil_diameter=(1.0, 2.0),
                coil_pitch=(0.0, 1.0),
                eta=(0.1, 1.0),
                compliance=(0.0, 1.0),
            )

    @pytest.mark.parametrize("eta", [(0.0, 1.0), (0.1, 1.5)])
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(ParameterError):
            ParamBounds(
                r_eff=(0.5, 1.0),
                theta_star=(1.0, 2.0),
                coil_diameter=(1.0, 2.0),
                coil_pitch=(0.0, 1.0),
                eta=eta,
                compliance=(0.0, 1.0),
            )

    def test_rejects_negative_lower_bounds(self):
        with pytest.raises(ParameterError):
            ParamBounds(
                r_eff=(0.5, 1.0),
                theta_star=(1.0, 2.0),
                coil_diameter=(1.0, 2.0),
                coil_pitch=(-0.1, 1.0),
                eta=(0.1, 1.0),
                compliance=(0.0, 1.0),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", PARAM_ORDER)
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_bound_by_name(self, name, side, bad):
        interval = list(getattr(tight_bounds(), name))
        interval[side] = bad
        with pytest.raises(ParameterError, match=f"^{name}: bounds must be finite$"):
            dataclasses.replace(tight_bounds(), **{name: tuple(interval)})

    def test_clip_projects_into_box(self):
        bounds = tight_bounds()
        lo, hi = bounds.arrays()
        wild = np.array([10.0, -5.0, 4.0, 100.0, 0.5, 7.0])
        clipped = bounds.clip(wild)
        assert np.all(clipped >= lo) and np.all(clipped <= hi)

    def test_default_pins_pitch_and_stiff_compliance(self):
        bounds = ParamBounds.default(synth_obs())
        assert bounds.coil_pitch[0] == bounds.coil_pitch[1] > 0
        assert bounds.compliance == (0.0, 0.0)

    def test_default_frees_compliance_for_compliant_strings(self):
        spec = StringSpec(
            diameter=1.05, initial_length=210.0, material=Material.COMPLIANT, ply=6
        )
        obs = ObservedEndpoints(
            spec=spec,
            load=LoadCase(mass=200.0),
            theta_max_rev=25.0,
            contraction_regular_pct=11.25,
            contraction_total_pct=58.14,
        )
        bounds = ParamBounds.default(obs)
        assert bounds.compliance[1] > bounds.compliance[0] == 0.0


class TestVectorMapping:
    def test_round_trip(self):
        assert params_from_vector(params_to_vector(TRUTH)) == TRUTH


class TestFit:
    def test_recovers_generating_params(self):
        obs = synth_obs()
        fit = fit_two_phase(obs, tight_bounds())
        assert isinstance(fit, FitResult)
        assert fit.converged
        assert fit.residual < 1e-20
        truth_vec = params_to_vector(TRUTH)
        fitted_vec = params_to_vector(fit.params)
        scale = np.where(truth_vec == 0.0, 1.0, np.abs(truth_vec))
        assert np.all(np.abs(fitted_vec - truth_vec) / scale < 1e-6)

    def test_zero_volume_bounds_short_circuit(self):
        obs = synth_obs()
        point = ParamBounds(
            r_eff=(0.86, 0.86),
            theta_star=(THETA_STAR, THETA_STAR),
            coil_diameter=(4.3, 4.3),
            coil_pitch=(2.6, 2.6),
            eta=(0.11, 0.11),
            compliance=(0.0, 0.0),
        )
        fit = fit_two_phase(obs, point)
        assert fit.iterations == 0
        assert fit.converged
        assert fit.params == TRUTH
        assert fit.residual == residual(TRUTH, obs)

    def test_deterministic(self):
        obs = synth_obs()
        first = fit_two_phase(obs, tight_bounds())
        second = fit_two_phase(obs, tight_bounds())
        assert np.array_equal(
            params_to_vector(first.params), params_to_vector(second.params)
        )
        assert first.residual == second.residual
        assert first.iterations == second.iterations

    def test_characterization_row_reproduces_contractions(self):
        obs = read_observations(bundled_stiff_path())[1]
        fit = fit_two_phase(obs)
        assert fit.converged
        assert fit.residual < 1e-2
        fit.params.validate_for(obs.spec)
        pred = predict_endpoints(
            obs.spec, fit.params, obs.load, obs.theta_max_rev, obs.motor_speed_rev_s
        )
        assert pred["contraction_regular_pct"] == pytest.approx(
            obs.contraction_regular_pct, abs=0.5
        )
        assert pred["contraction_total_pct"] == pytest.approx(
            obs.contraction_total_pct, abs=0.5
        )
        assert pred["speed_overtwist"] > pred["speed_regular"]

    def test_bundled_fits_converge_below_the_penalty(self):
        # Restarted fits could end with every start on the flat penalty
        # plateau; the reduction scores only feasible points first.
        for obs in read_observations(bundled_stiff_path()) + read_observations(
            bundled_compliant_path()
        ):
            fit = fit_two_phase(obs)
            assert fit.converged
            assert fit.residual < PENALTY_RESIDUAL

    @settings(max_examples=100)
    @given(row=stiff_rows())
    def test_noise_free_rows_reach_the_exact_optimum(self, row):
        truth, obs = row
        fit = fit_two_phase(obs)
        assert fit.converged
        assert fit.residual <= residual(truth, obs) + 1e-12
        pred = predict_endpoints(obs.spec, fit.params, obs.load, obs.theta_max_rev)
        for key in ("contraction_regular_pct", "contraction_total_pct"):
            assert pred[key] == pytest.approx(getattr(obs, key), rel=1e-6)

    def test_infeasible_pinned_point_is_not_converged(self):
        obs = synth_obs()
        # theta_star past theta_max: the only point in the box is infeasible.
        pinned = (rev_to_rad(2.0 * THETA_MAX_REV),) * 2
        point = ParamBounds(
            r_eff=(0.86, 0.86),
            theta_star=pinned,
            coil_diameter=(4.3, 4.3),
            coil_pitch=(2.6, 2.6),
            eta=(0.11, 0.11),
            compliance=(0.0, 0.0),
        )
        fit = fit_two_phase(obs, point)
        assert fit.residual == PENALTY_RESIDUAL
        assert not fit.converged


class TestGridOracle:
    def test_single_point_grid_scores_that_point(self):
        obs = synth_obs()
        grid = {
            "r_eff": [0.86],
            "theta_star": [THETA_STAR],
            "coil_diameter": [4.3],
            "coil_pitch": [2.6],
            "eta": [0.11],
            "compliance": [0.0],
        }
        params, value = grid_oracle(obs, grid)
        assert params == TRUTH
        assert value == residual(TRUTH, obs)

    def test_tie_broken_toward_smallest_parameters(self):
        # Without torque observations the efficiency axis never touches
        # the residual, so every eta ties; the smallest must win.
        obs = synth_obs(include_torques=False)
        grid = {
            "r_eff": [0.86],
            "theta_star": [THETA_STAR],
            "coil_diameter": [4.3],
            "coil_pitch": [2.6],
            "eta": [0.7, 0.11, 0.3],
            "compliance": [0.0],
        }
        params, value = grid_oracle(obs, grid)
        assert params.eta == 0.11
        assert value < 1e-12

    def test_refuses_grids_above_cell_cap(self):
        obs = synth_obs()
        grid = {
            "r_eff": [0.8, 0.86, 0.9],
            "theta_star": [THETA_STAR * 0.9, THETA_STAR, THETA_STAR * 1.1],
            "coil_diameter": [4.3],
            "coil_pitch": [2.6],
            "eta": [0.11],
            "compliance": [0.0],
        }
        with pytest.raises(GridCapError):
            grid_oracle(obs, grid, cell_cap=8)

    def test_rejects_unknown_and_missing_parameters(self):
        obs = synth_obs()
        with pytest.raises(ParameterError):
            grid_oracle(obs, {"bogus": [1.0]})
        with pytest.raises(ParameterError):
            grid_oracle(obs, {"r_eff": [0.86]})

    def test_fit_matches_or_beats_coarse_grid(self):
        # The grid deliberately straddles TRUTH without containing it,
        # so its best cell has a strictly positive residual the solver
        # must improve on.
        obs = synth_obs()
        grid = {
            "r_eff": np.linspace(0.80, 0.92, 4),
            "theta_star": np.linspace(0.92 * THETA_STAR, 1.08 * THETA_STAR, 4),
            "coil_diameter": np.linspace(3.9, 4.7, 4),
            "coil_pitch": [2.6],
            "eta": np.linspace(0.09, 0.13, 4),
            "compliance": [0.0],
        }
        _, grid_residual = grid_oracle(obs, grid)
        assert grid_residual == pytest.approx(2.5770535481582043e-3, rel=1e-9)
        fit = fit_two_phase(obs, tight_bounds())
        assert fit.residual <= grid_residual
        assert fit.residual < 1e-20
