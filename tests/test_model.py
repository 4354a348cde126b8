"""Core two-phase kinematics against independent geometric oracles.

The sqrt shortening law is cross-checked by inverting the inextensible
helix constraint with a root finder, and the per-coil shortening by
numerically integrating the arc length of one coil turn.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from scalar_law import coil, length, length_regular, max_theta
from tsakit.calibration import predict_endpoints
from tsakit.errors import (
    CoilCapacityError,
    DomainError,
    ParameterError,
)
from tsakit.model import (
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    contraction,
    effective_length,
    size_for_displacement,
    strain,
    twist_profile,
)
from tsakit.units import TWO_PI, rad_to_rev, rev_to_rad


def make_spec(diameter=1.3, initial_length=214.3, material=Material.STIFF, ply=1):
    return StringSpec(
        diameter=diameter, initial_length=initial_length, material=material, ply=ply
    )


def make_params(
    r_eff=0.85,
    theta_star_rev=28.0,
    coil_diameter=2.6,
    coil_pitch=2.6,
    eta=0.5,
    compliance=0.0,
):
    return TwoPhaseParams(
        r_eff=r_eff,
        theta_star=rev_to_rad(theta_star_rev),
        coil_diameter=coil_diameter,
        coil_pitch=coil_pitch,
        eta=eta,
        compliance=compliance,
    )


LOAD = LoadCase(mass=2900.0)


# ---------------------------------------------------------------- oracles


def helix_length_oracle(l_eff, r_eff, theta):
    """Axial length of an inextensible string wound onto a cylinder.

    The string of total length l_eff winds theta radians at radius
    r_eff; the axial length L satisfies hypot(L, theta * r_eff) = l_eff.
    Solved by bracketing instead of algebra so it is independent of the
    closed form under test.
    """
    return brentq(
        lambda L: math.hypot(L, theta * r_eff) - l_eff, 1e-12, l_eff, xtol=1e-13
    )


def coil_turn_arc_oracle(coil_diameter, coil_pitch):
    """Arc length of one full helix turn, by quadrature."""
    radius = coil_diameter / 2.0
    climb = coil_pitch / TWO_PI

    def speed(phi):
        return math.hypot(radius, climb)

    value, _ = quad(speed, 0.0, TWO_PI)
    return value


class TestLengthRegular:
    def test_zero_twist_returns_initial_length(self):
        spec = make_spec()
        params = make_params()
        assert length_regular(spec, params, LOAD, 0.0) == pytest.approx(214.3)

    def test_matches_helix_inversion_oracle(self):
        spec = StringSpec(diameter=1.0, initial_length=100.0)
        params = TwoPhaseParams(
            r_eff=1.0, theta_star=70.0, coil_diameter=2.0, coil_pitch=2.0
        )
        load = LoadCase(mass=0.0)
        # 6-8-10 triangle: sqrt(100^2 - 60^2) = 80 exactly.
        assert length_regular(spec, params, load, 60.0) == pytest.approx(80.0, abs=1e-9)
        for theta in np.linspace(1.0, 69.0, 23):
            expected = helix_length_oracle(100.0, 1.0, theta)
            got = length_regular(spec, params, load, float(theta))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_strictly_decreasing_in_theta(self):
        spec = make_spec()
        params = make_params()
        grid = np.linspace(0.0, params.theta_star, 200)
        values = [length_regular(spec, params, LOAD, float(t)) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_compliance_raises_effective_length(self):
        spec = make_spec(material=Material.COMPLIANT, ply=6)
        params = make_params(compliance=1.0)
        stretched = length_regular(spec, params, LOAD, 0.0)
        assert stretched == pytest.approx(214.3 + LOAD.force)
        assert effective_length(spec, params, LOAD) == pytest.approx(stretched)

    def test_total_windup_is_domain_error(self):
        spec = StringSpec(diameter=1.0, initial_length=100.0)
        params = TwoPhaseParams(
            r_eff=1.0, theta_star=90.0, coil_diameter=2.0, coil_pitch=2.0
        )
        with pytest.raises(DomainError):
            length_regular(spec, params, LoadCase(mass=0.0), 100.0)

    def test_negative_twist_rejected(self):
        with pytest.raises(DomainError):
            length_regular(make_spec(), make_params(), LOAD, -0.1)


def ratio_at(spec, params, load, thetas):
    """dL/dtheta from the twist_profile ratio column, as floats."""
    return twist_profile(spec, params, load, thetas).ratio.tolist()


@st.composite
def feasible_points(draw):
    """A string, load, parameter set and theta_max that calibration accepts.

    Stiff and compliant strings, compliance from 0 to 1 mm/N; theta_max
    lies strictly between theta_star and the coil capacity.
    """
    d = draw(st.floats(0.3, 3.0))
    spec = make_spec(
        diameter=d,
        initial_length=draw(st.floats(20.0 * d, 400.0)),
        material=draw(st.sampled_from(Material)),
    )
    load = LoadCase(mass=draw(st.floats(0.0, 5000.0)))
    r_eff = draw(st.floats(d / 2.0, 2.0 * d))
    params = TwoPhaseParams(
        r_eff=r_eff,
        theta_star=draw(st.floats(0.05, 0.95)) * spec.initial_length / r_eff,
        coil_diameter=draw(st.floats(0.5 * d, 10.0 * d)),
        coil_pitch=draw(st.floats(0.0, 4.0 * d)),
        eta=draw(st.floats(0.02, 1.0)),
        compliance=draw(st.floats(0.0, 1.0)),
    )
    span = max_theta(spec, params, load) - params.theta_star
    theta_max_rev = rad_to_rev(params.theta_star + draw(st.floats(0.01, 0.99)) * span)
    return spec, params, load, theta_max_rev


class TestLengthOvertwist:
    def test_continuous_at_phase_change(self):
        spec = make_spec()
        params = make_params()
        l1 = length_regular(spec, params, LOAD, params.theta_star)
        l2 = length(spec, params, LOAD, math.nextafter(params.theta_star, math.inf))
        assert abs(l1 - l2) <= 1e-9 * l1

    def test_per_coil_shortening_matches_arc_quadrature(self):
        # One coil consumes one turn of bundle arc and yields one pitch
        # of axial length; with l_per = 6.35 and p = 2.6 the shortening
        # per coil is 3.75 mm.
        coil_pitch = 2.6
        coil_diameter = math.sqrt(6.35**2 - coil_pitch**2) / math.pi
        params = make_params(coil_diameter=coil_diameter, coil_pitch=coil_pitch)
        arc = coil_turn_arc_oracle(coil_diameter, coil_pitch)
        assert arc == pytest.approx(6.35, rel=1e-10)
        assert params.coil_circumference == pytest.approx(arc, rel=1e-10)
        over_ratio = twist_profile(make_spec(), params, LOAD, [params.theta_star + 1.0]).ratio
        assert -over_ratio[0] * TWO_PI == pytest.approx(3.75, rel=1e-9)

        spec = make_spec()
        one_rev_in = length(spec, params, LOAD, params.theta_star + TWO_PI)
        at_star = length_regular(spec, params, LOAD, params.theta_star)
        assert at_star - one_rev_in == pytest.approx(3.75, rel=1e-9)

    def test_linear_in_theta(self):
        spec = make_spec()
        params = make_params()
        base = params.theta_star
        lengths = [
            length(spec, params, LOAD, base + k * 0.5) for k in range(5)
        ]
        steps = np.diff(lengths)
        assert np.allclose(steps, steps[0], rtol=1e-12)

    def test_capacity_error_states_theta_max(self):
        spec = make_spec()
        params = make_params()
        limit = max_theta(spec, params, LOAD)
        with pytest.raises(CoilCapacityError) as err:
            length(spec, params, LOAD, limit + 1.0)
        assert str(err.value).endswith(f"coil capacity limit {limit:.6g} rad")
        # Just inside the limit must still evaluate.
        assert length(spec, params, LOAD, limit - 1e-6) > 0.0


class TestLengthDispatch:
    def test_piecewise_agreement(self):
        spec = make_spec()
        params = make_params()
        assert length(spec, params, LOAD, 0.0) == pytest.approx(214.3)
        t = params.theta_star
        assert length(spec, params, LOAD, t * 0.5) == pytest.approx(
            length_regular(spec, params, LOAD, t * 0.5)
        )
        l1 = length_regular(spec, params, LOAD, t)
        assert length(spec, params, LOAD, t + 3.0) == pytest.approx(
            l1 - 3.0 / TWO_PI * coil(params)[1]
        )

    @pytest.mark.parametrize("theta", [math.nan, -0.1, -math.inf])
    def test_nan_or_negative_twist_is_a_domain_error(self, theta):
        with pytest.raises(DomainError, match="twist must be nonnegative"):
            length(make_spec(), make_params(), LOAD, theta)

    def test_monotone_non_increasing_over_full_range(self):
        spec = make_spec()
        params = make_params()
        limit = max_theta(spec, params, LOAD)
        grid = np.linspace(0.0, limit - 1e-9, 1000)
        values = [length(spec, params, LOAD, float(t)) for t in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_strain_bounds_over_admissible_range(self):
        spec = make_spec()
        params = make_params()
        limit = max_theta(spec, params, LOAD)
        for t in np.linspace(0.0, limit - 1e-9, 300):
            s = strain(length(spec, params, LOAD, float(t)), spec.initial_length)
            assert -100.0 <= s <= 0.0

    def test_state_at_reports_phase_and_coils(self):
        spec = make_spec()
        params = make_params()
        thetas = [params.theta_star * 0.5, params.theta_star + 3 * TWO_PI]
        profile = twist_profile(spec, params, LOAD, thetas)
        assert profile.overtwist.tolist() == [False, True]
        assert profile.coil_count[0] == 0.0
        assert profile.coil_count[1] == pytest.approx(3.0)


class TestStrain:
    def test_zero_at_initial_length(self):
        assert strain(214.3, 214.3) == 0.0

    def test_table_row_total_contraction(self):
        assert strain(62.28, 214.3) == pytest.approx(-70.94, abs=0.01)

    def test_arm_string_shortening(self):
        assert strain(135.0, 215.0) == pytest.approx(-37.2, abs=0.05)

    @pytest.mark.parametrize("initial_length", [0.0, -214.3])
    def test_nonpositive_initial_length_rejected(self, initial_length):
        with pytest.raises(DomainError, match="^initial length must be positive$"):
            strain(150.0, initial_length)

    def test_contraction_is_negated_strain(self):
        assert contraction(150.0, 200.0) == pytest.approx(25.0)
        assert contraction(150.0, 200.0) == -strain(150.0, 200.0)


class TestTransmissionRatio:
    def test_zero_at_zero_twist(self):
        assert ratio_at(make_spec(), make_params(), LOAD, [0.0]) == [0.0]

    def test_phase_two_constant(self):
        spec = make_spec()
        params = make_params()
        base = params.theta_star
        values = set(ratio_at(spec, params, LOAD, [base + k * 0.31 for k in range(1, 101)]))
        expected = -coil(params)[1] / TWO_PI
        assert all(v == pytest.approx(expected, rel=1e-12) for v in values)

    def test_matches_central_differences(self):
        # Step size balances truncation against subtractive roundoff:
        # lengths are ~2e2 mm, so slopes below ~1e-2 mm/rad cannot be
        # differenced to 1e-6 relative; start the grid past that point.
        spec = make_spec()
        params = make_params()
        h = 1e-3
        grid = np.concatenate(
            [
                np.linspace(5.0, params.theta_star - 0.1, 40),
                np.linspace(params.theta_star + 0.1, params.theta_star + 20.0, 40),
            ]
        )
        for t, analytic in zip(grid.tolist(), ratio_at(spec, params, LOAD, grid)):
            numeric = (
                length(spec, params, LOAD, t + h) - length(spec, params, LOAD, t - h)
            ) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-6)

    @given(point=feasible_points())
    @example(point=(make_spec(), make_params(), LOAD, rad_to_rev(make_params().theta_star) + 1.0))
    def test_kink_requires_side(self, point):
        # The profile takes the regular side at theta_star; the calibrated
        # endpoints report both sides as slope magnitudes. Both read the
        # one law, so contractions and torques agree bit for bit too.
        spec, params, load, theta_max_rev = point
        thetas = [params.theta_star, rev_to_rad(theta_max_rev)]
        at_star, at_max = ratio_at(spec, params, load, thetas)
        pred = predict_endpoints(spec, params, load, theta_max_rev)
        left, right = -pred["speed_regular"], -pred["speed_overtwist"]
        assert left == at_star
        assert right == at_max == -coil(params)[1] / TWO_PI
        assert left < 0 and right < 0
        profile = twist_profile(spec, params, load, thetas)
        contractions = [contraction(x, spec.initial_length) for x in profile.length.tolist()]
        predicted = [pred["contraction_regular_pct"], pred["contraction_total_pct"]]
        assert [x.hex() for x in predicted] == [x.hex() for x in contractions]
        torques = [pred["torque_regular_nm"], pred["torque_overtwist_nm"]]
        assert [x.hex() for x in torques] == [x.hex() for x in profile.torque.tolist()]

    def test_phase_one_magnitude_strictly_increasing(self):
        spec = make_spec()
        params = make_params()
        grid = np.linspace(0.1, params.theta_star - 1e-6, 100)
        mags = [abs(r) for r in ratio_at(spec, params, LOAD, grid)]
        assert all(a < b for a, b in zip(mags, mags[1:]))


def profile_at(spec, params, load, theta):
    """twist_profile at one twist: (|ratio|, torque)."""
    prof = twist_profile(spec, params, load, [theta])
    return abs(float(prof.ratio[0])), float(prof.torque[0])


class TestSpeedAndTorque:
    def test_zero_motor_speed(self):
        ratio, _ = profile_at(make_spec(), make_params(), LOAD, 3.0)
        assert ratio * 0.0 == 0.0

    def test_unit_ratio_construction(self):
        # l_per - p = 2 pi makes the phase-2 ratio exactly 1 mm/rad, so
        # linear speed equals motor speed numerically.
        coil_pitch = 2.6
        l_per = TWO_PI + coil_pitch
        coil_diameter = math.sqrt(l_per**2 - coil_pitch**2) / math.pi
        params = make_params(coil_diameter=coil_diameter, coil_pitch=coil_pitch)
        spec = make_spec()
        ratio, _ = profile_at(spec, params, LOAD, params.theta_star + 1.0)
        assert ratio * 0.7 == pytest.approx(0.7, rel=1e-12)

    def test_torque_unit_conversion(self):
        # eta = 1, F = 1 N, |dL/dtheta| = 1 mm/rad -> 1e-3 N m.
        coil_pitch = 2.6
        l_per = TWO_PI + coil_pitch
        coil_diameter = math.sqrt(l_per**2 - coil_pitch**2) / math.pi
        params = make_params(
            coil_diameter=coil_diameter, coil_pitch=coil_pitch, eta=1.0
        )
        spec = make_spec()
        one_newton = LoadCase(mass=1000.0 / 9.81)
        _, torque = profile_at(spec, params, one_newton, params.theta_star + 1.0)
        assert torque == pytest.approx(1e-3, rel=1e-9)

    def test_zero_load_zero_torque(self):
        spec = make_spec()
        params = make_params()
        assert profile_at(spec, params, LoadCase(mass=0.0), 3.0)[1] == 0.0

    def test_power_balance_never_underdelivers(self):
        # Motor work must cover mechanical output: tau * dtheta >=
        # F * dL for small steps whenever eta <= 1.
        spec = make_spec()
        for eta in (0.3, 1.0):
            params = make_params(eta=eta)
            for t in (2.0, 100.0, params.theta_star + 5.0):
                h = 1e-3
                dl = abs(
                    length(spec, params, LOAD, t + h) - length(spec, params, LOAD, t)
                )
                _, tau = profile_at(spec, params, LOAD, t + h / 2)
                # Torque is N m; load force times mm stroke gives N mm.
                assert tau * h * 1e3 >= LOAD.force * dl * (1.0 - 1e-8)


class TestSizing:
    def test_high_performance_actuator(self):
        assert f"{size_for_displacement(10.0, 0.70):.2f}" == "14.29"

    def test_conservative_actuator(self):
        assert f"{size_for_displacement(10.0, 0.30):.2f}" == "33.33"

    def test_zero_displacement(self):
        assert size_for_displacement(0.0, 0.5) == 0.0

    def test_round_trip(self):
        for frac in (0.1, 0.3, 0.7, 0.99):
            assert size_for_displacement(10.0, frac) * frac == pytest.approx(10.0)

    def test_fraction_domain(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                size_for_displacement(10.0, bad)
        with pytest.raises(DomainError):
            size_for_displacement(-1.0, 0.5)

    @pytest.mark.parametrize("displacement", [math.nan, math.inf, -math.inf])
    def test_non_finite_displacement(self, displacement):
        with pytest.raises(DomainError, match="^required displacement must be nonnegative and finite$"):
            size_for_displacement(displacement, 0.5)


class TestValidation:
    def test_slenderness_guard(self):
        with pytest.raises(ParameterError):
            StringSpec(diameter=10.0, initial_length=100.0)

    def test_positive_dimensions(self):
        with pytest.raises(ParameterError):
            StringSpec(diameter=-1.0, initial_length=100.0)
        with pytest.raises(ParameterError):
            StringSpec(diameter=1.0, initial_length=0.0)

    def test_ply_is_positive_integer(self):
        with pytest.raises(ParameterError):
            StringSpec(diameter=1.0, initial_length=100.0, ply=0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ParameterError):
            LoadCase(mass=-5.0)

    def test_params_invariants(self):
        with pytest.raises(ParameterError):
            make_params(r_eff=-1.0)
        with pytest.raises(ParameterError):
            make_params(eta=0.0)
        with pytest.raises(ParameterError):
            make_params(eta=1.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, bad):
        for build in (
            lambda: StringSpec(diameter=bad, initial_length=100.0),
            lambda: StringSpec(diameter=1.0, initial_length=bad),
            lambda: StringSpec(diameter=1.0, initial_length=100.0, ply=bad),
            lambda: LoadCase(mass=bad),
            lambda: make_params(r_eff=bad),
            lambda: make_params(theta_star_rev=bad),
            lambda: make_params(coil_diameter=bad),
            lambda: make_params(coil_pitch=bad),
            lambda: make_params(eta=bad),
            lambda: make_params(compliance=bad),
        ):
            with pytest.raises(ParameterError):
                build()
