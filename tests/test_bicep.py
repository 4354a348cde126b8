"""Tests for the bicep linkage: triangle kinematics, statics, and fitting.

Oracle strategy: the forward triangle is exercised against closed-form
boundary poses and a central-difference slope check; the fitter is
checked against synthetic data it must recover exactly, against the
unpolished grid scan it must never lose to, and against an independent
one-dimensional reduction of the measured-pair problem (whose optimum
rides the fully-folded boundary b - a = min length). A property over
generated linkages, boundary lengths and noise included, checks that
every fit admits its lengths, recomputes through the public kinematics,
and never loses to the grid scan.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oracles import bicep_grid_oracle, dlength_dangle, gravity_torque
from scalar_law import length
from tsakit.bicep import (
    CONSISTENCY_LIMIT_DEG,
    BicepFit,
    BicepGeometry,
    _arms,
    angle_from_length,
    fit_bicep,
    length_from_angle,
    string_tension,
    sweep,
)
from tsakit.errors import (
    ParameterError,
    SingularConfigurationError,
    TriangleRangeError,
    UnderdeterminedError,
)
from tsakit.model import LoadCase, Material, StringSpec, TwoPhaseParams, twist_profile
from tsakit.units import grams_to_newtons, rev_to_rad

GEOM = BicepGeometry(a=83.0, b=151.0, gamma=142.5, payload=500.0, forearm_length=120.0)

# Measured (string length mm, bending angle deg) pairs of the testbed arm.
PAIRS = [(215.0, 13.1), (135.0, 73.4), (68.0, 147.1)]

# Pairs whose optimum rides the folded boundary b - a = 162.1 mm with
# arms past the 400 mm lattice; a one-ulp miss of that boundary once
# crashed the fit.
FOLDED_PAIRS = [(162.1, 59.0), (172.5, 47.79), (178.4, 50.08), (188.8, 44.37)]

# Angles that do not fall as the string lengthens (least-squares slope 0
# and +0.2 deg/mm): the fit's arms once ran away to about 7e9 mm.
RUNAWAY_PAIRS = {
    "flat": [(100.0, 50.0), (110.0, 50.0), (120.0, 50.0)],
    "rising": [(100.0, 50.0), (110.0, 52.0), (120.0, 54.0)],
}


def boundary_oracle(pairs):
    """Independent 1-d solution of the measured-pair fit.

    The least-squares optimum sits on the fully folded boundary
    b - a = min(lengths) (the shortest observation closes the triangle
    flat), which reduces the problem to one variable: fix b = a + l_min,
    take the closed-form optimal gamma = mean(elbow_k + angle_k), and
    minimize the remaining SSE over a alone with a scalar method.
    """
    lengths = np.array([l for l, _ in pairs])
    angles = np.array([phi for _, phi in pairs])
    l_min = lengths.min()

    def sse_of_a(a):
        b = a + l_min
        c = (a * a + b * b - lengths**2) / (2.0 * a * b)
        elbow = np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
        gamma = float(np.mean(elbow + angles))
        err = (gamma - elbow) - angles
        return float(np.sum(err * err))

    result = minimize_scalar(
        sse_of_a, bounds=(l_min + 1.0, 200.0), method="bounded",
        options={"xatol": 1e-8},
    )
    return float(result.x), float(result.fun)


class TestTriangleKinematics:
    def test_round_trip_over_admissible_interval(self):
        lo, hi = GEOM.admissible_lengths
        for l in np.linspace(lo + 0.5, hi - 0.5, 100):
            phi = angle_from_length(GEOM, float(l))
            assert length_from_angle(GEOM, phi) == pytest.approx(float(l), abs=1e-9)

    def test_admissible_interval_is_triangle_inequality(self):
        assert GEOM.admissible_lengths == (abs(GEOM.a - GEOM.b), GEOM.a + GEOM.b)

    def test_fully_extended_and_fully_folded_poses(self):
        # String spanning a + b opens the elbow flat; string equal to
        # b - a folds it shut.
        assert GEOM.gamma - angle_from_length(GEOM, GEOM.a + GEOM.b) == pytest.approx(
            180.0, abs=1e-9
        )
        assert GEOM.gamma - angle_from_length(GEOM, GEOM.b - GEOM.a) == pytest.approx(
            0.0, abs=1e-9
        )
        assert angle_from_length(GEOM, GEOM.a + GEOM.b) == pytest.approx(
            GEOM.gamma - 180.0, abs=1e-9
        )
        assert angle_from_length(GEOM, GEOM.b - GEOM.a) == pytest.approx(
            GEOM.gamma, abs=1e-9
        )

    def test_angle_strictly_decreasing_in_length(self):
        lo, hi = GEOM.admissible_lengths
        lengths = np.linspace(lo, hi, 200)
        angles = [angle_from_length(GEOM, float(l)) for l in lengths]
        assert np.all(np.diff(angles) < 0.0)

    def test_out_of_range_length_reports_interval(self):
        with pytest.raises(TriangleRangeError) as excinfo:
            angle_from_length(GEOM, GEOM.a + GEOM.b + 1.0)
        assert str(excinfo.value).endswith(
            f"interval [{GEOM.b - GEOM.a:.6g}, {GEOM.a + GEOM.b:.6g}] mm"
        )
        with pytest.raises(TriangleRangeError):
            angle_from_length(GEOM, GEOM.b - GEOM.a - 1.0)

    def test_out_of_range_angle_reports_interval(self):
        with pytest.raises(TriangleRangeError) as excinfo:
            length_from_angle(GEOM, GEOM.gamma + 1.0)
        assert str(excinfo.value).endswith(
            f"interval [{GEOM.gamma - 180.0:.6g}, {GEOM.gamma:.6g}] deg"
        )
        with pytest.raises(TriangleRangeError):
            length_from_angle(GEOM, GEOM.gamma - 181.0)

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ParameterError):
            BicepGeometry(a=0.0, b=150.0, gamma=140.0)
        with pytest.raises(ParameterError):
            BicepGeometry(a=80.0, b=150.0, gamma=140.0, payload=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b", "gamma", "payload", "forearm_length"])
    def test_rejects_non_finite_geometry(self, name, value):
        fields = dict(a=80.0, b=150.0, gamma=140.0, payload=500.0, forearm_length=120.0)
        fields[name] = value
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            BicepGeometry(**fields)


class TestSlopeAndStatics:
    @pytest.mark.parametrize("angle", [20.0, 60.0, 100.0, 130.0])
    def test_analytic_slope_matches_central_difference(self, angle):
        h = 1e-3
        fd = (
            length_from_angle(GEOM, angle + h) - length_from_angle(GEOM, angle - h)
        ) / (2.0 * h)
        assert dlength_dangle(GEOM, angle) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("angle", [20.0, 60.0, 100.0, 130.0])
    def test_virtual_work_balance(self, angle):
        # Tension times string-side displacement rate equals the gravity
        # moment (per radian of joint motion).
        tension = string_tension(GEOM, angle)
        slope_per_rad = abs(dlength_dangle(GEOM, angle)) * 180.0 / math.pi
        assert tension * slope_per_rad == pytest.approx(
            gravity_torque(GEOM, angle), rel=1e-12
        )

    def test_tension_drops_as_the_arm_flexes(self):
        # Tension scales with string length, so the flexed pose needs
        # less pull than the extended one.
        assert string_tension(GEOM, 130.0) < string_tension(GEOM, 20.0)

    def test_tension_proportional_to_payload_and_zero_without(self):
        unloaded = BicepGeometry(a=83.0, b=151.0, gamma=142.5, forearm_length=120.0)
        assert string_tension(unloaded, 60.0) == 0.0
        doubled = BicepGeometry(
            a=83.0, b=151.0, gamma=142.5, payload=1000.0, forearm_length=120.0
        )
        assert string_tension(doubled, 60.0) == pytest.approx(
            2.0 * string_tension(GEOM, 60.0), rel=1e-12
        )

    def test_singular_poses_rejected(self):
        # Fully folded and fully extended, the string line passes
        # through the joint and the moment balance degenerates.
        with pytest.raises(SingularConfigurationError):
            string_tension(GEOM, GEOM.gamma)
        with pytest.raises(SingularConfigurationError):
            string_tension(GEOM, GEOM.gamma - 180.0)

    def test_tension_formula_closed_form(self):
        angle = 60.0
        l = length_from_angle(GEOM, angle)
        expected = grams_to_newtons(GEOM.payload) * GEOM.forearm_length * l / (
            GEOM.a * GEOM.b
        )
        assert string_tension(GEOM, angle) == pytest.approx(expected, rel=1e-15)


class TestFitBicep:
    def test_recovers_generating_geometry(self):
        truth = BicepGeometry(a=80.0, b=150.0, gamma=140.0)
        angles = [10.0, 40.0, 70.0, 100.0, 130.0]
        pairs = [(length_from_angle(truth, phi), phi) for phi in angles]
        fit = fit_bicep(pairs)
        assert isinstance(fit, BicepFit)
        assert all(type(v) is float for v in (fit.geometry.a, fit.geometry.b, fit.geometry.gamma))
        assert fit.consistent
        assert fit.sse_deg2 < 1e-10
        assert fit.geometry.a == pytest.approx(truth.a, rel=1e-3)
        assert fit.geometry.b == pytest.approx(truth.b, rel=1e-3)
        assert fit.geometry.gamma == pytest.approx(truth.gamma, rel=1e-3)
        assert max(abs(e) for e in fit.errors_deg) < 1e-4

    def test_canonicalizes_arm_order(self):
        truth = BicepGeometry(a=80.0, b=150.0, gamma=140.0)
        angles = [10.0, 40.0, 70.0, 100.0, 130.0]
        pairs = [(length_from_angle(truth, phi), phi) for phi in angles]
        fit = fit_bicep(pairs)
        assert fit.geometry.a <= fit.geometry.b

    def test_requires_three_distinct_lengths(self):
        with pytest.raises(UnderdeterminedError):
            fit_bicep([(215.0, 13.1), (135.0, 73.4)])
        with pytest.raises(UnderdeterminedError):
            fit_bicep([(215.0, 13.1), (215.0, 14.0), (135.0, 73.4)])

    def test_rejects_lengths_past_the_arm_lattice(self):
        # The 4 mm lattice's longest arms, a = b = 400 mm, close on at most
        # 800 mm; pairs up to that length start the polish from a cell.
        with pytest.raises(
            UnderdeterminedError, match="^no admissible geometry covers the observed lengths$"
        ):
            fit_bicep([(900.0, 40.0), (950.0, 30.0), (800.5, 50.0)])
        assert fit_bicep([(700.0, 40.0), (750.0, 30.0), (800.0, 20.0)]).consistent

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ParameterError):
            fit_bicep([(215.0, 13.1), (-135.0, 73.4), (68.0, 147.1)])

    def test_measured_pairs_are_inconsistent_with_rigid_linkage(self):
        fit = fit_bicep(PAIRS, payload=500.0, forearm_length=120.0)
        assert not fit.consistent
        assert max(abs(e) for e in fit.errors_deg) > CONSISTENCY_LIMIT_DEG
        assert max(abs(e) for e in fit.errors_deg) == pytest.approx(6.354, abs=0.01)
        # Payload and forearm pass through to the fitted geometry.
        assert fit.geometry.payload == 500.0
        assert fit.geometry.forearm_length == 120.0

    def test_measured_pairs_match_boundary_oracle(self):
        # The optimum rides the fully folded boundary: the 68 mm
        # observation closes the triangle flat, so b - a pins to it.
        fit = fit_bicep(PAIRS)
        a_star, sse_star = boundary_oracle(PAIRS)
        assert fit.geometry.b - fit.geometry.a == pytest.approx(68.0, abs=1e-6)
        assert fit.geometry.a == pytest.approx(a_star, abs=1e-3)
        assert fit.sse_deg2 == pytest.approx(sse_star, abs=1e-6)
        assert fit.sse_deg2 == pytest.approx(64.5859, abs=0.01)

    def test_three_noisy_pairs_are_interpolated(self):
        # Three pairs, three parameters: the fit passes through them. The
        # optimum lies just inside the extended face a + b = 180.3 mm, where
        # a simplex clipped to the box bounds collapses onto the face and
        # stops at SSE 0.93.
        fit = fit_bicep([(131.1, 31.22), (171.3, -33.8), (180.3, -75.24)])
        assert fit.geometry.a + fit.geometry.b > 180.3
        assert fit.sse_deg2 < 1e-12

    @pytest.mark.parametrize("shift, bound", [(300.0, 360.0), (-300.0, 0.0)])
    def test_offset_is_clipped_to_one_turn(self, shift, bound):
        truth = BicepGeometry(a=80.0, b=150.0, gamma=140.0)
        pairs = [
            (length_from_angle(truth, phi), phi + shift)
            for phi in [10.0, 40.0, 70.0, 100.0, 130.0]
        ]
        fit = fit_bicep(pairs)
        assert fit.geometry.gamma == bound
        assert not fit.consistent

    @pytest.mark.parametrize("fit", [fit_bicep, bicep_grid_oracle])
    @pytest.mark.parametrize("pair", [(math.nan, 73.4), (135.0, math.inf), (-math.inf, math.nan)])
    def test_rejects_non_finite_pairs(self, fit, pair):
        with pytest.raises(ParameterError, match="pairs must be finite"):
            fit([PAIRS[0], pair, PAIRS[2]])

    def test_folded_optimum_beyond_lattice_admits_every_length(self):
        fit = fit_bicep(FOLDED_PAIRS)
        lengths = [l for l, _ in FOLDED_PAIRS]
        angle_from_length(fit.geometry, lengths)
        assert fit.geometry.b - fit.geometry.a == pytest.approx(min(lengths), abs=1e-9)
        assert fit.geometry.b > 400.0
        _, grid_sse = bicep_grid_oracle(FOLDED_PAIRS)
        assert fit.sse_deg2 < grid_sse

    @pytest.mark.parametrize("name", sorted(RUNAWAY_PAIRS))
    def test_angles_not_falling_with_length_have_no_fit(self, name):
        with pytest.raises(UnderdeterminedError, match="do not fall"):
            fit_bicep(RUNAWAY_PAIRS[name])
        # The oracle still scores its lattice; its best cell is finite.
        (a, b, _), _ = bicep_grid_oracle(RUNAWAY_PAIRS[name])
        assert a <= 400.0 and b <= 400.0

    def test_fit_never_loses_to_grid_scan(self):
        (a, b, gamma), grid_sse = bicep_grid_oracle(PAIRS)
        assert (a, b, gamma) == (84.0, 152.0, 142.0)
        assert grid_sse == pytest.approx(67.8046054199, rel=1e-9)
        fit = fit_bicep(PAIRS)
        assert fit.sse_deg2 <= grid_sse


@st.composite
def linkages(draw):
    """Pairs of a generated linkage: 3-7 distinct admissible lengths,
    the folded and extended ones among them whenever a drawn fraction is
    0 or 1, and up to 6 deg of angle noise."""
    a = draw(st.floats(10.0, 250.0))
    b = draw(st.floats(10.0, 250.0))
    assume(abs(a - b) >= 1.0)
    truth = BicepGeometry(a=a, b=b, gamma=draw(st.floats(60.0, 220.0)))
    lo, hi = truth.admissible_lengths
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=7, unique=True))
    lengths = sorted({min(hi, lo + f * (hi - lo)) for f in fractions})
    assume(len(lengths) >= 3)
    noise = draw(st.floats(0.0, 6.0))
    units = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(lengths), max_size=len(lengths)))
    return [(l, angle_from_length(truth, l) + noise * e) for l, e in zip(lengths, units)]


class TestFitProperties:
    # The grid oracle takes about 0.15 s per call.
    @settings(max_examples=25)
    @given(pairs=linkages())
    def test_fit_admits_recomputes_and_never_loses_to_grid(self, pairs):
        try:
            fit = fit_bicep(pairs)
        except UnderdeterminedError:
            # Refused only by the rule on angles that do not fall with length.
            lengths, angles = np.array(pairs).T
            assert (lengths - lengths.mean()) @ (angles - angles.mean()) >= 0
            return
        geom = fit.geometry
        assert geom.a <= geom.b
        errors = [angle_from_length(geom, l) - phi for l, phi in pairs]
        assert fit.errors_deg == pytest.approx(errors, rel=0, abs=1e-9)
        assert fit.sse_deg2 == pytest.approx(sum(e * e for e in errors), rel=1e-12, abs=1e-15)
        assert fit.sse_deg2 <= bicep_grid_oracle(pairs)[1] + 1e-9

    @settings(max_examples=300)
    @given(
        lo=st.floats(1e-3, 500.0),
        gap=st.floats(1e-9, 500.0),
        u_frac=st.sampled_from([1.0, 0.0]) | st.floats(0.0, 1.0),
        v_extra=st.sampled_from([0.0]) | st.floats(0.0, 500.0),
    )
    def test_box_point_rounds_to_admissible_arms(self, lo, gap, u_frac, v_extra):
        hi = lo + gap
        assume(hi > lo)
        u, v = lo * u_frac, hi + v_extra
        a, b = _arms(u, v, lo, hi)
        assert 0.0 < a <= b
        assert b - a <= lo and hi <= a + b
        assert abs((b - a) - u) <= 4.0 * math.ulp(v)
        assert abs((a + b) - v) <= 4.0 * math.ulp(v)


def hex_cells(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


@st.composite
def geometries(draw):
    return BicepGeometry(
        a=draw(st.floats(1.0, 300.0)),
        b=draw(st.floats(1.0, 300.0)),
        gamma=draw(st.floats(-360.0, 360.0)),
        payload=draw(st.floats(0.0, 5000.0)),
        forearm_length=draw(st.floats(0.0, 500.0)),
    )


class TestElementwise:
    """The linkage maps take arrays, and each cell is the scalar call's."""

    @settings(max_examples=200)
    @given(
        geom=geometries(),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        elbows=st.lists(st.floats(1e-3, 180.0 - 1e-3), min_size=1, max_size=30),
    )
    def test_array_cells_equal_scalar_calls_bit_for_bit(self, geom, fractions, elbows):
        lo, hi = geom.admissible_lengths
        lengths = np.minimum(hi, lo + np.array(fractions) * (hi - lo))
        angles = geom.gamma - np.array(elbows)
        for function, values in (
            (angle_from_length, lengths),
            (length_from_angle, angles),
            (string_tension, angles),
        ):
            cells = function(geom, values)
            assert cells.shape == values.shape
            assert hex_cells(cells) == hex_cells(
                [function(geom, float(v)) for v in values]
            ), function.__name__

    @pytest.mark.parametrize(
        "function, values, message",
        [
            (angle_from_length, [100.0, 300.0, 10.0, 400.0],
             "string length 300 mm outside the admissible interval [68, 234] mm"),
            (angle_from_length, [100.0, math.nan, 300.0],
             "string length nan mm outside the admissible interval [68, 234] mm"),
            (length_from_angle, [60.0, 143.5, -40.0],
             "bending angle 143.5 deg outside the admissible interval [-37.5, 142.5] deg"),
            (string_tension, [60.0, -40.0, 143.5],
             "bending angle -40 deg outside the admissible interval [-37.5, 142.5] deg"),
        ],
    )
    def test_array_refuses_its_first_bad_sample(self, function, values, message):
        with pytest.raises(TriangleRangeError) as excinfo:
            function(GEOM, np.array(values))
        assert str(excinfo.value) == message

    def test_singular_sample_refuses_the_array(self):
        with pytest.raises(SingularConfigurationError):
            string_tension(GEOM, np.array([60.0, GEOM.gamma, 20.0]))


class TestSweep:
    SPEC = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF, ply=1)
    PARAMS = TwoPhaseParams(
        r_eff=0.86, theta_star=rev_to_rad(28.0), coil_diameter=4.3, coil_pitch=2.6, eta=0.11
    )
    LOAD = LoadCase(mass=2900.0)
    GEOM = BicepGeometry(a=83.0, b=151.0, gamma=142.5)

    def test_angle_monotone_and_matches_composition(self):
        theta_values = np.linspace(0.0, 30.0, 61)
        angles = sweep(self.GEOM, self.SPEC, self.PARAMS, self.LOAD, theta_values)
        assert angles.shape == theta_values.shape
        assert np.all(np.diff(angles) >= 0.0)
        for theta_rev, phi in zip(theta_values[::10], angles[::10]):
            l = length(self.SPEC, self.PARAMS, self.LOAD, rev_to_rad(theta_rev))
            assert phi == pytest.approx(angle_from_length(self.GEOM, l), abs=1e-12)

    def test_sweep_is_the_angle_of_one_profile_pass(self):
        theta_values = np.linspace(0.0, 35.0, 121)
        lengths = twist_profile(self.SPEC, self.PARAMS, self.LOAD, rev_to_rad(theta_values)).length
        angles = sweep(self.GEOM, self.SPEC, self.PARAMS, self.LOAD, theta_values)
        assert hex_cells(angles) == hex_cells(angle_from_length(self.GEOM, lengths))
