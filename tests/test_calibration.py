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

import tsakit.calibration as calibration
import tsakit.model as model
from oracles import endpoints_from_params, params_vector
from scalar_law import coil, length, max_theta, validate_for
from tsakit.calibration import (
    PARAM_ORDER,
    PENALTY_RESIDUAL,
    WEIGHT_CONTRACTION,
    WEIGHT_SECONDARY,
    FitResult,
    ObservedEndpoints,
    fit_two_phase,
    grid_oracle,
    params_from_vector,
    predict_endpoints,
    residual,
)
from tsakit.config import bundled_compliant_path, bundled_stiff_path, read_observations
from tsakit.errors import GridCapError, ParameterError, TsaError
from tsakit.model import (
    LoadCase,
    Material,
    StringSpec,
    TwoPhaseParams,
    contraction,
)
from tsakit.units import TWO_PI, rad_to_rev, rev_to_rad

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


def box_sides(obs):
    """The fit's (lo, hi) parameter vectors for obs, in PARAM_ORDER."""
    return np.array(calibration._box(obs)).T


@st.composite
def stiff_rows(draw):
    """Noise-free stiff endpoints from parameters inside the fit's box.

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
        coil_pitch=2.0 * d,
        eta=draw(st.floats(0.02, 1.0)),
    )
    capacity = max_theta(spec, truth, load)
    fraction = draw(st.floats(0.05, 0.95))
    theta_max = truth.theta_star + fraction * (capacity - truth.theta_star)
    obs = endpoints_from_params(spec, truth, load, rad_to_rev(theta_max))
    lo, hi = box_sides(obs)
    vector = params_vector(truth)
    assume(np.all((lo <= vector) & (vector <= hi)))
    return truth, obs


def face_rows(count):
    """count seeded stiff rows with 3 % noise on every endpoint, from
    parameters on a face of the fit's box: r_eff, the coil diameter or eta
    at one end of its interval. The optimum then lies at or past the face,
    where the polish often steps outside the box.
    """
    rng = np.random.default_rng(0)
    rows = []
    while len(rows) < count:
        d = rng.uniform(0.5, 2.5)
        spec = StringSpec(diameter=d, initial_length=rng.uniform(100.0, 400.0))
        load = LoadCase(mass=rng.uniform(100.0, 5000.0))
        sides = {"r_eff": (d / 2.0, 2.0 * d), "coil_diameter": (0.5 * d, 10.0 * d),
                 "eta": (0.02, 1.0)}
        values = {name: rng.uniform(*side) for name, side in sides.items()}
        face = rng.choice(list(sides))
        values[face] = sides[face][rng.integers(2)]
        truth = TwoPhaseParams(
            theta_star=rng.uniform(0.05, 0.95) * spec.initial_length / values["r_eff"],
            coil_pitch=2.0 * d,
            **values,
        )
        capacity = max_theta(spec, truth, load)
        theta_max = truth.theta_star + rng.uniform(0.05, 0.95) * (capacity - truth.theta_star)
        exact = endpoints_from_params(spec, truth, load, rad_to_rev(theta_max), 1.0)
        noisy = {
            name: value * (1.0 + 0.03 * rng.uniform(-1.0, 1.0))
            for name, value in vars(exact).items()
            if name.startswith(("contraction", "max_"))
        }
        try:
            rows.append(ObservedEndpoints(spec, load, exact.theta_max_rev,
                                          motor_speed_rev_s=1.0, **noisy))
        except ParameterError:    # noise crossed the regular and total contractions
            pass
    return rows


def oracle_residual(obs, point):
    """The residual of one parameter point by the scalar two-phase law.

    The reference for the closed-form endpoint kernel. A point that is no
    valid TwoPhaseParams, fails validate_for, has theta_star at or past
    theta_max or cannot twist to theta_max scores the penalty. Otherwise
    the contractions come from the scalar length, the slopes are
    |dL/dtheta| on each side of theta_star, and the weighted squared
    relative errors are summed term by term.
    """
    try:
        params = TwoPhaseParams(*point)
        validate_for(params, obs.spec)
        if not params.theta_star < obs.theta_max:
            return PENALTY_RESIDUAL
        l1 = length(obs.spec, params, obs.load, params.theta_star)
        l_end = length(obs.spec, params, obs.load, obs.theta_max)
    except TsaError:
        return PENALTY_RESIDUAL
    l0, force = obs.spec.initial_length, obs.load.force
    slope_reg = params.theta_star * (params.r_eff * params.r_eff) / l1
    slope_over = coil(params)[1] / TWO_PI
    terms = [
        (WEIGHT_CONTRACTION, contraction(l1, l0), obs.contraction_regular_pct),
        (WEIGHT_CONTRACTION, contraction(l_end, l0), obs.contraction_total_pct),
    ]
    v_reg, v_over = obs.max_speed_regular_mm_s, obs.max_speed_overtwist_mm_s
    if obs.motor_speed_rev_s is not None:
        omega = rev_to_rad(obs.motor_speed_rev_s)
        if v_reg is not None:
            terms.append((WEIGHT_SECONDARY, slope_reg * omega, v_reg))
        if v_over is not None:
            terms.append((WEIGHT_SECONDARY, slope_over * omega, v_over))
    elif v_reg is not None and v_over is not None:
        terms.append((WEIGHT_SECONDARY, slope_over / slope_reg, v_over / v_reg))
    if obs.max_torque_regular_nm is not None:
        torque = force * slope_reg * 1e-3 / params.eta
        terms.append((WEIGHT_SECONDARY, torque, obs.max_torque_regular_nm))
    if obs.max_torque_overtwist_nm is not None:
        torque = force * slope_over * 1e-3 / params.eta
        terms.append((WEIGHT_SECONDARY, torque, obs.max_torque_overtwist_nm))
    total = 0.0
    for weight, predicted, observed in terms:
        error = (predicted - observed) / observed
        total += weight * (error * error)
    return total


# Drawn in place of a regular coordinate: NaN, the infinities, zero and a negative.
NON_FINITE_OR_NONPOSITIVE = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


@st.composite
def scored_points(draw):
    """An observation row and parameter points in and around its feasible set.

    Rows come with and without motor speed, speeds and torques, on a
    stiff string and on a compliant one. Coordinates range past the
    feasible box (r_eff outside [d/2, 2d], eta above 1, theta_star past
    theta_max, coil diameters that overrun the coil capacity, nonzero
    compliance), and any coordinate may be NaN, infinite or nonpositive.
    """
    compliant = draw(st.booleans())
    spec = StringSpec(
        diameter=1.3,
        initial_length=214.3,
        material=Material.COMPLIANT if compliant else Material.STIFF,
    )
    truth = dataclasses.replace(TRUTH, compliance=0.02 if compliant else 0.0)
    obs = endpoints_from_params(
        spec,
        truth,
        LOAD,
        THETA_MAX_REV,
        motor_speed_rev_s=draw(st.sampled_from([None, 2.0])),
        include_speeds=draw(st.booleans()),
        include_torques=draw(st.booleans()),
    )
    ranges = (
        (0.5, 3.0),                                  # r_eff; validate_for keeps [0.65, 2.6]
        (0.5 * THETA_STAR, 1.5 * obs.theta_max),     # theta_star
        (1.0, 60.0),                                 # coil_diameter; large ones overrun
        (0.0, 6.0),                                  # coil_pitch
        (0.01, 1.5),                                 # eta
        (0.0, 0.1),                                  # compliance
    )
    points = []
    for _ in range(draw(st.integers(1, 6))):
        # Near the generating parameters, with up to two coordinates moved.
        point = [draw(st.floats(0.9, 1.1)) * getattr(truth, name) for name in PARAM_ORDER]
        for index in draw(st.lists(st.integers(0, len(PARAM_ORDER) - 1), max_size=2)):
            lo, hi = ranges[index]
            point[index] = draw(st.floats(lo, hi) | NON_FINITE_OR_NONPOSITIVE)
        points.append(point)
    return obs, points


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

    def test_penalty_when_winding_passes_the_unloaded_length(self):
        # Under load the compliant string is 28 mm longer, so theta_star can
        # wind 220 mm and still leave room for the coils; validate_for
        # rejects it all the same, as it measures against the unloaded length.
        truth = dataclasses.replace(TRUTH, coil_diameter=2.0, compliance=1.0)
        obs = endpoints_from_params(SPEC, truth, LOAD, 42.0)
        late = dataclasses.replace(truth, theta_star=220.0 / truth.r_eff)
        assert late.theta_star * late.r_eff >= SPEC.initial_length
        assert late.theta_star < obs.theta_max
        assert residual(late, obs) == PENALTY_RESIDUAL

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


class TestEndpointKernel:
    @settings(max_examples=300)
    @given(case=scored_points())
    def test_residual_is_bit_equal_to_the_scalar_law(self, case):
        obs, points = case
        want = [oracle_residual(obs, point) for point in points]
        # On floats, as fit_two_phase scores its iterates.
        for point, expected in zip(points, want):
            got = float(calibration._residual_kernel(model._FLOAT_OPS, obs)(*point))
            assert got.hex() == expected.hex()
        # On arrays, as grid_oracle scores its cells.
        columns = [np.array(column) for column in zip(*points)]
        with np.errstate(all="ignore"):
            got = calibration._residual_kernel(model._ARRAY_OPS, obs)(*columns).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want]
        # Through the public entry points, wherever a TwoPhaseParams exists.
        for point, expected in zip(points, want):
            try:
                params = TwoPhaseParams(*point)
            except ParameterError:
                continue
            assert residual(params, obs).hex() == expected.hex()
            if expected == PENALTY_RESIDUAL:
                with pytest.raises(ParameterError, match="infeasible"):
                    predict_endpoints(obs.spec, params, obs.load, obs.theta_max_rev)
            else:
                predict_endpoints(obs.spec, params, obs.load, obs.theta_max_rev)


    # Edge points of the float ops: where Python float arithmetic raises
    # and numpy gives NaN or inf, NaN parameters and eta at both ends.
    # name -> (observation, point in PARAM_ORDER, expected residual).
    EDGE_POINTS = {
        # theta_star * r_eff == L_eff = 214.3 mm: helix length 0, a zero divisor.
        "helix_length_zero": ("motor", [1.0, 214.3, 4.3, 2.6, 0.11, 0.0], PENALTY_RESIDUAL),
        "helix_length_zero_speed_ratio": ("ratio", [1.0, 214.3, 4.3, 2.6, 0.11, 0.0], PENALTY_RESIDUAL),
        # Wound past L_eff: the square root of a negative.
        "wound_past_length": ("motor", [1.0, 220.0, 4.3, 2.6, 0.11, 0.0], PENALTY_RESIDUAL),
        # A feasible point whose torque term's square overflows.
        "overflowing_square": ("tiny_torque", [0.86, THETA_STAR, 4.3, 2.6, 0.11, 0.0], math.inf),
        "eta_zero": ("motor", [0.86, THETA_STAR, 4.3, 2.6, 0.0, 0.0], PENALTY_RESIDUAL),
        "eta_one": ("motor", [0.86, THETA_STAR, 4.3, 2.6, 1.0, 0.0], None),
        **{
            f"nan_{name}": ("ratio", [math.nan if n == name else getattr(TRUTH, n)
                                      for n in PARAM_ORDER], PENALTY_RESIDUAL)
            for name in PARAM_ORDER
        },
        # Feasible, with a regular slope that underflows to 0: the speed
        # ratio divides by zero and the residual is inf. The scalar law
        # raises ZeroDivisionError there, so this point has no oracle.
        "regular_slope_underflows": ("ratio", [0.86, 5e-324, 1.0, 2.6, 0.11, 0.0], math.inf),
    }

    @staticmethod
    def edge_observation(kind):
        if kind == "motor":
            return synth_obs()
        if kind == "ratio":
            return endpoints_from_params(SPEC, TRUTH, LOAD, THETA_MAX_REV)
        return dataclasses.replace(synth_obs(), max_torque_regular_nm=1e-200)

    @pytest.mark.parametrize("name", sorted(EDGE_POINTS))
    def test_float_and_array_paths_agree_where_python_raises(self, name):
        kind, point, expected = self.EDGE_POINTS[name]
        obs = self.edge_observation(kind)
        got = calibration._residual_kernel(model._FLOAT_OPS, obs)(*point)
        assert type(got) is float
        with np.errstate(all="ignore"):
            columns = calibration._residual_kernel(model._ARRAY_OPS, obs)(
                *(np.array([v]) for v in point)
            ).tolist()
        assert got.hex() == columns[0].hex()
        if name != "regular_slope_underflows":
            assert got.hex() == oracle_residual(obs, point).hex()
        if expected is None:
            assert got < PENALTY_RESIDUAL
        else:
            assert got == expected

    def test_public_residual_is_a_python_float(self):
        assert type(residual(TRUTH, synth_obs())) is float
        assert type(residual(dataclasses.replace(TRUTH, r_eff=np.float64(0.86)), synth_obs())) is float

    def test_float_ops_return_what_numpy_returns(self):
        specials = [0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 5e-324, math.inf, -math.inf, math.nan]
        with np.errstate(all="ignore"):
            for x in specials:
                assert model._FLOAT_OPS.sqrt(x).hex() == float(np.sqrt(x)).hex()
                for y in specials:
                    assert type(model._FLOAT_OPS.div(x, y)) is float
                    assert model._FLOAT_OPS.div(x, y).hex() == float(np.float64(x) / y).hex()

    def test_coil_circumference_is_math_hypot_per_element(self):
        diameters = np.random.default_rng(4).uniform(0.5, 30.0, 100_000)
        pitches = np.full_like(diameters, 2.6)
        expected = [math.hypot(math.pi * d, 2.6) for d in diameters.tolist()]
        assert model._coil(model._ARRAY_OPS, diameters, pitches)[0].tolist() == expected
        assert [TwoPhaseParams(1.0, 1.0, d, 2.6).coil_circumference for d in diameters[:1000].tolist()] == expected[:1000]


class TestBox:
    def test_pins_pitch_and_stiff_compliance(self):
        # Each interval as stated, the pitch pinned at the two-string bundle.
        obs = synth_obs()
        d, theta_max = 1.3, obs.theta_max
        assert calibration._box(obs) == (
            (d / 2.0, 2.0 * d),
            (0.02 * theta_max, 0.98 * theta_max),
            (0.5 * d, 10.0 * d),
            (2.0 * d, 2.0 * d),
            (0.02, 1.0),
            (0.0, 0.0),
        )

    def test_frees_compliance_for_compliant_strings(self):
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
        assert calibration._box(obs)[PARAM_ORDER.index("compliance")] == (0.0, 5.0)

    @settings(max_examples=200)
    @given(
        diameter=st.floats(0.0, exclude_min=True, allow_infinity=False),
        length=st.floats(0.0, exclude_min=True, allow_infinity=False),
        theta_max_rev=st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    @pytest.mark.parametrize("material", list(Material))
    def test_every_valid_observation_gives_a_closed_finite_box(
        self, material, diameter, length, theta_max_rev
    ):
        # The box has no checks of its own: whatever StringSpec and
        # ObservedEndpoints accept, down to subnormal and up to the float
        # limit, gives six finite nonnegative intervals, eta within (0, 1].
        try:
            obs = ObservedEndpoints(
                StringSpec(diameter=diameter, initial_length=length, material=material),
                LOAD, theta_max_rev, contraction_regular_pct=29.0, contraction_total_pct=71.0,
            )
        except ParameterError:
            assume(False)
        box = calibration._box(obs)
        assert len(box) == len(PARAM_ORDER)
        for lo, hi in box:
            assert 0.0 <= lo <= hi < math.inf
        eta_lo, eta_hi = box[PARAM_ORDER.index("eta")]
        assert 0.0 < eta_lo and eta_hi <= 1.0
        pitch_lo, pitch_hi = box[PARAM_ORDER.index("coil_pitch")]
        assert pitch_lo == pitch_hi == 2.0 * diameter

    @pytest.mark.parametrize(
        "field, bad",
        [("diameter", bad) for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
        + [("theta_max_rev", bad) for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
        # Finite in revolutions, infinite in radians.
        + [("theta_max_rev", 1e308)],
    )
    def test_its_inputs_are_refused_by_name(self, field, bad):
        # The box reads the string diameter and theta_max alone; a value
        # that would give it an infinite, NaN or negative end is refused
        # before any box exists.
        with pytest.raises(ParameterError) as excinfo:
            if field == "diameter":
                StringSpec(diameter=bad, initial_length=214.3)
            else:
                dataclasses.replace(synth_obs(), theta_max_rev=bad)
        if field == "diameter":
            assert str(excinfo.value) == "string diameter must be positive and finite"
            assert excinfo.value.field == "diameter"
        else:
            assert str(excinfo.value) == "theta_max must be positive and finite"


class TestVectorMapping:
    def test_round_trip(self):
        assert params_from_vector(params_vector(TRUTH)) == TRUTH


class TestFit:
    def test_recovers_generating_params(self):
        obs = synth_obs()
        fit = fit_two_phase(obs)
        assert isinstance(fit, FitResult)
        assert fit.converged
        assert fit.residual < 1e-20
        truth_vec = params_vector(TRUTH)
        fitted_vec = params_vector(fit.params)
        scale = np.where(truth_vec == 0.0, 1.0, np.abs(truth_vec))
        assert np.all(np.abs(fitted_vec - truth_vec) / scale < 1e-6)

    def test_returned_params_lie_in_the_box(self, monkeypatch):
        # Rows generated on a face of the box put the optimum at or past
        # it, so the polish steps outside; the fit must clip its answer.
        polished, solve = [], calibration.minimize

        def recording_minimize(*args, **kwargs):
            result = solve(*args, **kwargs)
            polished.append(result.x)
            return result

        monkeypatch.setattr(calibration, "minimize", recording_minimize)
        stepped_out = 0
        for obs in face_rows(40):
            lo, hi = box_sides(obs)
            fit = fit_two_phase(obs)
            vector = params_vector(fit.params)
            assert np.all(lo <= vector) and np.all(vector <= hi)
            assert fit.residual == residual(fit.params, obs)
            free = hi > lo
            stepped_out += bool(np.any(polished[-1] < lo[free]) or np.any(polished[-1] > hi[free]))
        # The rows reach the clip: some polish ends outside the box.
        assert stepped_out > 0

    def test_deterministic(self):
        obs = synth_obs()
        first = fit_two_phase(obs)
        second = fit_two_phase(obs)
        assert np.array_equal(
            params_vector(first.params), params_vector(second.params)
        )
        assert first.residual == second.residual
        assert first.iterations == second.iterations

    def test_characterization_row_reproduces_contractions(self):
        obs = read_observations(bundled_stiff_path())[1]
        fit = fit_two_phase(obs)
        assert fit.converged
        assert fit.residual < 1e-2
        validate_for(fit.params, obs.spec)
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

    @pytest.mark.parametrize(
        "path, row",
        [(bundled_stiff_path, 0), (bundled_stiff_path, 1), (bundled_stiff_path, 2),
         (bundled_compliant_path, 0)],
    )
    def test_bundled_fits_lie_in_their_box(self, path, row):
        # Stiff rows pin the compliance at 0; the compliant row may use
        # its interval. The reported residual is that of the answer.
        obs = read_observations(path())[row]
        lo, hi = box_sides(obs)
        fit = fit_two_phase(obs)
        vector = params_vector(fit.params)
        assert np.all(lo <= vector) and np.all(vector <= hi)
        assert fit.residual == residual(fit.params, obs)

    def test_iteration_cap_is_passed_by_name(self):
        # A stale positional box, or a cap passed by position, fails at
        # the call instead of becoming an iteration cap.
        obs = synth_obs()
        with pytest.raises(TypeError):
            fit_two_phase(obs, 30)
        # By name it caps the polish, which stops short of its tolerance.
        assert not fit_two_phase(obs, max_iter=30).converged

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

    def test_infeasible_row_is_not_converged(self):
        # A 99 % total contraction needs more coils than the box's coil
        # diameters and pinned pitch can pack: every point in the box is
        # infeasible, and the fit ends on the penalty plateau.
        obs = dataclasses.replace(read_observations(bundled_stiff_path())[1],
                                  contraction_total_pct=99.0)
        fit = fit_two_phase(obs)
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

    def test_refuses_grids_above_cell_cap(self, monkeypatch):
        # 15 values per axis: 11,390,625 cells, refused before any is scored.
        def no_scoring(*args):
            raise AssertionError("grid_oracle scored a refused grid")

        monkeypatch.setattr(calibration, "_residual_kernel", no_scoring)
        grid = {name: np.linspace(0.5, 1.0, 15) for name in PARAM_ORDER}
        with pytest.raises(
            GridCapError, match="^grid has 11390625 cells, above the cap of 10000000$"
        ):
            grid_oracle(synth_obs(), grid)

    def test_rejects_unknown_and_missing_parameters(self):
        obs = synth_obs()
        with pytest.raises(ParameterError):
            grid_oracle(obs, {"bogus": [1.0]})
        with pytest.raises(ParameterError):
            grid_oracle(obs, {"r_eff": [0.86]})

    @pytest.mark.parametrize("bad", [[], [0.86, math.nan], [math.inf, 0.86], [-math.inf]])
    @pytest.mark.parametrize("name", PARAM_ORDER)
    def test_rejects_empty_or_non_finite_axis_by_name(self, name, bad):
        grid = {n: [getattr(TRUTH, n)] for n in PARAM_ORDER}
        grid[name] = bad
        with pytest.raises(ParameterError, match=f"^{name}: grid axis must be non-empty and finite$"):
            grid_oracle(synth_obs(), grid)

    def test_infeasible_winner_raises_as_params(self):
        # eta = 0 makes every cell infeasible; the first cell wins the
        # all-penalty tie and is no valid parameter set.
        grid = {n: [getattr(TRUTH, n)] for n in PARAM_ORDER}
        grid["eta"] = [0.0]
        with pytest.raises(ParameterError, match="eta must lie in"):
            grid_oracle(synth_obs(), grid)

    @staticmethod
    def slab_grid(eta, compliance=(0.0,)):
        """A small C-ordered grid, TRUTH's values last on every axis but eta."""
        return {
            "r_eff": [0.80, 0.83, 0.86],
            "theta_star": [0.97 * THETA_STAR, THETA_STAR],
            "coil_diameter": [4.0, 4.3],
            "coil_pitch": [2.6],
            "eta": eta,
            "compliance": list(compliance),
        }

    def test_unique_minimum_in_the_last_slab(self, monkeypatch):
        # 24 cells in slabs of at most 16: whole 8-cell sub-grids over the
        # trailing axes, so 16 cells and then a partial slab of 8 with TRUTH.
        obs = synth_obs()
        monkeypatch.setattr(calibration, "GRID_SLAB_CELLS", 16)
        params, value = grid_oracle(obs, self.slab_grid([0.09, 0.11]))
        assert params == TRUTH
        assert value == residual(TRUTH, obs)

    def test_tie_across_a_slab_boundary_goes_to_the_smaller_tuple(self, monkeypatch):
        # Without torques eta does not reach the residual, so TRUTH (cell 66
        # of 72) ties with its eta = 0.5 twin (cell 69). Slabs of at most 5
        # cells hold one 3-cell compliance axis each, which splits the two.
        obs = synth_obs(include_torques=False)
        monkeypatch.setattr(calibration, "GRID_SLAB_CELLS", 5)
        grid = self.slab_grid([0.5, 0.11], compliance=[0.0, 0.01, 0.02])
        params, value = grid_oracle(obs, grid)
        assert params == TRUTH
        assert value == residual(TRUTH, obs)

    def test_tie_across_full_slabs(self):
        # More cells than one slab, every one tied: the smallest eta wins.
        obs = synth_obs(include_torques=False)
        grid = {n: [getattr(TRUTH, n)] for n in PARAM_ORDER}
        grid["eta"] = np.linspace(1.0, 0.02, calibration.GRID_SLAB_CELLS + 3)
        params, value = grid_oracle(obs, grid)
        assert params.eta == 0.02
        assert value == residual(params, obs)

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
        fit = fit_two_phase(obs)
        assert fit.residual <= grid_residual
        assert fit.residual < 1e-20
