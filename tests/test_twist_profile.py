"""twist_profile against the scalar two-phase law, sample by sample.

The array pass must reproduce the scalar length and the closed-form
phase, coil count, ratio and torque bit for bit, and an inadmissible
sample must raise exactly what the scalar loop raises at the first such
sample.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsakit.errors import CoilCapacityError, DomainError, HelixLimitError, TsaError
from scalar_law import coil, length, max_theta
from tsakit.model import LoadCase, Material, StringSpec, TwoPhaseParams, twist_profile
from tsakit.units import TWO_PI, rev_to_rad

SPEC = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF)
LOAD = LoadCase(mass=2900.0)
PARAMS = TwoPhaseParams(
    r_eff=0.86, theta_star=rev_to_rad(28.0), coil_diameter=4.3, coil_pitch=2.6, eta=0.11
)


def scalar_columns(spec, params, load, thetas):
    """Reference loop: the scalar length and the closed-form ratio, per twist.

    The ratio is dL/dtheta of the two-phase law, -theta * r_eff^2 / L in
    the regular phase (its side at theta_star) and minus the per-coil
    shortening per radian past it.
    """
    rows = []
    for theta in thetas:
        l = length(spec, params, load, theta)
        over = theta > params.theta_star
        if over:
            coils = (theta - params.theta_star) / TWO_PI
            ratio = -coil(params)[1] / TWO_PI
        else:
            coils = 0.0
            ratio = -theta * params.r_eff**2 / l
        torque = load.force * abs(ratio) * 1e-3 / params.eta
        rows.append((l, over, coils, ratio, torque))
    return [np.array(column) for column in zip(*rows)]


def assert_same_bits(expected, profile):
    for want, got in zip(expected, profile):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@st.composite
def cases(draw):
    """A string, load, parameter set and twist list.

    Twists are drawn as fractions of the coil capacity, so most lists stay
    admissible; theta_star itself is spliced in on request, and a negative
    twist, a NaN or a twist past the capacity on others.
    """
    d = draw(st.floats(0.3, 3.0))
    spec = StringSpec(
        diameter=d,
        initial_length=draw(st.floats(20.0 * d, 400.0)),
        material=draw(st.sampled_from(Material)),
    )
    load = LoadCase(mass=draw(st.floats(0.0, 5000.0)))
    r_eff = draw(st.floats(d / 2.0, 2.0 * d))
    compliance = draw(st.sampled_from([0.0, 0.01, 1.0]))
    # theta_star up to past the helix limit, where length_regular fails;
    # the second range keeps draws near and past that limit common.
    l_eff = spec.initial_length + compliance * load.force
    params = TwoPhaseParams(
        r_eff=r_eff,
        theta_star=draw(st.floats(0.05, 1.02) | st.floats(0.95, 1.1)) * l_eff / r_eff,
        coil_diameter=draw(st.floats(0.5 * d, 10.0 * d)),
        coil_pitch=draw(st.floats(0.0, 4.0 * d)),
        eta=draw(st.floats(0.02, 1.0)),
        compliance=compliance,
    )
    try:
        scale = max_theta(spec, params, load)
    except DomainError:
        scale = 2.0 * params.theta_star
    thetas = [f * scale for f in draw(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30))]
    for extra in draw(st.lists(st.sampled_from(["star", "negative", "capacity", "nan"]), max_size=2)):
        value = {
            "star": params.theta_star,
            "negative": -0.5,
            "capacity": 1.01 * scale,
            "nan": math.nan,
        }[extra]
        thetas.insert(draw(st.integers(0, len(thetas))), value)
    return spec, params, load, thetas


@settings(max_examples=300)
@given(cases())
def test_columns_and_errors_match_scalar_loop(case):
    spec, params, load, thetas = case
    try:
        expected = scalar_columns(spec, params, load, thetas)
    except TsaError as exc:
        with pytest.raises(TsaError) as raised:
            twist_profile(spec, params, load, np.array(thetas))
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    assert_same_bits(expected, twist_profile(spec, params, load, thetas))


def test_sample_at_theta_star_takes_the_regular_side():
    thetas = [0.0, PARAMS.theta_star, PARAMS.theta_star + 1.0]
    profile = twist_profile(SPEC, PARAMS, LOAD, thetas)
    assert profile.overtwist.tolist() == [False, False, True]
    assert profile.coil_count[1] == 0.0
    l1 = profile.length[1]
    assert profile.ratio[1] == -PARAMS.theta_star * PARAMS.r_eff**2 / l1
    assert_same_bits(scalar_columns(SPEC, PARAMS, LOAD, thetas), profile)


def test_first_offending_sample_names_the_error():
    # Past the capacity at two samples: the message names the first.
    limit = max_theta(SPEC, PARAMS, LOAD)
    thetas = np.array([1.0, limit + 0.5, limit + 0.1])
    with pytest.raises(CoilCapacityError) as raised:
        twist_profile(SPEC, PARAMS, LOAD, thetas)
    assert str(raised.value) == (
        f"twist {limit + 0.5:.6g} rad exceeds the coil capacity limit {limit:.6g} rad"
    )


def test_negative_twist_before_capacity_is_a_domain_error():
    limit = max_theta(SPEC, PARAMS, LOAD)
    with pytest.raises(DomainError, match="twist must be nonnegative"):
        twist_profile(SPEC, PARAMS, LOAD, [1.0, -0.1, limit + 1.0])


@pytest.mark.parametrize("thetas", [[np.nan, 1.0], [1.0, 2.0, np.nan]])
def test_nan_twist_is_a_domain_error(thetas):
    # NaN first, and NaN after admissible samples: neither may come out as length.
    with pytest.raises(DomainError, match="twist must be nonnegative"):
        twist_profile(SPEC, PARAMS, LOAD, thetas)


@pytest.mark.parametrize("thetas", [[1.0, 260.0, 301.0], [1.0, 301.0, 260.0]])
def test_helix_limit_is_a_domain_error(thetas):
    # theta_star past L_eff / r_eff: a sample past that limit is a helix
    # error, in the regular phase or past theta_star alike.
    past = TwoPhaseParams(r_eff=0.86, theta_star=300.0, coil_diameter=4.3, coil_pitch=2.6)
    with pytest.raises(HelixLimitError) as raised:
        twist_profile(SPEC, past, LOAD, thetas)
    assert str(raised.value) == "helix winding consumed the whole string before theta was reached"


def test_empty_twist_array():
    profile = twist_profile(SPEC, PARAMS, LOAD, [])
    assert all(column.size == 0 for column in profile)
