"""Independent references the tests check the package against.

None of these run on a command's path: the bicep grid scan that fit_bicep
must never lose to, the statics that string_tension must balance, and
the endpoints a known parameter set produces, which calibration must
recover.
"""

import math

import numpy as np

from tsakit.bicep import length_from_angle
from tsakit.calibration import PARAM_ORDER, ObservedEndpoints, predict_endpoints
from tsakit.errors import ParameterError, SingularConfigurationError, UnderdeterminedError
from tsakit.units import grams_to_newtons


def bicep_grid_oracle(pairs):
    """Best cell of the 3-d (a, b, gamma) grid scan, without polishing.

    Arms step 4 mm in (0, 400] mm and gamma 2 deg in (0, 360) deg.
    fit_bicep's polished solution must never be worse than the best grid
    cell. Scores any finite pairs, also those fit_bicep refuses. Returns
    ((a, b, gamma), sse_deg2).
    """
    lengths, angles = np.array(pairs, dtype=float).reshape(-1, 2).T
    if not (np.isfinite(lengths).all() and np.isfinite(angles).all()):
        raise ParameterError("pairs must be finite")
    # Vectorized over gamma via sse(g) = sum((g - t_k)^2), t_k = elbow_k + phi_k.
    arm_axis = np.arange(4.0, 400.0 + 1e-9, 4.0)
    gamma_axis = np.arange(2.0, 360.0, 2.0)
    best = None
    for a in arm_axis:
        for b in arm_axis:
            lo, hi = abs(a - b), a + b
            if lengths.min() < lo or lengths.max() > hi:
                continue
            c = (a * a + b * b - lengths**2) / (2.0 * a * b)
            t = np.degrees(np.arccos(np.clip(c, -1.0, 1.0))) + angles
            sse = ((gamma_axis[:, None] - t[None, :]) ** 2).sum(axis=1)
            i = int(np.argmin(sse))
            key = (float(sse[i]), (float(a), float(b), float(gamma_axis[i])))
            if best is None or key < best:
                best = key
    if best is None:
        raise UnderdeterminedError("no admissible geometry covers the observed lengths")
    return best[1], best[0]


def gravity_torque(geom, angle):
    """Payload gravity moment about the joint (N mm) at a bending angle.

    The upper arm hangs vertically, so the payload lever is the forearm
    length times the cosine of the forearm's inclination from the
    horizontal, which equals sin of the elbow angle.
    """
    psi = math.radians(geom.gamma - angle)
    return grams_to_newtons(geom.payload) * geom.forearm_length * abs(math.sin(psi))


def dlength_dangle(geom, angle):
    """Analytic dl/dphi (mm per degree) at a bending angle."""
    psi_rad = math.radians(geom.gamma - angle)
    l = length_from_angle(geom, angle)
    if l == 0:
        raise SingularConfigurationError("degenerate triangle")
    return -(geom.a * geom.b * math.sin(psi_rad) / l) * math.pi / 180.0


def endpoints_from_params(
    spec,
    params,
    load,
    theta_max_rev,
    motor_speed_rev_s=None,
    include_speeds=True,
    include_torques=True,
):
    """The endpoints a given model would produce, as an observation."""
    pred = predict_endpoints(spec, params, load, theta_max_rev, motor_speed_rev_s)
    return ObservedEndpoints(
        spec=spec,
        load=load,
        theta_max_rev=theta_max_rev,
        contraction_regular_pct=pred["contraction_regular_pct"],
        contraction_total_pct=pred["contraction_total_pct"],
        max_speed_regular_mm_s=pred["speed_regular"] if include_speeds else None,
        max_speed_overtwist_mm_s=pred["speed_overtwist"] if include_speeds else None,
        max_torque_regular_nm=pred["torque_regular_nm"] if include_torques else None,
        max_torque_overtwist_nm=pred["torque_overtwist_nm"] if include_torques else None,
        motor_speed_rev_s=motor_speed_rev_s,
    )


def params_vector(params):
    """TwoPhaseParams as a float vector in PARAM_ORDER."""
    return np.array([getattr(params, n) for n in PARAM_ORDER])
