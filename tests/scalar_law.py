"""The two-phase law at one twist: the reference for twist_profile.

A direct scalar transcription of the model. Its lengths, its errors and
their order are what twist_profile must reproduce sample by sample, and
what the kinematics tests check against geometric oracles.
"""

import math

from tsakit.errors import CoilCapacityError, DomainError, ParameterError
from tsakit.model import effective_length
from tsakit.units import TWO_PI


def coil(params):
    """(circumference, per-coil shortening) of one coil (mm).

    One turn of bundle around the coil's centerline, advancing one pitch:
    the hypotenuse of pi * coil_diameter and coil_pitch, less the pitch.
    """
    circumference = math.hypot(math.pi * params.coil_diameter, params.coil_pitch)
    return circumference, circumference - params.coil_pitch


def validate_for(params, spec):
    """Check the invariants that tie parameters to a specific string.

    The calibration endpoint mask must reject exactly these, besides the
    TwoPhaseParams field checks and the twist to theta_max.
    """
    if not spec.diameter / 2.0 <= params.r_eff <= 2.0 * spec.diameter:
        raise ParameterError("r_eff must lie between half and twice the string diameter")
    if params.theta_star * params.r_eff >= spec.initial_length:
        raise ParameterError("theta_star exceeds the kinematic limit of the regular phase")
    if coil(params)[0] <= params.coil_pitch:
        raise ParameterError("coil must consume more bundle than its pitch")


def length_regular(spec, params, load, theta):
    """Axial length during regular twisting (mm), 0 <= theta <= theta_star."""
    if not theta >= 0:  # NaN included
        raise DomainError("twist must be nonnegative")
    if theta > params.theta_star:
        raise DomainError("theta beyond the regular phase; use length")
    l_eff = effective_length(spec, params, load)
    wound = theta * params.r_eff
    if wound >= l_eff:
        raise DomainError(
            "helix winding consumed the whole string before theta was reached"
        )
    return math.sqrt(l_eff * l_eff - wound * wound)


def max_theta(spec, params, load):
    """Largest admissible twist before coils consume the whole bundle (rad)."""
    l1 = length_regular(spec, params, load, params.theta_star)
    return params.theta_star + TWO_PI * l1 / coil(params)[0]


def length(spec, params, load, theta):
    """Axial length at any admissible twist (mm). Piecewise two-phase law.

    Past theta_star one coil forms per revolution. Raises DomainError for
    a negative or NaN twist, and CoilCapacityError (stating the maximum
    admissible twist) once the coils would consume more bundle than the
    regular phase left over.
    """
    if not theta >= 0:  # NaN included
        raise DomainError("twist must be nonnegative")
    if theta <= params.theta_star:
        return length_regular(spec, params, load, theta)
    l1 = length_regular(spec, params, load, params.theta_star)
    coils = (theta - params.theta_star) / TWO_PI
    circumference, shortening = coil(params)
    if coils * circumference > l1:
        limit = max_theta(spec, params, load)
        raise CoilCapacityError(
            f"twist {theta:.6g} rad exceeds the coil capacity limit "
            f"{limit:.6g} rad"
        )
    return l1 - coils * shortening
