"""The in-house solvers against scipy.optimize, bit for bit.

tsakit._solvers mirrors scipy 1.17's bounded Brent search and plain
Nelder-Mead operation for operation, so every result here must match
scipy's exactly: the floats of x and fun by float.hex, and nit, nfev and
success as they are. The fits are checked the same way, once through the
in-house solvers and once with scipy patched in at the call sites. A
subprocess run of every CLI command checks that none of them loads scipy.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

import tsakit
import tsakit.bicep as bicep
import tsakit.calibration as calibration
from oracles import endpoints_from_params
from scalar_law import max_theta
from tsakit import _solvers
from tsakit.bicep import BicepGeometry, angle_from_length, fit_bicep
from tsakit.calibration import ObservedEndpoints, fit_two_phase
from tsakit.config import bundled_compliant_path, bundled_stiff_path, read_observations
from tsakit.errors import ParameterError, UnderdeterminedError
from tsakit.model import LoadCase, StringSpec, TwoPhaseParams
from tsakit.units import rad_to_rev

# The fits' own calls, with scipy behind them.


def scipy_minimize(fun, x0, **options):
    return optimize.minimize(fun, x0, method="Nelder-Mead", options=options)


def scipy_minimize_scalar(fun, bounds, **options):
    return optimize.minimize_scalar(fun, bounds=bounds, method="bounded", options=options)


def with_scipy(fit, *args, **kwargs):
    """fit(*args, **kwargs) with scipy in place of tsakit._solvers."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(calibration, "minimize", scipy_minimize))
        stack.enter_context(
            mock.patch.object(calibration, "minimize_scalar", scipy_minimize_scalar)
        )
        stack.enter_context(mock.patch.object(bicep, "minimize", scipy_minimize))
        return fit(*args, **kwargs)


def hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def assert_same_solution(ours, theirs):
    assert hexes(ours.x) == hexes(theirs.x)
    assert hexes(ours.fun) == hexes(theirs.fun)
    assert (ours.nit, ours.nfev, ours.success) == (theirs.nit, theirs.nfev, theirs.success)


def assert_same_fit(ours, theirs):
    assert hexes(list(vars(ours.params).values())) == hexes(list(vars(theirs.params).values()))
    assert hexes(ours.residual) == hexes(theirs.residual)
    assert (ours.iterations, ours.converged) == (theirs.iterations, theirs.converged)


# Objectives: smooth bowls, a banana valley, flat plateaus and steps with ties, and
# NaN on part of the domain or everywhere. Each takes np.asarray(x) first, so it
# computes alike from tsakit's lists and floats and from scipy's arrays.


def quadratic(center, scale):
    center, scale = np.array(center), np.array(scale)

    def f(x):
        x = np.asarray(x)
        return float(np.sum(scale * (x - center) ** 2))

    return f


def rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def plateau(radius):
    def f(x):
        x = np.asarray(x)
        return float(min(np.sum(x * x), radius))

    return f


def staircase(x):
    x = np.asarray(x)
    return float(np.floor(np.sum(x * x)))


def nan_beyond(limit):
    def f(x):
        x = np.asarray(x)
        value = float(np.sum(x * x))
        return math.nan if np.max(np.abs(x)) > limit else value

    return f


def always_nan(x):
    return math.nan


coordinates = st.floats(-10.0, 10.0) | st.just(0.0)


@st.composite
def objectives(draw, dims):
    kinds = ["quadratic", "plateau", "staircase", "nan", "all-nan"] + ["rosenbrock"] * (dims >= 2)
    kind = draw(st.sampled_from(kinds))
    if kind == "quadratic":
        center = draw(st.lists(coordinates, min_size=dims, max_size=dims))
        scale = draw(st.lists(st.floats(1e-3, 1e3), min_size=dims, max_size=dims))
        return quadratic(center, scale)
    if kind == "rosenbrock":
        return rosenbrock
    if kind == "plateau":
        return plateau(draw(st.floats(0.0, 50.0)))
    if kind == "staircase":
        return staircase
    if kind == "nan":
        return nan_beyond(draw(st.floats(0.1, 20.0)))
    return always_nan


CAPS = st.sampled_from([{}, {"maxiter"}, {"maxfev"}, {"maxiter", "maxfev"}])


class TestNelderMead:
    @settings(max_examples=400)
    @given(data=st.data(), dims=st.integers(1, 5), caps=CAPS)
    def test_matches_scipy_bit_for_bit(self, data, dims, caps):
        fun = data.draw(objectives(dims))
        x0 = data.draw(st.lists(coordinates, min_size=dims, max_size=dims))
        options = {
            "xatol": data.draw(st.sampled_from([1e-4, 1e-10])),
            "fatol": data.draw(st.sampled_from([1e-4, 1e-14])),
        }
        for cap in sorted(caps):
            options[cap] = data.draw(st.integers(0, 400), label=cap)
        assert_same_solution(
            _solvers.minimize(fun, x0, **options), scipy_minimize(fun, x0, **options)
        )

    @pytest.mark.parametrize(
        "options",
        [{"maxiter": 5}, {"maxfev": 7}, {"maxiter": 30, "maxfev": 30}, {"maxfev": np.inf}],
        ids=["maxiter", "maxfev", "both", "maxfev-inf"],
    )
    def test_caps_stop_where_scipy_stops(self, options):
        ours = _solvers.minimize(rosenbrock, [-1.2, 1.0, 0.5], **options)
        assert not ours.success or options == {"maxfev": np.inf}
        assert_same_solution(ours, scipy_minimize(rosenbrock, [-1.2, 1.0, 0.5], **options))

    def test_objective_gets_a_fresh_list(self):
        seen = []

        def f(x):
            seen.append(x)
            value = float(np.sum(np.square(x)))
            x[:] = [math.nan] * len(x)  # must not reach the simplex
            return value

        ours = _solvers.minimize(f, [1.0, 2.0], maxfev=50)
        assert all(type(x) is list for x in seen)
        assert len({id(x) for x in seen}) == len(seen) == ours.nfev
        assert type(ours.x) is np.ndarray and ours.x.dtype == np.float64
        assert not np.isnan(ours.x).any()
        assert_same_solution(ours, scipy_minimize(f, [1.0, 2.0], maxfev=50))

    # Tied or NaN values have numpy's order alone, so they must reach np.argsort;
    # distinct values never need it.
    @pytest.mark.parametrize(
        "fun, x0, ties",
        [
            (plateau(0.0), [1.0, -2.0, 0.5], True),        # every value tied
            (nan_beyond(2.05), [1.0, 2.0], True),          # the vertex (1, 2.1) is NaN
            (quadratic([0.3, -1.0], [1.0, 2.0]), [1.0, 2.0], False),
        ],
        ids=["all-tied", "nan-vertex", "distinct"],
    )
    def test_ties_and_nan_sort_as_numpy_does(self, fun, x0, ties):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            ours = _solvers.minimize(fun, x0)
        assert argsort.called == ties
        assert_same_solution(ours, scipy_minimize(fun, x0))


    # Objectives rounded to 0.01, from starts where every first value is
    # distinct: the simplex is ranked a vertex at a time until its values
    # tie, and from there on np.argsort ranks it, as in scipy. Ranking the
    # new vertex into a ranked run that holds a tie would keep an order
    # that argsort need not keep, which can leave scipy's path.
    @pytest.mark.parametrize(
        "fun, x0",
        [
            (rosenbrock, [0.5, -3.0, 4.5, 3.5]),
            (quadratic([0.3, 1.0, 0.3, 0.5], [0.5, 10.0, 1.0, 10.0]), [-0.5, -2.0, -2.0, 0.5]),
        ],
        ids=["rosenbrock", "bowl"],
    )
    def test_ties_first_met_mid_run_match_scipy(self, fun, x0):
        values = []

        def rounded(x):
            values.append(round(fun(x), 2))
            return values[-1]

        sorted_at, numpy_argsort = [], np.argsort

        def argsort(a, *args, **kwargs):
            sorted_at.append(len(values))  # evaluations so far
            return numpy_argsort(a, *args, **kwargs)

        with mock.patch.object(np, "argsort", argsort):
            ours = _solvers.minimize(rounded, x0)
        assert len(set(values[:len(x0) + 1])) == len(x0) + 1
        assert len(x0) + 1 < sorted_at[0] < ours.nfev
        assert_same_solution(ours, scipy_minimize(lambda x: round(fun(x), 2), x0))


class TestBoundedBrent:
    @settings(max_examples=400)
    @given(
        data=st.data(),
        lo=st.floats(-1e3, 1e3),
        width=st.floats(0.0, 1e3),
        xatol=st.sampled_from([1e-12, 1e-5]),
        maxiter=st.sampled_from([500, 3, 1]),
    )
    def test_matches_scipy_bit_for_bit(self, data, lo, width, xatol, maxiter):
        hi = lo + width
        fun = data.draw(objectives(1))
        window = (lo, hi)
        assert_same_solution(
            _solvers.minimize_scalar(fun, window, xatol=xatol, maxiter=maxiter),
            scipy_minimize_scalar(fun, window, xatol=xatol, maxiter=maxiter),
        )

    def test_nan_clears_success(self):
        ours = _solvers.minimize_scalar(always_nan, (0.0, 1.0))
        assert not ours.success
        assert_same_solution(ours, scipy_minimize_scalar(always_nan, (0.0, 1.0)))

    def test_nan_at_the_last_evaluation_clears_success(self):
        # The search closes on the NaN edge at its minimum, 0.45, and its
        # last point lands past it; the best point and value stay finite.
        def fun(x):
            return math.nan if x > 0.45 else (x - 0.45) ** 2

        ours = _solvers.minimize_scalar(fun, (0.0, 1.0))
        assert not ours.success and ours.nit < 500 and ours.fun == 0.0
        assert_same_solution(ours, scipy_minimize_scalar(fun, (0.0, 1.0)))

    # Windows at the ends of the float range, where b - a or a + b overflows,
    # and tolerances that stop the search at once: steps stay numbers, or the
    # loop never runs.
    @pytest.mark.parametrize(
        "window", [(1e308, 1.5e308), (-8e307, 8e307), (-1e308, 1e308), (0.0, 5e-324)]
    )
    @pytest.mark.parametrize("xatol", [1e-5, 0.0, math.nan, math.inf])
    def test_extreme_windows_match_scipy(self, window, xatol):
        for fun in (quadratic([0.0], [1.0]), staircase, always_nan):
            with np.errstate(all="ignore"):
                assert_same_solution(
                    _solvers.minimize_scalar(fun, window, xatol=xatol, maxiter=60),
                    scipy_minimize_scalar(fun, window, xatol=xatol, maxiter=60),
                )

    @pytest.mark.parametrize("window", [(0.0, math.inf), (math.nan, 1.0), (2.0, 1.0)])
    def test_rejects_what_scipy_rejects(self, window):
        with pytest.raises(ValueError):
            _solvers.minimize_scalar(abs, window)
        with pytest.raises(ValueError):
            scipy_minimize_scalar(abs, window)


BUNDLED = read_observations(bundled_stiff_path()) + read_observations(bundled_compliant_path())


@st.composite
def noisy_rows(draw):
    """Stiff endpoints from parameters in their default box, with up to 5 %
    multiplicative noise on every endpoint."""
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
    theta_max = truth.theta_star + draw(st.floats(0.05, 0.95)) * (capacity - truth.theta_star)
    exact = endpoints_from_params(spec, truth, load, rad_to_rev(theta_max), 1.0)
    noise = draw(st.floats(0.0, 0.05))
    fields = {
        name: value * (1.0 + noise * draw(st.floats(-1.0, 1.0)))
        for name, value in vars(exact).items()
        if name.startswith(("contraction", "max_"))
    }
    try:
        return ObservedEndpoints(spec, load, exact.theta_max_rev, motor_speed_rev_s=1.0, **fields)
    except ParameterError:
        assume(False)


class TestFitsMatchScipy:
    @pytest.mark.parametrize("max_iter", [4000, 30])
    @pytest.mark.parametrize("row", range(len(BUNDLED)))
    def test_bundled_rows(self, row, max_iter):
        obs = BUNDLED[row]
        assert_same_fit(
            fit_two_phase(obs, max_iter=max_iter),
            with_scipy(fit_two_phase, obs, max_iter=max_iter),
        )

    @settings(max_examples=150)
    @given(obs=noisy_rows(), max_iter=st.sampled_from([4000, 30]))
    def test_noisy_rows(self, obs, max_iter):
        assert_same_fit(
            fit_two_phase(obs, max_iter=max_iter),
            with_scipy(fit_two_phase, obs, max_iter=max_iter),
        )

    def test_capped_fit(self):
        obs = BUNDLED[1]
        assert_same_fit(
            fit_two_phase(obs, max_iter=3),
            with_scipy(fit_two_phase, obs, max_iter=3),
        )

    @settings(max_examples=150)
    @given(
        a=st.floats(10.0, 250.0),
        b=st.floats(10.0, 250.0),
        gamma=st.floats(60.0, 220.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=7, unique=True),
        noise=st.floats(0.0, 6.0),
        data=st.data(),
    )
    def test_bicep_pairs(self, a, b, gamma, fractions, noise, data):
        assume(abs(a - b) >= 1.0)
        truth = BicepGeometry(a=a, b=b, gamma=gamma)
        lo, hi = truth.admissible_lengths
        lengths = sorted({min(hi, lo + f * (hi - lo)) for f in fractions})
        assume(len(lengths) >= 3)
        pairs = [
            (l, angle_from_length(truth, l) + noise * data.draw(st.floats(-1.0, 1.0)))
            for l in lengths
        ]
        self.check_bicep(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(215.0, 13.1), (135.0, 73.4), (68.0, 147.1)],
            [(162.1, 59.0), (172.5, 47.79), (178.4, 50.08), (188.8, 44.37)],
        ],
        ids=["testbed", "folded"],
    )
    def test_bicep_fixed_pairs(self, pairs):
        self.check_bicep(pairs)

    @staticmethod
    def check_bicep(pairs):
        try:
            ours = fit_bicep(pairs)
        except UnderdeterminedError as exc:
            with pytest.raises(UnderdeterminedError) as refused:
                with_scipy(fit_bicep, pairs)
            assert str(refused.value) == str(exc)
            return
        theirs = with_scipy(fit_bicep, pairs)
        assert hexes(list(vars(ours.geometry).values())) == hexes(
            list(vars(theirs.geometry).values())
        )
        assert hexes([ours.sse_deg2, *ours.errors_deg]) == hexes(
            [theirs.sse_deg2, *theirs.errors_deg]
        )
        assert ours.consistent == theirs.consistent


# Every CLI command in one fresh interpreter; prints the exit codes, the
# scipy modules loaded after the commands, and after pi_identify.
CLI_RUN = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import numpy as np
    from tsakit.cli import main
    from tsakit.hysteresis import PIModel, pi_apply, pi_identify

    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in json.loads(sys.argv[1]):
            codes.append(main(argv))
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    thresholds = np.array([0.0, 1.0, 2.0])
    xs = np.concatenate([np.linspace(0, 6, 30), np.linspace(6, 0, 30)] * 2)
    truth = PIModel(thresholds=thresholds, weights=np.array([0.5, 0.3, 0.2]))
    model, residual = pi_identify(xs, pi_apply(truth, xs), thresholds)
    print(json.dumps({
        "codes": codes,
        "loaded": loaded,
        "identify_loads": "scipy.optimize" in sys.modules,
        "weights": model.weights.tolist(),
        "residual": residual,
    }))
    """
)


def test_no_cli_command_loads_scipy(tmp_path):
    stiff = bundled_stiff_path()
    model = (
        "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\nmaterial = stiff\n"
        "[load]\nmass_g = 2900\n"
        f"[calibration]\nobservations = {stiff}\nrow = 2\n"
        "[hysteresis]\nthresholds_rev = 0, 2, 5\nweights_mm = 0.0, 0.3, 0.2\n"
        "[training]\ncycles = 60\ntrained_load_g = 2900\n"
    )
    arm = (
        "[bicep]\npairs = 215:13.1, 135:73.4, 68:147.1\npayload_g = 500\n"
        "forearm_length_mm = 120\ntheta_max_rev = 30\nsamples = 21\n"
    )
    sensing = (
        "[sensing]\nr0_ohm = 120\nsensitivity_ohm_per_pct = -0.8\ntau_transient_s = 4\n"
        "transient_gain_ohm_per_pct = -0.25\ncreep_rate_ohm_per_cycle = 0.9\n"
        "creep_saturation_ohm = 4.5\n"
    )
    files = {"model.ini": model, "arm.ini": model + arm, "sense.ini": sensing}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    log = str(Path(__file__).parent / "data" / "sense_log.csv")
    out = str(tmp_path / "out")
    commands = [
        ["size", "10", "0.7"],
        ["calibrate", str(stiff), "--out", out + ".ini"],
        ["simulate", "triangle:amplitude_rev=36,period_s=60,samples=41",
         "--config", str(tmp_path / "model.ini"), "--out", out + "_sim.csv"],
        ["bicep", "--config", str(tmp_path / "arm.ini"), "--out", out + "_arm.csv"],
        ["sense", log, "--config", str(tmp_path / "sense.ini"), "--out", out + "_sense.csv"],
        ["train", "20", "--config", str(tmp_path / "model.ini")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(tsakit.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", CLI_RUN, json.dumps(commands)],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands)
    assert report["loaded"] == []
    assert report["identify_loads"]
    assert report["weights"] == pytest.approx([0.5, 0.3, 0.2], abs=1e-8)
    assert report["residual"] < 1e-10
