"""Batch command line driver.

Subcommands: calibrate, simulate, size, train, bicep, sense. Every
command is deterministic given its inputs; CSV outputs are
byte-identical across re-runs. Exit codes: 0 success, 2 bad input,
3 solver non-convergence, 4 training gate violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import bicep as bicep_mod
from . import config as cfgmod
from .calibration import PENALTY_RESIDUAL, fit_two_phase, predict_endpoints
from .errors import (
    ConfigError,
    ConvergenceError,
    HelixLimitError,
    InputError,
    NonInvertibleError,
    SingularConfigurationError,
    TrainingGateError,
    TriangleRangeError,
    TsaError,
)
from .hysteresis import hysteretic_length
from .model import Material, Phase, size_for_displacement, strain, twist_profile
from .sensing import estimate_strain
from .training import (
    TrainingStage,
    TrainingState,
    coiling_available,
    operating_length,
    stage_of,
)
from .units import rad_to_rev, rev_to_rad

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_GATE = 4


def _section(cfg: cfgmod.RunConfig, name: str):
    """The value of the config section [name], which this command needs."""
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError(f"{cfg.path} has no [{name}] section, which this command needs")
    return value


def _params_for(cfg: cfgmod.RunConfig):
    """Model parameters from [model], else calibrated via [calibration]."""
    if cfg.model is not None:
        return cfg.model
    obs, options = cfgmod.calibration_row(cfg)
    result = fit_two_phase(obs, **options)
    if result.residual >= PENALTY_RESIDUAL:    # on the plateau, where iterations never help
        raise ConvergenceError(
            f"calibration did not converge: no parameters in the fit's box explain "
            f"the [calibration] row of {cfg.path}"
        )
    if not result.converged:
        raise ConvergenceError("calibration did not converge; try more iterations")
    return result.params


def _law_sections(cfg: cfgmod.RunConfig) -> str:
    """The config sections that the two-phase law's admissible twist rests on."""
    return f"[string], [load] and [{'model' if cfg.model is not None else 'calibration'}]"


def cmd_calibrate(args) -> int:
    if args.max_iter < 0:
        raise InputError(f"--max-iter must be nonnegative, got {args.max_iter}")
    observations = cfgmod.read_observations(args.observations)
    lines = []
    any_failed = False
    for index, obs in enumerate(observations, start=1):
        result = fit_two_phase(obs, max_iter=args.max_iter)
        any_failed |= not result.converged
        name = f"fit_{index}_{obs.spec.diameter:g}mm_{obs.load.mass:g}g"
        print(
            f"{name}: residual {result.residual:.3e} "
            f"({result.iterations} iterations, "
            f"{'converged' if result.converged else 'NOT converged'})"
        )
        # Parameters on the penalty plateau are infeasible: nothing to predict.
        if result.residual < PENALTY_RESIDUAL:
            pred = predict_endpoints(
                obs.spec, result.params, obs.load, obs.theta_max_rev, obs.motor_speed_rev_s
            )
            for label, predicted, observed in (
                ("contraction_regular_pct", pred["contraction_regular_pct"], obs.contraction_regular_pct),
                ("contraction_total_pct", pred["contraction_total_pct"], obs.contraction_total_pct),
            ):
                print(f"  {label}: model {predicted:.3f} vs observed {observed:.3f}")
        p = result.params
        lines.append(f"[{name}]")
        lines.append(f"diameter_mm = {cfgmod.format_number(obs.spec.diameter)}")
        lines.append(f"initial_length_mm = {cfgmod.format_number(obs.spec.initial_length)}")
        lines.append(f"material = {obs.spec.material.value}")
        lines.append(f"ply = {obs.spec.ply}")
        lines.append(f"mass_g = {cfgmod.format_number(obs.load.mass)}")
        lines.append(f"theta_max_rev = {cfgmod.format_number(obs.theta_max_rev)}")
        lines.append(f"r_eff_mm = {cfgmod.format_number(p.r_eff)}")
        lines.append(f"theta_star_rev = {cfgmod.format_number(rad_to_rev(p.theta_star))}")
        lines.append(f"coil_diameter_mm = {cfgmod.format_number(p.coil_diameter)}")
        lines.append(f"coil_pitch_mm = {cfgmod.format_number(p.coil_pitch)}")
        lines.append(f"eta = {cfgmod.format_number(p.eta)}")
        lines.append(f"compliance_mm_per_n = {cfgmod.format_number(p.compliance)}")
        lines.append(f"residual = {cfgmod.format_number(result.residual)}")
        lines.append(f"iterations = {result.iterations}")
        lines.append(f"converged = {str(result.converged).lower()}")
        lines.append("")
    if args.out:
        with open(args.out, "w", newline="\n", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
    return EXIT_NO_CONVERGENCE if any_failed else EXIT_OK


def _generated_profile(spec_text: str):
    """Profile generator: name:key=value,... with times in seconds."""
    name, _, raw = spec_text.partition(":")
    options = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        key, _, value = token.partition("=")
        if not _:
            raise InputError(f"bad profile option {token!r}; expected key=value")
        try:
            options[key.strip()] = float(value)
        except ValueError as exc:
            raise InputError(f"bad profile option value {token!r}") from exc

    def take(key, default=None):
        if key in options:
            return options.pop(key)
        if default is None:
            raise InputError(f"profile {name!r} requires {key}")
        return default

    def finite(key):
        value = take(key)
        if not math.isfinite(value):
            raise InputError(f"profile option {key} must be finite, got {value:g}")
        return value

    def positive(key):
        value = take(key)
        if not 0.0 < value < math.inf:
            raise InputError(f"profile option {key} must be positive and finite, got {value:g}")
        return value

    def count(key, default):
        value = take(key, default)
        if not (value >= 1.0 and value.is_integer()):
            raise InputError(f"profile option {key} must be a whole number >= 1, got {value:g}")
        return int(value)

    if name == "triangle":
        amplitude = finite("amplitude_rev")
        period = positive("period_s")
        cycles = count("cycles", 1.0)
        samples = count("samples", 201.0)
        if options:
            raise InputError(f"unknown profile options {sorted(options)}")
        times = np.linspace(0.0, period * cycles, samples)
        position = (times / period) % 1.0
        theta = amplitude * (1.0 - np.abs(2.0 * position - 1.0))
        # np.linspace endpoint lands exactly on a cycle boundary; keep it 0.
        return times, theta
    if name == "ramp":
        rate = finite("rate_rev_s")
        duration = positive("duration_s")
        samples = count("samples", 201.0)
        if options:
            raise InputError(f"unknown profile options {sorted(options)}")
        times = np.linspace(0.0, duration, samples)
        return times, rate * times
    raise InputError(f"unknown profile generator {name!r}; use triangle or ramp")


def _profile(args):
    if os.path.exists(args.profile):
        log = cfgmod.read_experiment_log(args.profile, required=("time_s", "theta_rev"))
        return log.time, log.theta
    if ":" in args.profile:
        return _generated_profile(args.profile)
    raise InputError(f"profile {args.profile!r} is neither a file nor a generator spec")


def _check_training_gate(cfg, spec, load, params, theta) -> None:
    """The training gate: refuse twist past theta_star on an untrained string.

    Only a config with [training] is gated; without it the string is taken
    as broken in. theta is the twist schedule in radians.
    """
    state = cfg.training
    if (
        state is not None
        and float(theta.max()) > params.theta_star
        and not coiling_available(spec, state, load)
    ):
        raise TrainingGateError(
            "profile overtwists a stiff string before training reached the "
            "uniform stage at or below the operating load; train for "
            f"{state.thresholds[2]} cycles at <= {load.mass:g} g first"
        )


def cmd_simulate(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    spec = _section(cfg, "string")
    load = _section(cfg, "load")
    params = _params_for(cfg)
    times, theta_rev = _profile(args)
    if np.any(theta_rev < 0):
        raise InputError("profile contains negative twist")
    with np.errstate(over="ignore"):    # an overflow to inf is beyond any coil capacity
        theta = rev_to_rad(theta_rev)
    _check_training_gate(cfg, spec, load, params, theta)

    pi = cfg.hysteresis
    try:
        profile = twist_profile(spec, params, load, theta)
    except HelixLimitError as exc:
        raise ConfigError(f"bad {_law_sections(cfg)} sections in {cfg.path}: {exc}") from exc
    if pi is None:
        lengths = profile.length
    else:
        lengths = hysteretic_length(spec, params, load, pi, theta, profile.length)

    motor_speed = np.gradient(theta, times) if times.size > 1 else np.zeros_like(theta)
    phase = np.where(profile.overtwist, Phase.OVERTWIST.value, Phase.REGULAR.value)
    columns = (
        times,
        theta_rev,
        lengths,
        strain(lengths, spec.initial_length),
        np.abs(profile.ratio) * np.abs(motor_speed),
        profile.torque,
        profile.coil_count,
        phase,
    )
    header = (
        "time_s",
        "theta_rev",
        "length_mm",
        "strain_pct",
        "speed_mm_s",
        "torque_Nm",
        "coil_count",
        "phase",
    )
    out = args.out or "simulation.csv"
    cfgmod.write_csv(out, header, columns)
    print(f"wrote {times.size} samples to {out}")
    return EXIT_OK


def cmd_size(args) -> int:
    length_mm = size_for_displacement(args.displacement_mm, args.contraction)
    print(f"{length_mm:.2f}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.cycles < 0:
        raise InputError(f"cycles must be nonnegative, got {args.cycles}")
    cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.RunConfig()
    spec = cfg.string
    if spec is not None and spec.material is Material.COMPLIANT:
        print("compliant string: training not required, coiling is available immediately")
        return EXIT_OK
    # Without [training], the toolkit's default stages and shortening.
    state = cfg.training or TrainingState()
    thresholds = state.thresholds
    # N more cycles count on from the section's cycles already done.
    total = state.cycles_done + args.cycles

    # Each threshold is one stage transition; print those reached.
    for cycle in (0, *thresholds):
        if cycle <= total:
            print(f"cycle {cycle}: {stage_of(cycle, thresholds).name.lower()}")
    final = dataclasses.replace(state, cycles_done=total)
    done = final.stage is TrainingStage.UNIFORM
    print(f"after {total} cycles: {final.stage.name.lower()}")
    if spec is not None and done:
        print(f"trained untwisted length: {operating_length(spec, final):.6g} mm")
    if not done:
        remaining = thresholds[2] - total
        print(f"{remaining} more cycles until uniform coiling")
    return EXIT_OK


def cmd_bicep(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    section = _section(cfg, "bicep")
    geometry = section.geometry
    if geometry is None:
        fit = bicep_mod.fit_bicep(section.pairs, **section.load)
        geometry = fit.geometry
        print(
            f"fitted geometry: a {geometry.a:.2f} mm, b {geometry.b:.2f} mm, "
            f"gamma {geometry.gamma:.2f} deg"
        )
        print(
            "per-pair angle errors (deg): "
            + ", ".join(f"{e:+.2f}" for e in fit.errors_deg)
        )
        if not fit.consistent:
            print(
                "warning: linkage model cannot reproduce the pairs within "
                f"{bicep_mod.CONSISTENCY_LIMIT_DEG} deg; reporting the best fit"
            )
    spec = _section(cfg, "string")
    load = _section(cfg, "load")
    params = _params_for(cfg)
    grid = section.grid
    _check_training_gate(cfg, spec, load, params, rev_to_rad(grid))
    # The geometry cannot close on the swept string, or poses it through the joint.
    try:
        angles = bicep_mod.sweep(geometry, spec, params, load, grid)
        tensions = bicep_mod.string_tension(geometry, angles)
    except HelixLimitError as exc:
        raise ConfigError(
            f"bad [bicep], {_law_sections(cfg)} sections in {cfg.path}: {exc}"
        ) from exc
    except (TriangleRangeError, SingularConfigurationError) as exc:
        raise ConfigError(f"bad [bicep] section in {cfg.path}: {exc}") from exc
    out = args.out or "bicep_sweep.csv"
    cfgmod.write_csv(out, ("theta_rev", "angle_deg", "tension_N"), (grid, angles, tensions))
    print(f"wrote {grid.size} samples to {out}")
    return EXIT_OK


def cmd_sense(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    params = _section(cfg, "sensing")
    log = cfgmod.read_experiment_log(args.log, required=("time_s", "resistance_ohm"))
    try:
        strains = estimate_strain(params, log.resistance, log.time)
    except NonInvertibleError as exc:
        raise ConfigError(f"bad [sensing] section in {cfg.path}: {exc}") from exc
    out = args.out or "strain_estimate.csv"
    cfgmod.write_csv(out, ("time_s", "strain_pct"), (log.time, strains))
    print(f"wrote {len(log)} samples to {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it.

    Parsing leaves the parser as it was, so repeated main calls in one
    process reuse it; it is not built at import, which every command pays.
    """
    parser = argparse.ArgumentParser(
        prog="tsakit",
        description="Two-phase twisted string actuator toolkit",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="accepted for compatibility; has no effect"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit model parameters to endpoint CSV")
    p.add_argument("observations", help="characterization endpoints CSV")
    p.add_argument("--out", help="write fitted parameter file here")
    p.add_argument(
        "--max-iter", type=int, default=4000, help="iteration cap of the Nelder-Mead polish"
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="roll a twist profile through the model")
    p.add_argument("profile", help="CSV log (time_s,theta_rev) or generator spec")
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("size", help="untwisted length needed for a displacement")
    p.add_argument("displacement_mm", type=float)
    p.add_argument("contraction", type=float, help="usable contraction fraction in (0,1)")
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("train", help="report the training stage trajectory")
    p.add_argument("cycles", type=int, help="cycles to run after [training] cycles")
    p.add_argument("--config", help="configuration file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bicep", help="sweep the bicep linkage over motor twist")
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_bicep)

    p = sub.add_parser("sense", help="estimate strain from a resistance log")
    p.add_argument("log", help="CSV log (time_s,resistance_ohm)")
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_sense)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except TsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
