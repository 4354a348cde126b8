"""Batch command line driver.

Subcommands: calibrate, simulate, size, train, bicep, sense. Every
command is deterministic given its inputs and seed; CSV outputs are
byte-identical across re-runs. Exit codes: 0 success, 2 bad input,
3 solver non-convergence, 4 training gate violation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bicep as bicep_mod
from . import config as cfgmod
from .calibration import PENALTY_RESIDUAL, fit_two_phase, predict_endpoints
from .errors import (
    ConvergenceError,
    InputError,
    TrainingGateError,
    TsaError,
)
from .hysteresis import hysteretic_length
from .model import Material, Phase, size_for_displacement, strain, twist_profile
from .sensing import estimate_strain
from .training import (
    TrainingStage,
    TrainingState,
    advance_cycle,
    coiling_available,
    operating_length,
    stage_of,
)
from .units import rad_to_rev, rev_to_rad

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_GATE = 4


def _params_for(cfg: cfgmod.RunConfig, seed: int):
    """Model parameters from [model], else calibrated via [calibration]."""
    params = cfgmod.model_params(cfg)
    if params is not None:
        return params
    if cfg.calibration is None:
        raise InputError(
            "no [model] parameters and no [calibration] observations to fit them from"
        )
    observations = cfgmod.read_observations(cfg.calibration["observations"])
    row = cfg.calibration.get("row", 1)
    if not 1 <= row <= len(observations):
        raise InputError(f"calibration row {row} outside 1..{len(observations)}")
    obs = observations[row - 1]
    result = fit_two_phase(
        obs,
        seed=seed,
        n_starts=cfg.calibration.get("n_starts", 8),
        max_iter=cfg.calibration.get("max_iter", 4000),
    )
    if not result.converged:
        raise ConvergenceError("calibration did not converge; try more iterations")
    return result.params


def cmd_calibrate(args) -> int:
    observations = cfgmod.read_observations(args.observations)
    lines = []
    any_failed = False
    for index, obs in enumerate(observations, start=1):
        result = fit_two_phase(obs, seed=args.seed, n_starts=args.starts, max_iter=args.max_iter)
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

    if name == "triangle":
        amplitude = take("amplitude_rev")
        period = take("period_s")
        cycles = int(take("cycles", 1.0))
        samples = int(take("samples", 201.0))
        if options:
            raise InputError(f"unknown profile options {sorted(options)}")
        times = np.linspace(0.0, period * cycles, samples)
        position = (times / period) % 1.0
        theta = amplitude * (1.0 - np.abs(2.0 * position - 1.0))
        # np.linspace endpoint lands exactly on a cycle boundary; keep it 0.
        return times, theta
    if name == "ramp":
        rate = take("rate_rev_s")
        duration = take("duration_s")
        samples = int(take("samples", 201.0))
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


def cmd_simulate(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    spec = cfgmod.string_spec(cfg)
    load = cfgmod.load_case(cfg)
    params = _params_for(cfg, args.seed)
    times, theta_rev = _profile(args)
    if np.any(theta_rev < 0):
        raise InputError("profile contains negative twist")
    theta = rev_to_rad(theta_rev)

    trained = cfgmod.training_state(cfg)
    if (
        trained is not None
        and spec.material is Material.STIFF
        and float(theta.max()) > params.theta_star
        and not coiling_available(spec, trained[0], load)
    ):
        raise TrainingGateError(
            "profile overtwists a stiff string before training reached the "
            "uniform stage at or below the operating load; train for "
            f"{trained[0].thresholds[2]} cycles at <= {load.mass:g} g first"
        )

    pi = cfgmod.pi_model(cfg)
    profile = twist_profile(spec, params, load, theta)
    if pi is None:
        lengths = profile.length
    else:
        lengths = hysteretic_length(spec, params, load, pi, theta)

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
    cfgmod.write_csv(out, header, zip(*(column.tolist() for column in columns)))
    print(f"wrote {times.size} samples to {out}")
    return EXIT_OK


def cmd_size(args) -> int:
    length_mm = size_for_displacement(args.displacement_mm, args.contraction)
    print(f"{length_mm:.2f}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.RunConfig()
    spec = cfgmod.string_spec(cfg) if cfg.string else None
    if spec is not None and spec.material is Material.COMPLIANT:
        print("compliant string: training not required, coiling is available immediately")
        return EXIT_OK
    trained = cfgmod.training_state(cfg)
    state = trained[0] if trained else None
    shortening = trained[1] if trained else None
    thresholds = state.thresholds if state else (6, 11, 50)
    load_g = state.trained_load if state else 0.0

    current = stage_of(0, thresholds)
    print(f"cycle 0: {current.name.lower()}")
    running = TrainingState(cycles_done=0, trained_load=load_g, thresholds=thresholds)
    for cycle in range(1, args.cycles + 1):
        running = advance_cycle(running)
        if running.stage is not current:
            current = running.stage
            print(f"cycle {cycle}: {current.name.lower()}")
    done = current is TrainingStage.UNIFORM
    print(f"after {args.cycles} cycles: {current.name.lower()}")
    if spec is not None and done:
        shortening_val = shortening if shortening is not None else 0.02
        print(
            "trained untwisted length: "
            f"{operating_length(spec, running, shortening_val):.6g} mm"
        )
    if not done:
        remaining = thresholds[2] - args.cycles
        print(f"{remaining} more cycles until uniform coiling")
    return EXIT_OK


def cmd_bicep(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    block = cfg.bicep or {}
    geometry = cfgmod.bicep_geometry(cfg)
    if geometry is None:
        pairs = cfgmod.bicep_pairs(cfg)
        if pairs is None:
            raise InputError("[bicep] needs either a_mm/b_mm/gamma_deg or pairs")
        fit = bicep_mod.fit_bicep(
            pairs,
            payload=block.get("payload_g", 0.0),
            forearm_length=block.get("forearm_length_mm", 0.0),
        )
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
    spec = cfgmod.string_spec(cfg)
    load = cfgmod.load_case(cfg)
    params = _params_for(cfg, args.seed)
    theta_max_rev = block.get("theta_max_rev")
    if theta_max_rev is None:
        raise InputError("[bicep] needs theta_max_rev for the sweep")
    samples = int(block.get("samples", 121))
    grid = np.linspace(0.0, theta_max_rev, samples)
    trajectory = bicep_mod.sweep(geometry, spec, params, load, grid)
    rows = []
    for theta_rev, angle in trajectory:
        tension = bicep_mod.string_tension(geometry, angle)
        rows.append((theta_rev, angle, tension))
    out = args.out or "bicep_sweep.csv"
    cfgmod.write_csv(out, ("theta_rev", "angle_deg", "tension_N"), rows)
    print(f"wrote {len(rows)} samples to {out}")
    return EXIT_OK


def cmd_sense(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    params = cfgmod.resistance_params(cfg)
    log = cfgmod.read_experiment_log(args.log, required=("time_s", "resistance_ohm"))
    strains = estimate_strain(params, log.resistance, log.time)
    out = args.out or "strain_estimate.csv"
    cfgmod.write_csv(out, ("time_s", "strain_pct"), zip(log.time.tolist(), strains.tolist()))
    print(f"wrote {len(log)} samples to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsakit",
        description="Two-phase twisted string actuator toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic run seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit model parameters to endpoint CSV")
    p.add_argument("observations", help="characterization endpoints CSV")
    p.add_argument("--out", help="write fitted parameter file here")
    p.add_argument("--starts", type=int, default=8, help="Nelder-Mead restarts")
    p.add_argument("--max-iter", type=int, default=4000, help="iterations per restart")
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
    p.add_argument("cycles", type=int)
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
