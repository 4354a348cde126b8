"""The benchmark's workloads: seeded inputs, pass jobs and output checks.

Each workload builds its inputs from the workload seed with the closed
forms in oracle.py, never with tsakit, and checks every pass's outputs
against those closed forms. Every pass of a run repeats the same job, so
the run attempts a fixed set of operations, whatever the number of passes.
``check`` returns a Check: the operations the pass attempted, the ones that
failed and why, and any output that disagreed with the oracle. A failed
operation is a non-zero exit, a crash, a non-finite output, or a fit left
on the penalty plateau (residual 1e9) even when it is reported as converged.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

import oracle
from oracle import PARAM_ORDER, PENALTY_RESIDUAL, TWO_PI

# The string of the package README and its explicit model.
README_STRING = {"diameter_mm": 1.3, "initial_length_mm": 214.3, "mass_g": 2900.0}
README_MODEL = {"r_eff": 0.86, "theta_star_rev": 28.0, "coil_diameter": 4.3,
                "coil_pitch": 2.6, "eta": 0.11}

STRING_CONFIG = """\
[string]
diameter_mm = 1.3
initial_length_mm = 214.3
material = stiff

[load]
mass_g = 2900
"""

OBS_HEADER = (
    "diameter_mm,initial_length_mm,material,ply,mass_g,theta_max_rev,"
    "contraction_regular_pct,contraction_total_pct,max_speed_regular_mm_s,"
    "max_speed_overtwist_mm_s,max_torque_regular_nm,max_torque_overtwist_nm,"
    "motor_speed_rev_s"
)
# The four characterization rows shipped with the package (three stiff
# strings and the 6-ply compliant one), copied so that editing the
# package's data cannot change the benchmark's inputs.
BUNDLED_ROWS = (
    "1.0,224.2,stiff,1,2000,56,28.90,68.22,2.42,6.94,0.257,0.401,",
    "1.3,214.3,stiff,1,2900,36,29.08,70.94,6.34,14.32,0.243,0.454,",
    "2.0,253.2,stiff,1,3400,24,28.53,70.63,6.86,16.65,0.272,0.627,",
    "1.05,210.0,compliant,6,200,25,11.25,58.14,,,,,",
)


@dataclass
class Check:
    operations: tuple                              # names of the operations attempted
    failures: dict = field(default_factory=dict)   # operation name -> why it failed
    wrong: list = field(default_factory=list)      # outputs that disagree with the oracle
    fit_ratios: list = field(default_factory=list)
    strain_rmse_pct: float | None = None


def parse_row(line):
    row = {}
    for key, value in zip(OBS_HEADER.split(","), line.split(",")):
        if key == "material":
            row[key] = value
        else:
            row[key] = float(value) if value else None
    return row


def read_numeric_csv(path, header):
    """Columns of a CSV written by the program, checking its header."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != ",".join(header):
        raise ValueError(f"unexpected header {lines[0]!r}")
    return list(zip(*(line.split(",") for line in lines[1:])))


def call_failure(step, index=0):
    """Why a step's index-th CLI call failed, or None when it exited 0."""
    code = step["exits"][index]
    return None if code == 0 else f"exit {code}"


def within(values, candidates, slack):
    """values lie between the per-column extremes of candidates, give or take slack."""
    return bool(np.all(values >= candidates.min(axis=0) - slack)
                and np.all(values <= candidates.max(axis=0) + slack))


def file_digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


NON_FINITE = "non-finite output"


class OneCommand:
    """A workload whose pass is one CLI command that writes self.out.

    The first output is checked against the oracle by verify(), which
    returns None, NON_FINITE or what disagrees. Every later output must be
    byte-identical to it: the package promises identical re-runs.
    """

    def job(self):
        return {"steps": [{"name": self.command, "kind": "cli", "calls": [self.argv]}]}

    def check(self, result):
        outcome = Check(operations=(self.command,))
        failure = "no result" if result is None else call_failure(result["steps"][0])
        if failure is None and not self.out.exists():
            failure = "no output written"
        if failure is not None:
            outcome.failures[self.command] = failure
            return outcome
        digest = file_digest(self.out)
        if self.digest is None:
            try:
                problem = self.verify()
            except ValueError as exc:              # misshapen or unparsable CSV
                problem = f"{self.command} output unreadable: {exc}"
            if problem == NON_FINITE:
                outcome.failures[self.command] = problem
            elif problem:
                outcome.wrong.append(problem)
            else:
                self.digest = digest
        elif digest != self.digest:
            outcome.wrong.append(f"{self.command} output differs between identical runs")
        return outcome


class SimulateHyst(OneCommand):
    """tsakit simulate on a ~100k-sample multi-cycle triangle with hysteresis.

    Chosen because scalar model calls, hysteretic_length and write_csv do
    nearly all the work, while calibration and CSV reading do none. The
    amplitude crosses theta_star (28 rev) but stays under the coil
    capacity of the README string (about 39 rev).
    """

    SAMPLES = 100_001
    rates = (("sim_samples_per_s", "samples/s", None, SAMPLES),)
    THRESHOLDS_REV = (0.0, 2.0, 5.0)

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 1])
        # 34 to 35.5 rev keeps the overtwist share of samples, which costs
        # more per sample, between 18% and 21% whatever the seed.
        self.amplitude = round(float(rng.uniform(34.0, 35.5)), 3)
        self.period = round(float(rng.uniform(40.0, 80.0)), 2)
        self.cycles = int(rng.integers(4, 9))
        self.weights = (0.0, round(float(rng.uniform(0.1, 0.4)), 3),
                        round(float(rng.uniform(0.05, 0.3)), 3))
        self.items = self.SAMPLES
        self.config = work / "simulate.ini"
        self.out = work / "simulation.csv"
        self.outputs = (self.out,)
        m = README_MODEL
        self.config.write_text(
            STRING_CONFIG
            + f"\n[model]\nr_eff_mm = {m['r_eff']}\ntheta_star_rev = {m['theta_star_rev']}\n"
            f"coil_diameter_mm = {m['coil_diameter']}\ncoil_pitch_mm = {m['coil_pitch']}\n"
            f"eta = {m['eta']}\n"
            f"\n[hysteresis]\nthresholds_rev = {', '.join(map(str, self.THRESHOLDS_REV))}\n"
            f"weights_mm = {', '.join(map(str, self.weights))}\n",
            encoding="utf-8",
        )
        profile = (f"triangle:amplitude_rev={self.amplitude},period_s={self.period},"
                   f"cycles={self.cycles},samples={self.SAMPLES}")
        self.command = "simulate"
        self.argv = ["simulate", profile, "--config", str(self.config), "--out", str(self.out)]
        self.digest = None

    def verify(self):
        """Compare the CSV with the two-phase law plus play operators."""
        header = ("time_s", "theta_rev", "length_mm", "strain_pct", "speed_mm_s",
                  "torque_Nm", "coil_count", "phase")
        cols = read_numeric_csv(self.out, header)
        got = np.array(cols[:7], dtype=float)
        if not np.all(np.isfinite(got)):
            return NON_FINITE
        times = np.linspace(0.0, self.period * self.cycles, self.SAMPLES)
        theta_rev = self.amplitude * (1.0 - np.abs(2.0 * ((times / self.period) % 1.0) - 1.0))
        theta = theta_rev * TWO_PI
        m, s = README_MODEL, README_STRING
        backbone, slope, torque, coils, regular = oracle.two_phase(
            theta, s["initial_length_mm"], s["mass_g"], m["r_eff"],
            m["theta_star_rev"] * TWO_PI, m["coil_diameter"], m["coil_pitch"], m["eta"])
        correction = oracle.play_stop_sum(
            theta, [t * TWO_PI for t in self.THRESHOLDS_REV], self.weights)
        length = np.clip(backbone + correction, 1e-9, s["initial_length_mm"])
        strain = (length - s["initial_length_mm"]) / s["initial_length_mm"] * 100.0
        speed = slope * np.abs(np.gradient(theta, times))
        expected = (times, theta_rev, length, strain, speed, torque, coils)
        for name, actual, want in zip(header, got, expected):
            if not oracle.close(actual, want, scale=float(np.max(np.abs(want)))):
                worst = int(np.argmax(np.abs(actual - want)))
                return (f"simulate {name} row {worst + 1}: {float(actual[worst])!r} "
                        f"vs oracle {float(want[worst])!r}")
        phases = np.where(regular, "regular", "overtwist")
        if list(cols[7]) != phases.tolist():
            return "simulate phase column disagrees with theta <= theta_star"
        return None


class FitBatch:
    """calibrate, grid_oracle verification and bicep over seeded observation rows.

    Chosen because residual evaluation and derivative-free search dominate,
    while per-sample model work, hysteresis and CSV I/O are negligible. Each
    row gets its own calibrate seed, drawn from the workload seed, so fits
    that end on the penalty plateau show up as failed operations, and the
    same ones on every pass.
    """

    SYNTHETIC_ROWS = 12
    BICEP_ROW = 2                      # 1-based; the README string
    BICEP_THETA_MAX_REV = 30.0
    BICEP_SAMPLES = 121
    GRID_SHAPE = {"r_eff": 16, "theta_star": 16, "coil_diameter": 12, "eta": 4}

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 2])
        lines = list(BUNDLED_ROWS)
        self.truth = [None] * len(lines)
        for _ in range(self.SYNTHETIC_ROWS):
            line, truth = self._synthetic_row(rng)
            lines.append(line)
            self.truth.append(truth)
        self.rows = [parse_row(line) for line in lines]
        self.items = len(self.rows)
        self.observations = work / "observations.csv"
        self.observations.write_text(OBS_HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
        # calibrate stops at the first row it cannot finish, so each row
        # gets its own call: every row is attempted on every pass.
        self.row_files, self.params_out = [], []
        for i, line in enumerate(lines, start=1):
            self.row_files.append(work / f"row_{i:02d}.csv")
            self.row_files[-1].write_text(OBS_HEADER + "\n" + line + "\n", encoding="utf-8")
            self.params_out.append(work / f"params_{i:02d}.ini")
        self.sweep_out = work / "bicep_sweep.csv"
        self.outputs = (*self.params_out, self.sweep_out)
        self.seed_base = 100_000 * seed

        self.stiff = [i for i, row in enumerate(self.rows) if row["material"] == "stiff"]
        self.grids, self.grid_best = [], []
        for i in self.stiff:
            grid = self._grid(self.rows[i])
            self.grids.append(grid)
            self.grid_best.append(oracle.grid_best(self.rows[i], grid))
        self.grid_cells = sum(best[2] for best in self.grid_best)
        self.grid_feasible = sum(best[2] * best[3] for best in self.grid_best) / self.grid_cells
        self.rates = (("fits_per_s", "fits/s", "calibrate", self.items),
                      ("oracle_cells_per_s", "cells/s", "oracle", self.grid_cells))
        # Reference residual per row: the residual at the generating
        # parameters for synthetic rows, the grid optimum for bundled stiff rows.
        self.reference = [None] * len(self.rows)
        for i, truth in enumerate(self.truth):
            if truth is not None:
                self.reference[i] = float(oracle.residual(self.rows[i], truth))
        for i, best in zip(self.stiff, self.grid_best):
            if self.reference[i] is None:
                self.reference[i] = best[1]

        a, b, gamma = (float(rng.uniform(80.0, 95.0)), float(rng.uniform(145.0, 165.0)),
                       float(rng.uniform(135.0, 150.0)))
        lengths = np.round(np.linspace(b - a + 10.0, min(a + b, 230.0) - 10.0, 5), 1)
        angles = np.round(oracle.bicep_angle(a, b, gamma, lengths) + rng.normal(0.0, 0.1, 5), 2)
        pairs = ", ".join(f"{l:.1f}:{phi:.2f}" for l, phi in zip(lengths, angles))
        # Cells that fit_bicep's default scan (4 mm arms, 2 deg gamma) scores:
        # lever-arm pairs that can close on every pair length, times gammas.
        arms = np.arange(4.0, 400.0 + 1e-9, 4.0)
        arm_a, arm_b = np.meshgrid(arms, arms, indexing="ij")
        admissible = (np.abs(arm_a - arm_b) <= lengths.min()) & (lengths.max() <= arm_a + arm_b)
        self.bicep_grid_cells = int(admissible.sum()) * np.arange(2.0, 360.0, 2.0).size
        self.bicep_config = work / "bicep.ini"
        self.bicep_config.write_text(
            STRING_CONFIG
            + f"\n[calibration]\nobservations = {self.observations}\nrow = {self.BICEP_ROW}\n"
            f"\n[bicep]\npairs = {pairs}\npayload_g = 500\nforearm_length_mm = 120\n"
            f"theta_max_rev = {self.BICEP_THETA_MAX_REV}\nsamples = {self.BICEP_SAMPLES}\n",
            encoding="utf-8",
        )

    @staticmethod
    def _synthetic_row(rng):
        """A stiff row from known parameters, with 1% multiplicative noise."""
        d = float(rng.choice([1.0, 1.3, 1.6, 2.0]))
        l0 = round(float(rng.uniform(200.0, 260.0)), 1)
        mass = float(round(rng.uniform(1500.0, 3500.0), -1))
        r_eff = d * float(rng.uniform(0.55, 0.9))
        theta_star = float(rng.uniform(0.6, 0.78)) * l0 / r_eff
        truth = {"r_eff": r_eff, "theta_star": theta_star,
                 "coil_diameter": d * float(rng.uniform(2.5, 4.0)), "coil_pitch": 2.0 * d,
                 "eta": float(rng.uniform(0.08, 0.3)), "compliance": 0.0}
        l1 = math.sqrt(l0 * l0 - (theta_star * r_eff) ** 2)
        capacity = l1 / math.hypot(math.pi * truth["coil_diameter"], truth["coil_pitch"])
        theta_max_rev = round((theta_star + TWO_PI * float(rng.uniform(0.6, 0.9)) * capacity)
                              / TWO_PI, 2)
        row = {"diameter_mm": d, "initial_length_mm": l0, "mass_g": mass,
               "theta_max_rev": theta_max_rev}
        _, pred = oracle.endpoints(row, truth)
        noisy = {key: float(value) * (1.0 + 0.01 * float(rng.normal()))
                 for key, value in pred.items()}
        fields = [d, l0, "stiff", 1, mass, theta_max_rev,
                  noisy["contraction_regular_pct"], noisy["contraction_total_pct"],
                  noisy["slope_regular"] * TWO_PI, noisy["slope_overtwist"] * TWO_PI,
                  noisy["torque_regular_nm"], noisy["torque_overtwist_nm"], ""]
        line = ",".join(v if isinstance(v, str) else f"{v:.6g}" for v in fields)
        return line, truth

    def _grid(self, row):
        """Fixed grid over the package's default parameter box for a stiff row."""
        d, theta_max = row["diameter_mm"], row["theta_max_rev"] * TWO_PI
        n = self.GRID_SHAPE
        return {
            "r_eff": np.linspace(d / 2.0, 2.0 * d, n["r_eff"]).tolist(),
            "theta_star": np.linspace(0.02 * theta_max, 0.98 * theta_max, n["theta_star"]).tolist(),
            "coil_diameter": np.linspace(0.5 * d, 10.0 * d, n["coil_diameter"]).tolist(),
            "coil_pitch": [2.0 * d],
            "eta": np.linspace(0.02, 1.0, n["eta"]).tolist(),
            "compliance": [0.0],
        }

    def job(self):
        def seed(row):
            # Distinct per row: one seed's restarts land alike on every row.
            return ["--seed", str(self.seed_base + row)]

        return {"steps": [
            {"name": "calibrate", "kind": "cli",
             "calls": [seed(i) + ["calibrate", str(rows), "--out", str(out)]
                       for i, (rows, out) in enumerate(zip(self.row_files, self.params_out))]},
            {"name": "oracle", "kind": "oracle", "observations": str(self.observations),
             "rows": self.stiff, "grids": self.grids, "param_order": PARAM_ORDER},
            {"name": "bicep", "kind": "cli",             # same fit as calibrate's BICEP_ROW
             "calls": [seed(self.BICEP_ROW - 1) + ["bicep", "--config", str(self.bicep_config),
                               "--out", str(self.sweep_out)]]},
        ]}

    def check(self, result):
        outcome = Check(operations=(*(f"fit row {i + 1}" for i in range(len(self.rows))),
                                    *(f"grid_oracle row {i + 1}" for i in self.stiff), "bicep"))
        if result is None:
            outcome.failures = dict.fromkeys(outcome.operations, "no result")
            return outcome
        calibrate, grid, bicep = result["steps"]
        try:
            fits = self._check_fits(calibrate, outcome)
            self._check_oracle(grid, outcome)
            self._check_bicep(bicep, fits, outcome)
        except (ValueError, KeyError, IndexError, configparser.Error) as exc:  # misshapen output
            outcome.wrong.append(f"fit_batch output unreadable: {exc!r}")
        return outcome

    def _check_fits(self, step, outcome):
        """Per-row fitted parameters, or None for a failed fit."""
        fits = []
        for i, (row, out) in enumerate(zip(self.rows, self.params_out)):
            failure = call_failure(step, i)
            if failure is None and not out.exists():
                failure = "no output written"
            if failure is None:
                parser = configparser.ConfigParser(interpolation=None)
                parser.read(out, encoding="utf-8")
                sec = parser[parser.sections()[0]]
                value = float(sec["residual"])
                params = {"r_eff": float(sec["r_eff_mm"]),
                          "theta_star": float(sec["theta_star_rev"]) * TWO_PI,
                          "coil_diameter": float(sec["coil_diameter_mm"]),
                          "coil_pitch": float(sec["coil_pitch_mm"]), "eta": float(sec["eta"]),
                          "compliance": float(sec["compliance_mm_per_n"])}
                if self.reference[i] is not None:
                    outcome.fit_ratios.append(value / self.reference[i])
                if sec["converged"] != "true":
                    failure = "not converged"
                elif value == PENALTY_RESIDUAL:
                    failure = "converged on the penalty plateau"
                elif not all(math.isfinite(v) for v in (value, *params.values())):
                    failure = "non-finite output"
            if failure is not None:
                outcome.failures[f"fit row {i + 1}"] = failure
                fits.append(None)
                continue
            # Fits on the coil-capacity boundary can be written a rounding
            # step past it, so the boundary gets the 10-digit precision too.
            own = float(oracle.residual(row, params, slack=1e-8))
            if not abs(own - value) <= 1e-6 * value + 1e-12:
                outcome.wrong.append(f"fit row {i + 1}: reported residual {value!r}, "
                                     f"oracle gives {own!r} at the written parameters")
            fits.append(params)
        return fits

    def _check_oracle(self, step, outcome):
        found = step.get("oracle")
        if found is None:
            for i in self.stiff:
                outcome.failures[f"grid_oracle row {i + 1}"] = str(step.get("error"))
            return
        for i, entry, best in zip(self.stiff, found, self.grid_best):
            if isinstance(entry, str) or not math.isfinite(entry[1]):
                outcome.failures[f"grid_oracle row {i + 1}"] = repr(entry)
                continue
            cell, value = entry
            own = float(oracle.residual(self.rows[i], dict(zip(PARAM_ORDER, cell))))
            if not (oracle.close(value, best[1]) and oracle.close(own, best[1])):
                outcome.wrong.append(f"grid_oracle row {i + 1}: {value!r} at {cell}, "
                                     f"oracle best {best[1]!r} at {best[0]}")

    def _check_bicep(self, step, fits, outcome):
        failure = call_failure(step)
        if failure is None and not self.sweep_out.exists():
            failure = "no output written"
        if failure is None and fits[self.BICEP_ROW - 1] is None:
            failure = "its embedded calibration is the failed fit of the calibrate step"
        if failure is not None:
            outcome.failures["bicep"] = failure
            return
        match = re.search(r"fitted geometry: a (\S+) mm, b (\S+) mm, gamma (\S+) deg", step["stdout"])
        if match is None or "warning" in step["stdout"]:
            outcome.wrong.append(f"bicep fit output: {step['stdout'][:200]!r}")
            return
        a, b, gamma = (float(v) for v in match.groups())
        cols = np.array(read_numeric_csv(self.sweep_out, ("theta_rev", "angle_deg", "tension_N")),
                        dtype=float)
        if not np.all(np.isfinite(cols)):
            outcome.failures["bicep"] = NON_FINITE
            return
        p, s = fits[self.BICEP_ROW - 1], README_STRING
        theta_rev = np.linspace(0.0, self.BICEP_THETA_MAX_REV, self.BICEP_SAMPLES)
        length = oracle.two_phase(theta_rev * TWO_PI, s["initial_length_mm"], s["mass_g"],
                                  *(p[name] for name in PARAM_ORDER))[0]
        # The geometry is printed to 0.01 mm and 0.01 deg, so the sweep must
        # lie between the extremes over the corners of that rounding box.
        h = 0.005
        corners = [(a + da, b + db, gamma + dg) for da in (-h, h) for db in (-h, h) for dg in (-h, h)]
        angle = np.array([oracle.bicep_angle(*c, length) for c in corners])
        tension = np.array([oracle.weight_n(500.0) * 120.0 * length / (c[0] * c[1]) for c in corners])
        if not (oracle.close(cols[0], theta_rev)
                and within(cols[1], angle, 1e-6) and within(cols[2], tension, 1e-9)):
            outcome.wrong.append("bicep sweep disagrees with the linkage and two-phase law")


class SenseLog(OneCommand):
    """tsakit sense on a ~200k-row resistance log with creep, transients and noise.

    Chosen because CSV reading and per-sample deconvolution dominate while
    model, hysteresis and calibration are unused: the bypass workload for
    model-kernel work, and the read-side counterpart of simulate_hyst's
    CSV writes.
    """

    ROWS = 200_000
    rates = (("sense_samples_per_s", "samples/s", None, ROWS),)
    DT_S = 0.01
    PARAMS = {"r0_ohm": 120.0, "sensitivity_ohm_per_pct": -0.8, "tau_transient_s": 4.0,
              "transient_gain_ohm_per_pct": -0.25, "creep_rate_ohm_per_cycle": 0.9,
              "creep_saturation_ohm": 4.5}
    NOISE_OHM = 0.003
    # The inversion is exact but for the creep baseline, which is fitted
    # and drifts slowly. So the error's fast part (off a 10 s moving
    # average) must stay at the noise floor NOISE_OHM / |sensitivity + gain|,
    # and the whole error must stay a small share of the stroke.
    FAST_ERROR_LIMIT = 1.05              # times the noise floor
    RMSE_LIMIT_OF_STROKE = 0.1
    SLOW_WINDOW = 1001                   # samples, 10 s

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 3])
        period = float(rng.uniform(30.0, 50.0))
        self.stroke = float(rng.uniform(3.0, 8.0))
        time_text = [f"{v:.10g}" for v in np.arange(self.ROWS) * self.DT_S]
        self.times = np.array(time_text, dtype=float)
        self.truth = -self.stroke * (1.0 - np.cos(TWO_PI * self.times / period)) / 2.0
        p = self.PARAMS
        resistance = (
            p["r0_ohm"] + p["sensitivity_ohm_per_pct"] * self.truth
            + oracle.transient(p["transient_gain_ohm_per_pct"], p["tau_transient_s"],
                               self.truth, self.times)
            + oracle.creep(p["creep_rate_ohm_per_cycle"], p["creep_saturation_ohm"],
                           self.times / period)
            + rng.normal(0.0, self.NOISE_OHM, self.ROWS)
        )
        self.items = self.ROWS
        self.log = work / "resistance.csv"
        self.log.write_text(
            "time_s,resistance_ohm\n"
            + "".join(f"{t},{r:.10g}\n" for t, r in zip(time_text, resistance)),
            encoding="utf-8",
        )
        self.config = work / "sense.ini"
        self.config.write_text(
            "[sensing]\n" + "".join(f"{k} = {v}\n" for k, v in p.items()), encoding="utf-8")
        self.out = work / "strain.csv"
        self.outputs = (self.out,)
        self.command = "sense"
        self.argv = ["sense", str(self.log), "--config", str(self.config), "--out", str(self.out)]
        self.digest = None
        self.rmse = None

    def check(self, result):
        outcome = super().check(result)
        outcome.strain_rmse_pct = self.rmse
        return outcome

    def verify(self):
        """Recovered strain against the generating history."""
        cols = np.array(read_numeric_csv(self.out, ("time_s", "strain_pct")), dtype=float)
        if not np.all(np.isfinite(cols)):
            return NON_FINITE
        error = cols[1] - self.truth
        self.rmse = float(np.sqrt(np.mean(error**2)))
        fast = error - oracle.moving_average(error, self.SLOW_WINDOW)
        fast_rms = float(np.sqrt(np.mean(fast**2)))
        p = self.PARAMS
        floor = self.NOISE_OHM / abs(p["sensitivity_ohm_per_pct"] + p["transient_gain_ohm_per_pct"])
        if not oracle.close(cols[0], self.times):
            return "sense time column differs from the log"
        if not fast_rms <= self.FAST_ERROR_LIMIT * floor:
            return f"fast strain error {fast_rms:.4g}% above the noise floor {floor:.4g}%"
        if not self.rmse <= self.RMSE_LIMIT_OF_STROKE * self.stroke:
            return f"strain RMSE {self.rmse:.4g}% over a {self.stroke:.3g}% stroke"
        return None


WORKLOADS = {"simulate_hyst": SimulateHyst, "fit_batch": FitBatch, "sense_log": SenseLog}
