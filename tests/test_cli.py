"""End-to-end tests of the command line driver.

Every test invokes main() in-process with real files, checking exit
codes, stdout/stderr wording, and output CSV content.
"""

import configparser
import csv
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsakit.cli import (
    EXIT_GATE,
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    build_parser,
    main,
)
from tsakit.config import bundled_stiff_path, parse_config, read_experiment_log
from tsakit.errors import TsaError
from tsakit.model import Material, StringSpec
from tsakit.training import (
    DEFAULT_TRAINING_SHORTENING,
    TrainingState,
    operating_length,
    stage_of,
)

MODEL_CONFIG = """\
[string]
diameter_mm = 1.3
initial_length_mm = 214.3
material = stiff

[load]
mass_g = 2900

[model]
r_eff_mm = 0.86
theta_star_rev = 28.0
coil_diameter_mm = 4.3
coil_pitch_mm = 2.6
eta = 0.11
"""

CALIBRATED_CONFIG = f"""\
[string]
diameter_mm = 1.3
initial_length_mm = 214.3
material = stiff

[load]
mass_g = 2900

[calibration]
observations = {bundled_stiff_path()}
row = 2
"""

SENSING_CONFIG = """\
[sensing]
r0_ohm = 120
sensitivity_ohm_per_pct = -0.8
tau_transient_s = 4.0
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv_columns(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    return {
        name: [row[name] for row in rows] for name in reader.fieldnames
    }


class TestSize:
    def test_prints_rounded_length(self, capsys):
        assert main(["size", "10", "0.7"]) == EXIT_OK
        assert capsys.readouterr().out == "14.29\n"

    def test_second_example(self, capsys):
        assert main(["size", "20", "0.6"]) == EXIT_OK
        assert capsys.readouterr().out == "33.33\n"

    def test_bad_fraction_is_input_error(self, capsys):
        assert main(["size", "10", "1.5"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_accepted(self, capsys):
        assert main(["--seed", "3", "size", "10", "0.7"]) == EXIT_OK
        assert capsys.readouterr().out == "14.29\n"

    @pytest.mark.parametrize("displacement", ["nan", "inf", "-inf"])
    def test_non_finite_displacement_is_input_error(self, capsys, displacement):
        # "--" keeps argparse from reading "-inf" as an option.
        assert main(["size", "--", displacement, "0.5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: required displacement must be nonnegative and finite\n"


class TestSimulate:
    @pytest.mark.parametrize(
        "text, message",
        [
            (MODEL_CONFIG + "\n[run]\nseed = 7\n", "unknown section [run]"),
            (MODEL_CONFIG + "\n[run]\nout = foo.csv\n", "unknown section [run]"),
            (
                MODEL_CONFIG.replace("stiff\n", "stiff\nbundle_regular_mm = 2.6\n"),
                "unknown key 'bundle_regular_mm'",
            ),
            (
                MODEL_CONFIG.replace("stiff\n", "stiff\nbundle_overtwist_mm = 5.2\n"),
                "unknown key 'bundle_overtwist_mm'",
            ),
            (CALIBRATED_CONFIG + "n_starts = 8\n", "unknown key 'n_starts'"),
        ],
    )
    def test_ignored_config_keys_are_input_errors(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, text, "run.ini")
        profile = "triangle:amplitude_rev=10,period_s=60,samples=11"
        assert main(["simulate", profile, "--config", cfg]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["thresholds_rev", "weights_mm"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_hysteresis_values_rejected(self, tmp_path, capsys, key, bad):
        values = {"thresholds_rev": "0, 2", "weights_mm": "0, 0.3"}
        values[key] = f"0, {bad}"
        text = MODEL_CONFIG + "\n[hysteresis]\n" + "".join(
            f"{name} = {value}\n" for name, value in values.items()
        )
        cfg = write(tmp_path, text, "run.ini")
        out = tmp_path / "sim.csv"
        profile = "triangle:amplitude_rev=10,period_s=60,samples=11"
        assert main(["simulate", profile, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad value for hysteresis.{key} in {cfg}: '0, {bad}'\n"
        )
        assert not out.exists()

    def test_weight_at_threshold_zero_rejected(self, tmp_path, capsys):
        # The stop operator at threshold 0 is identically 0, so simulate
        # would ignore that weight.
        text = MODEL_CONFIG + "\n[hysteresis]\nthresholds_rev = 0, 2\nweights_mm = 0.1, 0.3\n"
        cfg = write(tmp_path, text, "run.ini")
        out = tmp_path / "sim.csv"
        profile = "triangle:amplitude_rev=10,period_s=60,samples=11"
        assert main(["simulate", profile, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad value for hysteresis.weights_mm in {cfg}: '0.1, 0.3'; "
            "the weight at threshold 0 must be 0, got 0.1\n"
        )
        assert not out.exists()

    def test_triangle_profile_reaches_total_contraction(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        out = str(tmp_path / "sim.csv")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=36,period_s=60,samples=241",
                "--config",
                cfg,
                "--out",
                out,
            ]
        )
        assert code == EXIT_OK
        assert "wrote 241 samples" in capsys.readouterr().out
        cols = read_csv_columns(out)
        assert list(cols) == [
            "time_s",
            "theta_rev",
            "length_mm",
            "strain_pct",
            "speed_mm_s",
            "torque_Nm",
            "coil_count",
            "phase",
        ]
        strain = np.array([float(v) for v in cols["strain_pct"]])
        theta = np.array([float(v) for v in cols["theta_rev"]])
        assert theta.max() == pytest.approx(36.0)
        assert strain.min() == pytest.approx(-70.94, abs=0.5)
        assert strain[0] == pytest.approx(0.0, abs=1e-9)
        # The phase column flips exactly once on the way up and once on
        # the way back down.
        phases = cols["phase"]
        flips = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert flips == 2
        assert set(phases) == {"regular", "overtwist"}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        profile = "triangle:amplitude_rev=36,period_s=60,samples=121"
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", profile, "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["simulate", profile, "--config", cfg, "--out", out2]) == EXIT_OK
        assert (
            (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        )

    def test_calibration_section_fits_parameters(self, tmp_path):
        cfg = write(tmp_path, CALIBRATED_CONFIG, "run.ini")
        out = str(tmp_path / "sim.csv")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=36,period_s=60,samples=241",
                "--config",
                cfg,
                "--out",
                out,
            ]
        )
        assert code == EXIT_OK
        strain = np.array(
            [float(v) for v in read_csv_columns(out)["strain_pct"]]
        )
        assert strain.min() == pytest.approx(-70.94, abs=0.5)

    def test_zero_amplitude_profile_is_flat(self, tmp_path):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        out = str(tmp_path / "sim.csv")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=0,period_s=60,samples=41",
                "--config",
                cfg,
                "--out",
                out,
            ]
        )
        assert code == EXIT_OK
        lengths = {v for v in read_csv_columns(out)["length_mm"]}
        assert lengths == {"214.3"}

    def test_file_profile(self, tmp_path):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        log = write(
            tmp_path,
            "time_s,theta_rev\n0.0,0.0\n1.0,10.0\n2.0,20.0\n",
            "profile.csv",
        )
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", log, "--config", cfg, "--out", out]) == EXIT_OK
        cols = read_csv_columns(out)
        assert cols["theta_rev"] == ["0", "10", "20"]

    def test_non_finite_twist_in_profile_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        log = write(
            tmp_path, "time_s,theta_rev\n0.0,0.0\n1.0,inf\n2.0,20.0\n", "profile.csv"
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: line 3: {log}: non-finite number 'inf' in column theta_rev\n"
        )
        assert not out.exists()

    def test_negative_twist_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        code = main(
            [
                "simulate",
                "ramp:rate_rev_s=-1.0,duration_s=10",
                "--config",
                cfg,
            ]
        )
        assert code == EXIT_INPUT
        assert "negative twist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, option, value",
        [
            ("triangle:amplitude_rev=10,period_s=1,samples=0", "samples", "0"),
            ("triangle:amplitude_rev=10,period_s=1,samples=-5", "samples", "-5"),
            ("triangle:amplitude_rev=10,period_s=1,samples=2.7", "samples", "2.7"),
            ("triangle:amplitude_rev=10,period_s=1,cycles=0", "cycles", "0"),
            ("triangle:amplitude_rev=10,period_s=1,cycles=inf", "cycles", "inf"),
            ("triangle:amplitude_rev=10,period_s=-1", "period_s", "-1"),
            ("triangle:amplitude_rev=nan,period_s=1", "amplitude_rev", "nan"),
            ("ramp:rate_rev_s=1,duration_s=0,samples=3", "duration_s", "0"),
            ("ramp:rate_rev_s=1,duration_s=inf", "duration_s", "inf"),
            ("ramp:rate_rev_s=-inf,duration_s=1", "rate_rev_s", "-inf"),
            ("ramp:rate_rev_s=1,duration_s=1,samples=nan", "samples", "nan"),
        ],
    )
    def test_bad_generator_option_is_input_error(self, tmp_path, capsys, profile, option, value):
        rule = {
            "samples": "a whole number >= 1",
            "cycles": "a whole number >= 1",
            "period_s": "positive and finite",
            "duration_s": "positive and finite",
            "amplitude_rev": "finite",
            "rate_rev_s": "finite",
        }[option]
        # With [training], simulate checks the gate on the profile's largest
        # twist, which an empty profile does not have.
        cfg = write(tmp_path, MODEL_CONFIG + "\n[training]\ncycles = 60\n", "run.ini")
        out = tmp_path / "sim.csv"
        assert main(["simulate", profile, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        message = f"error: profile option {option} must be {rule}, got {value}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("triangle:amplitude_rev,period_s=1",
             "bad profile option 'amplitude_rev'; expected key=value"),
            ("triangle:amplitude_rev=x,period_s=1", "bad profile option value 'amplitude_rev=x'"),
            ("triangle:amplitude_rev=10", "profile 'triangle' requires period_s"),
            ("triangle:amplitude_rev=10,period_s=1,bogus=1", "unknown profile options ['bogus']"),
            ("ramp:rate_rev_s=1,duration_s=1,cycles=2", "unknown profile options ['cycles']"),
        ],
    )
    def test_generator_refusals_word_for_word(self, tmp_path, capsys, profile, message):
        # [model] gives the parameters, which are resolved before the profile.
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        out = tmp_path / "sim.csv"
        assert main(["simulate", profile, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_blank_generator_token_is_skipped(self, tmp_path):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        written = []
        for profile in ("triangle:amplitude_rev=10,,period_s=1", "triangle:amplitude_rev=10,period_s=1"):
            out = tmp_path / f"sim{len(written)}.csv"
            assert main(["simulate", profile, "--config", cfg, "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "text, message",
        [
            (MODEL_CONFIG[: MODEL_CONFIG.index("[model]")],
             "{cfg} gives no [model] parameters and no [calibration] observations "
             "to fit them from"),
            (CALIBRATED_CONFIG.replace("row = 2", "row = 9"),
             "bad value for calibration.row in {cfg}: 9 is outside 1..3"),
        ],
        ids=["no-parameters", "row-outside-table"],
    )
    def test_calibration_row_refusals_word_for_word(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, text, "run.ini")
        out = tmp_path / "sim.csv"
        argv = ["simulate", "triangle:amplitude_rev=10,period_s=1", "--config", cfg]
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")
        assert not out.exists()

    def test_unknown_profile_generator(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        assert (
            main(["simulate", "sine:amplitude_rev=3", "--config", cfg])
            == EXIT_INPUT
        )
        assert "unknown profile generator" in capsys.readouterr().err

    def test_profile_neither_file_nor_generator(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        assert main(["simulate", "nonsense", "--config", cfg]) == EXIT_INPUT
        assert "neither a file nor a generator" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG + "\n[string]\n", "bad.ini")
        code = main(
            ["simulate", "ramp:rate_rev_s=1,duration_s=5", "--config", cfg]
        )
        assert code == EXIT_INPUT

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # One simplex iteration cannot converge, and the driver must say
        # so with the dedicated exit code.
        cfg = write(
            tmp_path, CALIBRATED_CONFIG + "max_iter = 1\n", "run.ini"
        )
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=36,period_s=60,samples=41",
                "--config",
                cfg,
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "converge" in capsys.readouterr().err


# The README's bicep block, sweeping to theta_max_rev.
README_BICEP = """
[bicep]
a_mm = 83
b_mm = 151
gamma_deg = 142.5
payload_g = 500
forearm_length_mm = 120
theta_max_rev = {peak}
samples = {samples}
"""

GATE_ERROR = (
    "error: profile overtwists a stiff string before training reached the uniform "
    "stage at or below the operating load; train for 50 cycles at <= 2900 g first\n"
)


def run_command(tmp_path, capsys, command, text, peak):
    """Exit code, stderr and CSV path of simulate or bicep twisting 0..peak rev.

    simulate ramps to peak in 11 samples; bicep sweeps to the config's
    theta_max_rev.
    """
    cfg = write(tmp_path, text, f"{command}.ini")
    out = tmp_path / f"{command}.csv"
    argv = [command]
    if command == "simulate":
        argv.append(f"ramp:rate_rev_s={peak},duration_s=1,samples=11")
    code = main([*argv, "--config", cfg, "--out", str(out)])
    return code, capsys.readouterr().err, out


class TestTrainingGate:
    """One gate, run by simulate and bicep on their twist schedules."""

    def gate_config(self, cycles):
        return MODEL_CONFIG + f"\n[training]\ncycles = {cycles}\ntrained_load_g = 2900\n"

    @pytest.mark.parametrize("peak", [20, 35])
    @pytest.mark.parametrize("trained_load", [2000, 2900, 4000])
    @pytest.mark.parametrize("cycles", [0, 10, 49, 50, 60])
    @pytest.mark.parametrize("material", ["stiff", "compliant"])
    def test_simulate_and_bicep_gate_alike(
        self, tmp_path, capsys, material, cycles, trained_load, peak
    ):
        text = (
            MODEL_CONFIG.replace("material = stiff", f"material = {material}")
            + f"\n[training]\ncycles = {cycles}\ntrained_load_g = {trained_load}\n"
            + README_BICEP.format(peak=peak, samples=11)
        )
        gated = material == "stiff" and peak > 28 and not (cycles >= 50 and trained_load <= 2900)
        runs = [run_command(tmp_path, capsys, c, text, peak) for c in ("simulate", "bicep")]
        for code, err, out in runs:
            if gated:
                assert (code, err) == (EXIT_GATE, GATE_ERROR)
                assert not out.exists()
            else:
                assert (code, err) == (EXIT_OK, "")
                assert out.exists()

    @pytest.mark.parametrize("command", ["simulate", "bicep"])
    def test_gate_opens_up_to_theta_star(self, tmp_path, capsys, command):
        # Twist exactly at theta_star is still the regular phase.
        text = self.gate_config(0) + README_BICEP.format(peak=28, samples=11)
        code, err, out = run_command(tmp_path, capsys, command, text, 28)
        assert (code, err) == (EXIT_OK, "")
        assert out.exists()

    def test_bicep_with_readme_training(self, tmp_path, capsys):
        # An untrained string may not sweep into the overtwist; a trained
        # one sweeps exactly as a string with no [training] at all.
        bicep = README_BICEP.format(peak=35, samples=121)
        code, err, out = run_command(
            tmp_path, capsys, "bicep", self.gate_config(0) + bicep, 35
        )
        assert (code, err) == (EXIT_GATE, GATE_ERROR)
        assert not out.exists()
        code, _, out = run_command(tmp_path, capsys, "bicep", MODEL_CONFIG + bicep, 35)
        assert code == EXIT_OK
        plain = out.read_bytes()
        out.unlink()
        code, _, out = run_command(tmp_path, capsys, "bicep", self.gate_config(60) + bicep, 35)
        assert code == EXIT_OK
        assert out.read_bytes() == plain

    def test_untrained_overtwist_blocked(self, tmp_path, capsys):
        cfg = write(tmp_path, self.gate_config(10), "run.ini")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=36,period_s=60,samples=41",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "sim.csv"),
            ]
        )
        assert code == EXIT_GATE
        err = capsys.readouterr().err
        assert "50 cycles" in err

    def test_trained_overtwist_allowed(self, tmp_path):
        cfg = write(tmp_path, self.gate_config(60), "run.ini")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=36,period_s=60,samples=41",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "sim.csv"),
            ]
        )
        assert code == EXIT_OK

    def test_regular_phase_needs_no_training(self, tmp_path):
        cfg = write(tmp_path, self.gate_config(10), "run.ini")
        code = main(
            [
                "simulate",
                "triangle:amplitude_rev=20,period_s=60,samples=41",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "sim.csv"),
            ]
        )
        assert code == EXIT_OK


def stepped_train_stdout(cycles, thresholds, spec=None, shortening=DEFAULT_TRAINING_SHORTENING):
    """What train prints, by stepping the training state one cycle at a time."""
    current = stage_of(0, thresholds)
    lines = [f"cycle 0: {current.name.lower()}"]
    running = TrainingState(thresholds=thresholds, shortening=shortening)
    for cycle in range(1, cycles + 1):
        running = TrainingState(cycle, thresholds=thresholds, shortening=shortening)
        if running.stage is not current:
            current = running.stage
            lines.append(f"cycle {cycle}: {current.name.lower()}")
    done = current.name == "UNIFORM"
    lines.append(f"after {cycles} cycles: {current.name.lower()}")
    if spec is not None and done:
        lines.append(f"trained untwisted length: {operating_length(spec, running):.6g} mm")
    if not done:
        lines.append(f"{thresholds[2] - cycles} more cycles until uniform coiling")
    return "".join(line + "\n" for line in lines)


STIFF_STRING = "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\nmaterial = stiff\n"


class TestTrain:
    @pytest.mark.parametrize(
        "text, thresholds, shortening",
        [
            (None, (6, 11, 50), DEFAULT_TRAINING_SHORTENING),
            (STIFF_STRING, (6, 11, 50), DEFAULT_TRAINING_SHORTENING),
            ("[training]\nthresholds = 2, 5, 9\n", (2, 5, 9), DEFAULT_TRAINING_SHORTENING),
            (
                STIFF_STRING + "[training]\nthresholds = 7, 30, 91\nshortening_fraction = 0.05\n",
                (7, 30, 91),
                0.05,
            ),
        ],
        ids=["defaults", "string", "thresholds", "string-thresholds"],
    )
    def test_stdout_matches_stepped_cycles(self, tmp_path, capsys, text, thresholds, shortening):
        spec = None
        option = []
        if text is not None:
            option = ["--config", write(tmp_path, text, "train.ini")]
            if text.startswith("[string]"):
                spec = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF)
        for cycles in range(121):
            assert main(["train", str(cycles), *option]) == EXIT_OK
            expected = stepped_train_stdout(cycles, thresholds, spec, shortening)
            assert capsys.readouterr().out == expected, cycles

    @pytest.mark.parametrize(
        "section, done, thresholds",
        [("cycles = 4\n", 4, (6, 11, 50)), ("cycles = 3\nthresholds = 2, 5, 9\n", 3, (2, 5, 9))],
        ids=["defaults", "thresholds"],
    )
    def test_counts_on_from_config_cycles(self, tmp_path, capsys, section, done, thresholds):
        # train N after C configured cycles prints what a fresh string
        # trained for C + N cycles would, across every threshold.
        cfg = write(tmp_path, STIFF_STRING + "[training]\n" + section, "train.ini")
        spec = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF)
        for cycles in range(thresholds[2] + 3 - done):
            assert main(["train", str(cycles), "--config", cfg]) == EXIT_OK
            expected = stepped_train_stdout(done + cycles, thresholds, spec)
            assert capsys.readouterr().out == expected, cycles

    def test_trained_string_is_uniform_before_any_new_cycle(self, tmp_path, capsys):
        cfg = write(tmp_path, STIFF_STRING + "[training]\ncycles = 60\n", "train.ini")
        assert main(["train", "0", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == (
            "cycle 0: perpendicular\ncycle 6: mixed\ncycle 11: inline_uneven\n"
            "cycle 50: uniform\nafter 60 cycles: uniform\n"
            "trained untwisted length: 210.014 mm\n"
        )

    def test_huge_cycle_count(self, capsys):
        assert main(["train", "1000000000000"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "cycle 0: perpendicular\ncycle 6: mixed\ncycle 11: inline_uneven\n"
            "cycle 50: uniform\nafter 1000000000000 cycles: uniform\n"
        )

    def test_stage_trajectory(self, capsys):
        assert main(["train", "60"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cycle 0: perpendicular" in out
        assert "cycle 6: mixed" in out
        assert "cycle 11: inline_uneven" in out
        assert "cycle 50: uniform" in out
        assert "after 60 cycles: uniform" in out

    def test_remaining_cycles_reported(self, capsys):
        assert main(["train", "20"]) == EXIT_OK
        assert "30 more cycles until uniform coiling" in capsys.readouterr().out

    def test_compliant_skips_training(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "[string]\ndiameter_mm = 1.05\ninitial_length_mm = 210\n"
            "material = compliant\nply = 6\n",
            "run.ini",
        )
        assert main(["train", "0", "--config", cfg]) == EXIT_OK
        assert "training not required" in capsys.readouterr().out

    def test_trained_length_reported(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\n"
            "material = stiff\n",
            "run.ini",
        )
        assert main(["train", "60", "--config", cfg]) == EXIT_OK
        assert "trained untwisted length: 210.014 mm" in capsys.readouterr().out


class TestStrictTraining:
    """[training] values are checked when the config is read, by every command."""

    STIFF = "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\nmaterial = stiff\n"

    def simulate(self, tmp_path, training):
        cfg = write(tmp_path, MODEL_CONFIG + "\n[training]\ncycles = 60\n" + training, "run.ini")
        return main(
            [
                "simulate",
                "triangle:amplitude_rev=20,period_s=60,samples=41",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "sim.csv"),
            ]
        )

    @pytest.mark.parametrize("value", ["5.0", "1.0", "-0.5", "nan", "inf"])
    def test_train_rejects_shortening_fraction_outside_unit_interval(self, tmp_path, capsys, value):
        cfg = write(tmp_path, self.STIFF + f"\n[training]\nshortening_fraction = {value}\n", "run.ini")
        assert main(["train", "2", "--config", cfg]) == EXIT_INPUT
        assert "training.shortening_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "5.0"])
    def test_simulate_rejects_shortening_fraction_it_does_not_use(self, tmp_path, capsys, value):
        assert self.simulate(tmp_path, f"shortening_fraction = {value}\n") == EXIT_INPUT
        assert "training.shortening_fraction" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_train_and_simulate_reject_bad_trained_load(self, tmp_path, capsys, value):
        assert self.simulate(tmp_path, f"trained_load_g = {value}\n") == EXIT_INPUT
        assert "trained load must be nonnegative and finite" in capsys.readouterr().err
        cfg = write(tmp_path, self.STIFF + f"\n[training]\ntrained_load_g = {value}\n", "train.ini")
        assert main(["train", "60", "--config", cfg]) == EXIT_INPUT
        assert "trained load must be nonnegative and finite" in capsys.readouterr().err


class TestCounts:
    """Counts from the command line and the config file are whole and in range."""

    def test_negative_train_cycles(self, capsys):
        assert main(["train", "-3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cycles must be nonnegative, got -3\n"

    def test_negative_max_iter_option(self, capsys):
        assert main(["calibrate", bundled_stiff_path(), "--max-iter", "-1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-iter must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "argv, text, key, value",
        [
            (
                ["simulate", "triangle:amplitude_rev=10,period_s=60,samples=11"],
                CALIBRATED_CONFIG + "max_iter = -1\n",
                "calibration.max_iter",
                "-1",
            ),
            (
                ["train", "60"],
                MODEL_CONFIG + "\n[training]\ncycles = -1\n",
                "training.cycles",
                "-1",
            ),
            (["bicep"], MODEL_CONFIG + "\n[bicep]\nsamples = -1\n", "bicep.samples", "-1"),
            (["bicep"], MODEL_CONFIG + "\n[bicep]\nsamples = 0\n", "bicep.samples", "0"),
            # Checked when read, though train fits nothing from [calibration].
            (["train", "0"], CALIBRATED_CONFIG.replace("row = 2", "row = 0"),
             "calibration.row", "0"),
            # int() would drop the fraction and gate at cycle 6.
            (
                ["train", "0"],
                MODEL_CONFIG + "\n[training]\nthresholds = 6.9, 11, 50\n",
                "training.thresholds",
                "6.9, 11, 50",
            ),
            (
                ["simulate", "triangle:amplitude_rev=36,period_s=60,samples=41"],
                MODEL_CONFIG + "\n[training]\ncycles = 6\nthresholds = 2, 5.5, 6\n",
                "training.thresholds",
                "2, 5.5, 6",
            ),
        ],
    )
    def test_config_count_out_of_range(self, tmp_path, capsys, argv, text, key, value):
        cfg = write(tmp_path, text, "run.ini")
        assert main([*argv, "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad value for {key} in {cfg}: '{value}'\n"


    # 1e308 rev is finite, but overflows in rad.
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-inf", "-1", "1e308"])
    def test_bicep_theta_max_out_of_range(self, tmp_path, capsys, value):
        # Refused when the config is read, ahead of the training gate an
        # untrained string would otherwise meet first.
        text = (
            MODEL_CONFIG
            + "\n[training]\ncycles = 0\n"
            + README_BICEP.format(peak=value, samples=11)
        )
        cfg = write(tmp_path, text, "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad value for bicep.theta_max_rev in {cfg}: '{value}'\n"
        assert not out.exists()


# A valid stiff row with every endpoint and the compliant row with none.
VALID_OBSERVATION_ROWS = [
    "1.3,214.3,stiff,1,2900,36,29.08,70.94,6.34,14.32,0.243,0.454,",
    "1.05,210.0,compliant,6,200,25,11.25,58.14,,,,,",
]


@st.composite
def mutated_observation_rows(draw):
    """(row, mutation): a valid observation row with one field changed, added or removed."""
    fields = draw(st.sampled_from(VALID_OBSERVATION_ROWS)).split(",")
    index = draw(st.integers(0, len(fields) - 1))
    bad = st.sampled_from(["", "abc", "inf", "-inf", "nan", "-1", "0", "rubber"])
    mutation = draw(st.sampled_from(["value", "extra", "missing"]))
    if mutation == "value":
        fields[index] = draw(bad)
    elif mutation == "extra":
        fields.insert(index, draw(bad | st.sampled_from(["1", "2.5"])))
    else:
        del fields[index]
    return ",".join(fields), mutation


class TestCalibrate:
    def test_fits_bundled_rows_and_writes_params(self, tmp_path, capsys):
        out = str(tmp_path / "params.ini")
        code = main(["calibrate", bundled_stiff_path(), "--out", out])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("converged") == 3
        assert "NOT converged" not in stdout
        parser = configparser.ConfigParser()
        parser.read(out)
        assert set(parser.sections()) == {
            "fit_1_1mm_2000g",
            "fit_2_1.3mm_2900g",
            "fit_3_2mm_3400g",
        }
        section = parser["fit_2_1.3mm_2900g"]
        assert section["converged"] == "true"
        assert float(section["residual"]) < 1e-2
        # Fitted radius sits in the physical box: half to twice the
        # string diameter.
        assert 0.65 <= float(section["r_eff_mm"]) <= 2.6
        assert 0.0 < float(section["theta_star_rev"]) < float(section["theta_max_rev"])

    def test_contraction_comparison_printed(self, capsys):
        assert main(["calibrate", bundled_stiff_path()]) == EXIT_OK
        out = capsys.readouterr().out
        assert "contraction_regular_pct: model 29.080 vs observed 29.080" in out
        assert "contraction_total_pct: model 70.940 vs observed 70.940" in out

    def test_iteration_starved_run_reports_failure(self, capsys):
        code = main(["calibrate", bundled_stiff_path(), "--max-iter", "1"])
        assert code == EXIT_NO_CONVERGENCE
        assert "NOT converged" in capsys.readouterr().out

    def test_plateau_fit_reports_not_converged_and_continues(self, tmp_path, capsys):
        # Row 1 is infeasible in its whole default box: theta_star * r_eff
        # reaches the 25 mm string length everywhere, so the fit can only
        # end on the penalty plateau.
        with open(bundled_stiff_path(), encoding="utf-8") as handle:
            header, *rows = handle.read().splitlines()
        infeasible = "1.0,25,stiff,1,1000,400,28.9,68.22,,,,,"
        observations = write(
            tmp_path, "\n".join([header, infeasible, *rows]) + "\n", "obs.csv"
        )
        out = str(tmp_path / "params.ini")
        code = main(["calibrate", observations, "--out", out])
        assert code == EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "fit_1_1mm_1000g: residual 1.000e+09" in captured.out
        assert "NOT converged" in captured.out.splitlines()[0]
        parser = configparser.ConfigParser()
        parser.read(out)
        assert len(parser.sections()) == 4
        assert parser["fit_1_1mm_1000g"]["converged"] == "false"

    def test_starts_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["calibrate", bundled_stiff_path(), "--starts", "8"])
        assert raised.value.code == EXIT_INPUT
        assert "unrecognized arguments: --starts 8" in capsys.readouterr().err

    def test_nonfinite_endpoint_is_located_input_error(self, tmp_path, capsys):
        with open(bundled_stiff_path(), encoding="utf-8") as handle:
            text = handle.read().replace(",0.243,", ",nan,")
        observations = write(tmp_path, text, "obs.csv")
        assert main(["calibrate", observations]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 3: {observations}: max_torque_regular_nm must be "
            "positive and finite when given\n"
        )

    def test_every_single_field_deletion_is_located_input_error(self, tmp_path, capsys):
        # A missing field would shift every later value one column left.
        with open(bundled_stiff_path(), encoding="utf-8") as handle:
            header, first, row, *rest = handle.read().splitlines()
        fields = row.split(",")
        for index in range(len(fields)):
            short = ",".join(fields[:index] + fields[index + 1 :])
            text = "\n".join([header, first, short, *rest]) + "\n"
            observations = write(tmp_path, text, "obs.csv")
            assert main(["calibrate", observations]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: line 3: {observations}: row has 12 fields, header has 13\n"
            )

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["calibrate", str(tmp_path / "none.csv")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_observation_rows())
    def test_mutated_row_fits_finite_or_names_the_file(self, tmp_path, capsys, case):
        row, mutation = case
        with open(bundled_stiff_path(), encoding="utf-8") as handle:
            header = handle.readline()
        observations = write(tmp_path, header + row + "\n", "obs.csv")
        out = tmp_path / "params.ini"
        out.unlink(missing_ok=True)
        code = main(["calibrate", observations, "--out", str(out)])
        captured = capsys.readouterr()
        if mutation == "extra":
            assert code == EXIT_INPUT
            assert "row has 14 fields, header has 13" in captured.err
        if mutation == "missing":
            assert code == EXIT_INPUT
            assert "row has 12 fields, header has 13" in captured.err
        if code == EXIT_OK:
            parser = configparser.ConfigParser()
            parser.read(out)
            (section,) = (parser[name] for name in parser.sections())
            for key, value in section.items():
                if key not in ("material", "converged"):
                    assert math.isfinite(float(value)), (key, value)
        else:
            assert code == EXIT_INPUT, captured
            assert captured.err.startswith(f"error: line 2: {observations}: "), captured.err
            assert not out.exists()


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    # main builds its parser once per process. Each call in a run of them,
    # argparse's own exit included, gives what it gives on a fresh parser.
    def calibrate(*options):
        return ["calibrate", bundled_stiff_path(), "--out", "params.ini", *options]

    commands = [
        calibrate(),
        ["size", "10", "0.7"],
        calibrate("--max-iter", "many"),  # argparse refuses it: SystemExit(2)
        calibrate("--max-iter", "30"),
        calibrate(),
    ]

    def run(argv, folder):
        folder.mkdir(parents=True, exist_ok=True)
        argv = [str(folder / arg) if arg == "params.ini" else arg for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = folder / "params.ini"
        written = out.read_bytes() if out.exists() else None
        return code, capsys.readouterr(), written

    fresh = []
    for k, argv in enumerate(commands):
        build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh_{k}"))
    build_parser.cache_clear()
    parser = build_parser()
    reused = [run(argv, tmp_path / f"reused_{k}") for k, argv in enumerate(commands)]
    assert build_parser() is parser
    assert reused == fresh
    # Not vacuous: the calls differ from one another.
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, 2, EXIT_NO_CONVERGENCE, EXIT_OK]
    assert "invalid int value: 'many'" in fresh[2][1].err
    assert fresh[3][2] != fresh[4][2] == fresh[0][2]


@pytest.mark.parametrize("command", ["simulate", "bicep"])
def test_overflowing_coil_circumference_rejected(tmp_path, capsys, command):
    # pi * 1e308 mm overflows: every length would be NaN, written with exit 0.
    text = MODEL_CONFIG.replace("coil_diameter_mm = 4.3", "coil_diameter_mm = 1e308")
    argv = ["simulate", "triangle:amplitude_rev=20,period_s=60,samples=5"]
    if command == "bicep":
        text += ("\n[bicep]\na_mm = 83\nb_mm = 151\ngamma_deg = 142.5\n"
                 "theta_max_rev = 20\nsamples = 5\n")
        argv = ["bicep"]
    out = tmp_path / "out.csv"
    cfg = write(tmp_path, text, "run.ini")
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: bad value for model.coil_diameter_mm in {cfg}: '1e308'; "
        "coil_diameter must give a finite coil circumference\n"
    )
    assert not out.exists()


class TestBicep:
    def bicep_config(self, body):
        return MODEL_CONFIG + "\n[bicep]\n" + body

    def test_explicit_geometry_sweep(self, tmp_path):
        cfg = write(
            tmp_path,
            self.bicep_config(
                "a_mm = 83\nb_mm = 151\ngamma_deg = 142.5\n"
                "payload_g = 500\nforearm_length_mm = 120\n"
                "theta_max_rev = 30\nsamples = 61\n"
            ),
            "run.ini",
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["bicep", "--config", cfg, "--out", out]) == EXIT_OK
        cols = read_csv_columns(out)
        assert list(cols) == ["theta_rev", "angle_deg", "tension_N"]
        angles = np.array([float(v) for v in cols["angle_deg"]])
        tension = np.array([float(v) for v in cols["tension_N"]])
        assert len(angles) == 61
        assert np.all(np.diff(angles) >= 0.0)
        # Tension scales with string length, so it declines as the arm
        # flexes over the sweep.
        assert tension[-1] < tension[0]
        assert np.all(tension > 0.0)

    def test_fitted_geometry_warns_when_inconsistent(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            self.bicep_config(
                "pairs = 215:13.1, 135:73.4, 68:147.1\n"
                "payload_g = 500\nforearm_length_mm = 120\n"
                "theta_max_rev = 30\nsamples = 31\n"
            ),
            "run.ini",
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["bicep", "--config", cfg, "--out", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "fitted geometry: a 83.05 mm, b 151.05 mm" in stdout
        assert "warning: linkage model cannot reproduce the pairs" in stdout

    @pytest.mark.parametrize(
        "pairs", ["100:50, 110:50, 120:50", "100:50, 110:52, 120:54"], ids=["flat", "rising"]
    )
    def test_runaway_pairs_rejected(self, tmp_path, capsys, pairs):
        cfg = write(
            tmp_path, self.bicep_config(f"pairs = {pairs}\ntheta_max_rev = 20\n"), "run.ini"
        )
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad value for bicep.pairs in {cfg}: '{pairs}'; "
            "bending angles do not fall as the string lengthens "
            "(least-squares slope of angle on length is not negative); "
            "the linkage angle falls with length, so such pairs are refused\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "pairs, reason",
        [
            ("1:1e308, 2:-1.5e308, 3:1.7e308",
             "bending angles are too large: "
             "the fit's squared angle errors (deg^2) would overflow"),
            ("1e308:1, 1.5e308:0, 1.7e308:-1",
             "pairs are too large: the least-squares slope of angle on length overflows"),
        ],
        ids=["angles", "lengths"],
    )
    def test_pairs_near_the_float_limit_rejected(self, tmp_path, capsys, pairs, reason):
        # Their slope once overflowed to NaN, which passed the falling-angle
        # check, and the command printed numpy warnings and a 1e308 deg fit.
        cfg = write(
            tmp_path, self.bicep_config(f"pairs = {pairs}\ntheta_max_rev = 20\n"), "run.ini"
        )
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert caught == []
        assert capsys.readouterr() == (
            "", f"error: bad value for bicep.pairs in {cfg}: '{pairs}'; {reason}\n"
        )
        assert not out.exists()

    def test_folded_boundary_fit_exits_ok(self, tmp_path, capsys):
        # The optimum rides b - a = 162.1 mm; a fit missing that boundary
        # by one ulp once crashed this command with a traceback. The sweep
        # stops at 20 rev, where the string is still longer than 162.1 mm.
        cfg = write(
            tmp_path,
            self.bicep_config(
                "pairs = 162.1:59.0, 172.5:47.79, 178.4:50.08, 188.8:44.37\n"
                "theta_max_rev = 20\nsamples = 31\n"
            ),
            "run.ini",
        )
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "fitted geometry: a " in capsys.readouterr().out
        assert len(read_csv_columns(str(out))["angle_deg"]) == 31

    def test_pairs_past_the_arm_lattice_name_the_key(self, tmp_path, capsys):
        # README's config with pairs no lattice cell closes on: refused
        # when the file is read, before any fit or sweep.
        pairs = "900:40, 950:30, 1000:20"
        arms = ("a_mm", "b_mm", "gamma_deg")
        lines = [line for line in README_CONFIG if line.split(" = ")[0] not in arms]
        lines = [f"pairs = {pairs}" if line.startswith("; pairs = ") else line for line in lines]
        cfg = write(tmp_path, "\n".join(lines) + "\n", "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            f"error: bad value for bicep.pairs in {cfg}: '{pairs}'; "
            "no admissible geometry covers the observed lengths\n",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("a_mm", "nan", "; a must be finite, got nan"),
            ("b_mm", "inf", "; b must be finite, got inf"),
            ("gamma_deg", "-inf", "; gamma must be finite, got -inf"),
            # Checked on their own, as fit_bicep takes them with pairs too.
            ("payload_g", "nan", ""),
            ("forearm_length_mm", "inf", ""),
        ],
    )
    def test_non_finite_geometry_rejected(self, tmp_path, capsys, key, value, reason):
        fields = {
            "a_mm": "83", "b_mm": "151", "gamma_deg": "142.5",
            "payload_g": "500", "forearm_length_mm": "120",
        }
        fields[key] = value
        body = "".join(f"{k} = {v}\n" for k, v in fields.items())
        cfg = write(tmp_path, self.bicep_config(body + "theta_max_rev = 30\n"), "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad value for bicep.{key} in {cfg}: '{value}'{reason}\n"
        )
        assert not out.exists()

    def test_non_finite_pairs_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            self.bicep_config("pairs = 215:nan, 135:73.4, 68:147.1\ntheta_max_rev = 30\n"),
            "run.ini",
        )
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad value for bicep.pairs in {cfg}: '215:nan, 135:73.4, 68:147.1'; "
            "pairs must be finite, got 215:nan\n"
        )
        assert not out.exists()

    def test_missing_theta_max_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            self.bicep_config("a_mm = 83\nb_mm = 151\ngamma_deg = 142.5\n"),
            "run.ini",
        )
        assert main(["bicep", "--config", cfg]) == EXIT_INPUT
        assert "theta_max_rev" in capsys.readouterr().err

    def test_missing_geometry_and_pairs_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, self.bicep_config("theta_max_rev = 30\n"), "run.ini")
        assert main(["bicep", "--config", cfg]) == EXIT_INPUT
        assert "a_mm/b_mm/gamma_deg or pairs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, length, interval",
        [("a_mm = 83", "a_mm = 2", "214.3", "[149, 153]"),
         ("b_mm = 151", "b_mm = 250", "166.36", "[167, 333]")],
    )
    def test_geometry_that_cannot_close_on_the_sweep_names_the_file(
        self, tmp_path, capsys, old, new, length, interval
    ):
        # The first swept length outside the triangle's interval: the
        # untwisted string, or one far into the overtwist.
        lines = [new if line == old else line for line in README_CONFIG]
        assert lines != README_CONFIG
        cfg = write(tmp_path, "\n".join(lines) + "\n", "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            f"error: bad [bicep] section in {cfg}: string length {length} mm outside "
            f"the admissible interval {interval} mm\n",
        )
        assert not out.exists()

    def test_singular_pose_on_the_sweep_names_the_file(self, tmp_path, capsys):
        # a + b = 83 + 131.3 mm is the untwisted string: at zero twist the
        # string line passes through the joint.
        lines = ["b_mm = 131.3" if line == "b_mm = 151" else line for line in README_CONFIG]
        assert lines != README_CONFIG
        cfg = write(tmp_path, "\n".join(lines) + "\n", "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            f"error: bad [bicep] section in {cfg}: string line passes through the joint; "
            "tension is indeterminate\n",
        )
        assert not out.exists()


HELIX_ERROR = "helix winding consumed the whole string before theta was reached"


@pytest.mark.parametrize(
    "argv, sections",
    [(["simulate", "triangle:amplitude_rev=20,period_s=60,samples=41"],
      "[string], [load] and [model]"),
     (["bicep"], "[bicep], [string], [load] and [model]")],
    ids=["simulate", "bicep"],
)
def test_helix_limit_names_the_file_and_sections(tmp_path, capsys, argv, sections):
    # r_eff 2 mm winds the whole 214.3 mm string by 214.3 / 2 rad, about
    # 17 rev: short of theta_star, and of the 20 and 30 rev swept.
    lines = ["r_eff_mm = 2" if line == "r_eff_mm = 0.86" else line for line in README_CONFIG]
    assert lines != README_CONFIG
    cfg = write(tmp_path, "\n".join(lines) + "\n", "run.ini")
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: bad {sections} sections in {cfg}: {HELIX_ERROR}\n")
    assert not out.exists()


def test_helix_limit_of_calibrated_parameters_names_calibration(tmp_path, capsys):
    # The fit keeps theta_star * r_eff below its row's string, not below a
    # shorter [string] simulated with it.
    cfg = write(
        tmp_path,
        CALIBRATED_CONFIG.replace("initial_length_mm = 214.3", "initial_length_mm = 30"),
        "run.ini",
    )
    out = tmp_path / "out.csv"
    argv = ["simulate", "triangle:amplitude_rev=20,period_s=60,samples=41"]
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f"error: bad [string], [load] and [calibration] sections in {cfg}: {HELIX_ERROR}\n"
    )
    assert not out.exists()


class TestSense:
    def test_round_trip_strain_estimate(self, tmp_path):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        times = np.linspace(0.0, 120.0, 241)
        position = (times / 60.0) % 1.0
        strains = -35.0 * (1.0 - np.abs(2.0 * position - 1.0))
        resistance = 120.0 + (-0.8) * strains
        log_lines = ["time_s,resistance_ohm"] + [
            f"{t},{r}" for t, r in zip(times, resistance)
        ]
        log = write(tmp_path, "\n".join(log_lines) + "\n", "log.csv")
        out = str(tmp_path / "strain.csv")
        assert main(["sense", log, "--config", cfg, "--out", out]) == EXIT_OK
        cols = read_csv_columns(out)
        estimated = np.array([float(v) for v in cols["strain_pct"]])
        assert estimated.min() == pytest.approx(-35.0, abs=1e-6)
        assert estimated.max() == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("r0_ohm = nan", "baseline resistance must be positive and finite"),
            (
                "sensitivity_ohm_per_pct = nan",
                "sensitivity must be nonzero and finite for invertibility",
            ),
            ("tau_transient_s = inf", "transient time constant must be positive and finite"),
            ("transient_gain_ohm_per_pct = nan", "transient gain must be finite"),
            ("creep_rate_ohm_per_cycle = nan", "creep rate must be nonnegative and finite"),
            ("creep_saturation_ohm = nan", "creep saturation must be positive or inf"),
        ],
    )
    def test_non_finite_sensing_values_rejected(self, tmp_path, capsys, line, message):
        key = line.split(" = ")[0]
        kept = [row for row in SENSING_CONFIG.splitlines() if not row.startswith(key)]
        cfg = write(tmp_path, "\n".join(kept + [line]) + "\n", "run.ini")
        log = write(tmp_path, "time_s,resistance_ohm\n0.0,120.0\n1.0,120.4\n", "log.csv")
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        value = line.split(" = ")[1]
        assert capsys.readouterr().err == (
            f"error: bad value for sensing.{key} in {cfg}: '{value}'; {message}\n"
        )
        assert not out.exists()

    def test_creep_keys_are_ignored(self, tmp_path):
        # sense fits the creep from the log itself; the [sensing] creep
        # keys are checked and then ignored, so the output is byte-identical.
        log = str(Path(__file__).parent / "data" / "sense_log.csv")
        outputs = set()
        for creep in ((0.9, 4.5), (0, "inf"), (7, 1), None):
            text = SENSING_CONFIG + "transient_gain_ohm_per_pct = -0.25\n"
            if creep is not None:
                text += "creep_rate_ohm_per_cycle = {}\ncreep_saturation_ohm = {}\n".format(*creep)
            cfg = write(tmp_path, text, "run.ini")
            out = tmp_path / "strain.csv"
            assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_OK
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_missing_section_names_the_file(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        log = write(tmp_path, "time_s,resistance_ohm\n0.0,120.0\n1.0,120.4\n", "log.csv")
        assert main(["sense", log, "--config", cfg]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {cfg} has no [sensing] section, which this command needs\n"
        )

    def test_missing_resistance_column(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        log = write(tmp_path, "time_s,theta_rev\n0.0,0.0\n1.0,1.0\n", "log.csv")
        assert main(["sense", log, "--config", cfg]) == EXIT_INPUT
        assert "missing required columns" in capsys.readouterr().err

    def test_non_finite_resistance_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        log = write(
            tmp_path,
            "time_s,resistance_ohm\n0.0,120.0\n1.0,nan\n2.0,121.0\n3.0,120.5\n",
            "log.csv",
        )
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: line 3: {log}: non-finite number 'nan' in column resistance_ohm\n"
        )
        assert not out.exists()

    def test_non_finite_time_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        log = write(
            tmp_path,
            "time_s,resistance_ohm\n0.0,120.0\n1.0,120.4\nnan,121.0\n3.0,120.5\n",
            "log.csv",
        )
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: line 4: {log}: non-finite number 'nan' in column time_s\n"
        )
        assert not out.exists()

    def test_short_row_rejected(self, tmp_path, capsys):
        # Read with a blank last cell, the row's force would be its resistance.
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        lines = (DATA / "sense_log.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "time_s,resistance_ohm,force_n"
        time, _, force = lines[100].split(",")
        lines[100] = f"{time},{force}"
        log = write(tmp_path, "\n".join(lines) + "\n", "log.csv")
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: line 101: {log}: row has 2 fields, header has 3\n"
        )
        assert not out.exists()

    def test_row_with_extra_fields_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        log = write(
            tmp_path,
            "time_s,resistance_ohm\n0.0,120.0\n1.0,120.4,7\n2.0,121.0\n",
            "log.csv",
        )
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: line 3: {log}: row has 3 fields, header has 2\n"
        )
        assert not out.exists()


DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
# The README's configuration block, line by line, and its (line, section, key) entries.
README_CONFIG = re.search(
    r"## Configuration format.*?```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S
).group(1).splitlines()
README_KEYS = []
for _index, _line in enumerate(README_CONFIG):
    if _line.startswith("["):
        _section = _line[1 : _line.index("]")]
    elif re.match(r"\w+ = ", _line):
        README_KEYS.append((_index, _section, _line.split(" = ")[0]))
# The README's commented-out optional keys: (line, key).
README_COMMENTED = [
    (index, match.group(1))
    for index, line in enumerate(README_CONFIG)
    if (match := re.match(r"; (\w+) = ", line))
]
BAD_VALUES = ["", "abc", "inf", "-inf", "nan", "-1", "0", "2.5", "1e308", "rubber", "0, 1", "1:2"]
# Each test log, the command that reads it, that command's config and required columns.
LOGS = {
    "profile.csv": ("simulate", MODEL_CONFIG, ("time_s", "theta_rev")),
    "sense_log.csv": ("sense", SENSING_CONFIG, ("time_s", "resistance_ohm")),
}
LOG_COLUMNS = ["time_s", "theta_rev", "length_mm", "force_n", "resistance_ohm", "voltage", ""]


def assert_finite_or_located(code, captured, out, names, read):
    """The fuzz pass rule: exit 0 with a finite CSV, or a one-line error and no CSV.

    out is None for a command that writes no CSV. An exit 2 names one of
    names (the file, or the mutated section.key), unless read() accepts
    the input, so that the refusal is the model's verdict on its values.
    Exit 4 is the training gate's refusal.
    """
    if code == EXIT_OK:
        for column, cells in read_csv_columns(str(out)).items() if out else ():
            if column != "phase":
                assert all(math.isfinite(float(cell)) for cell in cells), column
        return
    assert out is None or not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    if code == EXIT_GATE:
        assert captured.err.startswith(GATE_ERROR[:60]), captured.err
        return
    assert code == EXIT_INPUT, captured
    if not any(name in captured.err for name in names):
        read()


# Every command that reads a config, and whether it writes a CSV.
CONFIG_COMMANDS = [
    (["simulate", "triangle:amplitude_rev=36,period_s=60,samples=41"], True),
    (["bicep"], True),
    (["sense", str(DATA / "sense_log.csv")], True),
    (["train", "0"], False),
]


def run_config_commands(cfg, out, capsys):
    """(argv, exit code, captured output, CSV path or None) of each config command."""
    for argv, writes in CONFIG_COMMANDS:
        out.unlink(missing_ok=True)
        code = main([*argv, "--config", cfg, *(["--out", str(out)] if writes else [])])
        yield argv, code, capsys.readouterr(), out if writes else None


@st.composite
def mutated_readme_configs(draw):
    """(config text, section.key): the README block with one key changed or removed."""
    lines = list(README_CONFIG)
    index, section, key = draw(st.sampled_from(README_KEYS))
    value = draw(st.none() | st.sampled_from(BAD_VALUES))
    if value is None:
        del lines[index]
    else:
        lines[index] = f"{key} = {value}"
    return "\n".join(lines) + "\n", f"{section}.{key}"


@st.composite
def mutated_logs(draw):
    """(log name, text, repeated): a test log with one header name or cell
    changed, added or removed; repeated says whether the header names a
    column twice."""
    name = draw(st.sampled_from(sorted(LOGS)))
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    row = draw(st.sampled_from([0, draw(st.integers(1, len(lines) - 1))]))
    fields = lines[row].split(",")
    index = draw(st.integers(0, len(fields) - 1))
    value = draw(st.sampled_from(LOG_COLUMNS if row == 0 else BAD_VALUES))
    mutation = draw(st.sampled_from(["value", "extra", "missing"]))
    if mutation == "value":
        fields[index] = value
    elif mutation == "extra":
        fields.insert(index, value)
    else:
        del fields[index]
    lines[row] = ",".join(fields)
    header = lines[0].split(",")
    return name, "\n".join(lines) + "\n", len(set(header)) < len(header)


def test_readme_comments_out_each_optional_key():
    assert sorted(key for _, key in README_COMMENTED) == [
        "max_iter", "pairs", "samples", "shortening_fraction", "thresholds"
    ]


@pytest.mark.parametrize("index, key", README_COMMENTED, ids=[k for _, k in README_COMMENTED])
def test_readme_key_reads_once_uncommented(tmp_path, index, key):
    # A comment after the value would be read as part of it.
    lines = list(README_CONFIG)
    lines[index] = lines[index].removeprefix("; ")
    if key == "pairs":    # pairs stand in for the explicit arms, never beside them
        lines = [line for line in lines if not re.match(r"(a_mm|b_mm|gamma_deg) = ", line)]
    parse_config(write(tmp_path, "\n".join(lines) + "\n", "run.ini"))


class TestInputFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_readme_configs())
    def test_mutated_readme_config_runs_finite_or_names_the_key(self, tmp_path, capsys, case):
        text, key = case
        cfg = write(tmp_path, text, "run.ini")
        for _, code, captured, out in run_config_commands(cfg, tmp_path / "out.csv", capsys):
            assert_finite_or_located(code, captured, out, (cfg, key), lambda: parse_config(cfg))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_readme_configs())
    def test_mutated_readme_config_is_read_alike_by_every_command(self, tmp_path, capsys, case):
        # A config is valid or not whatever the command. A config that
        # parse_config refuses gets that refusal from every command; one it
        # reads lets train, which has nothing to refuse past the read, run.
        # Run-time refusals name the config too, so only the read itself
        # tells them apart.
        text, _ = case
        cfg = write(tmp_path, text, "run.ini")
        outcomes = {
            argv[0]: (code, captured.err.partition("\n")[0])
            for argv, code, captured, _ in run_config_commands(cfg, tmp_path / "out.csv", capsys)
        }
        try:
            parse_config(cfg)
        except TsaError as exc:
            refusal = f"error: {exc}".partition("\n")[0]
            assert set(outcomes.values()) == {(EXIT_INPUT, refusal)}, outcomes
        else:
            assert outcomes["train"][0] == EXIT_OK, outcomes

    @pytest.mark.parametrize(
        "old, new, refusal",
        [
            ("eta = 0.11", "eta = 0", "bad value for model.eta in {cfg}: '0'; "
             "eta must lie in (0, 1]"),
            ("r0_ohm = 120", "r0_ohm = -1", "bad value for sensing.r0_ohm in {cfg}: '-1'; "
             "baseline resistance must be positive and finite"),
            ("diameter_mm = 1.3", "diameter_mm = 0", "bad value for string.diameter_mm in "
             "{cfg}: '0'; string diameter must be positive and finite"),
            # With pairs, the arms would be read and then ignored.
            ("; pairs =", "pairs = 215:13.1, 135:73.4, 68:147.1", "bad [bicep] section in "
             "{cfg}: needs either all of a_mm/b_mm/gamma_deg or pairs, not both; "
             "it gives a_mm, b_mm, gamma_deg, pairs"),
            ("gamma_deg =", None, "bad [bicep] section in {cfg}: needs either all of "
             "a_mm/b_mm/gamma_deg or pairs, not both; it gives a_mm, b_mm"),
        ],
    )
    def test_bad_readme_config_is_refused_by_every_command(self, tmp_path, capsys, old, new,
                                                           refusal):
        # The README line that starts with old becomes new, or goes when new is None.
        lines = [new if line.startswith(old) else line for line in README_CONFIG]
        assert lines != README_CONFIG
        text = "\n".join(line for line in lines if line is not None) + "\n"
        cfg = write(tmp_path, text, "run.ini")
        for argv, code, captured, out in run_config_commands(cfg, tmp_path / "out.csv", capsys):
            assert (code, captured.out, captured.err) == (
                EXIT_INPUT, "", f"error: {refusal.format(cfg=cfg)}\n"
            ), argv

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_logs())
    def test_mutated_log_runs_finite_or_names_the_file(self, tmp_path, capsys, case):
        name, text, repeated = case
        command, config, required = LOGS[name]
        cfg = write(tmp_path, config, "run.ini")
        log = write(tmp_path, text, name)
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        code = main([command, log, "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        if repeated:
            assert code == EXIT_INPUT
            assert captured.err.startswith(f"error: line 1: {log}: "), captured.err
        assert_finite_or_located(
            code, captured, out, (log,), lambda: read_experiment_log(log, required)
        )

    def test_repeated_log_column_is_located_input_error(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        log = write(tmp_path, "time_s,theta_rev,theta_rev\n0,0,1\n1,2,3\n", "profile.csv")
        out = tmp_path / "out.csv"
        assert main(["simulate", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: line 1: {log}: repeated columns ['theta_rev']\n"
        )
        assert not out.exists()

    def test_repeated_observation_column_is_located_input_error(self, tmp_path, capsys):
        # Renamed from the speed column, a second diameter_mm would be
        # fitted as every row's diameter.
        text = Path(bundled_stiff_path()).read_text(encoding="utf-8")
        observations = write(
            tmp_path, text.replace("max_speed_regular_mm_s", "diameter_mm"), "obs.csv"
        )
        assert main(["calibrate", observations]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: line 1: {observations}: repeated columns ['diameter_mm']\n"
        )

    # Values near the largest double overflow to inf: the command refuses
    # the result, with no numpy warning on the way (an error in this suite).
    def test_overflowing_tension_is_input_error(self, tmp_path, capsys):
        text = MODEL_CONFIG + README_BICEP.format(peak=30, samples=11).replace(
            "payload_g = 500", "payload_g = 1e308"
        )
        cfg = write(tmp_path, text, "run.ini")
        out = tmp_path / "sweep.csv"
        assert main(["bicep", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: payload 1e+308 g at forearm length 120 mm gives a non-finite string tension\n"
        )
        assert not out.exists()

    def test_twist_overflowing_rad_is_input_error(self, tmp_path, capsys):
        cfg = write(tmp_path, MODEL_CONFIG, "run.ini")
        log = write(tmp_path, "time_s,theta_rev\n0,0\n1,1e308\n", "profile.csv")
        out = tmp_path / "sim.csv"
        assert main(["simulate", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: twist inf rad exceeds the coil capacity")
        assert not out.exists()

    def test_overflowing_resistance_is_input_error(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG, "run.ini")
        lines = (DATA / "sense_log.csv").read_text(encoding="utf-8").splitlines()
        lines[500] = lines[500].split(",")[0] + ",-1e308,28"
        log = write(tmp_path, "\n".join(lines) + "\n", "log.csv")
        out = tmp_path / "strain.csv"
        assert main(["sense", log, "--config", cfg, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: bad [sensing] section in {cfg}: recovered strain nan% at time "
        )
        assert not out.exists()

    def test_cancelling_gain_names_the_file(self, tmp_path, capsys):
        cfg = write(tmp_path, SENSING_CONFIG + "transient_gain_ohm_per_pct = 0.8\n", "run.ini")
        out = tmp_path / "strain.csv"
        argv = ["sense", str(DATA / "sense_log.csv"), "--config", cfg, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: bad [sensing] section in {cfg}: sensitivity and transient gain "
            "cancel; strain steps are unobservable\n"
        )
        assert not out.exists()
