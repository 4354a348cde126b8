"""End-to-end tests of the command line driver.

Every test invokes main() in-process with real files, checking exit
codes, stdout/stderr wording, and output CSV content.
"""

import configparser
import csv

import numpy as np
import pytest

from tsakit.cli import (
    EXIT_GATE,
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from tsakit.config import bundled_stiff_path

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
            f"error: non-finite number in hysteresis.{key}: '0, {bad}'\n"
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


class TestTrainingGate:
    def gate_config(self, cycles):
        return MODEL_CONFIG + f"\n[training]\ncycles = {cycles}\ntrained_load_g = 2900\n"

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


class TestTrain:
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

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["calibrate", str(tmp_path / "none.csv")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


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
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
