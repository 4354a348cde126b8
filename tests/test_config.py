"""Tests for configuration parsing and CSV ingestion.

Everything here goes through real files in tmp_path; the parsers are
strict by contract, so most tests pin down which malformed inputs fail
and that diagnostics carry enough context (section, key, line number).
"""

import math
import re

import pytest

from tsakit.config import (
    ExperimentRecord,
    RunConfig,
    bicep_geometry,
    bicep_pairs,
    bundled_stiff_path,
    format_number,
    load_case,
    model_params,
    parse_config,
    pi_model,
    read_experiment_log,
    read_observations,
    resistance_params,
    string_spec,
    training_state,
    write_csv,
)
from tsakit.errors import ConfigError, CsvFormatError
from tsakit.model import Material
from tsakit.units import rev_to_rad

FULL_CONFIG = """\
[string]
diameter_mm = 1.3
initial_length_mm = 214.3
material = stiff
ply = 1

[load]
mass_g = 2900

[model]
r_eff_mm = 0.86
theta_star_rev = 28.0
coil_diameter_mm = 4.3
coil_pitch_mm = 2.6
eta = 0.11
compliance_mm_per_n = 0.0
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, FULL_CONFIG))
        assert isinstance(cfg, RunConfig)
        spec = string_spec(cfg)
        assert spec.diameter == 1.3
        assert spec.initial_length == 214.3
        assert spec.material is Material.STIFF
        assert spec.ply == 1
        assert load_case(cfg).mass == 2900
        params = model_params(cfg)
        assert params.r_eff == 0.86
        assert params.theta_star == pytest.approx(rev_to_rad(28.0))
        assert params.eta == 0.11

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, FULL_CONFIG + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[string]\ndiameter_mm = 1.3\ncolor = blue\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("\n[run]\nseed = 7\n", "unknown section [run]"),
            ("\n[run]\nout = foo.csv\n", "unknown section [run]"),
        ],
    )
    def test_ignored_run_section_rejected(self, tmp_path, extra, message):
        path = write(tmp_path, FULL_CONFIG + extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)

    @pytest.mark.parametrize("key", ["bundle_regular_mm", "bundle_overtwist_mm"])
    def test_ignored_bundle_keys_rejected(self, tmp_path, key):
        path = write(
            tmp_path,
            "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\n"
            f"material = stiff\n{key} = 2.6\n",
        )
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)

    def test_missing_required_key_rejected(self, tmp_path):
        path = write(
            tmp_path, "[string]\ndiameter_mm = 1.3\ninitial_length_mm = 214.3\n"
        )
        with pytest.raises(ConfigError, match="missing 'material'"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "[load]\nmass_g = 2900\nmass_g = 3000\n",
        )
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write(tmp_path, "[load]\nmass_g = heavy\n")
        with pytest.raises(ConfigError, match="bad value for load.mass_g"):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(str(tmp_path / "absent.ini"))

    def test_bad_material_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("material = stiff", "material = rubber")
        with pytest.raises(ConfigError, match="stiff' or 'compliant"):
            string_spec(parse_config(write(tmp_path, text)))

    def test_material_parsing_is_case_insensitive(self, tmp_path):
        text = FULL_CONFIG.replace("material = stiff", "material = STIFF")
        spec = string_spec(parse_config(write(tmp_path, text)))
        assert spec.material is Material.STIFF

    def test_sections_absent_without_error(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[load]\nmass_g = 100\n"))
        assert cfg.string is None
        assert model_params(cfg) is None
        assert pi_model(cfg) is None
        assert training_state(cfg) is None
        assert bicep_geometry(cfg) is None
        assert bicep_pairs(cfg) is None
        with pytest.raises(ConfigError, match=r"\[string\] section"):
            string_spec(cfg)
        with pytest.raises(ConfigError, match=r"\[sensing\] section"):
            resistance_params(cfg)


class TestSectionBuilders:
    def test_model_defaults(self, tmp_path):
        text = (
            "[model]\nr_eff_mm = 0.86\ntheta_star_rev = 28.0\n"
            "coil_diameter_mm = 4.3\ncoil_pitch_mm = 2.6\n"
        )
        params = model_params(parse_config(write(tmp_path, text)))
        assert params.eta == 1.0
        assert params.compliance == 0.0

    def test_pi_model_parsing(self, tmp_path):
        text = (
            "[hysteresis]\nthresholds_rev = 0, 2, 4\nweights_mm = 0.0, 0.3, 0.1\n"
        )
        model = pi_model(parse_config(write(tmp_path, text)))
        assert model.thresholds == pytest.approx(
            [rev_to_rad(v) for v in (0.0, 2.0, 4.0)]
        )
        assert model.weights == pytest.approx([0.0, 0.3, 0.1])

    def test_pi_model_weights_default_to_zero(self, tmp_path):
        model = pi_model(parse_config(write(tmp_path, "[hysteresis]\nthresholds_rev = 0, 1\n")))
        assert model.weights == pytest.approx([0.0, 0.0])

    def test_pi_model_length_mismatch(self, tmp_path):
        text = "[hysteresis]\nthresholds_rev = 0, 1\nweights_mm = 0.5\n"
        with pytest.raises(ConfigError, match="equal length"):
            pi_model(parse_config(write(tmp_path, text)))

    def test_resistance_defaults(self, tmp_path):
        text = (
            "[sensing]\nr0_ohm = 120\nsensitivity_ohm_per_pct = -0.8\n"
            "tau_transient_s = 4.0\n"
        )
        params = resistance_params(parse_config(write(tmp_path, text)))
        assert params.transient_gain == 0.0
        assert params.creep_rate == 0.0
        assert math.isinf(params.creep_saturation)

    def test_training_state_parsing(self, tmp_path):
        text = (
            "[training]\ncycles = 12\ntrained_load_g = 200\n"
            "thresholds = 6, 11, 50\nshortening_fraction = 0.03\n"
        )
        state, shortening = training_state(parse_config(write(tmp_path, text)))
        assert state.cycles_done == 12
        assert state.trained_load == 200
        assert state.thresholds == (6, 11, 50)
        assert shortening == 0.03

    def test_bicep_geometry_requires_full_triple(self, tmp_path):
        text = "[bicep]\na_mm = 83\nb_mm = 151\ntheta_max_rev = 30\n"
        assert bicep_geometry(parse_config(write(tmp_path, text))) is None
        text = (
            "[bicep]\na_mm = 83\nb_mm = 151\ngamma_deg = 142.5\n"
            "payload_g = 500\nforearm_length_mm = 120\n"
        )
        geom = bicep_geometry(parse_config(write(tmp_path, text)))
        assert (geom.a, geom.b, geom.gamma) == (83.0, 151.0, 142.5)
        assert geom.payload == 500.0

    def test_bicep_pairs_parsing(self, tmp_path):
        text = "[bicep]\npairs = 215:13.1, 135:73.4, 68:147.1\n"
        pairs = bicep_pairs(parse_config(write(tmp_path, text)))
        assert pairs == [(215.0, 13.1), (135.0, 73.4), (68.0, 147.1)]

    def test_bicep_pairs_malformed_token(self, tmp_path):
        text = "[bicep]\npairs = 215:13.1, oops\n"
        with pytest.raises(ConfigError, match="bad bicep pair"):
            bicep_pairs(parse_config(write(tmp_path, text)))


class TestExperimentLog:
    def test_reads_records(self, tmp_path):
        path = write(
            tmp_path,
            "time_s,theta_rev,length_mm\n0.0,0.0,214.3\n1.0,2.0,\n",
            name="log.csv",
        )
        rows = read_experiment_log(path, required=("time_s", "theta_rev"))
        assert [r.time for r in rows] == [0.0, 1.0]
        assert rows[0] == ExperimentRecord(time=0.0, theta=0.0, length=214.3)
        assert rows[1].length is None

    def test_unknown_column_rejected(self, tmp_path):
        path = write(tmp_path, "time_s,voltage\n0.0,1.0\n", name="log.csv")
        with pytest.raises(CsvFormatError, match="unknown columns") as excinfo:
            read_experiment_log(path)
        assert excinfo.value.line == 1

    def test_missing_required_column_rejected(self, tmp_path):
        path = write(tmp_path, "time_s\n0.0\n", name="log.csv")
        with pytest.raises(CsvFormatError, match="missing required columns"):
            read_experiment_log(path, required=("time_s", "theta_rev"))

    def test_bad_number_carries_line(self, tmp_path):
        path = write(
            tmp_path, "time_s,theta_rev\n0.0,0.0\n1.0,fast\n", name="log.csv"
        )
        with pytest.raises(CsvFormatError, match="bad number") as excinfo:
            read_experiment_log(path, required=("time_s", "theta_rev"))
        assert excinfo.value.line == 3

    def test_time_must_increase(self, tmp_path):
        path = write(
            tmp_path, "time_s,theta_rev\n0.0,0.0\n0.0,1.0\n", name="log.csv"
        )
        with pytest.raises(CsvFormatError, match="strictly increasing") as excinfo:
            read_experiment_log(path, required=("time_s", "theta_rev"))
        assert excinfo.value.line == 3

    def test_empty_file_and_headerless(self, tmp_path):
        path = write(tmp_path, "", name="log.csv")
        with pytest.raises(CsvFormatError, match="empty"):
            read_experiment_log(path)
        path = write(tmp_path, "time_s,theta_rev\n", name="log2.csv")
        with pytest.raises(CsvFormatError, match="no data rows"):
            read_experiment_log(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="cannot read"):
            read_experiment_log(str(tmp_path / "absent.csv"))


class TestObservations:
    def test_bundled_characterization_fixture(self):
        rows = read_observations(bundled_stiff_path())
        assert len(rows) == 3
        first = rows[0]
        assert first.spec.diameter == 1.0
        assert first.spec.material is Material.STIFF
        assert first.load.mass == 2000.0
        assert first.theta_max_rev == 56.0
        assert first.contraction_regular_pct == pytest.approx(28.90)
        assert first.contraction_total_pct == pytest.approx(68.22)
        assert first.motor_speed_rev_s is None

    def test_unknown_column_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "diameter_mm,initial_length_mm,material,mass_g,theta_max_rev,"
            "contraction_regular_pct,contraction_total_pct,sparkle\n"
            "1.3,214.3,stiff,2900,36,29.08,70.94,yes\n",
            name="obs.csv",
        )
        with pytest.raises(CsvFormatError, match="unknown columns"):
            read_observations(path)

    def test_missing_column_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "diameter_mm,initial_length_mm,material\n1.3,214.3,stiff\n",
            name="obs.csv",
        )
        with pytest.raises(CsvFormatError, match="missing required columns"):
            read_observations(path)

    def test_constraint_violation_carries_line(self, tmp_path):
        path = write(
            tmp_path,
            "diameter_mm,initial_length_mm,material,mass_g,theta_max_rev,"
            "contraction_regular_pct,contraction_total_pct\n"
            "1.3,214.3,stiff,2900,36,70.94,29.08\n",
            name="obs.csv",
        )
        with pytest.raises(CsvFormatError) as excinfo:
            read_observations(path)
        assert excinfo.value.line == 2

    def test_header_only_file_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "diameter_mm,initial_length_mm,material,mass_g,theta_max_rev,"
            "contraction_regular_pct,contraction_total_pct\n",
            name="obs.csv",
        )
        with pytest.raises(CsvFormatError, match="no observations"):
            read_observations(path)


class TestCsvOutput:
    def test_write_and_read_back(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(
            path,
            ["time_s", "theta_rev", "length_mm"],
            [(0.0, 0.0, 214.3), (0.5, 1.25, 210.0)],
        )
        rows = read_experiment_log(path, required=("time_s", "theta_rev", "length_mm"))
        assert [r.theta for r in rows] == [0.0, 1.25]
        assert [r.length for r in rows] == [214.3, 210.0]

    def test_number_formatting_is_stable(self):
        assert format_number(2.5) == "2.5"
        assert format_number(214.3) == "214.3"
        assert format_number(1.0 / 3.0) == "0.3333333333"
