"""Tests for configuration parsing and CSV ingestion.

Everything here goes through real files in tmp_path; the parsers are
strict by contract, so most tests pin down which malformed inputs fail
and that diagnostics carry enough context (section, key, line number).
"""

import csv
import math
import os
import re
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tsakit.config as config_module
from tsakit.bicep import fit_bicep
from tsakit.config import (
    RunConfig,
    bundled_stiff_path,
    format_number,
    parse_config,
    read_experiment_log,
    read_observations,
    write_csv,
)
from tsakit.errors import ConfigError, CsvFormatError, TsaError
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


DATA = Path(__file__).parent / "data"


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        path = write(tmp_path, FULL_CONFIG)
        cfg = parse_config(path)
        assert isinstance(cfg, RunConfig)
        assert cfg.path == path
        spec = cfg.string
        assert spec.diameter == 1.3
        assert spec.initial_length == 214.3
        assert spec.material is Material.STIFF
        assert spec.ply == 1
        assert cfg.load.mass == 2900
        params = cfg.model
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
        path = write(tmp_path, FULL_CONFIG.replace("material = stiff", "material = rubber"))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"bad value for string.material in {path}: 'rubber'"

    def test_material_parsing_is_case_insensitive(self, tmp_path):
        text = FULL_CONFIG.replace("material = stiff", "material = STIFF")
        assert parse_config(write(tmp_path, text)).string.material is Material.STIFF

    def test_sections_absent_without_error(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[load]\nmass_g = 100\n"))
        assert cfg.load.mass == 100
        for section in ("string", "model", "calibration", "hysteresis", "sensing",
                        "training", "bicep"):
            assert getattr(cfg, section) is None

    @pytest.mark.parametrize(
        "text, key, value, message",
        [
            (FULL_CONFIG.replace("eta = 0.11", "eta = 0"), "model.eta", "0",
             "eta must lie in (0, 1]"),
            (FULL_CONFIG.replace("coil_diameter_mm = 4.3", "coil_diameter_mm = 1e308"),
             "model.coil_diameter_mm", "1e308",
             "coil_diameter must give a finite coil circumference"),
            (FULL_CONFIG.replace("ply = 1", "ply = 0"), "string.ply", "0",
             "ply must be a positive integer"),
            # Each checked key of [string], [load] and [model] by its own name:
            # the field a check names must be the field it refuses.
            (FULL_CONFIG.replace("diameter_mm = 1.3", "diameter_mm = nan"),
             "string.diameter_mm", "nan", "string diameter must be positive and finite"),
            (FULL_CONFIG.replace("diameter_mm = 1.3", "diameter_mm = -1"),
             "string.diameter_mm", "-1", "string diameter must be positive and finite"),
            (FULL_CONFIG.replace("initial_length_mm = 214.3", "initial_length_mm = inf"),
             "string.initial_length_mm", "inf", "initial length must be positive and finite"),
            (FULL_CONFIG.replace("initial_length_mm = 214.3", "initial_length_mm = 0"),
             "string.initial_length_mm", "0", "initial length must be positive and finite"),
            (FULL_CONFIG.replace("mass_g = 2900", "mass_g = nan"), "load.mass_g", "nan",
             "load mass must be nonnegative and finite"),
            (FULL_CONFIG.replace("mass_g = 2900", "mass_g = -5"), "load.mass_g", "-5",
             "load mass must be nonnegative and finite"),
            (FULL_CONFIG.replace("r_eff_mm = 0.86", "r_eff_mm = 0"), "model.r_eff_mm", "0",
             "r_eff must be positive and finite"),
            (FULL_CONFIG.replace("theta_star_rev = 28.0", "theta_star_rev = -1"),
             "model.theta_star_rev", "-1", "theta_star must be positive and finite"),
            (FULL_CONFIG.replace("coil_diameter_mm = 4.3", "coil_diameter_mm = -inf"),
             "model.coil_diameter_mm", "-inf", "coil_diameter must be positive and finite"),
            (FULL_CONFIG.replace("coil_pitch_mm = 2.6", "coil_pitch_mm = -0.5"),
             "model.coil_pitch_mm", "-0.5", "coil_pitch must be nonnegative and finite"),
            (FULL_CONFIG.replace("eta = 0.11", "eta = nan"), "model.eta", "nan",
             "eta must lie in (0, 1]"),
            (FULL_CONFIG.replace("compliance_mm_per_n = 0.0", "compliance_mm_per_n = inf"),
             "model.compliance_mm_per_n", "inf", "compliance must be nonnegative and finite"),
            ("[sensing]\nr0_ohm = -1\nsensitivity_ohm_per_pct = -0.8\ntau_transient_s = 4.0\n",
             "sensing.r0_ohm", "-1", "baseline resistance must be positive and finite"),
            ("[training]\nthresholds = 6, 50, 11\n", "training.thresholds", "6, 50, 11",
             "stage thresholds must be three ascending positive counts"),
            ("[hysteresis]\nthresholds_rev = 0, -1\nweights_mm = 0, 1\n",
             "hysteresis.thresholds_rev", "0, -1", "thresholds must be strictly ascending"),
            ("[bicep]\na_mm = -1\nb_mm = 151\ngamma_deg = 142.5\ntheta_max_rev = 30\n",
             "bicep.a_mm", "-1", "lever arms must be positive"),
            ("[bicep]\npairs = 215:13.1, 135:73.4\ntheta_max_rev = 30\n", "bicep.pairs",
             "215:13.1, 135:73.4", "need at least three (length, angle) pairs"),
        ],
    )
    def test_build_refusal_names_the_key(self, tmp_path, text, key, value, message):
        # The section's dataclass refuses the value when the file is read,
        # and the message names the file, the key and the value.
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"bad value for {key} in {path}: {value!r}; {message}"

    def test_build_refusal_of_several_keys_names_the_section(self, tmp_path):
        path = write(tmp_path, FULL_CONFIG.replace("1.3", "20"))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == (
            f"bad [string] section in {path}: "
            "initial length must be at least 20 times the string diameter"
        )


@st.composite
def bicep_pair_lists(draw):
    """Up to 7 (length mm, angle deg) pairs, one in five with a non-finite number.

    Whole numbers make repeated lengths and exact slopes common, lengths
    past 800 mm leave fit_bicep's arm lattice no admissible cell, and
    either number may be any finite float, up to the float limit, where
    the slope or the fit's squared errors would overflow.
    """
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lengths = st.integers(-5, 300).map(float) | st.floats(-10.0, 1000.0) | finite
    angles = st.integers(-90, 200).map(float) | st.floats(-1e6, 1e6) | finite
    pairs = draw(st.lists(st.tuples(lengths, angles), max_size=7))
    if pairs and draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(pairs) - 1))
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        pairs[k] = (bad, pairs[k][1]) if draw(st.booleans()) else (pairs[k][0], bad)
    return pairs


class TestSectionBuilders:
    def test_model_defaults(self, tmp_path):
        text = (
            "[model]\nr_eff_mm = 0.86\ntheta_star_rev = 28.0\n"
            "coil_diameter_mm = 4.3\ncoil_pitch_mm = 2.6\n"
        )
        params = parse_config(write(tmp_path, text)).model
        assert params.eta == 1.0
        assert params.compliance == 0.0

    def test_pi_model_parsing(self, tmp_path):
        text = (
            "[hysteresis]\nthresholds_rev = 0, 2, 4\nweights_mm = 0.0, 0.3, 0.1\n"
        )
        model = parse_config(write(tmp_path, text)).hysteresis
        assert model.thresholds == pytest.approx(
            [rev_to_rad(v) for v in (0.0, 2.0, 4.0)]
        )
        assert model.weights == pytest.approx([0.0, 0.3, 0.1])

    def test_pi_model_weights_default_to_zero(self, tmp_path):
        model = parse_config(write(tmp_path, "[hysteresis]\nthresholds_rev = 0, 1\n")).hysteresis
        assert model.weights == pytest.approx([0.0, 0.0])

    def test_pi_model_length_mismatch(self, tmp_path):
        text = "[hysteresis]\nthresholds_rev = 0, 1\nweights_mm = 0.5\n"
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == (
            f"bad [hysteresis] section in {path}: weights and thresholds must have equal length"
        )

    def test_non_finite_training_thresholds_rejected(self, tmp_path):
        path = write(tmp_path, "[training]\nthresholds = 6, nan, 50\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"bad value for training.thresholds in {path}: '6, nan, 50'"

    def test_resistance_defaults(self, tmp_path):
        text = (
            "[sensing]\nr0_ohm = 120\nsensitivity_ohm_per_pct = -0.8\n"
            "tau_transient_s = 4.0\n"
        )
        params = parse_config(write(tmp_path, text)).sensing
        assert params.transient_gain == 0.0
        assert params.creep_rate == 0.0
        assert math.isinf(params.creep_saturation)

    def test_training_state_parsing(self, tmp_path):
        text = (
            "[training]\ncycles = 12\ntrained_load_g = 200\n"
            "thresholds = 6, 11, 50\nshortening_fraction = 0.03\n"
        )
        state = parse_config(write(tmp_path, text)).training
        assert state.cycles_done == 12
        assert state.trained_load == 200
        assert state.thresholds == (6, 11, 50)
        assert state.shortening == 0.03

    def test_whole_float_thresholds_accepted(self, tmp_path):
        state = parse_config(write(tmp_path, "[training]\nthresholds = 2.0, 5, 9e0\n")).training
        assert state.thresholds == (2, 5, 9)

    @pytest.mark.parametrize("value", ["0", "0.999"])
    def test_shortening_fraction_in_unit_interval_accepted(self, tmp_path, value):
        cfg = parse_config(write(tmp_path, f"[training]\nshortening_fraction = {value}\n"))
        assert cfg.training.shortening == float(value)

    @pytest.mark.parametrize("value", ["1", "5.0", "-0.1", "nan", "inf", "-inf"])
    def test_shortening_fraction_outside_unit_interval_rejected(self, tmp_path, value):
        path = write(tmp_path, f"[training]\nshortening_fraction = {value}\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == (
            f"bad value for training.shortening_fraction in {path}: '{value}'; "
            "shortening fraction must lie in [0, 1)"
        )

    @pytest.mark.parametrize(
        "body, given",
        [
            ("a_mm = 83\nb_mm = 151\n", "a_mm, b_mm"),
            ("gamma_deg = 142.5\n", "gamma_deg"),
            ("a_mm = 83\nb_mm = 151\ngamma_deg = 142.5\npairs = 215:13.1, 135:73.4, 68:147.1\n",
             "a_mm, b_mm, gamma_deg, pairs"),
            ("pairs = 215:13.1, 135:73.4, 68:147.1\nb_mm = 999\n", "b_mm, pairs"),
            ("", "none of them"),
        ],
    )
    def test_bicep_geometry_requires_full_triple_or_pairs(self, tmp_path, body, given):
        # A geometry key the command would ignore is refused.
        path = write(tmp_path, "[bicep]\ntheta_max_rev = 30\n" + body)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == (
            f"bad [bicep] section in {path}: needs either all of a_mm/b_mm/gamma_deg "
            f"or pairs, not both; it gives {given}"
        )

    def test_bicep_geometry_parsing(self, tmp_path):
        text = (
            "[bicep]\na_mm = 83\nb_mm = 151\ngamma_deg = 142.5\n"
            "payload_g = 500\nforearm_length_mm = 120\ntheta_max_rev = 30\n"
        )
        section = parse_config(write(tmp_path, text)).bicep
        geom = section.geometry
        assert (geom.a, geom.b, geom.gamma) == (83.0, 151.0, 142.5)
        assert geom.payload == 500.0
        assert section.pairs is None
        assert section.load == {"payload": 500.0, "forearm_length": 120.0}
        assert section.grid.tolist() == np.linspace(0.0, 30.0, 121).tolist()

    def test_bicep_pairs_parsing(self, tmp_path):
        text = "[bicep]\npairs = 215:13.1, 135:73.4, 68:147.1\ntheta_max_rev = 30\nsamples = 3\n"
        section = parse_config(write(tmp_path, text)).bicep
        assert section.pairs == [(215.0, 13.1), (135.0, 73.4), (68.0, 147.1)]
        assert section.geometry is None and section.load == {}
        assert section.grid.tolist() == [0.0, 15.0, 30.0]

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bicep_pair_lists())
    def test_bicep_pairs_refused_when_fit_bicep_refuses_them(self, tmp_path, pairs):
        # The config refuses, naming bicep.pairs, exactly the pairs that
        # fit_bicep refuses, for any reason: its arm lattice included.
        try:
            fit_bicep(pairs)
        except TsaError:
            refused = True
        else:
            refused = False
        raw = ", ".join(f"{length!r}:{angle!r}" for length, angle in pairs)
        path = write(tmp_path, f"[bicep]\npairs = {raw}\ntheta_max_rev = 30\n")
        if refused:
            with pytest.raises(ConfigError) as excinfo:
                parse_config(path)
            assert str(excinfo.value).startswith(f"bad value for bicep.pairs in {path}: {raw!r}; ")
        else:
            assert parse_config(path).bicep.pairs == pairs

    def test_bicep_pairs_malformed_token(self, tmp_path):
        path = write(tmp_path, "[bicep]\npairs = 215:13.1, oops\ntheta_max_rev = 30\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"bad value for bicep.pairs in {path}: '215:13.1, oops'"


class TestExperimentLog:
    def test_reads_records(self, tmp_path):
        path = write(
            tmp_path,
            "time_s,theta_rev,length_mm\n0.0,0.0,214.3\n1.0,2.0,\n",
            name="log.csv",
        )
        log = read_experiment_log(path, required=("time_s", "theta_rev"))
        assert len(log) == 2
        assert log.time.tolist() == [0.0, 1.0]
        assert (log.time[0], log.theta[0], log.length[0]) == (0.0, 0.0, 214.3)
        assert log.force is None and log.resistance is None
        assert np.isnan(log.length[1])

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("column", ["time_s", "theta_rev", "length_mm"])
    def test_non_finite_value_rejected(self, tmp_path, token, column):
        cells = {"time_s": "1.0", "theta_rev": "2.0", "length_mm": "214.0"}
        cells[column] = token
        path = write(
            tmp_path,
            "time_s,theta_rev,length_mm\n0.0,0.0,214.3\n" + ",".join(cells.values()) + "\n",
            name="log.csv",
        )
        with pytest.raises(CsvFormatError) as excinfo:
            read_experiment_log(path, required=("time_s", "theta_rev"))
        assert str(excinfo.value) == (
            f"line 3: {path}: non-finite number {token!r} in column {column}"
        )
        assert excinfo.value.line == 3

    def test_extra_fields_rejected(self, tmp_path):
        path = write(tmp_path, "time_s,theta_rev\n0.0,0.0\n1.0,2.0,\n", name="log.csv")
        with pytest.raises(CsvFormatError, match="row has 3 fields, header has 2") as excinfo:
            read_experiment_log(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("required", [("time_s",), ("time_s", "theta_rev")])
    def test_short_row_rejected(self, tmp_path, required):
        # Read as blank cells, a short row would shift its later values a
        # column left; it is refused at its line, as in observation tables.
        path = write(
            tmp_path, "time_s,theta_rev,length_mm\n0.0,0.0,214.3\n1.0,2.0\n", name="log.csv"
        )
        with pytest.raises(CsvFormatError) as excinfo:
            read_experiment_log(path, required=required)
        assert str(excinfo.value) == f"line 3: {path}: row has 2 fields, header has 3"

    def test_blank_lines_skipped_whitespace_lines_rejected(self, tmp_path):
        path = write(tmp_path, "time_s\n0.0\n\n1.0\n", name="log.csv")
        assert read_experiment_log(path).time.tolist() == [0.0, 1.0]
        path = write(tmp_path, "time_s\n0.0\n  \n1.0\n", name="log2.csv")
        with pytest.raises(CsvFormatError, match="missing time_s value") as excinfo:
            read_experiment_log(path)
        assert excinfo.value.line == 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        # A pipe cannot be rewound, so a body the one-pass parse refuses
        # (here a blank optional cell) must go straight to the row validator.
        fifo = tmp_path / "log.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_text, args=("time_s,theta_rev\n0.0,\n1.0,2.0\n",), daemon=True
        )
        writer.start()
        log = read_experiment_log(str(fifo))
        writer.join(timeout=10)
        assert log.time.tolist() == [0.0, 1.0]
        assert np.isnan(log.theta[0]) and log.theta[1] == 2.0

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_reads_as_text(self, tmp_path, suffix):
        # np.loadtxt would decompress a path with these suffixes, and fail on
        # plain text; the row validator reads such a log as any other.
        text = "time_s,theta_rev\n0.0,0.5\n1.0,2.0\n"
        plain = read_experiment_log(write(tmp_path, text, name="log.csv"))
        log = read_experiment_log(write(tmp_path, text, name="log.csv" + suffix))
        assert log.time.tolist() == plain.time.tolist() == [0.0, 1.0]
        assert log.theta.tolist() == plain.theta.tolist() == [0.5, 2.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_sense_log_takes_the_one_pass_parse(self, tmp_path, newline):
        # The row validator costs about ten times the parse on a long log;
        # a parse that silently fell back to it would show only as time.
        lines = (DATA / "sense_log.csv").read_text(encoding="utf-8").splitlines()
        path = write(tmp_path, newline.join(lines) + newline, name="log.csv")
        with mock.patch.object(config_module, "_parsed_columns", return_value=None):
            reference = read_experiment_log(path)
        with mock.patch.object(config_module, "_validated_columns", side_effect=AssertionError):
            log = read_experiment_log(path)
        assert len(log) == len(lines) - 1
        for field in ("time", "resistance", "force"):
            assert getattr(log, field).tobytes() == getattr(reference, field).tobytes()

    @pytest.mark.parametrize(
        "header, message",
        [
            ("time_s,theta_rev,theta_rev", "repeated columns ['theta_rev']"),
            ("time_s,time_s,theta_rev,theta_rev", "repeated columns ['theta_rev', 'time_s']"),
            # Unknown names are refused first, and missing ones last.
            ("time_s,voltage,voltage", "unknown columns ['voltage']"),
            ("theta_rev,theta_rev", "repeated columns ['theta_rev']"),
        ],
    )
    def test_repeated_column_rejected(self, tmp_path, header, message):
        path = write(tmp_path, header + "\n" + ",".join(["1.0"] * header.count(",")) + ",2.0\n",
                     name="log.csv")
        with pytest.raises(CsvFormatError) as excinfo:
            read_experiment_log(path)
        assert str(excinfo.value) == f"line 1: {path}: {message}"


# Finite values whose 10-digit forms stay finite, subnormals included.
FINITE = st.floats(min_value=-1e300, max_value=1e300)
TEXT_FORMATS = (repr, "{:.10g}".format, "{:.25e}".format, "{:.3f}".format, " {!r} ".format)
OPTIONAL_COLUMNS = ("theta_rev", "length_mm", "force_n", "resistance_ohm")
FIELDS = {
    "time_s": "time",
    "theta_rev": "theta",
    "length_mm": "length",
    "force_n": "force",
    "resistance_ohm": "resistance",
}
# Every double, each binary exponent about equally likely.
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, np.uint64).view(np.float64).item()
)
WRITE_KINDS = {
    "float": st.floats(),
    "double": ANY_DOUBLE,
    "int": st.integers(-(10**20), 10**20),
    "bool": st.booleans(),
    "float64": st.floats().map(np.float64),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "float32": st.floats(width=32).map(np.float32),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
}
# A column is passed as it is drawn: a list, a tuple or a numpy array of its cells.
CONTAINERS = (list, tuple, np.array)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(WRITE_KINDS)), min_size=1, max_size=5))
    count = draw(st.integers(0, 12))
    return [
        draw(st.sampled_from(CONTAINERS))([draw(WRITE_KINDS[kind]) for _ in range(count)])
        for kind in kinds
    ]


def per_cell_text(header, columns):
    """The reference CSV text: each cell by itself, a string as is, a number by format_number."""
    rows = zip(*columns)
    return ",".join(header) + "\n" + "".join(
        ",".join(cell if isinstance(cell, str) else format_number(cell) for cell in row) + "\n"
        for row in rows
    )


def written(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, iter(columns))
    return path.read_bytes(), per_cell_text(header, columns).encode("utf-8")


@st.composite
def written_logs(draw):
    """Columns of a log whose time stays strictly increasing once written."""
    header = ["time_s", *draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))]
    times = []
    for time in sorted(draw(st.lists(FINITE, min_size=1, max_size=30, unique=True))):
        if not times or float(format_number(time)) > float(format_number(times[-1])):
            times.append(time)
    columns = [times] + [[draw(FINITE) for _ in times] for _ in header[1:]]
    return header, [draw(st.sampled_from(CONTAINERS))(column) for column in columns]


@st.composite
def finite_logs(draw):
    """Log text of finite numbers in mixed forms, some optional cells blank."""
    header = draw(st.permutations(
        ["time_s", *draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))]
    ))
    times = sorted(draw(st.lists(FINITE, min_size=1, max_size=30, unique=True)))
    blanks = draw(st.booleans())
    lines = []
    for time in times:
        cells = []
        for name in header:
            if name == "time_s":
                cells.append(repr(time))
            elif blanks and draw(st.integers(0, 9)) == 0:
                cells.append("")
            else:
                cells.append(draw(st.sampled_from(TEXT_FORMATS))(draw(FINITE)))
        lines.append(",".join(cells))
    return ",".join(header) + "\n" + "\n".join(lines) + "\n"


GOOD_CELLS = ["0", "1.5", "-3e2", "2.5e-310", "-0", '"4"', " 7 ", '"-3e2"', '" 1.5"']
BAD_CELLS = ["", " ", "nan", "inf", "-Infinity", "1e999", "1_0", "abc", "0x10", "1,5",
             '"1,5"', '""', '"2\n3"', '"7', '4"']
# Line ends: the parse reads the path with universal newlines, the row
# validator its handle with newline="", so a lone CR must end a row in both.
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def malformed_logs(draw):
    """Log text from a small vocabulary of good and bad cells, blank lines and ragged rows."""
    header = draw(st.permutations(
        ["time_s", *draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS[:2]), unique=True))]
    ))
    required = ("time_s", *draw(st.lists(st.sampled_from(header), unique=True)))
    cells = st.sampled_from(GOOD_CELLS * 8 + BAD_CELLS)
    lines = [",".join(f'"{name}"' if draw(st.integers(0, 3)) == 0 else name for name in header)]
    for i in range(draw(st.integers(0, 6))):
        row = [
            draw(st.sampled_from([str(i)] * 16 + BAD_CELLS + ["0"])) if name == "time_s"
            else draw(cells)
            for name in header
        ]
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1]))
        row = row[:ragged] if ragged < 0 else row + ["9"] * ragged
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
    newline = draw(st.sampled_from(LINE_ENDS))
    ends = [draw(st.sampled_from([newline] * 8 + LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), required


def outcome(path, required):
    try:
        log = read_experiment_log(path, required=required)
    except CsvFormatError as exc:
        return str(exc), exc.line
    columns = {field: getattr(log, field) for field in FIELDS.values()}
    return {field: None if values is None else values.tobytes() for field, values in columns.items()}


class TestCsvProperties:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables())
    def test_writer_matches_per_cell_format_number(self, tmp_path, table):
        got, expected = written(tmp_path, table)
        assert got == expected

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log=written_logs())
    def test_written_log_reads_back_as_formatted(self, tmp_path, log):
        header, columns = log
        path = tmp_path / "log.csv"
        write_csv(str(path), header, columns)
        back = read_experiment_log(str(path))
        for name, column in zip(header, columns):
            expected = np.array([float(format_number(v)) for v in column])
            assert getattr(back, FIELDS[name]).tobytes() == expected.tobytes()

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=finite_logs())
    def test_reader_matches_csv_and_float(self, tmp_path, text):
        path = write(tmp_path, text, name="log.csv")
        log = read_experiment_log(path)
        with open(path, newline="", encoding="utf-8") as handle:
            header, *body = list(csv.reader(handle))
        assert len(log) == len(body)
        for i, name in enumerate(header):
            expected = [float(row[i]) if row[i] else math.nan for row in body]
            assert getattr(log, FIELDS[name]).tobytes() == np.array(expected).tobytes()
        for name in set(FIELDS) - set(header):
            assert getattr(log, FIELDS[name]) is None

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=malformed_logs())
    def test_reader_matches_row_validator(self, tmp_path, case):
        text, required = case
        path = write(tmp_path, text, name="log.csv")
        with mock.patch.object(config_module, "_parsed_columns", return_value=None):
            reference = outcome(path, required)
        assert outcome(path, required) == reference


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

    def test_repeated_column_rejected(self, tmp_path):
        # Renamed from the speed column, the second diameter_mm would
        # otherwise be fitted as every row's diameter.
        with open(bundled_stiff_path(), encoding="utf-8") as handle:
            text = handle.read().replace("max_speed_regular_mm_s", "diameter_mm")
        path = write(tmp_path, text, name="obs.csv")
        with pytest.raises(CsvFormatError) as excinfo:
            read_observations(path)
        assert str(excinfo.value) == f"line 1: {path}: repeated columns ['diameter_mm']"

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

    def test_row_with_extra_fields_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "diameter_mm,initial_length_mm,material,mass_g,theta_max_rev,"
            "contraction_regular_pct,contraction_total_pct\n"
            "1.3,214.3,stiff,2900,36,29.08,70.94,0.5\n",
            name="obs.csv",
        )
        with pytest.raises(CsvFormatError, match="row has 8 fields, header has 7") as excinfo:
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


# Values at the edges of the formatter: signed zeros, subnormals, non-finite
# values, three-digit exponents, the bounds of the fixed notation, the carry
# into an 11th digit and exact ties, which %.10g rounds half to even. In the
# last three the scaled 10-digit mantissa lands an ulp on the wrong side of
# its rounding tie (409733527050000 is an exact tie scaled to ...270.5000005).
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310, math.inf, -math.inf,
    math.nan, -math.nan, 1e100, -2.5e-300, 1.7976931348623157e308, 1e-30, 1e30, 9.99999999995e29,
    9999999999.5, -9999999999.5, 0.00009999999999, 0.00099999999995, 0.0001, 1e-5,
    999999999.95, 1234567890.0, 12345678901.0, 12345678905.0, 12345678915.0, 0.5, 2.5,
    1.0 / 3.0, -2.0 / 3.0, 214.3, -12.25,
    409733527050000.0, 6.9530896595e-16, 7.2697760705e-14,
]


class TestCsvOutput:
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_edge_values_match_format_number(self, tmp_path, container):
        values = np.array(EDGE_VALUES)
        with np.errstate(over="ignore"):    # the neighbour of the largest double is inf
            near = [np.nextafter(values, -math.inf), values, np.nextafter(values, math.inf)]
        got, expected = written(tmp_path, [container(column.tolist()) for column in near])
        assert got == expected

    def test_numeric_columns_led_by_bool_or_int(self, tmp_path):
        columns = [[True, 2.5, False], [3, 1e-310, -0.0], [10**20, -7, 0.1], np.array([1, 0, 2])]
        got, expected = written(tmp_path, columns)
        assert got == expected
        assert got.splitlines()[1] == b"1,3,1e+20,1"

    def test_many_chunks_match_format_number(self, tmp_path):
        rng = np.random.default_rng(5)
        count = 20_000    # crosses the writer's row chunks
        bits = np.frombuffer(rng.bytes(8 * count), np.float64)
        scaled = rng.standard_normal(count) * 10.0 ** rng.integers(-35, 35, count)
        decimals = np.rint(rng.standard_normal(count) * 1e6) / 10.0 ** rng.integers(0, 12, count)
        phases = np.where(rng.random(count) < 0.5, "regular", "overtwist")
        got, expected = written(tmp_path, [bits, scaled, phases, decimals])
        assert got == expected

    def test_text_columns_written_as_given(self, tmp_path):
        columns = [
            np.array(["regular", "", "overtwist"]),    # ASCII numpy strings
            np.array(["é", "a", "漢字"]),               # non-ASCII numpy strings
            ["x\x00", "", "\x00y"],                     # a list keeps its NULs
        ]
        got, expected = written(tmp_path, columns)
        assert got == expected
        assert got.splitlines()[1] == "regular,é,x\x00".encode("utf-8")

    def test_columns_must_have_equal_length(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(str(tmp_path / "out.csv"), ["a", "b"], [[1.0, 2.0], [1.0]])

    def test_header_only_without_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [np.array([]), []])
        assert path.read_bytes() == b"a,b\n"

    def test_write_and_read_back(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(
            path,
            ["time_s", "theta_rev", "length_mm"],
            [np.array([0.0, 0.5]), [0.0, 1.25], (214.3, 210.0)],
        )
        log = read_experiment_log(path, required=("time_s", "theta_rev", "length_mm"))
        assert log.theta.tolist() == [0.0, 1.25]
        assert log.length.tolist() == [214.3, 210.0]

    def test_number_formatting_is_stable(self):
        assert format_number(2.5) == "2.5"
        assert format_number(214.3) == "214.3"
        assert format_number(1.0 / 3.0) == "0.3333333333"
