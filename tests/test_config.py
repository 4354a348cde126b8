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
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tsakit.config as config_module
from tsakit.config import (
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

    def test_non_finite_training_thresholds_rejected(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[training]\nthresholds = 6, nan, 50\n"))
        message = "^non-finite number in training.thresholds: '6, nan, 50'$"
        with pytest.raises(ConfigError, match=message):
            training_state(cfg)

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

    def test_short_row_has_missing_cells(self, tmp_path):
        path = write(
            tmp_path, "time_s,theta_rev,length_mm\n0.0,0.0\n1.0\n", name="log.csv"
        )
        log = read_experiment_log(path)
        assert log.theta[0] == 0.0
        assert np.isnan(log.length[0]) and np.isnan(log.theta[1])
        with pytest.raises(CsvFormatError, match="missing theta_rev value") as excinfo:
            read_experiment_log(path, required=("time_s", "theta_rev"))
        assert excinfo.value.line == 3

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

    def test_repeated_column_keeps_the_last(self, tmp_path):
        path = write(tmp_path, "time_s,theta_rev,theta_rev\n0.0,1.0,2.0\n", name="log.csv")
        assert read_experiment_log(path).theta.tolist() == [2.0]


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
WRITE_KINDS = {
    "float": st.floats(),
    "int": st.integers(-(10**20), 10**20),
    "bool": st.booleans(),
    "float64": st.floats().map(np.float64),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "float32": st.floats(width=32).map(np.float32),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(WRITE_KINDS)), min_size=1, max_size=5))
    count = draw(st.integers(0, 12))
    return kinds, [tuple(draw(WRITE_KINDS[kind]) for kind in kinds) for _ in range(count)]


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


GOOD_CELLS = ["0", "1.5", "-3e2", "2.5e-310", "-0", '"4"', " 7 "]
BAD_CELLS = ["", " ", "nan", "inf", "-Infinity", "1e999", "1_0", "abc", "0x10", "1,5"]


@st.composite
def malformed_logs(draw):
    """Log text from a small vocabulary of good and bad cells, blank lines and ragged rows."""
    header = draw(st.permutations(
        ["time_s", *draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS[:2]), unique=True))]
    ))
    required = ("time_s", *draw(st.lists(st.sampled_from(header), unique=True)))
    cells = st.sampled_from(GOOD_CELLS * 8 + BAD_CELLS)
    lines = [",".join(header)]
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
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, required


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
        kinds, rows = table
        header = [f"c{i}" for i in range(len(kinds))]
        path = tmp_path / "out.csv"
        write_csv(str(path), header, iter(rows))
        expected = ",".join(header) + "\n" + "".join(
            ",".join(cell if isinstance(cell, str) else format_number(cell) for cell in row)
            + "\n"
            for row in rows
        )
        assert path.read_bytes() == expected.encode("utf-8")

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
        log = read_experiment_log(path, required=("time_s", "theta_rev", "length_mm"))
        assert log.theta.tolist() == [0.0, 1.25]
        assert log.length.tolist() == [214.3, 210.0]

    def test_number_formatting_is_stable(self):
        assert format_number(2.5) == "2.5"
        assert format_number(214.3) == "214.3"
        assert format_number(1.0 / 3.0) == "0.3333333333"
