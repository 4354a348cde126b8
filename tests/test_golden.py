"""Golden outputs of simulate, bicep and sense.

The files under tests/golden/ are the byte-exact outputs of the commands
below. The simulate and bicep files were written before the per-sample
model loops were replaced by one array pass; sense.csv and
simulate_profile_csv.csv were written before CSV reading and writing
moved to whole arrays, from the logs committed under tests/data/. Any
change to how the two-phase law is evaluated or how CSV files are read
and written must keep them byte-identical, and must keep the coil
capacity error word for word.
"""

from pathlib import Path

import pytest

from tsakit.cli import EXIT_INPUT, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

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

HYSTERESIS = """
[hysteresis]
thresholds_rev = 0, 2, 5
weights_mm = 0.0, 0.3, 0.2
"""

BICEP = """
[bicep]
a_mm = 83
b_mm = 151
gamma_deg = 142.5
payload_g = 500
forearm_length_mm = 120
theta_max_rev = 30
samples = 121
"""

SENSING = """\
[sensing]
r0_ohm = 120
sensitivity_ohm_per_pct = -0.8
tau_transient_s = 4
transient_gain_ohm_per_pct = -0.25
creep_rate_ohm_per_cycle = 0.9
creep_saturation_ohm = 4.5
"""

# Two cycles to 36 rev: past theta_star (28 rev), short of the coil
# capacity of this string (about 39 rev).
TRIANGLE = "triangle:amplitude_rev=36,period_s=60,cycles=2,samples=401"
# 45 rev crosses the coil capacity; the first sample past it is 39.06 rev.
PAST_CAPACITY = "triangle:amplitude_rev=45,period_s=60,samples=501"
CAPACITY_ERROR = "error: twist 245.421 rad exceeds the coil capacity limit 245.246 rad\n"

CASES = {
    "simulate_hysteresis.csv": (MODEL_CONFIG + HYSTERESIS, ["simulate", TRIANGLE]),
    "simulate_plain.csv": (MODEL_CONFIG, ["simulate", TRIANGLE]),
    "bicep_sweep.csv": (MODEL_CONFIG + BICEP, ["bicep"]),
    # Six cycles of strain with transients, saturating creep and noise;
    # the log also carries a force column, which sense ignores.
    "sense.csv": (SENSING, ["sense", str(DATA / "sense_log.csv")]),
    # Columns in the order theta_rev,time_s,length_mm, jittered times.
    "simulate_profile_csv.csv": (MODEL_CONFIG, ["simulate", str(DATA / "profile.csv")]),
}


def run_case(tmp_path, config_text, argv):
    config = tmp_path / "run.ini"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main([*argv, "--config", str(config), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(tmp_path, name):
    code, out = run_case(tmp_path, *CASES[name])
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("extra", ["", HYSTERESIS], ids=["plain", "hysteresis"])
def test_coil_capacity_error_names_first_offending_sample(tmp_path, capsys, extra):
    code, out = run_case(tmp_path, MODEL_CONFIG + extra, ["simulate", PAST_CAPACITY])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == CAPACITY_ERROR
    assert not out.exists()
