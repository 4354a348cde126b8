"""Golden outputs of simulate, bicep, sense and calibrate.

The files under tests/golden/ are the byte-exact outputs of the commands
below. The simulate and bicep files were written before the per-sample
model loops were replaced by one array pass; simulate_profile_csv.csv
was written before CSV reading and writing moved to whole arrays, from
the log committed under tests/data/. Any change to how the two-phase law
is evaluated or how CSV files are read and written must keep them
byte-identical, and must keep each error simulate raises word for word:
from the law the coil capacity, the helix limit and a negative twist,
and from the command line's training gate. One kernel in tsakit.model
states the law for simulate, calibrate and grid_oracle alike, so these
files also pin the law the calibration endpoints are scored with.
sense.csv was last written when the creep baseline became an exact
variable-projection fit, which moved every strain by at most 1.9e-8 %
from the local curve fit before it.

The calibrate files pin the fit: each case keeps its parameter file
(calibrate_*.ini), its stdout (calibrate_*.txt) and its exit code. They
were written before the fit's scoring moved from numpy scalars to Python
floats, with, from the repository root:

    PYTHONPATH=src python -m tsakit.cli calibrate src/tsakit/data/stiff_observations.csv \
        --out tests/golden/calibrate_stiff.ini > tests/golden/calibrate_stiff.txt
    PYTHONPATH=src python -m tsakit.cli calibrate src/tsakit/data/stiff_observations.csv \
        --max-iter 30 --out tests/golden/calibrate_stiff_max_iter_30.ini \
        > tests/golden/calibrate_stiff_max_iter_30.txt
    PYTHONPATH=src python -m tsakit.cli calibrate src/tsakit/data/scp_6ply.csv \
        --out tests/golden/calibrate_compliant.ini > tests/golden/calibrate_compliant.txt
"""

from pathlib import Path

import pytest

from tsakit.cli import EXIT_GATE, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main
from tsakit.config import bundled_compliant_path, bundled_stiff_path

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

# The other errors of the law, each as simulate reports it: a theta_star of
# 40 rev winds 0.86 mm * 40 rev past the 214.3 mm string, and 10 training
# cycles leave the stiff string short of the uniform stage at 50.
LAW_ERRORS = {
    "negative_twist": (
        MODEL_CONFIG,
        "ramp:rate_rev_s=-1,duration_s=10,samples=11",
        EXIT_INPUT,
        "error: profile contains negative twist\n",
    ),
    "helix_limit": (
        MODEL_CONFIG.replace("theta_star_rev = 28.0", "theta_star_rev = 40.0"),
        PAST_CAPACITY,
        EXIT_INPUT,
        "error: helix winding consumed the whole string before theta was reached\n",
    ),
    "training_gate": (
        MODEL_CONFIG + "\n[training]\ncycles = 10\ntrained_load_g = 2900\n",
        TRIANGLE,
        EXIT_GATE,
        "error: profile overtwists a stiff string before training reached the uniform "
        "stage at or below the operating load; train for 50 cycles at <= 2900 g first\n",
    ),
}

CASES = {
    "simulate_hysteresis.csv": (MODEL_CONFIG + HYSTERESIS, ["simulate", TRIANGLE]),
    "simulate_plain.csv": (MODEL_CONFIG, ["simulate", TRIANGLE]),
    "bicep_sweep.csv": (MODEL_CONFIG + BICEP, ["bicep"]),
    # Five noise-free cycles of strain with transients and saturating
    # creep; the log also carries a force column, which sense ignores.
    "sense.csv": (SENSING, ["sense", str(DATA / "sense_log.csv")]),
    # Columns in the order theta_rev,time_s,length_mm, jittered times.
    "simulate_profile_csv.csv": (MODEL_CONFIG, ["simulate", str(DATA / "profile.csv")]),
}

# calibrate on the bundled tables: golden stem -> (observations, extra argv, exit code).
# At 30 iterations no polish meets its tolerance, so calibrate exits 3.
CALIBRATE_CASES = {
    "calibrate_stiff": (bundled_stiff_path(), [], EXIT_OK),
    "calibrate_stiff_max_iter_30": (bundled_stiff_path(), ["--max-iter", "30"], EXIT_NO_CONVERGENCE),
    "calibrate_compliant": (bundled_compliant_path(), [], EXIT_OK),
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


@pytest.mark.parametrize("extra", ["", HYSTERESIS], ids=["plain", "hysteresis"])
@pytest.mark.parametrize("name", sorted(LAW_ERRORS))
def test_law_errors_word_for_word(tmp_path, capsys, name, extra):
    config_text, profile, exit_code, message = LAW_ERRORS[name]
    code, out = run_case(tmp_path, config_text + extra, ["simulate", profile])
    assert code == exit_code
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("stem", sorted(CALIBRATE_CASES))
def test_calibrate_matches_golden_files(tmp_path, capsys, stem):
    observations, extra, exit_code = CALIBRATE_CASES[stem]
    out = tmp_path / "params.ini"
    code = main(["calibrate", observations, *extra, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert captured.err == ""
    assert out.read_bytes() == (GOLDEN / f"{stem}.ini").read_bytes()
