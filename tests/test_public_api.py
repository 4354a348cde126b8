"""The package's public surface: its modules, and what they no longer ship.

The modules are the API; the tsakit package module re-exports nothing.
Test-only references (the scalar two-phase law, the bicep grid scan and
statics, synthetic calibration endpoints) live under tests/, not in the
package; the package keeps what a command or the modelling workflow uses.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tsakit
import tsakit.calibration as calibration
import tsakit.cli as cli
import tsakit.config as config
import tsakit.model as model
from tsakit.bicep import sweep
from tsakit.calibration import fit_two_phase, grid_oracle
from tsakit.errors import CoilCapacityError, TriangleRangeError
from tsakit.hysteresis import PIModel, hysteretic_length
from tsakit.model import TwoPhaseParams, twist_profile

MODULES = [
    importlib.import_module(f"tsakit.{info.name}")
    for info in pkgutil.iter_modules(tsakit.__path__)
]

# Moved into tests/scalar_law.py and tests/oracles.py, or deleted. The
# training gate lives in the command line alone, not in the law, and
# parse_config builds every config section, with no builder per section.
# The bicep linkage maps are elementwise, with no scalar path beside them,
# and [training] builds one TrainingState, shortening included. The
# package module re-exports nothing, and the names no command, README
# example or acceptance check reached are deleted.
GONE = [
    "length",
    "length_regular",
    "max_theta",
    "bicep_grid_oracle",
    "_grid_scan",
    "gravity_torque",
    "dlength_dangle",
    "endpoints_from_params",
    "params_to_vector",
    "stop_responses",
    "_gate_open",
    "default_thresholds",
    "_advance",
    "string_spec",
    "load_case",
    "model_params",
    "pi_model",
    "resistance_params",
    "training_state",
    "bicep_load",
    "bicep_geometry",
    "bicep_sweep_grid",
    "bicep_pairs",
    "_residuals",
    "elbow_angle",
    "_check_length",
    "_training",
    "_unit_fraction",
    "__all__",
    "__version__",
    "advance_cycle",
    "bundle_diameter",
    "BUNDLE_FACTOR_REGULAR",
    "BUNDLE_FACTOR_OVERTWIST",
    "coil_circumference",
    "ParamBounds",
]

# Class attributes deleted with the names above; TwoPhaseParams keeps its
# coil_circumference property.
GONE_ATTRIBUTES = [
    (TwoPhaseParams, "theta_star_rev"),
    (TwoPhaseParams, "per_coil_shortening"),
    (model._Ops, "square"),
    (CoilCapacityError("message"), "theta_max"),
    (TriangleRangeError("message"), "lo"),
    (TriangleRangeError("message"), "hi"),
]


def test_package_import_loads_no_module():
    # A fresh interpreter: import tsakit adds itself to sys.modules and
    # nothing else, neither a tsakit submodule nor numpy.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import tsakit\n"
        "print(json.dumps([sorted(set(sys.modules) - before), hasattr(tsakit, '__all__')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tsakit.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env)
    assert json.loads(run.stdout) == [["tsakit"], False]


@pytest.mark.parametrize("name", GONE)
def test_test_only_name_is_not_shipped(name):
    for module in [tsakit, *MODULES]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "owner, name",
    GONE_ATTRIBUTES,
    ids=[f"{getattr(o, '__name__', type(o).__name__)}.{n}" for o, n in GONE_ATTRIBUTES],
)
def test_deleted_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)



@pytest.mark.parametrize("method", ["zeros", "reset", "copy", "step"])
def test_pimodel_has_no_test_only_methods(method):
    assert not hasattr(PIModel, method)


@pytest.mark.parametrize("function", [twist_profile, hysteretic_length, sweep])
def test_law_takes_no_training_state(function):
    assert "training" not in inspect.signature(function).parameters


@pytest.mark.parametrize("owner, name", [(TwoPhaseParams, "validate_for")])
def test_law_checks_and_clip_live_in_one_place(owner, name):
    # The endpoint mask holds validate_for's checks.
    assert not hasattr(owner, name)


def test_calibration_takes_no_box_or_cap():
    # The fit searches the one box of its observation and grid_oracle
    # refuses grids above GRID_CELL_CAP; a caller sets neither. An
    # iteration cap is passed by name, so a stale positional box fails.
    fit = inspect.signature(fit_two_phase).parameters
    assert list(fit) == ["obs", "max_iter"]
    assert fit["max_iter"].kind is inspect.Parameter.KEYWORD_ONLY
    assert list(inspect.signature(grid_oracle).parameters) == ["obs", "grid"]


def test_law_rounding_is_stated_in_model_alone():
    # calibration states the law through model, never a copy, and runs it
    # with model's op sets.
    for name in ("_law", "_coil", "_FLOAT_OPS", "_ARRAY_OPS"):
        assert vars(calibration).get(name, getattr(model, name)) is getattr(model, name)


def test_cli_reads_no_config_key():
    # parse_config builds each section into its value, so cli takes a
    # RunConfig field whole and never subscripts it or reads a key from it.
    tree = ast.parse(inspect.getsource(cli))
    sections = {field.name for field in dataclasses.fields(config.RunConfig)}

    def is_section(node):
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"
            and node.attr in sections
        )

    # Not vacuous: cli does take these sections as cfg.<section>.
    assert {"model", "training", "hysteresis", "string"} <= {
        node.attr for node in ast.walk(tree) if is_section(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            assert not is_section(node.value), f"cli.py:{node.lineno} subscripts a section"
        if isinstance(node, ast.Attribute) and node.attr in ("get", "items", "keys"):
            assert not is_section(node.value), f"cli.py:{node.lineno} reads a section's keys"


@pytest.mark.parametrize(
    "message", ["unknown columns", "repeated columns", "missing required columns"]
)
def test_csv_header_checks_are_stated_once(message):
    # Both CSV readers go through one header check.
    assert inspect.getsource(config).count(message) == 1


def test_load_case_has_no_gravity_field():
    # units.GRAVITY, through grams_to_newtons, is the one statement of g.
    assert [field.name for field in dataclasses.fields(model.LoadCase)] == ["mass"]
