"""Run configuration and file ingestion for the command line driver.

Configuration files are flat INI-style text: named sections of
key = value pairs, units encoded in key names, parsed strictly (unknown
sections or keys are errors, as are duplicates). CSV files carry a
mandatory header with units in the column names and are validated row
by row with line numbers in every diagnostic.
"""

from __future__ import annotations

import configparser
import csv
import importlib.resources
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bicep import BicepGeometry
from .calibration import OPTIONAL_ENDPOINTS, ObservedEndpoints
from .errors import ConfigError, CsvFormatError, ParameterError
from .hysteresis import PIModel
from .model import LoadCase, Material, StringSpec
from .sensing import ResistanceParams
from .training import DEFAULT_STAGE_THRESHOLDS, DEFAULT_TRAINING_SHORTENING, TrainingState
from .units import rev_to_rad

# Section -> {key: converter}; None marks an optional section-level choice
# validated after parsing.
_SCHEMA = {
    "string": {
        "diameter_mm": float,
        "initial_length_mm": float,
        "material": str,
        "ply": int,
    },
    "load": {"mass_g": float},
    "model": {
        "r_eff_mm": float,
        "theta_star_rev": float,
        "coil_diameter_mm": float,
        "coil_pitch_mm": float,
        "eta": float,
        "compliance_mm_per_n": float,
    },
    "calibration": {
        "observations": str,
        "row": int,
        "max_iter": int,
    },
    "hysteresis": {
        "thresholds_rev": str,
        "weights_mm": str,
    },
    "sensing": {
        "r0_ohm": float,
        "sensitivity_ohm_per_pct": float,
        "tau_transient_s": float,
        "transient_gain_ohm_per_pct": float,
        "creep_rate_ohm_per_cycle": float,
        "creep_saturation_ohm": float,
    },
    "training": {
        "cycles": int,
        "trained_load_g": float,
        "thresholds": str,
        "shortening_fraction": float,
    },
    "bicep": {
        "a_mm": float,
        "b_mm": float,
        "gamma_deg": float,
        "pairs": str,
        "payload_g": float,
        "forearm_length_mm": float,
        "theta_max_rev": float,
        "samples": int,
    },
}

_REQUIRED_KEYS = {
    "string": ("diameter_mm", "initial_length_mm", "material"),
    "load": ("mass_g",),
    "model": ("r_eff_mm", "theta_star_rev", "coil_diameter_mm", "coil_pitch_mm"),
    "sensing": ("r0_ohm", "sensitivity_ohm_per_pct", "tau_transient_s"),
    "calibration": ("observations",),
}


@dataclass
class RunConfig:
    """Parsed configuration, one optional block per concern."""

    string: dict | None = None
    load: dict | None = None
    model: dict | None = None
    calibration: dict | None = None
    hysteresis: dict | None = None
    sensing: dict | None = None
    training: dict | None = None
    bicep: dict | None = None


def parse_config(path: str) -> RunConfig:
    """Read and strictly validate a configuration file."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    blocks = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        schema = _SCHEMA[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {path}")
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key} in {path}: {raw!r}"
                ) from exc
        for key in _REQUIRED_KEYS.get(section, ()):
            if key not in values:
                raise ConfigError(f"section [{section}] of {path} is missing '{key}'")
        blocks[section] = values
    return RunConfig(**{name: blocks.get(name) for name in _SCHEMA})


def _float_list(raw: str, context: str) -> list:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad number list for {context}: {raw!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"non-finite number in {context}: {raw!r}")
    return values


def string_spec(cfg: RunConfig) -> StringSpec:
    if cfg.string is None:
        raise ConfigError("a [string] section is required for this command")
    block = cfg.string
    try:
        material = Material(block["material"].lower())
    except ValueError:
        raise ConfigError(
            f"string.material must be 'stiff' or 'compliant', got {block['material']!r}"
        ) from None
    return StringSpec(
        diameter=block["diameter_mm"],
        initial_length=block["initial_length_mm"],
        material=material,
        ply=block.get("ply", 1),
    )


def load_case(cfg: RunConfig) -> LoadCase:
    if cfg.load is None:
        raise ConfigError("a [load] section is required for this command")
    return LoadCase(mass=cfg.load["mass_g"])


def model_params(cfg: RunConfig):
    """TwoPhaseParams from the [model] block, or None when absent."""
    if cfg.model is None:
        return None
    from .model import TwoPhaseParams

    block = cfg.model
    return TwoPhaseParams(
        r_eff=block["r_eff_mm"],
        theta_star=rev_to_rad(block["theta_star_rev"]),
        coil_diameter=block["coil_diameter_mm"],
        coil_pitch=block["coil_pitch_mm"],
        eta=block.get("eta", 1.0),
        compliance=block.get("compliance_mm_per_n", 0.0),
    )


def pi_model(cfg: RunConfig):
    """PIModel from the [hysteresis] block, or None when absent."""
    if cfg.hysteresis is None:
        return None
    block = cfg.hysteresis
    thresholds = [
        rev_to_rad(v) for v in _float_list(block.get("thresholds_rev", "0"), "hysteresis.thresholds_rev")
    ]
    weights = _float_list(block.get("weights_mm", ""), "hysteresis.weights_mm")
    if not weights:
        weights = [0.0] * len(thresholds)
    if len(weights) != len(thresholds):
        raise ConfigError("hysteresis thresholds and weights must have equal length")
    return PIModel(thresholds=np.array(thresholds), weights=np.array(weights))


def resistance_params(cfg: RunConfig) -> ResistanceParams:
    if cfg.sensing is None:
        raise ConfigError("a [sensing] section is required for this command")
    block = cfg.sensing
    return ResistanceParams(
        r0=block["r0_ohm"],
        sensitivity=block["sensitivity_ohm_per_pct"],
        tau_transient=block["tau_transient_s"],
        transient_gain=block.get("transient_gain_ohm_per_pct", 0.0),
        creep_rate=block.get("creep_rate_ohm_per_cycle", 0.0),
        creep_saturation=block.get("creep_saturation_ohm", float("inf")),
    )


def training_state(cfg: RunConfig):
    """(TrainingState, shortening fraction) from [training], or None."""
    if cfg.training is None:
        return None
    block = cfg.training
    raw = block.get("thresholds")
    thresholds = (
        DEFAULT_STAGE_THRESHOLDS if raw is None
        else tuple(int(v) for v in _float_list(raw, "training.thresholds"))
    )
    state = TrainingState(
        cycles_done=block.get("cycles", 0),
        trained_load=block.get("trained_load_g", 0.0),
        thresholds=thresholds,
    )
    return state, block.get("shortening_fraction", DEFAULT_TRAINING_SHORTENING)


def bicep_geometry(cfg: RunConfig):
    """Explicit BicepGeometry from [bicep], or None when it must be fitted."""
    block = cfg.bicep or {}
    if all(k in block for k in ("a_mm", "b_mm", "gamma_deg")):
        return BicepGeometry(
            a=block["a_mm"],
            b=block["b_mm"],
            gamma=block["gamma_deg"],
            payload=block.get("payload_g", 0.0),
            forearm_length=block.get("forearm_length_mm", 0.0),
        )
    return None


def bicep_pairs(cfg: RunConfig):
    """(length, angle) pairs from [bicep] pairs = l:phi,l:phi,..."""
    block = cfg.bicep or {}
    raw = block.get("pairs")
    if raw is None:
        return None
    pairs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            l, phi = token.split(":")
            pairs.append((float(l), float(phi)))
        except ValueError as exc:
            raise ConfigError(f"bad bicep pair {token!r}; expected length_mm:angle_deg") from exc
    return pairs


# ---------------------------------------------------------------------------
# CSV ingestion

# Column name -> ExperimentLog field.
_LOG_COLUMNS = {
    "time_s": "time",
    "theta_rev": "theta",
    "length_mm": "length",
    "force_n": "force",
    "resistance_ohm": "resistance",
}


@dataclass(frozen=True)
class ExperimentLog:
    """A logged actuation experiment, one float array per column.

    A column absent from the file is None; a blank cell in an optional
    column reads as NaN.
    """

    time: np.ndarray                        # s
    theta: np.ndarray | None = None         # rev
    length: np.ndarray | None = None        # mm
    force: np.ndarray | None = None         # N
    resistance: np.ndarray | None = None    # ohm

    def __len__(self) -> int:
        return self.time.size


def read_experiment_log(path: str, required=("time_s",)) -> ExperimentLog:
    """Read a CSV experiment log into one array per column.

    The header must be a subset of the known column names and include
    every required column. Every value must be a finite number, blank
    cells are allowed only in optional columns, and time must be
    strictly increasing.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path} is empty; expected a header row")
        unknown = set(reader.fieldnames) - set(_LOG_COLUMNS)
        if unknown:
            raise CsvFormatError(f"{path}: unknown columns {sorted(unknown)}", line=1)
        missing = set(required) - set(reader.fieldnames)
        if missing:
            raise CsvFormatError(f"{path}: missing required columns {sorted(missing)}", line=1)
        columns = None
        if handle.seekable():    # a pipe cannot be rewound for the row validator
            columns = _parsed_columns(handle, reader.fieldnames)
            if columns is None:
                handle.seek(0)
                reader = csv.DictReader(handle)
        if columns is None:
            columns = _validated_columns(path, reader, required)
    return ExperimentLog(**{_LOG_COLUMNS[name]: values for name, values in columns.items()})


def _parsed_columns(handle, fieldnames):
    """The log body in one C-level parse, or None to validate it row by row.

    Returns None whenever the body is anything but a non-empty table of
    finite numbers, one per header column, with increasing time; the row
    validator then defines the result or the error.
    """
    if "time_s" not in fieldnames:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # such as "input contained no data"
            table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[1] != len(fieldnames) or not np.isfinite(table).all():
        return None
    # A repeated column name keeps its last column, as csv.DictReader does.
    columns = {name: table[:, i] for i, name in enumerate(fieldnames)}
    if not np.all(np.diff(columns["time_s"]) > 0):
        return None
    return columns


def _validated_columns(path, reader, required):
    """The log body checked row by row: the reference for every value and error."""
    columns = {name: [] for name in reader.fieldnames}
    last_time = None
    for record in reader:
        line = reader.line_num
        if None in record:
            raise CsvFormatError(
                f"{path}: row has {len(reader.fieldnames) + len(record[None])} fields, "
                f"header has {len(reader.fieldnames)}",
                line=line,
            )
        parsed = {}
        for column, value in record.items():
            if value is None or value.strip() == "":
                parsed[column] = None
                continue
            try:
                parsed[column] = float(value)
            except ValueError as exc:
                raise CsvFormatError(
                    f"{path}: bad number {value!r} in column {column}", line=line
                ) from exc
            if not math.isfinite(parsed[column]):
                raise CsvFormatError(
                    f"{path}: non-finite number {value!r} in column {column}", line=line
                )
        if parsed.get("time_s") is None:
            raise CsvFormatError(f"{path}: missing time_s value", line=line)
        for column in required:
            if parsed.get(column) is None:
                raise CsvFormatError(f"{path}: missing {column} value", line=line)
        if last_time is not None and parsed["time_s"] <= last_time:
            raise CsvFormatError(
                f"{path}: time_s must be strictly increasing", line=line
            )
        last_time = parsed["time_s"]
        for column, value in parsed.items():
            columns[column].append(math.nan if value is None else value)
    if last_time is None:
        raise CsvFormatError(f"{path}: no data rows")
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


_OBS_REQUIRED = (
    "diameter_mm",
    "initial_length_mm",
    "material",
    "mass_g",
    "theta_max_rev",
    "contraction_regular_pct",
    "contraction_total_pct",
)
_OBS_OPTIONAL = ("ply", *OPTIONAL_ENDPOINTS)


def read_observations(path: str) -> list:
    """Read characterization endpoints (one ObservedEndpoints per row)."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    out = []
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path} is empty; expected a header row")
        known = set(_OBS_REQUIRED) | set(_OBS_OPTIONAL)
        unknown = set(reader.fieldnames) - known
        if unknown:
            raise CsvFormatError(f"{path}: unknown columns {sorted(unknown)}", line=1)
        missing = set(_OBS_REQUIRED) - set(reader.fieldnames)
        if missing:
            raise CsvFormatError(f"{path}: missing required columns {sorted(missing)}", line=1)
        for record in reader:
            line = reader.line_num

            def number(column, record=record, line=line, optional=False):
                value = record.get(column)
                if value is None or value.strip() == "":
                    if optional:
                        return None
                    raise CsvFormatError(f"{path}: missing {column}", line=line)
                try:
                    return float(value)
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}: bad number {value!r} in column {column}", line=line
                    ) from exc

            material_raw = (record.get("material") or "").strip().lower()
            try:
                material = Material(material_raw)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: material must be stiff or compliant, got {material_raw!r}",
                    line=line,
                ) from None
            ply_raw = (record.get("ply") or "").strip()
            try:
                spec = StringSpec(
                    diameter=number("diameter_mm"),
                    initial_length=number("initial_length_mm"),
                    material=material,
                    ply=int(ply_raw) if ply_raw else 1,
                )
                obs = ObservedEndpoints(
                    spec=spec,
                    load=LoadCase(mass=number("mass_g")),
                    theta_max_rev=number("theta_max_rev"),
                    contraction_regular_pct=number("contraction_regular_pct"),
                    contraction_total_pct=number("contraction_total_pct"),
                    **{name: number(name, optional=True) for name in OPTIONAL_ENDPOINTS},
                )
            except CsvFormatError:
                raise
            except (ValueError, ParameterError) as exc:
                raise CsvFormatError(f"{path}: {exc}", line=line) from exc
            out.append(obs)
    if not out:
        raise CsvFormatError(f"{path}: no observations")
    return out


def bundled_stiff_path() -> str:
    """Path of the packaged characterization fixture (three stiff pairs)."""
    return str(importlib.resources.files("tsakit").joinpath("data/stiff_observations.csv"))


def bundled_compliant_path() -> str:
    """Path of the packaged 6-ply compliant characterization fixture."""
    return str(importlib.resources.files("tsakit").joinpath("data/scp_6ply.csv"))


# ---------------------------------------------------------------------------
# CSV output

def format_number(value) -> str:
    return format(float(value), ".10g")


def write_csv(path: str, header, rows) -> None:
    """Write rows of mixed numbers and strings with stable formatting.

    Each column keeps the kind of its first row's cell: a string is
    written as is, a number as format_number writes it. Plain Python
    scalars format fastest.
    """
    rows = iter(rows)
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        # "%.10g" % v is format_number(v) for every real number type.
        line = ",".join("%s" if isinstance(cell, str) else "%.10g" for cell in first) + "\n"
        handle.write(line % tuple(first))
        handle.writelines(line % tuple(row) for row in rows)
