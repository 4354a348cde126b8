"""Run configuration and file ingestion for the command line driver.

Configuration files are flat INI-style text: named sections of
key = value pairs, units encoded in key names, parsed strictly (unknown
sections or keys are errors, as are duplicates), and each section given
is built into its value when the file is read. CSV files carry a
mandatory header with units in the column names and are validated row
by row with line numbers in every diagnostic.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import functools
import importlib.resources
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bicep import BicepGeometry, _pair_arrays
from .calibration import OPTIONAL_ENDPOINTS, ObservedEndpoints
from .errors import ConfigError, CsvFormatError, ParameterError, TsaError
from .hysteresis import PIModel
from .model import LoadCase, Material, StringSpec, TwoPhaseParams
from .sensing import ResistanceParams
from .training import TrainingState
from .units import rev_to_rad


def _nonnegative(raw: str) -> float:
    """A finite number >= 0."""
    value = float(raw)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{raw!r} is not finite and >= 0")
    return value


def _twist_rev(raw: str) -> float:
    """A twist >= 0 in rev that is finite in rad too; NaN, inf and
    overflow to inf are out of range."""
    value = float(raw)
    if not 0.0 <= rev_to_rad(value) < math.inf:
        raise ValueError(f"{raw!r} is not finite and >= 0")
    return value


def _rad(raw: str) -> float:
    """A twist given in rev, in rad."""
    return rev_to_rad(float(raw))


def _numbers(raw: str) -> list:
    """A comma-separated list of finite numbers; blank entries are skipped."""
    values = [float(token) for token in raw.split(",") if token.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{raw!r} holds a non-finite number")
    return values


def _rad_list(raw: str) -> list:
    """A list of twists given in rev, in rad."""
    return [rev_to_rad(value) for value in _numbers(raw)]


def _whole_numbers(raw: str) -> tuple:
    """A number list whose entries are whole (6 or 6.0, not 6.9), as ints."""
    values = _numbers(raw)
    if not all(value.is_integer() for value in values):
        raise ValueError(f"{raw!r} holds a fraction")
    return tuple(int(value) for value in values)


def _pair(token: str) -> tuple:
    length, angle = token.split(":")
    return float(length), float(angle)


def _pairs(raw: str) -> list:
    """(length, angle) floats of length_mm:angle_deg pairs, comma separated."""
    return [_pair(token) for token in raw.split(",") if token.strip()]


def _count(minimum: int):
    """Converter of a whole number no less than minimum."""

    def convert(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"{raw!r} is below {minimum}")
        return value

    return convert


def _given(**fields) -> dict:
    """The keyword arguments whose value is not None.

    A caller passes a value its input leaves out as None, so that the
    dataclass or function default is the one statement of that default.
    """
    return {name: value for name, value in fields.items() if value is not None}


def _pi_model(thresholds=(0.0,), weights=()) -> PIModel:
    """[hysteresis]: the weights default to 0. The stop operator at
    threshold 0 is identically 0, so a weight there would be ignored."""
    model = PIModel(thresholds=thresholds, weights=weights or [0.0] * len(thresholds))
    if model.weights[0] != 0.0:
        raise ParameterError(
            f"the weight at threshold 0 must be 0, got {weights[0]!r}", field="weights"
        )
    return model


class BicepSection(NamedTuple):
    """[bicep]: an explicit geometry, or the pairs to fit one to; the
    payload and forearm keyword arguments of BicepGeometry and
    fit_bicep; the sweep's twist samples (rev), from 0 to theta_max_rev."""

    geometry: BicepGeometry | None
    pairs: list | None
    load: dict
    grid: np.ndarray


_ARM_KEYS = {"a": "a_mm", "b": "b_mm", "gamma": "gamma_deg"}


def _bicep(theta_max, samples=121, pairs=None, payload=None, forearm_length=None, **arms):
    """[bicep]: the whole a_mm/b_mm/gamma_deg triple or pairs, never both,
    so that no geometry key is read and then ignored."""
    given = [_ARM_KEYS[name] for name in arms] + ["pairs"] * (pairs is not None)
    if sorted(given) not in (sorted(_ARM_KEYS.values()), ["pairs"]):
        raise ParameterError(
            "needs either all of a_mm/b_mm/gamma_deg or pairs, not both; "
            f"it gives {', '.join(given) or 'none of them'}"
        )
    load = _given(payload=payload, forearm_length=forearm_length)
    if pairs is not None:
        _pair_arrays(pairs)    # the pairs fit_bicep would refuse are refused here
    geometry = None if pairs is not None else BicepGeometry(**arms, **load)
    return BicepSection(geometry, pairs, load, np.linspace(0.0, theta_max, samples))


# Section -> (the build of its value, {key: (field, converter)}). Each
# converter gives its key's value, and the build takes it as keyword
# argument field; a key the section leaves out takes the build's default.
_SCHEMA = {
    "string": (StringSpec, {
        "diameter_mm": ("diameter", float),
        "initial_length_mm": ("initial_length", float),
        "material": ("material", lambda raw: Material(raw.lower())),
        "ply": ("ply", int),
    }),
    "load": (LoadCase, {"mass_g": ("mass", float)}),
    "model": (TwoPhaseParams, {
        "r_eff_mm": ("r_eff", float),
        "theta_star_rev": ("theta_star", _rad),
        "coil_diameter_mm": ("coil_diameter", float),
        "coil_pitch_mm": ("coil_pitch", float),
        "eta": ("eta", float),
        "compliance_mm_per_n": ("compliance", float),
    }),
    # Read when a command needs it, by calibration_row: it names a second file.
    "calibration": (dict, {
        "observations": ("observations", str),
        "row": ("row", _count(1)),
        "max_iter": ("max_iter", _count(0)),
    }),
    "hysteresis": (_pi_model, {
        "thresholds_rev": ("thresholds", _rad_list),
        "weights_mm": ("weights", _numbers),
    }),
    "sensing": (ResistanceParams, {
        "r0_ohm": ("r0", float),
        "sensitivity_ohm_per_pct": ("sensitivity", float),
        "tau_transient_s": ("tau_transient", float),
        "transient_gain_ohm_per_pct": ("transient_gain", float),
        "creep_rate_ohm_per_cycle": ("creep_rate", float),
        "creep_saturation_ohm": ("creep_saturation", float),
    }),
    "training": (TrainingState, {
        "cycles": ("cycles_done", _count(0)),
        "trained_load_g": ("trained_load", float),
        "thresholds": ("thresholds", _whole_numbers),
        "shortening_fraction": ("shortening", float),
    }),
    "bicep": (_bicep, {
        "a_mm": ("a", float),
        "b_mm": ("b", float),
        "gamma_deg": ("gamma", float),
        "pairs": ("pairs", _pairs),
        "payload_g": ("payload", _nonnegative),
        "forearm_length_mm": ("forearm_length", _nonnegative),
        "theta_max_rev": ("theta_max", _twist_rev),
        "samples": ("samples", _count(1)),
    }),
}

_REQUIRED_KEYS = {
    "string": ("diameter_mm", "initial_length_mm", "material"),
    "load": ("mass_g",),
    "model": ("r_eff_mm", "theta_star_rev", "coil_diameter_mm", "coil_pitch_mm"),
    "sensing": ("r0_ohm", "sensitivity_ohm_per_pct", "tau_transient_s"),
    "calibration": ("observations",),
    "bicep": ("theta_max_rev",),
}


@dataclass
class RunConfig:
    """A configuration file as read: its path, and the value of each
    section it gives, or None for a section it leaves out."""

    path: str | None = None
    string: StringSpec | None = None
    load: LoadCase | None = None
    model: TwoPhaseParams | None = None
    calibration: dict | None = None
    hysteresis: PIModel | None = None
    sensing: ResistanceParams | None = None
    training: TrainingState | None = None
    bicep: BicepSection | None = None


def parse_config(path: str) -> RunConfig:
    """Read and strictly validate a configuration file.

    Every key is converted once, and every section the file gives is
    built into its value here, so a file is valid or refused as a whole,
    whatever the command. Each refusal names the file, and the
    section.key where one key decides it.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        build, schema = _SCHEMA[section]
        raws, fields = dict(parser.items(section)), {}
        for key, raw in raws.items():
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {path}")
            field, convert = schema[key]
            try:
                fields[field] = convert(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key} in {path}: {raw!r}"
                ) from exc
        for key in _REQUIRED_KEYS.get(section, ()):
            if key not in raws:
                raise ConfigError(f"section [{section}] of {path} is missing '{key}'")
        try:
            sections[section] = build(**fields)
        except (TsaError, ValueError) as exc:
            keys = [key for key in raws if schema[key][0] == getattr(exc, "field", None)]
            if keys:
                raise ConfigError(
                    f"bad value for {section}.{keys[0]} in {path}: {raws[keys[0]]!r}; {exc}"
                ) from exc
            raise ConfigError(f"bad [{section}] section in {path}: {exc}") from exc
    return RunConfig(path=path, **sections)


def calibration_row(cfg: RunConfig):
    """(ObservedEndpoints, fit_two_phase keyword arguments) of the
    [calibration] row that stands in for a missing [model]."""
    if cfg.calibration is None:
        raise ConfigError(
            f"{cfg.path} gives no [model] parameters and no [calibration] "
            "observations to fit them from"
        )
    block = cfg.calibration
    observations = read_observations(block["observations"])
    row = block.get("row", 1)
    if row > len(observations):
        raise ConfigError(
            f"bad value for calibration.row in {cfg.path}: {row} is outside "
            f"1..{len(observations)}"
        )
    return observations[row - 1], _given(max_iter=block.get("max_iter"))


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
    column reads as NaN. A row with fewer fields than the header is
    refused, not read as blank cells.
    """

    time: np.ndarray                        # s
    theta: np.ndarray | None = None         # rev
    length: np.ndarray | None = None        # mm
    force: np.ndarray | None = None         # N
    resistance: np.ndarray | None = None    # ohm

    def __len__(self) -> int:
        return self.time.size


@contextlib.contextmanager
def _csv_table(path, known, required):
    """The open file and a csv.DictReader past its checked header.

    Refuses an unreadable or empty file, then unknown, repeated and
    missing column names, in that order, at line 1.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise CsvFormatError(f"{path} is empty; expected a header row")
        unknown = set(header) - set(known)
        if unknown:
            raise CsvFormatError(f"{path}: unknown columns {sorted(unknown)}", line=1)
        repeated = {name for name in header if header.count(name) > 1}
        if repeated:
            raise CsvFormatError(f"{path}: repeated columns {sorted(repeated)}", line=1)
        missing = set(required) - set(header)
        if missing:
            raise CsvFormatError(f"{path}: missing required columns {sorted(missing)}", line=1)
        yield handle, reader


def _rows(path, reader):
    """(line, record) of each row, its width checked by _check_row_width."""
    for record in reader:
        _check_row_width(path, reader, record, reader.line_num)
        yield reader.line_num, record


def _number(path, line, column, value):
    """A cell as a float, or None when blank or not in the header."""
    if value is None or value.strip() == "":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise CsvFormatError(
            f"{path}: bad number {value!r} in column {column}", line=line
        ) from exc


def read_experiment_log(path: str, required=("time_s",)) -> ExperimentLog:
    """Read a CSV experiment log into one array per column.

    The header must name known columns, each once, and include every
    required column. Every row must have one field per header column,
    every value must be a finite number, blank cells are allowed only in
    optional columns, and time must be strictly increasing.
    """
    with _csv_table(path, _LOG_COLUMNS, required) as (handle, reader):
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
    columns = {name: table[:, i] for i, name in enumerate(fieldnames)}
    if not np.all(np.diff(columns["time_s"]) > 0):
        return None
    return columns


def _check_row_width(path, reader, record, line):
    """Refuse a csv.DictReader row with more or fewer fields than its
    header (the reader fills a missing field with None)."""
    extra = len(record.get(None, ()))
    missing = sum(value is None for value in record.values())
    if extra or missing:
        raise CsvFormatError(
            f"{path}: row has {len(reader.fieldnames) + extra - missing} fields, "
            f"header has {len(reader.fieldnames)}",
            line=line,
        )


def _validated_columns(path, reader, required):
    """The log body checked row by row: the reference for every value and error."""
    columns = {name: [] for name in reader.fieldnames}
    last_time = None
    for line, record in _rows(path, reader):
        parsed = {}
        for column, value in record.items():
            parsed[column] = _number(path, line, column, value)
            if parsed[column] is not None and not math.isfinite(parsed[column]):
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
    out = []
    with _csv_table(path, (*_OBS_REQUIRED, *_OBS_OPTIONAL), _OBS_REQUIRED) as (_, reader):
        for line, record in _rows(path, reader):

            def number(column, record=record, line=line, optional=False):
                value = _number(path, line, column, record.get(column))
                if value is None and not optional:
                    raise CsvFormatError(f"{path}: missing {column}", line=line)
                return value

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
                    **_given(ply=int(ply_raw) if ply_raw else None),
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
    """A number as every CSV output writes it: %.10g, 10 significant digits."""
    return format(float(value), ".10g")


_CHUNK_ROWS = 8192
_PAD = 0xFF          # never a byte of UTF-8 text; cut from every formatted chunk
_NUMBER_BYTES = 17   # the longest %.10g of a double: -1.234567891e-308

# Tables of the column formatter. A cell is 16 bytes held as two
# little-endian uint64 words, (low, high): its first byte is the lowest.
# numpy shifts by 64 bits or more give 0, which the word carries rely on.
_U64 = np.uint64


def _quads():
    """The four ASCII digits of 0..9999, first digit in the lowest byte,
    and the trailing zeros of each (4 for 0)."""
    digits = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]
    text = sum(d + 48 << 8 * i for i, d in enumerate(digits))
    zeros = 0
    for d in digits:
        zeros = (zeros + 1) * (d == 0)
    return text.ravel().astype(_U64), zeros.ravel()


def _low_bytes(k):
    """The low k bytes of a cell set, k = 0..16, as (low word, high word)."""
    k8 = (8 * k).astype(_U64)
    return ~(~_U64(0) << k8), ~(~_U64(0) << k8 - _U64(64)) * (k8 > 64)


def _layouts():
    """The %.10g layout of each class (exponent + 31, digits, negative).

    The ten digits split after the first p, where a point may go. The
    cell is the digits with a one-byte gap there, shifted left by `shift`
    bits past the sign and "0.000" prefix, cut to the bytes in `keep`,
    with `add` laid over them: prefix, point, "e+XX" and the padding.
    """
    e, nd, neg = np.ix_(np.arange(-31, 32), np.arange(11), np.arange(2))
    fixed = (e >= -4) & (e < 10)
    q = np.where(fixed & (e < 0), 1 - e, 0)           # bytes of "0.000" before the digits
    p = np.where(fixed, np.where(e >= 0, e + 1, nd), 1)
    point = nd > p
    before = neg + q
    k = before + np.where(point, nd + 1, p)           # bytes up to the last digit
    prefix = np.array(
        [int.from_bytes(sign + b"0.000"[:i], "little") for sign in (b"", b"-") for i in range(6)],
        dtype=_U64,
    )[6 * neg + q]
    exponent = np.array(
        [0 if -4 <= i < 10 else int.from_bytes(b"e%+03d" % i, "little") for i in range(-31, 32)],
        dtype=_U64,
    )[e + 31]
    dot = point * _U64(0x2E)
    dot8, k8 = (8 * (before + p)).astype(_U64), (8 * k).astype(_U64)
    keep = _low_bytes(k)
    pad = _low_bytes(k + 4 * ~fixed)
    add0 = prefix | dot << dot8 | exponent << k8 | ~pad[0]
    add1 = (dot << dot8 - _U64(64) | exponent >> _U64(64) - k8 | exponent << k8 - _U64(64)
            | ~pad[1])
    return tuple(
        np.broadcast_to(a, k.shape).ravel()
        for a in (*_low_bytes(p), (8 * before).astype(_U64), *keep, add0, add1)
    )


@functools.cache
def _tables():
    """The formatter's tables, built on first use: about 2 ms in a fresh
    process, which importing tsakit for commands that write no CSV skips."""
    pow10 = np.array([float(f"1e{k}") for k in range(-21, 41)])   # 10**k at [k + 21]
    return (pow10, *_quads(), *_layouts())


def _format_numbers(x: np.ndarray, out: np.ndarray) -> None:
    """Write format_number of each float into out, (n, 17) bytes padded with _PAD.

    Float arithmetic gives each value's decimal exponent e and its
    10-digit mantissa r = round(|x| * 10**(9 - e)). The digits of r and
    the %g layout are then integer operations on the two words of a cell.
    A value keeps that result only where it is provably format_number's:
    1e-30 <= |x| < 1e30, so that the scaling is off by at most a few ulp
    of r, and the fraction being rounded lies at least 1e-5 from 1/2,
    which that error cannot cross. The rest (ties, tiny, huge, inf and
    nan) go through format_number one by one; zeros need neither.
    """
    pow10, quad_text, quad_zeros, gap0, gap1, shifts, keep0, keep1, add0, add1 = _tables()
    mag = np.abs(x)
    fast = (mag >= 1e-30) & (mag < 1e30)
    zero = x == 0
    mag = np.where(fast, mag, 0.0)
    # 2**(b-1) <= mag < 2**b gives e or e - 1; the scaled mantissa says which.
    e = np.floor((np.frexp(mag)[1] - 1) * 0.3010299956639812).astype(np.intp)
    e[zero] = 0
    m = mag * pow10[30 - e]
    e += m >= 1e10
    m = mag * pow10[30 - e]
    r = np.rint(m)
    fast &= np.abs(m - np.floor(m) - 0.5) >= 1e-5
    carry = r >= 1e10                 # 9999999999.5 rounds up to 1e+10
    r[carry] = 1e9
    e += carry

    # The ten ASCII digits of r, by groups of four from the digit table.
    head = np.floor(r / 1e8)
    tail = r - head * 1e8
    upper = np.floor(tail / 1e4)
    lower = (tail - upper * 1e4).astype(np.intp)
    head, upper = head.astype(np.intp), upper.astype(np.intp)
    last = quad_text[lower]
    d0 = quad_text[head] >> _U64(16) | quad_text[upper] << _U64(16) | last << _U64(48)
    d1 = last >> _U64(16)
    # Significant digits once trailing zeros go; r == 0 counts 12 zeros.
    zeros = quad_zeros[lower] + (lower == 0) * (
        quad_zeros[upper] + (upper == 0) * quad_zeros[head]
    )
    nd = np.maximum(10 - zeros, 1)

    # %g layout from the class tables: a gap for the point after p
    # digits, the shift past the prefix, then the added bytes.
    cls = (e + 31) * 22 + nd * 2 + np.signbit(x)
    low0, low1 = gap0[cls], gap1[cls]
    rest = d0 & ~low0
    w0 = d0 & low0 | rest << _U64(8)
    w1 = d1 & low1 | (d1 & ~low1) << _U64(8) | rest >> _U64(56)
    shift = shifts[cls]
    words = out[:, :16].view("<u8")    # little-endian on any host
    words[:, 0] = w0 << shift & keep0[cls] | add0[cls]
    words[:, 1] = (w1 << shift | w0 >> _U64(64) - shift) & keep1[cls] | add1[cls]
    out[:, 16] = _PAD
    for i in np.flatnonzero(~(fast | zero)):
        text = format_number(x[i]).encode("ascii")
        out[i] = _PAD
        out[i, : len(text)] = np.frombuffer(text, np.uint8)


def _text_cells(column) -> np.ndarray:
    """str(cell) of each cell in UTF-8, as (n, width) bytes padded with _PAD."""
    cells = None
    if isinstance(column, np.ndarray) and column.dtype.kind == "U":
        codes = np.ascontiguousarray(column).view(np.uint32).reshape(len(column), -1)
        if codes.max() < 128:    # ASCII: one byte per code point
            cells, sizes = codes.astype(np.uint8), np.char.str_len(column)
    if cells is None:    # a list of str may end in NULs, which numpy strings drop
        encoded = [str(cell).encode("utf-8") for cell in column]
        text = np.array(encoded, dtype=np.bytes_)
        cells = text.view(np.uint8).reshape(len(encoded), text.dtype.itemsize)
        sizes = np.array([len(cell) for cell in encoded])
    cells[np.arange(cells.shape[1]) >= sizes[:, None]] = _PAD
    return cells


def write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under a header row.

    columns is any iterable of 1-D columns (arrays or sequences). A
    column whose first cell is a string is written as is, in UTF-8; any
    other column is read as float64 and written as format_number writes
    each cell (%.10g, 10 significant digits), so a re-run writes the same
    bytes. Numbers are formatted a chunk of rows at a time in numpy.
    """
    columns = [
        _text_cells(c) if len(c) and isinstance(c[0], str) else np.asarray(c, dtype=np.float64)
        for c in columns
    ]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("write_csv columns must have equal length")
    rows = len(columns[0]) if columns else 0
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = [c[start : start + _CHUNK_ROWS] for c in columns]
            widths = [_NUMBER_BYTES if c.ndim == 1 else c.shape[1] for c in chunk]
            table = np.empty((len(chunk[0]), sum(widths) + len(widths)), np.uint8)
            at = 0
            for cells, width in zip(chunk, widths):
                if cells.ndim == 1:
                    _format_numbers(cells, table[:, at : at + width])
                else:
                    table[:, at : at + width] = cells
                at += width + 1
                table[:, at - 1] = ord(",")
            table[:, -1] = ord("\n")
            handle.write(table.tobytes().translate(None, bytes([_PAD])))
