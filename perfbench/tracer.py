"""In-memory span tracer for one traced benchmark pass.

Spans are recorded from the benchmark's side of each layer boundary, with
no edit to the package: its functions are wrapped where each module
imports them (``tsakit.cli.state_at``, ``tsakit.hysteresis.length``) or
where the caller reaches them through a module (``tsakit.config.write_csv``,
``tsakit.calibration.residual``), and module imports are timed through the
import system's ``_find_and_load``.

Coarse calls (commands, fits, scans, file I/O, imports) are kept as full
spans: id, parent id, cause id, layer, name, start and end. The per-sample
model functions and the calibration residual run millions of times per
pass, so each of those keeps an exact call count with total and self time
instead. A call's self time is its duration minus the time its wrapped
children cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PENALTY_RESIDUAL = 1e9

# Package module -> layer. training, units and errors get no metrics.
LAYERS = {
    "tsakit.cli": "cli",
    "tsakit.config": "config",
    "tsakit.model": "model",
    "tsakit.calibration": "calibration",
    "tsakit.hysteresis": "hysteresis",
    "tsakit.sensing": "sensing",
    "tsakit.bicep": "bicep",
}

# Functions reached through their own module, as in cfgmod.write_csv or
# bicep_mod.fit_bicep, or called inside their own layer but timed apart.
OWN_MODULE = {
    "tsakit.cli": ("main",),
    "tsakit.config": (
        "parse_config", "read_experiment_log", "read_observations", "write_csv",
        "string_spec", "load_case", "model_params", "pi_model",
        "resistance_params", "training_state", "bicep_geometry", "bicep_pairs",
    ),
    "tsakit.calibration": ("residual", "minimize", "grid_oracle"),
    "tsakit.sensing": ("detrend_creep",),
    "tsakit.bicep": ("fit_bicep", "sweep", "string_tension"),
}

# Everything else wrapped is hot: aggregated, not kept span by span.
SPANS = {
    "main", "fit_two_phase", "minimize", "grid_oracle", "hysteretic_length",
    "estimate_strain", "detrend_creep", "fit_bicep", "sweep",
} | set(OWN_MODULE["tsakit.config"])


def import_layer(module_name: str) -> str:
    if module_name in LAYERS:
        return LAYERS[module_name]
    root = module_name.partition(".")[0]
    return root if root in ("tsakit", "scipy", "numpy") else "ext"


class Tracer:
    def __init__(self):
        self.cause = "import"
        self.spans = []                      # (id, parent, cause, layer, name, start_ns, end_ns)
        self.stats = {}                      # (layer, name) -> [calls, total_ns, self_ns]
        self.counters = defaultdict(int)     # (cause, key) -> exact count
        self._frames = [[0]]                 # time covered by wrapped children, per open call
        self._open_spans = [0]

    def _stat(self, layer, name):
        return self.stats.setdefault((layer, name), [0, 0, 0])

    def hot(self, fn, layer, name, after=None):
        frames, clock, stat = self._frames, time.perf_counter_ns, self._stat(layer, name)

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def span(self, fn, layer, name, after=None, label=None):
        """Wrap fn so that every call is kept as a span.

        label, when given, maps the call's arguments to (layer, name).
        """
        frames, spans, open_spans = self._frames, self.spans, self._open_spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_layer, span_name = label(args) if label else (layer, name)
            span_id = len(spans) + 1
            parent = open_spans[-1]
            frame = [0]
            frames.append(frame)
            open_spans.append(span_id)
            spans.append(None)                # reserve the id; filled in at exit
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                open_spans.pop()
                frames[-1][0] += elapsed
                spans[span_id - 1] = (span_id, parent, self.cause, span_layer, span_name, start, end)
                stat = self._stat(span_layer, span_name)
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def hook_imports(self):
        """Time every module import from now on, one span per module."""
        bootstrap = sys.modules["_frozen_importlib"]
        bootstrap._find_and_load = self.span(
            bootstrap._find_and_load, None, None,
            label=lambda args: (import_layer(args[0]), "import " + args[0]),
        )

    def wrap_package(self):
        """Install the function wrappers; call after tsakit.cli is imported."""
        counters = self.counters

        def count(key, measure):
            def after(result):
                counters[self.cause, key] += measure(result)
            return after

        def residual_outcome(value):
            counters[self.cause, "residual_calls"] += 1
            counters[self.cause, "residual_penalties"] += value == PENALTY_RESIDUAL

        hooks = {
            "residual": residual_outcome,
            "minimize": count("nm_iterations", lambda r: int(r.nit)),
            "read_experiment_log": count("rows_read", len),
            "read_observations": count("rows_read", len),
        }
        for module_name, layer in LAYERS.items():
            module = sys.modules[module_name]
            targets = {}
            for attr, obj in vars(module).items():
                home = getattr(obj, "__module__", None)
                if inspect.isfunction(obj) and home in LAYERS and home != module_name:
                    targets[attr] = (obj, LAYERS[home])
            for attr in OWN_MODULE.get(module_name, ()):
                if hasattr(module, attr):
                    targets[attr] = (getattr(module, attr), layer)
            for attr, (fn, fn_layer) in targets.items():
                if attr == "write_csv":
                    fn = self._counting_writer(fn)
                make = self.span if attr in SPANS else self.hot
                setattr(module, attr, make(fn, fn_layer, attr, after=hooks.get(attr)))

    def _counting_writer(self, write_csv):
        counters = self.counters

        def counted(rows):
            count = 0
            for count, row in enumerate(rows, 1):
                yield row
            counters[self.cause, "rows_written"] += count

        def writer(path, header, rows, *args, **kwargs):
            return write_csv(path, header, counted(rows), *args, **kwargs)

        return writer

    def summary(self) -> dict:
        """Per-layer self time, per-function counts and the span list."""
        layer_self = defaultdict(int)
        functions = {}
        for (layer, name), (calls, total, self_ns) in self.stats.items():
            layer_self[layer] += self_ns
            if calls and not name.startswith("import "):
                functions[f"{layer}.{name}"] = [calls, total / 1e9, self_ns / 1e9]
        counters = defaultdict(dict)
        for (cause, key), value in self.counters.items():
            counters[cause][key] = value
        spans = [s for s in self.spans if s is not None]
        layer_of = {s[0]: s[3] for s in spans}
        cli_import = [s for s in spans if s[4] == "import tsakit.cli" and s[1] == 0]
        scipy_outer = [s for s in spans if s[3] == "scipy" and layer_of.get(s[1]) != "scipy"]
        return {
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
            "functions": functions,
            "counters": counters,
            "cli_import_s": sum(s[6] - s[5] for s in cli_import) / 1e9,
            "scipy_import_s": sum(s[6] - s[5] for s in scipy_outer) / 1e9,
            "spans": spans,
        }
