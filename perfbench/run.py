"""tsakit benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload simulate_hyst --seed 1 --seconds 15 --trace 0

A pass is one fresh, single-threaded interpreter that imports tsakit, runs
the workload's steps through ``tsakit.cli.main`` or the public API, and
exits; users of the CLI pay its start-up on every command. A run makes one
warm-up pass, which fills the bytecode cache and gives the reference
output, then passes back to back (a closed loop, one client) until
--seconds have elapsed. Every pass repeats the same job, and its outputs
are checked against the closed-form oracle in oracle.py.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes on the same jobs: the traced passes give the per-layer
metrics, and the pair gives the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts the job's operations once,
however many passes repeat them, and failed counts those that failed on
any pass: both depend on the seed alone, not on how many passes fit in the
run. A readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True    # this process writes no bytecode next to what it imports

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 120
PYCACHE = HERE / ".pycache"
REPORTED_LAYERS = ("cli", "config", "model", "calibration", "hysteresis", "sensing", "bicep")


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    work_s: float
    rss_mib: float
    result: dict


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"                 # the same dict layouts in every pass
    # Bytecode is cached, as after an install, but only inside the
    # benchmark's directory: the benchmark writes nowhere outside its
    # checkout. The cache outlives the run, because removing its hundreds
    # of directories can take seconds of disk wait at the end of every run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run_pass(job, traced, work, env, outputs):
    """Run one pass in a fresh interpreter; None if it produced no result.

    Files the pass writes are deleted first: truncating a file that still
    has unwritten data can wait for the disk, which is no part of the program.
    """
    job_path, result_path = work / "job.json", work / "result.json"
    for path in (job_path, result_path, *outputs):
        path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    command = [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path),
               "1" if traced else "0"]
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    ended = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        print(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Pass(result["imported"] - launched, ended - launched, result["work_s"],
                result["maxrss_kib"] / 1024.0, result)


class Tally:
    """Operations attempted and failed, and output checks, over a run."""

    def __init__(self):
        self.operations = set()
        self.failures = {}           # operation -> why it first failed
        self.wrong = []
        self.fit_ratios = []
        self.strain_rmse_pct = None

    @property
    def attempted(self):
        return len(self.operations)

    @property
    def failed(self):
        return len(self.failures)

    def add(self, check):
        self.operations.update(check.operations)
        for operation, why in check.failures.items():
            self.failures.setdefault(operation, why)
        self.wrong.extend(check.wrong)
        self.fit_ratios.extend(check.fit_ratios)
        if check.strain_rmse_pct is not None:
            self.strain_rmse_pct = check.strain_rmse_pct


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """Highest nearest-rank percentile with ten passes beyond it, when at or above p50."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def end_to_end(workload, passes):
    return {
        "setup_s": (median([p.setup_s for p in passes]), "s"),
        "pass_s": (median([p.wall_s for p in passes]), "s"),
        "items_per_s": (workload.items / median([p.work_s for p in passes]), "items/s"),
        "peak_rss_mb": (median([p.rss_mib for p in passes]), "MiB"),
    }


def per_layer(workload, untraced, traced, tally):
    summaries = [p.result["trace"] for p in traced]
    first = summaries[0]   # counts come from the first traced pass: they repeat exactly
    totals = {}
    for counters in first["counters"].values():
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    functions = first["functions"]
    model_calls = sum(calls for name, (calls, _, _) in functions.items() if name.startswith("model."))
    residual_calls = totals.get("residual_calls", 0)
    metrics = {f"{layer}.self_s": (median([s["layer_self_s"].get(layer, 0.0) for s in summaries]), "s")
               for layer in REPORTED_LAYERS}
    metrics.update({
        "cli.import_s": (median([s["cli_import_s"] for s in summaries]), "s"),
        "cli.scipy_import_s": (median([s["scipy_import_s"] for s in summaries]), "s"),
        "model.calls": (model_calls, "count"),
        "model.calls_per_item": (model_calls / workload.items, "count"),
        "calibration.fits": (functions.get("calibration.fit_two_phase", [0])[0], "count"),
        "calibration.residual_calls": (residual_calls, "count"),
        "calibration.penalty_share": (
            100.0 * totals.get("residual_penalties", 0) / residual_calls if residual_calls else 0.0, "%"),
        "calibration.nm_iterations": (totals.get("nm_iterations", 0), "count"),
        "calibration.oracle_cells": (getattr(workload, "grid_cells", 0), "count"),
        "calibration.oracle_feasible_share": (100.0 * getattr(workload, "grid_feasible", 0.0), "%"),
        "calibration.fit_residual_ratio": (median(tally.fit_ratios), "ratio"),
        "bicep.grid_cells": (getattr(workload, "bicep_grid_cells", 0), "count"),
        "sensing.strain_rmse_pct": (tally.strain_rmse_pct or 0.0, "%"),
        "config.rows_read": (totals.get("rows_read", 0), "count"),
        "config.rows_written": (totals.get("rows_written", 0), "count"),
        "trace.overhead_frac": (
            median([p.work_s for p in traced]) / median([p.work_s for p in untraced]) - 1.0, "ratio"),
    })
    return metrics


def report(args, workload, passes, traced, tally, metrics):
    """Readable report on stderr, with the workload's own rate names."""
    out = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(passes)} untraced + {len(traced)} traced "
          f"passes in {args.seconds} s after 1 warm-up", file=out)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=out)
    walls = [p.wall_s for p in passes]
    tail = tail_percentile(walls)
    print(f"  {'pass_s tail':34s} " + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
          f"needs 20 passes, have {len(walls)}"), file=out)
    for name, unit, step, count in workload.rates:
        seconds = [p.work_s if step is None else
                   next(s["seconds"] for s in p.result["steps"] if s["name"] == step) for p in passes]
        print(f"  {name:34s} {count / median(seconds):14.6g} {unit}", file=out)
    print(f"  {'fail_frac':34s} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"({tally.failed} failed of {tally.attempted} operations)", file=out)
    if tally.fit_ratios:
        print(f"  {'fit_residual_ratio':34s} {median(tally.fit_ratios):14.6g}", file=out)
    if tally.strain_rmse_pct is not None:
        print(f"  {'strain_rmse_pct':34s} {tally.strain_rmse_pct:14.6g} %", file=out)
    if traced:
        work = median([p.work_s for p in traced])
        layers = traced[0].result["trace"]["layer_self_s"]
        print(f"  first traced pass, self time by layer with imports "
              f"(median traced work phase {work:.4f} s):", file=out)
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {seconds:9.4f} s", file=out)
        print("  busiest wrapped functions: calls, total s, self s, us per call", file=out)
        functions = traced[0].result["trace"]["functions"]
        for name, (calls, total, own) in sorted(functions.items(), key=lambda kv: -kv[1][1])[:14]:
            print(f"    {name:34s} {calls:9d} {total:9.4f} {own:9.4f} {1e6 * total / calls:10.3f}",
                  file=out)
    for operation, why in list(tally.failures.items())[:5]:
        print(f"  failed: {operation}: {why}", file=out)
    for problem in tally.wrong[:10]:
        print(f"  CHECK: {problem}", file=out)


def measure(args, work):
    workload = WORKLOADS[args.workload](args.seed, work)
    env = child_env()
    tally = Tally()
    job = workload.job()

    def one(traced):
        done = run_pass(job, traced, work, env, workload.outputs)
        tally.add(workload.check(None if done is None else done.result))
        return done

    one(traced=False)
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        untraced.append(one(traced=False))
        if args.trace:
            traced.append(one(traced=True))
    untraced = [p for p in untraced if p is not None]
    traced = [p for p in traced if p is not None]
    if not untraced or (args.trace and not traced):
        raise SystemExit("perfbench: no pass completed; see the messages above")

    metrics = (per_layer(workload, untraced, traced, tally) if args.trace
               else end_to_end(workload, untraced))
    report(args, workload, untraced, traced, tally, metrics)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tsakit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {ROOT / 'src' / 'tsakit'}")
    work = HERE / f".work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
