"""One benchmark pass: a fresh interpreter imports tsakit, runs a job, exits.

Usage: python3 child.py JOB_JSON RESULT_JSON TRACE

The parent reads the monotonic clock just before it starts this process.
That clock is shared by every process on the machine, so the reading taken
here right after ``import tsakit.cli`` gives the set-up time from
interpreter launch. With TRACE 1 the benchmark's tracer times every import
and wraps the package's layer boundaries; its spans stay in memory and are
written to RESULT_JSON at exit.
"""

import sys
import time


def run_oracle(step):
    """grid_oracle on each listed observation row, through the public API."""
    import tsakit.calibration
    import tsakit.config
    from tsakit.errors import TsaError

    observations = tsakit.config.read_observations(step["observations"])
    found = []
    for index, grid in zip(step["rows"], step["grids"]):
        try:
            params, value = tsakit.calibration.grid_oracle(observations[index], grid)
        except TsaError as exc:
            found.append(f"{type(exc).__name__}: {exc}")
            continue
        found.append([[getattr(params, name) for name in step["param_order"]], value])
    return found


def call_cli(argv):
    """Exit code of one tsakit.cli.main call, or the crash it raised."""
    import tsakit.cli

    try:
        return tsakit.cli.main(argv)
    except SystemExit as exc:          # argparse rejects its input this way
        return exc.code
    except Exception as exc:           # a crash is a failed operation, not a harness error
        return f"{type(exc).__name__}: {exc}"


def main():
    job_path, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.hook_imports()
    import tsakit.cli

    imported = time.monotonic()

    import contextlib
    import io
    import json
    import resource

    if tracer is not None:
        tracer.wrap_package()
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)

    steps = []
    work_start = time.perf_counter()
    for step in job["steps"]:
        if tracer is not None:
            tracer.cause = step["name"]
        record = {"name": step["name"]}
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            if step["kind"] == "cli":
                record["exits"] = [call_cli(argv) for argv in step["calls"]]
            else:
                try:
                    record["oracle"] = run_oracle(step)
                except Exception as exc:   # a crash is a failed operation, not a harness error
                    record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        record["stdout"] = captured.getvalue()
        steps.append(record)
    work_s = time.perf_counter() - work_start

    result = {
        "imported": imported,
        "work_s": work_s,
        "steps": steps,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
