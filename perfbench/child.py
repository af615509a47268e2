"""One measured `shapecalc run` in a fresh Python process.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [--trace]

Imports `shapecalc` from `src/` of the checkout (import time is not
measured), times the plan set-up repeatedly (at least five times and one
second in all), then times
`shapecalc.cli.main(["run", CONFIG, "--out", OUT_DIR, "--jobs", "1"])`.
With `--trace` the layer tracer is installed before `main` and no set-up is
timed.  The measurements go to RESULT_JSON; the CLI's own output is kept
out of this process's stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# plan set-up is timed at least this often and for at least this long
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0


def time_setup(cli, config: str) -> float:
    """cli.load_plan + cli.comparison_jobs + cli.suite_jobs, as `run` does."""
    t0 = time.perf_counter()
    plan = cli.load_plan(config)
    if "compare" in plan.suites:
        cli.comparison_jobs(plan)
    cli.suite_jobs(plan)
    return time.perf_counter() - t0


def measure(config: str, out_dir: str, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from shapecalc import cli

    result: dict = {"setup_s": []}
    tracer = None
    while not trace and (len(result["setup_s"]) < SETUP_MIN_REPS
                         or sum(result["setup_s"]) < SETUP_MIN_S):
        result["setup_s"].append(time_setup(cli, config))
    if trace:
        sys.path.insert(0, str(HERE))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    captured = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            result["exit_code"] = cli.main(
                ["run", config, "--out", out_dir, "--jobs", "1"])
    finally:
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result["rss_peak_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cli_output"] = captured.getvalue()[-2000:]
    if tracer is not None:
        cost = tracing.calibrate_overhead()
        result["layers"] = tracing.layer_metrics(tracer, result["run_s"], cost)
        result["span_table"] = tracer.table()
        result["span_cost_s"] = cost
        result["missing"] = tracer.missing
        result["missing_layers"] = tracer.missing_layers()
        result["jobs"] = [{"job": j.job_id, "span": j.name, "label": j.label,
                           "seconds": j.duration_s} for j in tracer.jobs]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("config")
    p.add_argument("out_dir")
    p.add_argument("result")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    try:
        result = measure(args.config, args.out_dir, args.trace)
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
