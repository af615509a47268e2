"""Benchmark runner for `shapecalc run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is one fresh Python
process (`perfbench/child.py`) that runs the workload's config through
`shapecalc.cli.main` at `--jobs 1` and writes `report.json`.  Repetitions
go on until `--seconds` have passed (at least one).  The runner checks
every report against the workload's expected outcome, hashes it, and
prints one detail line and then, as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end figures (medians over the
repetitions); with `--trace 1` the repetitions run under the layer tracer
and the metrics are the per-layer figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER_SUITE = ROOT / "src" / "shapecalc" / "configs" / "paper_suite.json"

# a run starts no repetition that would end past RUN_BUDGET_S and kills one
# still going at DEADLINE_S, so that it exits inside three minutes
RUN_BUDGET_S = 150.0
DEADLINE_S = 170.0
# one BLAS thread: a second OpenBLAS thread only burns CPU here, the report
# is byte-identical either way
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "rss_peak_mb": "MB",
             "checks": "count", "checks_passed": "count", "margin_max": "ratio"}


@dataclass(frozen=True)
class Workload:
    """A config plus the outcome its report must show.

    `known_failures` are check descriptions that fail on the parent code
    and are counted as findings rather than as errors.
    """

    name: str
    make_config: Callable[[Path], Path]
    checks: int
    known_failures: frozenset = frozenset()
    # digest of report.json from the parent code on a 2-core Xeon, Python
    # 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31; a match is reported, not required
    reference_sha256: str = ""


def paper_suite_with(suites: list[str]) -> Callable[[Path], Path]:
    """The bundled paper suite, read at run time, with `suites` replaced."""
    def make(tmp: Path) -> Path:
        cfg = json.loads(PAPER_SUITE.read_text(encoding="utf-8"))
        cfg["suites"] = suites
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return path
    return make


WORKLOADS = {w.name: w for w in (
    Workload("paper-compare", paper_suite_with(["compare"]), checks=33,
             reference_sha256="d3a51423d8eaa319f5bf43edcf5629e4"
                              "4cfa965c90b01236c1838e9126a40fb0"),
    Workload("paper-structure",
             paper_suite_with(["nullity", "locality", "normal_dependence",
                               "crack"]),
             checks=50,
             reference_sha256="a9515e9b738410dd685d3b71a9c9559d"
                              "aa74d1914da7696b5b8765fdbd0ae6e4"),
    Workload("general-curves", lambda tmp: HERE / "general_curves.json",
             checks=25,
             known_failures=frozenset(
                 {"|dJ| [length/ellipse21/tangent-bump0[ellipse21]]"}),
             reference_sha256="cd0647e9134a7cf964dd6a6760f3b1ce"
                              "de996282b90ebeb90aecdd0e6af6d0a2"),
)}


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") else None,
           "python": platform.python_version(),
           "cpu_model": _cpu_model(),
           "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"]}
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        env.setdefault("numpy", None)
        env["blas"] = f"unknown ({exc.__class__.__name__})"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# reports


def analyze_report(report_path: Path, config_path: Path) -> dict:
    """Checks, failed check descriptions, margin and digest of one report.

    margin_max is the highest ratio to its bound over every check that
    passes by staying under a bound: min(rel_diff/rel_tol, abs_diff/abs_tol)
    for comparisons (the verdict rule), measured/bound for suite cases with
    a positive bound that are not negative controls.
    """
    raw = report_path.read_bytes()
    doc = json.loads(raw)
    tol = json.loads(config_path.read_text(encoding="utf-8")).get(
        "tolerances", {})
    rel_tol = tol.get("rel_tol", 1e-5)
    abs_tol = tol.get("abs_tol", 1e-8)
    failed, ratios = [], []
    for c in doc["comparisons"]:
        if c["verdict"] != "pass":
            failed.append(f"{c['functional']}/{c['manifold']}/{c['field']}")
        ratios.append(min(c["rel_diff"] / rel_tol, c["abs_diff"] / abs_tol))
    cases = [case for s in doc["suites"] for case in s["cases"]]
    for case in cases:
        if not case["passed"]:
            failed.append(case["description"])
        if (case["bound"] > 0.0
                and not case["description"].startswith("negative control")):
            ratios.append(case["measured"] / case["bound"])
    return {"checks": len(doc["comparisons"]) + len(cases),
            "failed_checks": failed,
            "margin_max": max(ratios, default=0.0),
            "sha256": hashlib.sha256(raw).hexdigest()}


def judge(rep: dict, workload: Workload) -> dict:
    """Turn one child result into an outcome against the expected report.

    Exit 1 with a report counts the failed checks; exit 1 without a report
    (suite aborted), exit 2, or a crash counts every check as failed.
    """
    out = {"exit_code": rep.get("exit_code"), "delivered": False,
           "checks": 0, "checks_failed": workload.checks,
           "unexpected_failures": workload.checks, "correct": False}
    report = rep.get("report")
    if "error" in rep or rep.get("exit_code") not in (0, 1) or report is None:
        out["problem"] = (rep.get("error") or rep.get("cli_output")
                          or "no report")[-500:]
        return out
    failed = report["failed_checks"]
    unexpected = [f for f in failed if f not in workload.known_failures]
    out.update(delivered=True, checks=report["checks"],
               checks_failed=len(failed), failed_checks=failed,
               unexpected_failures=len(unexpected),
               margin_max=report["margin_max"], sha256=report["sha256"])
    consistent = (rep["exit_code"] == 0) == (not failed)
    out["correct"] = (consistent and not unexpected
                      and report["checks"] == workload.checks)
    return out


# ---------------------------------------------------------------------------
# repetitions


def run_child(config: Path, tmp: Path, index: int, trace: bool,
              timeout: float) -> dict:
    out_dir = tmp / f"out{index}"
    result_path = tmp / f"result{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out_dir),
           str(result_path)] + (["--trace"] if trace else [])
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    try:
        rep = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode} without a result: "
                         f"{proc.stderr[-500:]}"}
    report_path = out_dir / "report.json"
    if report_path.is_file():
        rep["report"] = analyze_report(report_path, config)
    return rep


def repeat(workload: Workload, seconds: float, trace: bool, tmp: Path) -> list:
    config = workload.make_config(tmp)
    start = time.perf_counter()
    reps = []
    while True:
        t0 = time.perf_counter()
        rep = run_child(config, tmp, len(reps), trace, DEADLINE_S - (t0 - start))
        rep["outcome"] = judge(rep, workload)
        reps.append(rep)
        now = time.perf_counter()
        elapsed, last = now - start, now - t0
        # stop before a repetition like the last one would overrun
        if elapsed + last > min(seconds, RUN_BUDGET_S):
            return reps


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list) -> dict:
    ok = [r for r in reps if r["outcome"]["delivered"]]
    return {
        "run_s": _median(r.get("run_s") for r in ok),
        "setup_s": _median(s for r in ok for s in r.get("setup_s", [])),
        "cpu_s": _median(r.get("cpu_s") for r in ok),
        "rss_peak_mb": _median(r.get("rss_peak_mb") for r in ok),
        "checks": _median(r["outcome"]["checks"] for r in ok),
        "checks_passed": _median(r["outcome"]["checks"]
                                 - r["outcome"]["checks_failed"] for r in ok),
        "margin_max": _median(r["outcome"]["margin_max"] for r in ok),
    }


LAYER_UNITS = dict(PER_LAYER_UNITS, **{"report.checks_failed": "count"})


def per_layer(reps: list) -> dict:
    layers = [r["layers"] for r in reps if "layers" in r]
    out = {name: _median(lay.get(name) for lay in layers)
           for name in PER_LAYER_UNITS}
    out["report.checks_failed"] = _median(
        r["outcome"]["checks_failed"] for r in reps)
    return out


def summarize(workload: Workload, seed: int, trace: bool, reps: list):
    outcomes = [r["outcome"] for r in reps]
    digests = sorted({o["sha256"] for o in outcomes if "sha256" in o})
    identical = len(digests) == 1
    correct = all(o["correct"] for o in outcomes) and identical
    if trace:
        values, units = per_layer(reps), LAYER_UNITS
    else:
        values, units = end_to_end(reps), E2E_UNITS
    detail = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "repetitions": len(reps),
        "report_sha256": digests[0] if identical else digests,
        "digests_identical": identical,
        "matches_reference_sha256": (identical and digests[0]
                                     == workload.reference_sha256),
        "failed_checks": sorted({f for o in outcomes
                                 for f in o.get("failed_checks", [])}),
        "outcomes": outcomes,
        "environment": environment(),
    }
    if trace:
        detail["missing_layers"] = sorted({m for r in reps
                                           for m in r.get("missing_layers", [])})
        detail["span_tables"] = [r.get("span_table") for r in reps]
        detail["jobs"] = [r.get("jobs") for r in reps]
    else:
        detail["run_s"] = [r.get("run_s") for r in reps]
    result = {
        "correct": correct,
        "attempted": sum(max(o["checks"], workload.checks) for o in outcomes),
        "failed": sum(o["unexpected_failures"] for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="shapecalc benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded; every workload is a fixed config")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "shapecalc" / "cli.py").is_file():
        print(f"error: no shapecalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        reps = repeat(workload, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    detail, result = summarize(workload, args.seed, bool(args.trace), reps)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
