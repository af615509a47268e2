"""Command line front end.

`shapecalc run config.json` builds the catalog entries named in the config,
cross-checks every compatible (functional, shape, field) triple against the
flow oracle, runs the requested structure suites, and writes a canonical
JSON report (plus CSV extracts on request).  `shapecalc plot report.json`
flattens the stored quotient traces into a CSV for plotting.

Cases run one after another in a single thread, so a run's report is the
same bytes every time; `--jobs` is accepted for scripts that pass
`--jobs 1`, and any other value is a usage error.

Exit status: 0 all checks passed, 1 a check failed or a derivative did not
converge, 2 the config, an option or an input file is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import (ParsedField, _Params, build_shape, compatible,
                      parse_field, parse_functional)
from .derivative import ABS_TOL, REL_TOL, FDConfig, compare
from .errors import ConfigError, InvariantViolation, ShapecalcError
from .functionals import CrackFunctional
from .report_io import (comparison_record, comparisons_csv, load_report,
                        plot_csv, report_document, suite_record, suites_csv,
                        write_json, write_text)
from .validation import (crack_suite, locality_pairs, locality_suite,
                         normal_dependence_suite, nullity_negative_field,
                         tangential_nullity_suite, tangential_probe_fields)

SUITE_NAMES = ("compare", "nullity", "locality", "normal_dependence", "crack")
FORMAT_NAMES = ("json", "csv")


@dataclass(frozen=True)
class RunPlan:
    """A validated config: catalog objects plus run settings."""

    label: str
    cfg: FDConfig
    rel_tol: float
    abs_tol: float
    shapes: dict
    fields: list[ParsedField]
    functionals: list
    suites: tuple[str, ...]
    out_path: Optional[str]
    formats: tuple[str, ...]


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc


def load_plan(path: str) -> RunPlan:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"config '{path}': root must be a JSON object")
    top = _Params(raw, "config")
    label = top.string("name", default="run")

    fd = _Params(top.mapping("fd", default=None), "config.fd")
    t0 = fd.scalar("t0", default=FDConfig.t0, positive=True)
    levels = fd.integer("levels", default=FDConfig.levels, minimum=2)
    richardson = fd.boolean("richardson", default=FDConfig.richardson)
    max_step = fd.scalar("max_step", default=FDConfig.max_step, positive=True)
    fd.finish()
    try:
        cfg = FDConfig(t0=t0, levels=levels, richardson=richardson,
                       max_step=max_step)
    except InvariantViolation as exc:
        raise ConfigError(f"config.fd: {exc}") from None

    tol = _Params(top.mapping("tolerances", default=None), "config.tolerances")
    rel_tol = tol.scalar("rel_tol", default=REL_TOL, positive=True)
    abs_tol = tol.scalar("abs_tol", default=ABS_TOL, positive=True)
    tol.finish()

    shapes: dict = {}
    for i, desc in enumerate(top.sequence("shapes")):
        where = f"config.shapes[{i}]"
        M = build_shape(desc, where=where)
        if M.name in shapes:
            raise ConfigError(f"{where}: duplicate shape name '{M.name}'")
        shapes[M.name] = M

    fields: list[ParsedField] = []
    for i, desc in enumerate(top.sequence("fields", default=None)):
        f = parse_field(desc, where=f"config.fields[{i}]")
        if any(g.name == f.name for g in fields):
            raise ConfigError(
                f"config.fields[{i}]: duplicate field name '{f.name}'"
            )
        fields.append(f)

    functionals = [
        parse_functional(desc, shapes, where=f"config.functionals[{i}]")
        for i, desc in enumerate(top.sequence("functionals"))
    ]

    suites = top.sequence("suites", default=None) or list(SUITE_NAMES)
    for s in suites:
        if s not in SUITE_NAMES:
            known = ", ".join(SUITE_NAMES)
            raise ConfigError(f"config.suites: unknown suite '{s}' (known: {known})")
    if len(set(suites)) != len(suites):
        raise ConfigError("config.suites: duplicate suite names")

    out = _Params(top.mapping("output", default=None), "config.output")
    out_path = out.string("path", default=None)
    formats = out.sequence("formats", default=None) or ["json"]
    for f in formats:
        if f not in FORMAT_NAMES:
            raise ConfigError(
                f"config.output.formats: unknown format '{f}' "
                f"(known: {', '.join(FORMAT_NAMES)})"
            )
    out.finish()
    top.finish()
    return RunPlan(label=label, cfg=cfg, rel_tol=rel_tol, abs_tol=abs_tol,
                   shapes=shapes, fields=fields, functionals=functionals,
                   suites=tuple(suites), out_path=out_path,
                   formats=tuple(dict.fromkeys(formats)))


# ---------------------------------------------------------------------------
# case assembly

# The generic suites take representatives rather than the full cross
# product: comparisons are cheap and run exhaustively, the structure suites
# re-derive many flows per case and are scoped to keep bundled runs fast.
# Shapes referenced by a crack functional stay out of the generic suites.


@dataclass(frozen=True)
class _Job:
    label: str
    run: Callable[[], object]


def _generic_shapes(plan: RunPlan) -> list:
    crack_names = {J.crack.name for J in plan.functionals
                   if isinstance(J, CrackFunctional)}
    return [M for name, M in plan.shapes.items() if name not in crack_names]


def _plain_functionals(plan: RunPlan) -> list:
    return [J for J in plan.functionals if not isinstance(J, CrackFunctional)]


def _fields_for(plan: RunPlan, M, cache: dict) -> list:
    out = []
    for f in plan.fields:
        if M.dim in f.dims:
            key = (f.name, M.dim)
            if key not in cache:
                cache[key] = f.build(M.dim)
            out.append(cache[key])
    return out


def comparison_jobs(plan: RunPlan) -> list[_Job]:
    cache: dict = {}
    jobs = []
    for J in _plain_functionals(plan):
        for M in _generic_shapes(plan):
            if not compatible(J, M):
                continue
            for X in _fields_for(plan, M, cache):
                jobs.append(_Job(
                    f"{J.name}/{M.name}/{X.name}",
                    lambda J=J, M=M, X=X: compare(
                        J, M, X, cfg=plan.cfg,
                        rel_tol=plan.rel_tol, abs_tol=plan.abs_tol)))
    return jobs


def suite_jobs(plan: RunPlan) -> list[_Job]:
    generic = _generic_shapes(plan)
    cache: dict = {}
    jobs = []

    def first_compatible(J):
        for M in generic:
            if compatible(J, M):
                return M
        return None

    if "nullity" in plan.suites:
        for J in _plain_functionals(plan):
            M = first_compatible(J)
            if M is None:
                continue
            probes = tangential_probe_fields(M, n=2, seed=0)
            neg = [nullity_negative_field(M)]
            jobs.append(_Job(
                f"nullity {J.name}/{M.name}",
                lambda J=J, M=M, probes=probes, neg=neg:
                    tangential_nullity_suite(J, M, probes, cfg=plan.cfg,
                                             negative=neg)))

    if "locality" in plan.suites:
        for J in _plain_functionals(plan):
            M = first_compatible(J)
            if M is None or not _fields_for(plan, M, cache):
                continue
            pairs = locality_pairs(M, _fields_for(plan, M, cache))
            jobs.append(_Job(
                f"locality {J.name}/{M.name}",
                lambda J=J, M=M, pairs=pairs:
                    locality_suite(J, M, pairs, cfg=plan.cfg)))
            break

    if "normal_dependence" in plan.suites:
        for J in _plain_functionals(plan):
            M = first_compatible(J)
            if M is None or not _fields_for(plan, M, cache):
                continue
            X = _fields_for(plan, M, cache)[0]
            jobs.append(_Job(
                f"normal_dependence {J.name}/{M.name}",
                lambda J=J, M=M, X=X:
                    normal_dependence_suite(J, M, [X], cfg=plan.cfg)))
            break

    if "crack" in plan.suites:
        for J in plan.functionals:
            if isinstance(J, CrackFunctional):
                jobs.append(_Job(f"crack {J.name}",
                                 lambda J=J: crack_suite(J, cfg=plan.cfg)))
    return jobs


def _run_labeled(job: _Job):
    try:
        return job.run()
    except ConfigError:
        raise
    except ShapecalcError as exc:
        # keep the type, name the case
        raise type(exc)(f"{job.label}: {exc}") from exc


def _run_jobs(jobs: Sequence[_Job], verbose: bool,
              describe: Callable[[object], str]) -> list:
    results = []
    for job in jobs:
        out = _run_labeled(job)
        if verbose:
            print(f"  {job.label}: {describe(out)}")
        results.append(out)
    return results


def _describe_comparison(rep) -> str:
    return f"{rep.verdict} (rel {rep.rel_diff:.2e}, abs {rep.abs_diff:.2e})"


def _describe_suite(res) -> str:
    n_fail = sum(not c.passed for c in res.cases)
    if n_fail:
        return f"FAIL ({n_fail} of {len(res.cases)} cases)"
    return f"pass ({len(res.cases)} cases)"


# ---------------------------------------------------------------------------
# commands


def _cmd_run(args) -> int:
    started = time.perf_counter()
    if args.jobs != 1:
        raise ConfigError(
            f"--jobs must be 1, got {args.jobs}: cases run in one thread")
    plan = load_plan(args.config)
    formats = tuple(args.format.split(",")) if args.format else plan.formats
    for f in formats:
        if f not in FORMAT_NAMES:
            raise ConfigError(
                f"--format: unknown format '{f}' (known: {', '.join(FORMAT_NAMES)})"
            )
    # an unusable output path fails before any job is built
    out_dir = args.out or plan.out_path or "."
    os.makedirs(out_dir, exist_ok=True)

    cjobs = comparison_jobs(plan) if "compare" in plan.suites else []
    sjobs = suite_jobs(plan)
    if args.verbose:
        print(f"{plan.label}: {len(cjobs)} comparisons, {len(sjobs)} suites")

    reports = _run_jobs(cjobs, args.verbose, _describe_comparison)
    suite_results = _run_jobs(sjobs, args.verbose, _describe_suite)

    comparisons = [comparison_record(rep) for rep in reports]
    suites = [suite_record(res) for res in suite_results]
    doc = report_document(comparisons, suites)
    summary = doc["summary"]

    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        write_json(path, doc)
        print(f"wrote {path}")
    if "csv" in formats:
        cpath = os.path.join(out_dir, "comparisons.csv")
        write_text(cpath, comparisons_csv(comparisons))
        spath = os.path.join(out_dir, "suites.csv")
        write_text(spath, suites_csv(suites))
        print(f"wrote {cpath}")
        print(f"wrote {spath}")

    print(f"comparisons: {summary['comparisons']} run, "
          f"{summary['comparison_failures']} failed")
    print(f"suite cases: {summary['suite_cases']} run, "
          f"{summary['suite_case_failures']} failed")
    print(f"verdict: {'PASS' if summary['passed'] else 'FAIL'}")
    # wall time stays out of the report files so reruns are byte-identical
    print(f"wall time {time.perf_counter() - started:.1f} s")
    return 0 if summary["passed"] else 1


def _cmd_plot(args) -> int:
    doc = load_report(args.report)
    text = plot_csv(doc)
    write_text(args.out, text)
    print(f"wrote {args.out} ({text.count(chr(10)) - 1} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapecalc",
        description="Shape-derivative cross-checks and structure suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suites described by a JSON config")
    run_p.add_argument("config", help="path to the run config (JSON)")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config output.path or cwd)")
    run_p.add_argument("--format", default=None, metavar="LIST",
                       help="comma-separated output formats: json,csv")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="must be 1 (the default): cases run one after "
                            "another in a single thread")
    run_p.add_argument("-v", "--verbose", action="store_true",
                       help="print one line per case as it completes")
    run_p.set_defaults(func=_cmd_run)

    plot_p = sub.add_parser("plot", help="flatten a report's traces to CSV")
    plot_p.add_argument("report", help="path to a report.json produced by run")
    plot_p.add_argument("--out", required=True, metavar="CSV",
                        help="destination CSV path")
    plot_p.set_defaults(func=_cmd_plot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShapecalcError as exc:
        # a derivative that refused to converge is a failed check, not a
        # config problem
        print(f"suite aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
