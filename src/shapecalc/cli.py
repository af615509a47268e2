"""Command line front end.

`shapecalc run config.json` builds the catalog entries named in the config,
cross-checks every compatible (functional, shape, field) triple against the
flow oracle, runs the requested structure suites, and writes a JSON
report (plus CSV extracts with `--format json,csv`) into the directory
`--out`, the current one by default; the config says nothing of
output.  `shapecalc plot report.json` flattens the stored quotient traces
into a CSV for plotting.

Cases run one after another in a single thread, so a run's report is the
same bytes every time; `--jobs` is accepted for scripts that pass
`--jobs 1`, and any other value is a usage error.

Comparisons run shape by shape, then field by field, so the functionals of
one (shape, field) share its FD schedule, flowed at the highest order among
them (flow.flow_manifold), and each closed form builds its kernel once per
shape (functionals); the report lists them functional by functional.
Nullity runs one job per shape for the functionals whose first compatible
shape it is, in the order of their first functional, so
functionals that interleave shapes (length, area, elastic) report nullity
grouped by shape (length, elastic, area).  `-v` prints each report record.

Exit status: 0 all checks passed, 1 a check failed or a derivative did not
converge, 2 the config, an option or an input file is unusable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import (CUTOFF_OUTER, ParsedField, _Params, build_shape,
                      compatible, parse_field, parse_functional)
from .derivative import ABS_TOL, REL_TOL, FDConfig, compare
from .errors import ConfigError, InvariantViolation, ShapecalcError
from .functionals import CrackFunctional
from .report_io import (comparison_record, comparisons_csv, load_json,
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


def load_plan(path: str) -> RunPlan:
    top = _Params(load_json(path, "config"), "config")
    label = top.string("name", default="run")

    fd = _Params(top.mapping("fd", default=None), "config.fd")
    t0 = fd.scalar("t0", default=FDConfig.t0, positive=True)
    levels = fd.integer("levels", default=FDConfig.levels, minimum=2)
    if not fd.boolean("richardson", default=True):  # always extrapolated
        raise ConfigError("config.fd: richardson must be true")
    fd.finish()
    try:
        cfg = FDConfig(t0=t0, levels=levels)
    except InvariantViolation as exc:
        raise ConfigError(f"config.fd: {exc}") from None

    tol = _Params(top.mapping("tolerances", default=None), "config.tolerances")
    rel_tol = tol.scalar("rel_tol", default=REL_TOL, positive=True)
    abs_tol = tol.scalar("abs_tol", default=ABS_TOL, positive=True)
    tol.finish()

    shapes = {M.name: M for M in _named(top.sequence("shapes"), "shapes",
                                        _shape_in_hold_all)}
    fields = _named(top.sequence("fields", default=None), "fields", parse_field)
    functionals = _named(top.sequence("functionals"), "functionals",
                         lambda d, where: parse_functional(d, shapes, where=where))

    suites = _known(top.sequence("suites", default=None) or list(SUITE_NAMES),
                    SUITE_NAMES, "config.suites", "suite")
    if len(set(suites)) != len(suites):
        raise ConfigError("config.suites: duplicate suite names")

    top.finish()
    plan = RunPlan(label=label, cfg=cfg, rel_tol=rel_tol, abs_tol=abs_tol,
                   shapes=shapes, fields=fields, functionals=functionals,
                   suites=tuple(suites))
    # a functional with no shape to run on, or a compared pair with no
    # field, would silently run nothing
    generic = _generic_shapes(plan)
    for J in _plain_functionals(plan):
        if not any(compatible(J, M) for M in generic):
            raise ConfigError(
                f"config.functionals: '{J.name}' is compatible with no shape "
                f"outside a crack (shapes: {', '.join(plan.shapes)})")
        if "compare" not in plan.suites:
            continue
        for M in generic:
            if compatible(J, M) and not any(M.dim in f.dims for f in fields):
                raise ConfigError(
                    f"config.fields: none lives in dimension {M.dim}, so "
                    f"'{J.name}' on '{M.name}' has nothing to compare")
    return plan


def _shape_in_hold_all(desc, where: str):
    """build_shape, with every construction-grid point inside
    |p| < CUTOFF_OUTER: from there out every cut-off catalog field is 0,
    so a comparison would pass on 0 = 0."""
    M = build_shape(desc, where=where)
    far = float((M._grid_points ** 2).sum(axis=1).max()) ** 0.5
    if far >= CUTOFF_OUTER:
        raise ConfigError(
            f"{where}: shape '{M.name}' reaches |p| = {far:.6g}, and every "
            f"cut-off field is 0 from |p| = {CUTOFF_OUTER:g} out")
    return M


def _named(descs: list, section: str, parse) -> list:
    """The parsed entries of one config section, whose names are unique."""
    out: list = []
    for i, desc in enumerate(descs):
        where = f"config.{section}[{i}]"
        obj = parse(desc, where=where)
        if any(o.name == obj.name for o in out):
            raise ConfigError(
                f"{where}: duplicate {section[:-1]} name '{obj.name}'")
        out.append(obj)
    return out


def _known(names, known: tuple, where: str, kind: str):
    for name in names:
        if name not in known:
            raise ConfigError(f"{where}: unknown {kind} '{name}' "
                              f"(known: {', '.join(known)})")
    return names


# ---------------------------------------------------------------------------
# case assembly

# The generic suites take representatives rather than the full cross
# product: comparisons are cheap and run exhaustively, the structure suites
# run invariance flows (nullity) and FD oracles (locality) per case and are
# scoped to keep bundled runs fast.
# Shapes referenced by a crack functional stay out of the generic suites.


@dataclass(frozen=True)
class _Job:
    label: str
    run: Callable[[], list]
    tags: tuple[str, ...]       # one per result of run: its record's name


def _single(tag: str, run: Callable[[], object]) -> _Job:
    return _Job(tag, lambda: [run()], (tag,))


def _generic_shapes(plan: RunPlan) -> list:
    crack_names = {J.crack.name for J in plan.functionals
                   if isinstance(J, CrackFunctional)}
    return [M for name, M in plan.shapes.items() if name not in crack_names]


def _plain_functionals(plan: RunPlan) -> list:
    return [J for J in plan.functionals if not isinstance(J, CrackFunctional)]


def _fields_for(plan: RunPlan, M) -> list:
    return [f.build(M.dim) for f in plan.fields if M.dim in f.dims]


def comparison_jobs(plan: RunPlan) -> list[_Job]:
    # the functionals of one (M, X) run one after the other on one FD
    # schedule, flowed at the highest order among them
    jobs = []
    for M in _generic_shapes(plan):
        Js = [J for J in _plain_functionals(plan) if compatible(J, M)]
        order = max((J.order for J in Js), default=1)
        for X in _fields_for(plan, M) if Js else ():
            jobs.extend(_single(f"{J.name}/{M.name}/{X.name}",
                                lambda J=J, M=M, X=X, order=order: compare(
                                    J, M, X, cfg=plan.cfg,
                                    rel_tol=plan.rel_tol, abs_tol=plan.abs_tol,
                                    order=order))
                        for J in Js)
    return jobs


def suite_jobs(plan: RunPlan) -> list[_Job]:
    generic = _generic_shapes(plan)
    # each plain functional with its first compatible shape
    firsts = [(J, M) for J in _plain_functionals(plan)
              if (M := next((S for S in generic if compatible(J, S)), None))
              is not None]
    jobs = []

    if "nullity" in plan.suites:
        by_shape: dict = {}
        for J, M in firsts:
            by_shape.setdefault(M.name, (M, []))[1].append(J)
        for M, Js in by_shape.values():
            probes = tangential_probe_fields(M, n=2, seed=0)
            neg = [nullity_negative_field(M)]
            jobs.append(_Job(
                f"nullity {'+'.join(J.name for J in Js)}/{M.name}",
                lambda Js=Js, M=M, probes=probes, neg=neg:
                    tangential_nullity_suite(Js, M, probes, negative=neg),
                tuple(f"nullity {J.name}/{M.name}" for J in Js)))

    # locality and normal dependence take the first functional whose shape
    # has fields
    if {"locality", "normal_dependence"} & set(plan.suites):
        rep = next(((J, M, fs) for J, M in firsts
                    if (fs := _fields_for(plan, M))), None)
        if rep is not None:
            J, M, fs = rep
            if "locality" in plan.suites:
                pairs = locality_pairs(M, fs)
                jobs.append(_single(f"locality {J.name}/{M.name}",
                                    lambda J=J, M=M: locality_suite(
                                        J, M, pairs, cfg=plan.cfg)))
            if "normal_dependence" in plan.suites:
                jobs.append(_single(
                    f"normal_dependence {J.name}/{M.name}",
                    lambda J=J, M=M: normal_dependence_suite(J, M, fs[:1])))

    if "crack" in plan.suites:
        jobs += [_single(f"crack {J.name}", lambda J=J: crack_suite(J))
                 for J in plan.functionals if isinstance(J, CrackFunctional)]
    return jobs


def _run_jobs(jobs: Sequence[_Job], verbose: bool,
              describe: Callable[[object], str]) -> list:
    results = []
    for job in jobs:
        try:
            outs = job.run()
        except ShapecalcError as exc:
            # keep the type, name the case
            raise type(exc)(f"{job.label}: {exc}") from exc
        if verbose:
            for tag, out in zip(job.tags, outs):
                print(f"  {tag}: {describe(out)}")
        results.extend(outs)
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
    formats = _known(args.format.split(","), FORMAT_NAMES, "--format", "format")
    # an unusable output path fails before any job is built
    os.makedirs(args.out, exist_ok=True)

    cjobs = comparison_jobs(plan) if "compare" in plan.suites else []
    sjobs = suite_jobs(plan)
    if args.verbose:
        print(f"{plan.label}: {sum(len(j.tags) for j in cjobs)} comparisons, "
              f"{sum(len(j.tags) for j in sjobs)} suites")

    reports = _run_jobs(cjobs, args.verbose, _describe_comparison)
    # functional by functional, in config order (names are unique)
    position = {J.name: i for i, J in enumerate(plan.functionals)}
    reports.sort(key=lambda rep: position[rep.functional])
    suite_results = _run_jobs(sjobs, args.verbose, _describe_suite)

    comparisons = [comparison_record(rep) for rep in reports]
    suites = [suite_record(res) for res in suite_results]
    doc = report_document(comparisons, suites)
    summary = doc["summary"]

    if "json" in formats:
        path = os.path.join(args.out, "report.json")
        write_json(path, doc)
        print(f"wrote {path}")
    if "csv" in formats:
        cpath = os.path.join(args.out, "comparisons.csv")
        write_text(cpath, comparisons_csv(comparisons))
        spath = os.path.join(args.out, "suites.csv")
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
    doc = load_json(args.report, "report")
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
    run_p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: the current one)")
    run_p.add_argument("--format", default="json", metavar="LIST",
                       help="comma-separated output formats, json and csv "
                            "(default: json)")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="must be 1 (the default): cases run one after "
                            "another in a single thread")
    run_p.add_argument("-v", "--verbose", action="store_true",
                       help="print one line per report record")
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
