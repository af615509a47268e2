"""Deterministic report serialization.

Reports go out through the standard library: `json.dumps` with the
records' field order, and `csv.writer` for the CSV mirrors.  Both print a
float as its shortest round-trip repr, so every value reads back as the
float written and identical runs produce byte-identical files.  Writes
are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Sequence

import numpy as np

from .derivative import DerivativeReport
from .errors import ConfigError, NonFinite
from .validation import StructureSuiteResult

__all__ = [
    "comparison_record", "suite_record", "summary_record", "report_document",
    "write_json", "write_text",
    "comparisons_csv", "suites_csv", "plot_csv", "load_json",
]


def _num(x) -> float:
    x = float(x)
    if not np.isfinite(x):
        raise NonFinite("report value is not finite")
    return x


# the fields of a comparison record before its trace, and the CSV columns
_COMPARISON_COLUMNS = ["functional", "manifold", "field", "fd_value",
                       "fd_error_estimate", "analytic_value", "abs_diff",
                       "rel_diff", "verdict"]


def comparison_record(rep: DerivativeReport) -> dict:
    values = (getattr(rep, k) for k in _COMPARISON_COLUMNS)
    rec = {k: v if isinstance(v, str) else _num(v)
           for k, v in zip(_COMPARISON_COLUMNS, values)}
    if rep.trace is not None:
        rec["trace"] = {
            "ts": [_num(t) for t in rep.trace.ts],
            "quotients": [_num(q) for q in rep.trace.quotients],
            "extrapolants": [_num(e) for e in rep.trace.extrapolants],
        }
    return rec


def suite_record(res: StructureSuiteResult) -> dict:
    return {
        "suite": res.suite,
        "passed": res.passed,
        "cases": [
            {
                "description": c.description,
                "measured": _num(c.measured),
                "bound": _num(c.bound),
                "passed": bool(c.passed),
            }
            for c in res.cases
        ],
    }


def summary_record(comparisons: Sequence[dict], suites: Sequence[dict]) -> dict:
    cases = [c for s in suites for c in s["cases"]]
    return {
        "comparisons": len(comparisons),
        "comparison_failures": sum(1 for c in comparisons
                                   if c["verdict"] != "pass"),
        "max_comparison_rel_diff": max(
            (c["rel_diff"] for c in comparisons), default=0.0),
        "max_comparison_abs_diff": max(
            (c["abs_diff"] for c in comparisons), default=0.0),
        "suite_cases": len(cases),
        "suite_case_failures": sum(1 for c in cases if not c["passed"]),
        "passed": (all(c["verdict"] == "pass" for c in comparisons)
                   and all(c["passed"] for c in cases)),
    }


def report_document(comparisons: Sequence[dict], suites: Sequence[dict]) -> dict:
    return {
        "schema": "shapecalc-report/1",
        "comparisons": list(comparisons),
        "suites": list(suites),
        "summary": summary_record(comparisons, suites),
    }


# ---------------------------------------------------------------------------
# writers


def write_text(path: str, text: str):
    """Atomic write: temp file alongside the target, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict):
    """Pretty JSON with insertion-ordered keys; every float prints as its
    shortest round-trip repr."""
    write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# CSV mirrors


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def comparisons_csv(comparisons: Sequence[dict]) -> str:
    return _csv_text(_COMPARISON_COLUMNS,
                     [[c[k] for k in _COMPARISON_COLUMNS] for c in comparisons])


def suites_csv(suites: Sequence[dict]) -> str:
    rows = [[s["suite"], c["description"], c["measured"], c["bound"],
             "pass" if c["passed"] else "fail"]
            for s in suites for c in s["cases"]]
    return _csv_text(["suite", "description", "measured", "bound", "status"],
                     rows)


def plot_csv(doc: dict) -> str:
    """One row per FD level per comparison: the quotient series and its
    Richardson extrapolant, for external convergence plots."""
    if not isinstance(doc, dict) or "comparisons" not in doc:
        raise ConfigError("report has no 'comparisons' section")
    comparisons = doc["comparisons"]
    if not (isinstance(comparisons, list)
            and all(isinstance(c, dict) for c in comparisons)):
        raise ConfigError("report 'comparisons' must be a list of objects")
    rows = []
    for c in comparisons:
        tr = c.get("trace")
        if tr is None:
            continue
        try:
            series = zip(tr["ts"], tr["quotients"], tr["extrapolants"],
                         strict=True)
            for lvl, (t, q, e) in enumerate(series):
                rows.append([c["functional"], c["manifold"], c["field"],
                             lvl, float(t), float(q), float(e)])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed trace in report: {exc}") from exc
    return _csv_text(["functional", "manifold", "field", "level", "t",
                      "quotient", "extrapolant"], rows)


def load_json(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at path; ConfigError naming `what`
    (config, report) and path when it cannot be read, holds no object or
    gives one key twice in an object."""
    def unique(pairs: list) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"{what} '{path}': duplicate key '{key}'")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} '{path}': top level must be an object")
    return doc
