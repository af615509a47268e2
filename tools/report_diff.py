"""Case-level diff of two shapecalc reports.

    python tools/report_diff.py OLD NEW

Prints each case of OLD and NEW (two `shapecalc run` report.json files)
that differs, one line per case:

* a comparison, keyed by functional/manifold/field, whose verdict or any
  of fd_value, fd_error_estimate, analytic_value, abs_diff and rel_diff
  differs (a report records no comparison tolerance, so there is no bound
  to print);
* a suite case, keyed by suite and description, whose measured value,
  bound or verdict differs, printed with before, after and bound;
* a case present in one report only.

Exits 1 when a verdict changed or a case is missing from either report, 0
otherwise (moved values alone), and 2 when a report cannot be read.  It
needs only the standard library.
"""
from __future__ import annotations

import json
import sys
from collections import Counter

_VALUES = ("fd_value", "fd_error_estimate", "analytic_value", "abs_diff",
           "rel_diff")


class ReportError(Exception):
    """A file that is not a readable shapecalc report."""


def _load(path: str) -> dict:
    """The report at path; ReportError when it cannot be read, is not a
    report, or gives one key twice in an object (as `shapecalc plot`
    refuses it, rather than keep the last value)."""
    def unique(pairs: list) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ReportError(f"{path}: duplicate key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except (OSError, ValueError) as exc:
        raise ReportError(f"{path}: {exc}") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("comparisons"), list)
            and isinstance(doc.get("suites"), list)):
        raise ReportError(f"{path}: not a report (needs 'comparisons' and "
                          "'suites' lists)")
    return doc


def _keyed(items) -> dict:
    """{(key, k): record} with k counting repeats of a key, so that two
    cases of one key are both kept."""
    seen: Counter = Counter()
    out = {}
    for key, rec in items:
        out[key, seen[key]] = rec
        seen[key] += 1
    return out


def _cases(doc: dict) -> dict:
    """Every comparison and suite case of a report, keyed as printed."""
    try:
        comparisons = [(f"compare {c['functional']}/{c['manifold']}/{c['field']}",
                        c) for c in doc["comparisons"]]
        suites = [(f"{s['suite']}: {c['description']}", c)
                  for s in doc["suites"] for c in s["cases"]]
    except (KeyError, TypeError) as exc:
        raise ReportError(f"malformed case: {exc!r}") from exc
    return _keyed(comparisons + suites)


def _verdict(rec: dict):
    return rec["verdict"] if "verdict" in rec else rec["passed"]


def _moved(old: dict, new: dict) -> list[str]:
    """The changed fields of one case as 'name before -> after'."""
    if "verdict" in old:
        names = (*_VALUES, "verdict")
    else:
        names = ("measured", "bound", "passed")
    return [f"{k} {old.get(k)!r} -> {new.get(k)!r}" for k in names
            if old.get(k) != new.get(k)]


def diff(old_doc: dict, new_doc: dict) -> tuple[list[str], bool]:
    """(lines, failed): one line per differing case, and whether a verdict
    changed or a case is missing from either report."""
    old, new = _cases(old_doc), _cases(new_doc)
    lines, failed = [], False
    for key in [*old, *(k for k in new if k not in old)]:
        name = key[0] + (f" (#{key[1] + 1})" if key[1] else "")
        if key not in new or key not in old:
            side = "NEW" if key not in new else "OLD"
            lines.append(f"missing from {side}: {name}")
            failed = True
            continue
        a, b = old[key], new[key]
        moved = _moved(a, b)
        if not moved:
            continue
        flip = _verdict(a) != _verdict(b)
        failed |= flip
        bound = f"; bound {b['bound']!r}" if "bound" in b else ""
        lines.append(f"{'VERDICT ' if flip else ''}{name}: "
                     f"{'; '.join(moved)}{bound}")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py OLD NEW", file=sys.stderr)
        return 2
    try:
        lines, failed = diff(_load(args[0]), _load(args[1]))
    except ReportError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"{len(lines)} case(s) differ"
          + ("; a verdict changed or a case is missing" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
