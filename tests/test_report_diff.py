"""tools/report_diff.py on two small hand-made reports."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _report(fd=1.0, verdict="pass", measured=1e-12, passed=True,
            extra_case=False):
    cases = [{"description": "flow invariance t=0.5 [length/c/b0]",
              "measured": measured, "bound": 1e-07, "passed": passed},
             {"description": "|dJ| [length/c/b0]", "measured": 2e-10,
              "bound": 2e-07, "passed": True}]
    if extra_case:
        cases.append({"description": "|dJ| [length/c/b1]", "measured": 0.0,
                      "bound": 2e-07, "passed": True})
    return {"schema": "shapecalc-report/1",
            "comparisons": [{"functional": "length", "manifold": "c",
                             "field": "radial", "fd_value": fd,
                             "fd_error_estimate": 1e-10, "analytic_value": 1.0,
                             "abs_diff": abs(fd - 1.0), "rel_diff": 0.0,
                             "verdict": verdict}],
            "suites": [{"suite": "tangential_nullity", "passed": passed,
                        "cases": cases}],
            "summary": {}}


def _run(tmp_path, capsys, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(tmp_path / name))
    code = report_diff.main(paths)
    return code, capsys.readouterr().out.splitlines()


def test_identical_reports_differ_in_no_case(tmp_path, capsys):
    assert _run(tmp_path, capsys, _report(), _report()) == (
        0, ["0 case(s) differ"])


def test_a_moved_value_prints_before_after_and_bound(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _report(), _report(measured=6e-15))
    assert code == 0
    assert out == ["tangential_nullity: flow invariance t=0.5 [length/c/b0]: "
                   "measured 1e-12 -> 6e-15; bound 1e-07",
                   "1 case(s) differ"]


@pytest.mark.parametrize("new, line", [
    (_report(fd=1.5, verdict="fail"),
     "VERDICT compare length/c/radial: fd_value 1.0 -> 1.5; abs_diff 0.0 -> "
     "0.5; verdict 'pass' -> 'fail'"),
    (_report(measured=2e-7, passed=False),
     "VERDICT tangential_nullity: flow invariance t=0.5 [length/c/b0]: "
     "measured 1e-12 -> 2e-07; passed True -> False; bound 1e-07"),
])
def test_a_verdict_change_exits_1(tmp_path, capsys, new, line):
    code, out = _run(tmp_path, capsys, _report(), new)
    assert code == 1
    assert out[0] == line


@pytest.mark.parametrize("old, new, line", [
    (_report(extra_case=True), _report(),
     "missing from NEW: tangential_nullity: |dJ| [length/c/b1]"),
    (_report(), _report(extra_case=True),
     "missing from OLD: tangential_nullity: |dJ| [length/c/b1]"),
])
def test_a_missing_case_exits_1(tmp_path, capsys, old, new, line):
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 1
    assert out == [line, "1 case(s) differ; a verdict changed or a case is "
                   "missing"]


def test_repeated_case_keys_are_all_compared(tmp_path, capsys):
    old, new = _report(), _report()
    old["suites"].append(_report()["suites"][0])
    new["suites"].append(_report(measured=3e-12)["suites"][0])
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 0
    assert out[0].startswith("tangential_nullity: flow invariance t=0.5 "
                             "[length/c/b0] (#2): measured 1e-12 -> 3e-12")


# the general-curves golden report with an empty "suites" given before its
# real one: json.load would keep the last value and diff it as unchanged
_GOLDEN = (TOOL.parents[1] / "tests" / "golden" / "general_curves"
           / "report.json")
_DUPLICATED = _GOLDEN.read_text(encoding="utf-8").replace(
    '"suites": [', '"suites": [],\n  "suites": [', 1)


@pytest.mark.parametrize("text", [
    "{", "[1]", '{"comparisons": [], "suites": [1]}',
    pytest.param(_DUPLICATED, id="duplicated-suites-key")])
def test_an_unreadable_report_exits_2(tmp_path, capsys, text):
    (tmp_path / "bad.json").write_text(text, encoding="utf-8")
    (tmp_path / "good.json").write_text(json.dumps(_report()), encoding="utf-8")
    assert report_diff.main([str(tmp_path / "good.json"),
                             str(tmp_path / "bad.json")]) == 2
    err = capsys.readouterr().err
    assert "report_diff:" in err
    if text is _DUPLICATED:
        assert "bad.json: duplicate key 'suites'" in err
