"""Report serialization: JSON through json.dumps, atomic writes, CSV
mirrors and report loading, tested directly rather than through the CLI."""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapecalc.errors import ConfigError, NonFinite
from shapecalc.report_io import (_num, comparisons_csv, load_json, plot_csv,
                                 suite_record, suites_csv, write_json,
                                 write_text)
from shapecalc.validation import StructureSuiteResult, SuiteCase


def test_write_json_keeps_key_order_and_round_trips(tmp_path):
    doc = {"zeta": 0.1, "alpha": [1, True, None, "x"], "mid": {"b": 2.0, "a": {}},
           "empty": []}
    path = tmp_path / "report.json"
    write_json(str(path), doc)
    assert path.read_text(encoding="utf-8") == (
        "{\n"
        '  "zeta": 0.1,\n'
        '  "alpha": [\n'
        "    1,\n"
        "    true,\n"
        "    null,\n"
        '    "x"\n'
        "  ],\n"
        '  "mid": {\n'
        '    "b": 2.0,\n'
        '    "a": {}\n'
        "  },\n"
        '  "empty": []\n'
        "}\n"
    )
    with open(path, encoding="utf-8") as f:
        back = json.load(f)
    assert back == doc
    assert list(back) == list(doc) and list(back["mid"]) == ["b", "a"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_num_rejects_non_finite(bad, tmp_path):
    with pytest.raises(NonFinite):
        _num(bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(str(tmp_path / "report.json"), {"x": [0.5, bad]})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [{1.0}, np.True_], ids=["set", "numpy-bool"])
def test_write_json_rejects_an_unsupported_type(bad, tmp_path):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        write_json(str(tmp_path / "report.json"), {"x": bad})
    assert list(tmp_path.iterdir()) == []


_NUMBERS = ["fd_value", "fd_error_estimate", "analytic_value", "abs_diff",
            "rel_diff"]


@settings(max_examples=150, deadline=None)
@example(values=[-0.0, 5e-324, 0.0, 1.0, 2.0, -3.0, 1e16, 2.0 ** 53 + 2.0,
                 -1.7976931348623157e308, 0.1, 1e-09])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=20))
def test_floats_read_back_bit_for_bit_in_json_and_csv(values):
    comparisons = [dict(_comparison(f"f{i}", trace=False),
                        **dict(zip(_NUMBERS, values[i:i + len(_NUMBERS)])))
                   for i in range(0, len(values), len(_NUMBERS))]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "report.json")
        write_json(path, {"values": values, "comparisons": comparisons})
        with open(path, encoding="utf-8") as f:
            text = f.read()
    back = json.loads(text)["values"]
    assert all(type(x) is float for x in back)
    assert [x.hex() for x in back] == [x.hex() for x in values]
    # each CSV cell is the text of the matching JSON value
    as_text = json.loads(text, parse_float=str)["comparisons"]
    rows = list(csv.reader(io.StringIO(comparisons_csv(comparisons))))
    assert rows[1:] == [list(c.values()) for c in as_text]


def test_suite_record_writes_a_numpy_bool_as_a_python_bool():
    res = StructureSuiteResult("crack", [SuiteCase("alpha1", 0.1, 1e-5,
                                                   np.True_)])
    rec = suite_record(res)
    assert rec["cases"][0]["passed"] is True
    assert rec["passed"] is True


def test_write_text_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text(str(path), "first\n")
    write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    # a write that fails midway removes its temp file and keeps the target
    with pytest.raises(TypeError):
        write_text(str(path), b"not text")
    assert path.read_text() == "second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def _comparison(field, trace=True):
    rec = {"functional": "length", "manifold": "circle1", "field": field,
           "fd_value": 0.1, "fd_error_estimate": 1e-9, "analytic_value": 0.1,
           "abs_diff": 0.0, "rel_diff": 0.0, "verdict": "pass"}
    if trace:
        rec["trace"] = {"ts": [0.01, 0.005], "quotients": [0.3, 0.2],
                        "extrapolants": [0.3, 0.1]}
    return rec


def test_plot_csv_skips_comparisons_without_trace():
    doc = {"comparisons": [_comparison("radial"), _comparison("e1", trace=False)]}
    assert plot_csv(doc) == (
        "functional,manifold,field,level,t,quotient,extrapolant\n"
        "length,circle1,radial,0,0.01,0.3,0.3\n"
        "length,circle1,radial,1,0.005,0.2,0.1\n"
    )


def test_plot_csv_rejects_missing_section_and_ragged_trace():
    with pytest.raises(ConfigError, match="no 'comparisons' section"):
        plot_csv({"suites": []})
    ragged = _comparison("radial")
    ragged["trace"]["quotients"] = [0.3]
    with pytest.raises(ConfigError, match="malformed trace"):
        plot_csv({"comparisons": [ragged]})


def test_load_report_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read report"):
        load_json(str(tmp_path / "absent.json"), "report")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"comparisons\": [")
    with pytest.raises(ConfigError, match="report '.*bad.json' is not valid JSON"):
        load_json(str(bad), "report")
    top = tmp_path / "list.json"
    top.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_json(str(top), "report")
    # the one reader names what it read: a config reads as a config
    with pytest.raises(ConfigError,
                       match="config '.*list.json': top level must be an object"):
        load_json(str(top), "config")
    # json.load alone would keep the last of a key given twice; a key may
    # still recur in different objects
    dup = tmp_path / "dup.json"
    dup.write_text('{"a": {"b": 1, "c": {"b": 2}, "b": 3}}')
    with pytest.raises(ConfigError,
                       match=r"config '.*dup\.json': duplicate key 'b'$"):
        load_json(str(dup), "config")
    good = tmp_path / "good.json"
    good.write_text('{"comparisons": [], "c": {"comparisons": 1}}')
    assert load_json(str(good), "report") == {"comparisons": [],
                                              "c": {"comparisons": 1}}


def test_csv_writers_print_floats_as_repr():
    assert comparisons_csv([_comparison("radial")]).splitlines()[1] == (
        "length,circle1,radial,0.1,1e-09,0.1,0.0,0.0,pass")
    suites = [{"suite": "crack", "cases": [
        {"description": "alpha1", "measured": 0.1, "bound": 1e-5, "passed": True},
        {"description": "alpha2", "measured": 2.0, "bound": 1e-5, "passed": False},
    ]}]
    assert suites_csv(suites) == (
        "suite,description,measured,bound,status\n"
        "crack,alpha1,0.1,1e-05,pass\n"
        "crack,alpha2,2.0,1e-05,fail\n"
    )
