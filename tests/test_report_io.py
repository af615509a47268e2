"""Report serialization: canonical JSON, atomic writes, CSV mirrors and
report loading, tested directly rather than through the CLI."""

import json
import math

import pytest

from shapecalc.errors import ConfigError, NonFinite
from shapecalc.report_io import (_num, comparisons_csv, dumps_canonical,
                                 load_json, plot_csv, suites_csv,
                                 write_text)


def test_dumps_canonical_keeps_key_order_and_17_digits():
    doc = {"zeta": 0.1, "alpha": [1, True, None, "x"], "mid": {"b": 2.0, "a": {}},
           "empty": []}
    text = dumps_canonical(doc)
    assert text == (
        "{\n"
        '  "zeta": 0.10000000000000001,\n'
        '  "alpha": [\n'
        "    1,\n"
        "    true,\n"
        "    null,\n"
        '    "x"\n'
        "  ],\n"
        '  "mid": {\n'
        '    "b": 2,\n'
        '    "a": {}\n'
        "  },\n"
        '  "empty": []\n'
        "}\n"
    )
    assert json.loads(text) == doc


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_num_rejects_non_finite(bad):
    with pytest.raises(NonFinite):
        _num(bad)
    with pytest.raises(NonFinite):
        dumps_canonical({"x": bad})


def test_dumps_canonical_rejects_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_canonical({"x": {1.0}})


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
        "length,circle1,radial,0,0.01,0.29999999999999999,0.29999999999999999\n"
        "length,circle1,radial,1,0.0050000000000000001,0.20000000000000001,"
        "0.10000000000000001\n"
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
    good = tmp_path / "good.json"
    good.write_text("{\"comparisons\": []}")
    assert load_json(str(good), "report") == {"comparisons": []}


def test_csv_writers_format_floats_at_17_digits():
    assert comparisons_csv([_comparison("radial")]).splitlines()[1] == (
        "length,circle1,radial,0.10000000000000001,1.0000000000000001e-09,"
        "0.10000000000000001,0,0,pass")
    suites = [{"suite": "crack", "cases": [
        {"description": "alpha1", "measured": 0.1, "bound": 1e-5, "passed": True},
        {"description": "alpha2", "measured": 2.0, "bound": 1e-5, "passed": False},
    ]}]
    assert suites_csv(suites) == (
        "suite,description,measured,bound,status\n"
        "crack,alpha1,0.10000000000000001,1.0000000000000001e-05,pass\n"
        "crack,alpha2,2,1.0000000000000001e-05,fail\n"
    )
