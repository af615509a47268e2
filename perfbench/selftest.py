"""Tests of the benchmark itself, on a config that runs in seconds.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
`test_*.py`), since it spawns measured processes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = run.Workload("tiny", lambda tmp: HERE / "tiny.json", checks=3)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    reps = run.repeat(TINY, 0.0, False, tmp_path_factory.mktemp("plain"))
    return reps, run.summarize(TINY, 0, False, reps)[1]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    reps = run.repeat(TINY, 0.0, True, tmp_path_factory.mktemp("traced"))
    return reps, run.summarize(TINY, 0, True, reps)[1]


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_emitted_with_units(untraced):
    reps, result = untraced
    assert result["correct"], reps[0]["outcome"]
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert _units(result) == _declared("end_to_end")
    assert all(isinstance(m["value"], (int, float)) and m["value"] > 0
               for m in result["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced):
    reps, result = traced
    assert result["correct"], reps[0]["outcome"]
    assert _units(result) == _declared("per_layer")
    metrics = result["metrics"]
    assert metrics["trace.missing_layers"]["value"] == 0
    assert metrics["derivative.fd_quotients.calls"]["value"] >= 1
    assert metrics["geometry.nearest_curve_param.points"]["value"] > 0


def test_self_times_and_unattributed_add_up_to_wall(traced):
    reps, _ = traced
    rep = reps[0]
    self_sum = sum(row["self_s"] for row in rep["span_table"].values())
    layers = rep["layers"]
    assert layers["trace.unattributed_s"] >= 0.0
    assert self_sum + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.wall_s"] == rep["run_s"]


def test_traced_report_matches_untraced(untraced, traced):
    digest = {r["outcome"]["sha256"] for r in untraced[0] + traced[0]}
    assert len(digest) == 1


def _tiny_compare_config(tmp_path) -> str:
    cfg = json.loads((HERE / "tiny.json").read_text())
    cfg["suites"] = ["compare"]
    path = tmp_path / "tiny_compare.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_missing_wrapped_name_degrades(tmp_path, monkeypatch):
    from shapecalc import cli, geometry
    # the projection folded away under another name, and a module gone
    monkeypatch.delattr(geometry, "nearest_curve_param")
    layers = tracing.LAYERS + (
        tracing.Layer("gone.layer", "shapecalc.no_such_module", ("f",)),)
    tr = tracing.Tracer(layers=layers)
    tr.install()
    try:
        rc = cli.main(["run", _tiny_compare_config(tmp_path),
                       "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert rc == 0
    assert set(tr.missing_layers()) == {"geometry.nearest_curve_param",
                                        "gone.layer"}
    metrics = tracing.layer_metrics(tr, 1.0, 0.0)
    assert metrics["trace.missing_layers"] == 2
    assert metrics["geometry.nearest_curve_param.calls"] == 0
    assert metrics["derivative.fd_quotients.calls"] == 1


def test_spans_of_one_job_share_its_id(tmp_path):
    from shapecalc import cli
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main(["run", _tiny_compare_config(tmp_path),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tr.uninstall()
    assert [(j.name, j.label) for j in tr.jobs] == [
        ("derivative.compare", "length/circle1/radial")]
    for name, _, _, parent, job in tr.spans:
        if name == "derivative.compare":
            assert job == 1
        elif parent >= 0:
            assert job == tr.spans[parent][4]
        else:
            assert job == 0   # plan building and report writing
    assert tr._undo == [] and not hasattr(cli.load_plan, "__wrapped__")


def test_tail_percentile_has_ten_beyond():
    assert tracing.tail_percentile(range(100)) == (89, 90.0)
    assert tracing.tail_percentile([3.0, 1.0]) == (3.0, 100.0)
