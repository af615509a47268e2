"""End-to-end runs of the command line front end on a tiny config."""

import csv
import json

import pytest

from shapecalc import cli

LEVELS = 3

TINY = {
    "name": "tiny-cylinder",
    "fd": {"t0": 0.01, "levels": LEVELS, "richardson": True},
    "shapes": [{"kind": "cylinder", "radius": 1.0, "height": 2.0,
                "name": "cylinder"}],
    "fields": [{"kind": "constant", "vector": [0.0, 0.0, 1.0], "name": "e3"}],
    "functionals": [{"kind": "area"}],
    "suites": ["compare"],
}


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def two_runs(config, tmp_path_factory):
    outs = []
    for k in range(2):
        out = tmp_path_factory.mktemp(f"run{k}")
        assert cli.main(["run", config, "--out", str(out)]) == 0
        outs.append(out)
    return outs


def test_run_passes_and_reruns_byte_identical(two_runs):
    first, second = (out / "report.json" for out in two_runs)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["summary"]["passed"]
    assert [c["field"] for c in doc["comparisons"]] == ["e3"]


def test_plot_round_trips_one_row_per_level(two_runs, tmp_path):
    out = tmp_path / "plot.csv"
    assert cli.main(["plot", str(two_runs[0] / "report.json"),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["level"]) for r in rows] == list(range(LEVELS))
    assert {(r["functional"], r["manifold"], r["field"]) for r in rows} == {
        ("area", "cylinder", "e3")}


def test_unknown_format_is_a_config_error(config, tmp_path):
    assert cli.main(["run", config, "--out", str(tmp_path),
                     "--format", "xml"]) == 2
    assert not (tmp_path / "report.json").exists()


def test_missing_config_is_a_config_error(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2


def test_invalid_json_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"shapes\": [")
    assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == 2
