"""End-to-end runs of the command line front end on a tiny config."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapecalc import cli
from shapecalc.errors import ConfigError

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


TINY_CURVE = {
    "name": "tiny-circle",
    "fd": {"t0": 0.01, "levels": LEVELS, "richardson": True},
    "shapes": [{"kind": "circle", "radius": 1.0, "name": "circle1"}],
    "fields": [{"kind": "radial", "name": "radial"},
               {"kind": "rotation", "name": "rotation"}],
    "functionals": [{"kind": "length"}],
    "suites": ["compare", "normal_dependence"],
}


@pytest.fixture(scope="module")
def curve_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny_curve.json"
    path.write_text(json.dumps(TINY_CURVE))
    return str(path)


def test_non_finite_closed_form_exits_1_naming_the_manifold(
        curve_config, tmp_path, capsys, monkeypatch):
    from shapecalc import functionals

    monkeypatch.setattr(functionals, "length_density",
                        lambda M, X: lambda ts: np.full(len(ts), np.nan))
    assert cli.main(["run", curve_config, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "suite aborted: length/circle1/radial: integral over 'circle1' is not "
        "finite\n")
    assert not (tmp_path / "report.json").exists()


def test_corrupted_closed_form_exits_1(curve_config, tmp_path, monkeypatch):
    from shapecalc import functionals

    real = functionals.analytic_dlength
    monkeypatch.setattr(functionals, "analytic_dlength",
                        lambda M, X: real(M, X) + 1e-3)
    assert cli.main(["run", curve_config, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [c["verdict"] for c in doc["comparisons"]] == ["fail", "fail"]
    assert all(c["abs_diff"] == pytest.approx(1e-3, rel=1e-3)
               for c in doc["comparisons"])
    assert doc["summary"]["comparison_failures"] == 2
    assert doc["summary"]["passed"] is False


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_mirrors_match_report(curve_config, tmp_path):
    assert cli.main(["run", curve_config, "--out", str(tmp_path),
                     "--format", "json,csv"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    comparisons = _csv_rows(tmp_path / "comparisons.csv")
    assert len(comparisons) == len(doc["comparisons"]) == 2
    for row, rec in zip(comparisons, doc["comparisons"]):
        for key in ("functional", "manifold", "field", "verdict"):
            assert row[key] == rec[key]
        for key in ("fd_value", "fd_error_estimate", "analytic_value",
                    "abs_diff", "rel_diff"):
            assert float(row[key]) == rec[key]
    cases = [(s["suite"], c) for s in doc["suites"] for c in s["cases"]]
    suites = _csv_rows(tmp_path / "suites.csv")
    assert len(suites) == len(cases) == 2
    for row, (suite, case) in zip(suites, cases):
        assert row["suite"] == suite
        assert row["description"] == case["description"]
        assert float(row["measured"]) == case["measured"]
        assert float(row["bound"]) == case["bound"]
        assert row["status"] == ("pass" if case["passed"] else "fail")


def test_jobs_flag_accepts_only_one(curve_config, tmp_path, capsys):
    # cases run in one thread: any other worker count is a usage error,
    # raised before a case runs
    assert cli.main(["run", curve_config, "--out", str(tmp_path / "two"),
                     "--jobs", "2"]) == 2
    assert "one thread" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()
    reports = []
    for extra in ([], ["--jobs", "1"]):
        out = tmp_path / f"run{len(reports)}"
        assert cli.main(["run", curve_config, "--out", str(out)] + extra) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


CRACK_3D = {
    "name": "crack-3d-segment",
    "shapes": [{"kind": "segment", "p0": [-1.0, 0.0, 0.0],
                "p1": [1.0, 0.0, 0.0], "name": "crack3"}],
    "functionals": [{"kind": "crack", "inner": "length", "crack": "crack3",
                     "region_center": [0.0, 0.0, 0.0], "region_radius": 3.0}],
    "suites": ["crack"],
}


def test_crack_on_straight_space_segment_passes(tmp_path):
    # the interior probes and the curvature density need no Frenet normal
    path = tmp_path / "crack3.json"
    path.write_text(json.dumps(CRACK_3D))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    (suite,) = doc["suites"]
    assert suite["suite"] == "crack"
    assert len(suite["cases"]) == 7
    assert all(c["passed"] for c in suite["cases"])


# exit paths: 2 for an unusable option or input file, 1 for a case that
# aborts the suite


def test_out_naming_a_file_exits_2(config, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    # the unusable path is reported before any comparison runs
    calls = []
    monkeypatch.setattr(cli, "compare", lambda *args, **kwargs: calls.append(args))
    assert cli.main(["run", config, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "not a directory"
    assert calls == []


def test_no_convergence_aborts_with_exit_1(config, tmp_path, capsys,
                                           monkeypatch):
    from shapecalc.errors import NoConvergence

    def stuck(*args, **kwargs):
        raise NoConvergence("Newton still moving")

    monkeypatch.setattr(cli, "compare", stuck)
    assert cli.main(["run", config, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("suite aborted: area/cylinder/e3: Newton still moving")
    assert not (tmp_path / "report.json").exists()


def test_plot_of_a_missing_report_exits_2(tmp_path, capsys):
    out = tmp_path / "plot.csv"
    assert cli.main(["plot", str(tmp_path / "absent.json"),
                     "--out", str(out)]) == 2
    assert "cannot read report" in capsys.readouterr().err
    assert not out.exists()


def test_plot_of_a_report_without_comparisons_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"suites": [], "summary": {}}))
    out = tmp_path / "plot.csv"
    assert cli.main(["plot", str(report), "--out", str(out)]) == 2
    assert "no 'comparisons' section" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, entry, key", [
    ("shapes", {"kind": "segment", "p0": None, "p1": [1.0, 0.0]}, "p0"),
    ("fields", {"kind": "bump", "center": None, "radius": 0.5,
                "dir": [1.0, 0.0]}, "center"),
])
def test_null_required_vector_exits_2(section, entry, key, tmp_path, capsys):
    cfg = dict(TINY_CURVE, **{section: TINY_CURVE[section] + [entry]})
    path = tmp_path / "null.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"parameter '{key}' must be a finite vector" in capsys.readouterr().err


@pytest.mark.parametrize("fd, key", [({"levels": 1030}, "levels"),
                                     ({"t0": 1e308}, "t0")],
                         ids=["levels-1030", "t0-1e308"])
def test_uncomputable_fd_schedule_exits_2(fd, key, tmp_path, capsys):
    # 2^1029 overflows the Richardson weights; 1e308 / DEFAULT_MAX_STEP
    # overflows the flow's step count
    path = tmp_path / "fd.json"
    path.write_text(json.dumps(dict(TINY_CURVE, fd=fd)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.fd: ") and f"{key} = " in err


def test_absent_fd_and_tolerances_take_the_library_defaults(tmp_path):
    from shapecalc.derivative import ABS_TOL, REL_TOL, FDConfig

    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(
        {k: v for k, v in TINY_CURVE.items() if k not in ("fd", "tolerances")}))
    plan = cli.load_plan(str(path))
    assert plan.cfg == FDConfig()
    assert (plan.rel_tol, plan.abs_tol) == (REL_TOL, ABS_TOL)


@pytest.mark.parametrize("comparisons", [[1], 5])
def test_plot_of_malformed_comparisons_exits_2(comparisons, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"comparisons": comparisons}))
    out = tmp_path / "plot.csv"
    assert cli.main(["plot", str(report), "--out", str(out)]) == 2
    assert "'comparisons' must be a list of objects" in capsys.readouterr().err
    assert not out.exists()


def test_report_files_are_utf8_whatever_the_locale(tmp_path):
    # every file the CLI reads or writes names its encoding: with the
    # locale's default one a warning, here an error, would be raised
    cfg = dict(TINY_CURVE, suites=["compare"],
               shapes=[{"kind": "circle", "radius": 1.0, "name": "cercle-é"}],
               fields=[{"kind": "radial", "name": "radial"}])
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=src)
    python = [sys.executable, "-X", "warn_default_encoding",
              "-W", "error::EncodingWarning", "-m", "shapecalc.cli"]
    out = tmp_path / "out"
    for args in (["run", str(path), "--out", str(out), "--format", "json,csv"],
                 ["plot", str(out / "report.json"), "--out", str(out / "plot.csv")]):
        proc = subprocess.run(python + args, env=env, capture_output=True,
                              encoding="utf-8", timeout=300)
        assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert doc["comparisons"][0]["manifold"] == "cercle-é"
    for name in ("comparisons.csv", "plot.csv"):
        assert "cercle-é" in (out / name).read_text(encoding="utf-8")


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def _run_config(cfg: dict, tmp_path, *extra) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["run", str(path), "--out", str(tmp_path / "out"), *extra])


def test_richardson_false_exits_2(tmp_path, capsys):
    # the oracle always extrapolates; the key is kept for configs that set it
    cfg = dict(TINY_CURVE, fd={"t0": 0.01, "levels": LEVELS, "richardson": False})
    assert _run_config(cfg, tmp_path) == 2
    assert "richardson must be true" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flow_needing_too_many_steps_is_a_config_error(tmp_path):
    # t0 / DEFAULT_MAX_STEP = 1e7 RK4 steps: an hour's flow per level
    path = tmp_path / "long_flow.json"
    path.write_text(json.dumps(dict(TINY_CURVE, fd={"t0": 1e5})))
    with pytest.raises(ConfigError, match="more than 1e[+]06 RK4 steps"):
        cli.load_plan(str(path))


@pytest.mark.parametrize("extra, where, key", [
    ({"fd": dict(TINY_CURVE["fd"], max_step=0.01)}, "config.fd", "max_step"),
    ({"output": {"path": "elsewhere"}}, "config", "output"),
    ({"output": {"formats": ["json", "csv"]}}, "config", "output"),
], ids=["fd.max_step", "output.path", "output.formats"])
def test_removed_settings_exit_2(extra, where, key, tmp_path, capsys):
    # RK4 steps are capped by flow.DEFAULT_MAX_STEP; where and what a run
    # writes is set by --out and --format alone
    assert _run_config(dict(TINY_CURVE, **extra), tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: {where}: unknown parameter(s) '{key}'\n")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_out_and_format_default_to_a_json_report_in_the_cwd(curve_config,
                                                            tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", curve_config]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize("run", ["paper_suite", "general_curves"])
def test_one_plan_builds_each_field_once_per_dimension(run):
    root = Path(__file__).resolve().parents[1]
    path = {"paper_suite": root / "src/shapecalc/configs/paper_suite.json",
            "general_curves": root / "perfbench/general_curves.json"}[run]
    plan = cli.load_plan(str(path))
    built = []
    for f in plan.fields:
        def counted(dim, f=f, make=f._make):
            built.append((f.name, dim))
            return make(dim)
        object.__setattr__(f, "_make", counted)
    cli.comparison_jobs(plan)
    cli.suite_jobs(plan)
    # both job builders ran over shapes of every dimension the fields live in
    assert {dim for _, dim in built} == {M.dim for M in plan.shapes.values()}
    assert len(built) == len(set(built))
    for M in cli._generic_shapes(plan):
        assert all(a is b for a, b in zip(cli._fields_for(plan, M),
                                          cli._fields_for(plan, M)))


def test_duplicate_functional_names_exit_2(tmp_path, capsys):
    cfg = dict(TINY_CURVE, functionals=[{"kind": "length"}, {"kind": "length"}])
    assert _run_config(cfg, tmp_path) == 2
    assert ("config.functionals[1]: duplicate functional name 'length'"
            in capsys.readouterr().err)


def test_verbose_prints_one_line_per_record(tmp_path, capsys):
    tiny = Path(__file__).resolve().parents[1] / "perfbench" / "tiny.json"
    assert cli.main(["run", str(tiny), "--out", str(tmp_path), "-v"]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert lines[0] == (f"tiny: {len(doc['comparisons'])} comparisons, "
                        f"{len(doc['suites'])} suites")
    records = [line for line in lines if line.startswith("  ")]
    assert len(records) == len(doc["comparisons"]) + len(doc["suites"])
    assert records[0].startswith("  length/circle1/radial: pass (rel ")
    assert records[1] == "  normal_dependence length/circle1: pass (2 cases)"


def test_interleaved_functionals_report_in_config_order(tmp_path, capsys,
                                                        monkeypatch):
    # comparisons run shape by shape and are reported functional by
    # functional; nullity runs one job per shape and reports by shape
    from shapecalc.derivative import DerivativeReport
    from shapecalc.validation import StructureSuiteResult, SuiteCase

    calls = []

    def fake_compare(J, M, X, **kwargs):
        calls.append(f"{J.name}/{M.name}/{X.name}")
        return DerivativeReport(J.name, M.name, X.name, 0.0, 0.0, 0.0, 0.0,
                                0.0, "pass")

    def fake_nullity(Js, M, fields, **kwargs):
        return [StructureSuiteResult("tangential_nullity", [SuiteCase(
            f"fake [{J.name}/{M.name}]", 0.0, 1.0, True)]) for J in Js]

    monkeypatch.setattr(cli, "compare", fake_compare)
    monkeypatch.setattr(cli, "tangential_nullity_suite", fake_nullity)
    cfg = {"shapes": [{"kind": "circle", "radius": 1.0, "name": "circle1"},
                      {"kind": "cylinder", "radius": 1.0, "height": 2.0,
                       "name": "cylinder"}],
           "fields": [{"kind": "radial", "name": "radial"},
                      {"kind": "constant", "vector": [0.0, 0.0, 1.0],
                       "name": "e3"}],
           "functionals": [{"kind": "length"}, {"kind": "area"},
                           {"kind": "elastic"}],
           "suites": ["compare", "nullity"]}
    assert _run_config(cfg, tmp_path, "-v") == 0
    assert calls == ["length/circle1/radial", "elastic/circle1/radial",
                     "area/cylinder/radial", "area/cylinder/e3"]
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [f"{c['functional']}/{c['manifold']}/{c['field']}"
            for c in doc["comparisons"]] == [
        "length/circle1/radial", "area/cylinder/radial", "area/cylinder/e3",
        "elastic/circle1/radial"]
    assert [s["cases"][0]["description"] for s in doc["suites"]] == [
        "fake [length/circle1]", "fake [elastic/circle1]", "fake [area/cylinder]"]
    out = capsys.readouterr().out
    assert "run: 4 comparisons, 3 suites" in out
    assert "  nullity elastic/circle1: pass (1 cases)" in out


ELASTIC_ELLIPSE = {
    "name": "elastic-ellipse",
    "shapes": [{"kind": "ellipse", "a": 2.0, "b": 1.0, "name": "ellipse21"}],
    "fields": [{"kind": "radial", "name": "radial"},
               {"kind": "rotation", "name": "rotation"},
               {"kind": "constant", "vector": [1.0, 0.0], "name": "e1"},
               {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                "name": "identity"},
               {"kind": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]],
                "name": "shear"}],
    "functionals": [{"kind": "elastic"}],
    "suites": ["compare"],
}


def test_elastic_on_an_ellipse_runs_every_field(tmp_path):
    # the ellipse's chart is not arc-length (speed 1 to 2); the elastic
    # closed form takes it, so each field brings one comparison
    assert _run_config(ELASTIC_ELLIPSE, tmp_path) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["field"] for c in doc["comparisons"]] == [
        "radial", "rotation", "e1", "identity", "shear"]
    assert all(c["verdict"] == "pass" for c in doc["comparisons"])


def test_functional_without_a_compatible_shape_exits_2(tmp_path, capsys):
    # elastic takes planar curves only: on a helix alone it would run nothing
    cfg = dict(ELASTIC_ELLIPSE, shapes=[
        {"kind": "helix", "radius": 1.0, "pitch": 3.0, "turns": 1.0,
         "name": "helix1"}])
    assert _run_config(cfg, tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: config.functionals: 'elastic' is compatible with no shape "
        "outside a crack (shapes: helix1)\n")
    assert not (tmp_path / "out").exists()


def test_compared_pair_without_a_field_exits_2(tmp_path, capsys):
    # the cylinder takes area, but the only field is planar: compare would
    # run no comparison and pass
    cfg = {"shapes": [{"kind": "cylinder", "name": "cylinder"}],
           "fields": [{"kind": "constant", "vector": [1.0, 0.0], "name": "e1"}],
           "functionals": [{"kind": "area"}], "suites": ["compare"]}
    assert _run_config(cfg, tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: config.fields: none lives in dimension 3, so 'area' on "
        "'cylinder' has nothing to compare\n")
    assert not (tmp_path / "out").exists()
    # without compare the same pair has nothing to miss
    assert _run_config(dict(cfg, suites=["nullity"]), tmp_path) == 0


@pytest.mark.parametrize("center, far", [([20.0, 0.0], "21"),
                                         ([9.5, 0.0], "10.5")])
def test_shape_past_the_field_cutoff_exits_2(center, far, tmp_path, capsys):
    # every cut-off field is 0 from |p| = CUTOFF_OUTER out, so the tiny run
    # moved there would compare fd = analytic = 0 and pass
    tiny = Path(__file__).resolve().parents[1] / "perfbench" / "tiny.json"
    cfg = json.loads(tiny.read_text())
    cfg["shapes"][0]["center"] = center
    assert _run_config(cfg, tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: config.shapes[0]: shape 'circle1' reaches |p| = {far}, and "
        "every cut-off field is 0 from |p| = 10 out\n")
    assert not (tmp_path / "out").exists()
