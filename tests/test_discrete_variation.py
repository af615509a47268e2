"""The discrete first variation (DV) against the FD oracle and closed forms.

DV is the limit the oracle's Richardson triangle extrapolates toward, so
|FD - DV| must stay within the oracle's own error estimate wherever either
is read: on every comparison of the bundled runs, and on every field the
nullity, normal-dependence and crack suites feed to DV.
"""

from pathlib import Path

import numpy as np
import pytest

from shapecalc import cli, flow, functionals, validation
from shapecalc.derivative import discrete_variation, fd_quotients
from shapecalc.fields import Ball, bump_field, sum_field
from shapecalc.flow import FlowConfig, flow_manifold
from shapecalc.functionals import (CURVE_PANELS, analytic_darea,
                                   analytic_delastic, area_functional,
                                   crack_functional, elastic_functional,
                                   length_functional, stepped_curve,
                                   stepped_surface)
from shapecalc.geometry import gauss_legendre

ROOT = Path(__file__).resolve().parents[1]
RUNS = {"paper_suite": ROOT / "src" / "shapecalc" / "configs" / "paper_suite.json",
        "general_curves": ROOT / "perfbench" / "general_curves.json"}


# The oracle's error estimate is the last difference of its Richardson
# diagonal, with no roundoff term beyond its own floor, so it can fall a
# little short of FD's real scatter: on helix1's bending energy under radial
# FD moves by up to 2.7e-10 around DV over the schedules (t0, levels) =
# (1e-2, 4..6), (5e-3, 5) and (2e-2, 6), and at (1e-2, 5) the estimate reads
# 9.9e-11 against a disagreement of 1.04e-10.  Below ORACLE_FLOOR relative
# the comparison says nothing about DV.
ORACLE_FLOOR = 1e-9
DV_AREA = area_functional().discrete_derivative
DV_ELASTIC = elastic_functional().discrete_derivative


def _oracle_bound(tr):
    return max(tr.error_estimate, ORACLE_FLOOR * (1.0 + abs(tr.value)))


def _assert_oracle_agrees(plan, triples):
    ratios = {}
    for J, M, X in triples:
        tr = fd_quotients(J, M, X, plan.cfg)
        dv = discrete_variation(J, M, X)
        ratios[f"{J.name}/{M.name}/{X.name}"] = abs(tr.value - dv) / _oracle_bound(tr)
    worst = max(ratios, key=ratios.get)
    assert ratios[worst] <= 1.0, (worst, ratios[worst])


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dv_within_fd_error_on_every_comparison(run):
    plan = cli.load_plan(str(RUNS[run]))
    triples = [(J, M, X) for M in cli._generic_shapes(plan)
               for X in cli._fields_for(plan, M)
               for J in cli._plain_functionals(plan) if cli.compatible(J, M)]
    assert len(triples) == {"paper_suite": 33, "general_curves": 6}[run]
    _assert_oracle_agrees(plan, triples)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dv_within_fd_error_on_every_suite_field(run, monkeypatch):
    """Tangent probes, negative controls, the perp/nu/tan restriction parts,
    and the crack tip probes (full and half radius) and interior probes:
    the suites are run with a recorder on their DV entry point.  Their
    invariance flows are not under test here and are stubbed out."""
    plan = cli.load_plan(str(RUNS[run]))
    triples = []

    def recorded(J, M, X):
        triples.append((J, M, X))
        return discrete_variation(J, M, X)

    monkeypatch.setattr(validation, "discrete_variation", recorded)
    monkeypatch.setattr(validation, "invariance_residual", lambda X, M, t: 0.0)
    for job in cli.suite_jobs(plan):
        if not job.label.startswith("locality"):
            job.run()
    names = [X.name for _, _, X in triples]
    assert len(names) == {"paper_suite": 25, "general_curves": 7}[run]
    assert sum(n.startswith("normal-bump") for n in names) >= 1
    assert [n for n in names if n.startswith("radial")] == [
        "radial", "radial|perp", "radial|nu", "radial|tan"]
    if run == "paper_suite":
        assert sum(n.startswith("tip-probe") for n in names) == 6
        assert sum(n.startswith("interior-probe") for n in names) == 6
    _assert_oracle_agrees(plan, triples)


# ---------------------------------------------------------------------------
# closed forms and exact values


def test_dv_area_cylinder(cylinder, radial3, e3_field, stretch_z):
    assert DV_AREA(cylinder, radial3) == pytest.approx(
        analytic_darea(cylinder, radial3), rel=1e-8)
    assert DV_AREA(cylinder, e3_field) == pytest.approx(0.0, abs=1e-12)
    assert DV_AREA(cylinder, stretch_z) == pytest.approx(
        analytic_darea(cylinder, stretch_z), rel=1e-8)


def test_dv_elastic_circle(circle2, radial2, rotation2, segment01, identity2):
    # E(r) = 2 pi / r, so unit radial growth gives -2 pi / r^2
    assert DV_ELASTIC(circle2, radial2) == pytest.approx(-np.pi / 2, rel=1e-8)
    assert DV_ELASTIC(circle2, rotation2) == pytest.approx(0.0, abs=1e-9)
    assert DV_ELASTIC(segment01, identity2) == pytest.approx(
        analytic_delastic(segment01, identity2), abs=1e-10)


@pytest.mark.parametrize("shape", ["circle1", "segment01", "ellipse21"])
def test_dv_takes_gamma2_from_the_flowed_curve_stencil(shape, request,
                                                      monkeypatch):
    # DV's gamma'' is the oracle's t = 0 curve's, bit for bit, because both
    # come from flow.curve_stencil; the bump's scale sets the stencil step
    M = request.getfixturevalue(shape)
    X = bump_field(M.chart(M.a + 0.4 * (M.b - M.a))[0], 0.3,
                   np.array([0.6, 0.8]), name="bump")
    assert X.scale == 0.3
    calls, real = [], flow.curve_stencil

    def recorded(field, curve, f, ts):
        calls.append((field, curve, f, real(field, curve, f, ts)))
        return calls[-1][-1]

    monkeypatch.setattr(flow, "curve_stencil", recorded)
    monkeypatch.setattr(functionals, "curve_stencil", recorded)
    nodes, _ = gauss_legendre(M.a, M.b, CURVE_PANELS)
    at_zero = flow_manifold(X, M, FlowConfig(0.0, 1)).ddgamma(nodes)
    DV_ELASTIC(M, X)
    (_, _, _, flowed), (field, curve, f, dv_gamma2), _ = calls
    assert field is X and curve is M and f is M.dgamma
    np.testing.assert_array_equal(flowed, at_zero)
    np.testing.assert_array_equal(dv_gamma2, at_zero)


def test_dv_elastic_space_curve(helix1, e3_field, radial3, fd5):
    # bending_energy takes |gamma' x gamma''| in space; no closed form
    # covers it, so the oracle is the reference
    J = elastic_functional()
    for X in (e3_field, radial3):
        tr = fd_quotients(J, helix1, X, fd5)
        assert abs(discrete_variation(J, helix1, X) - tr.value) <= _oracle_bound(tr)


def test_crack_functional_delegates_dv(crack_arc, radial2):
    J = crack_functional(Ball(np.zeros(2), 4.0), crack_arc,
                         inner=elastic_functional())
    assert J.discrete_derivative is J.inner.discrete_derivative
    assert discrete_variation(J, crack_arc, radial2) == DV_ELASTIC(
        crack_arc, radial2)


# ---------------------------------------------------------------------------
# the complex step, independent of the flow

# each functional with the jet stepping its DV reads
STEPPED = {"length": (length_functional, stepped_curve),
           "elastic": (elastic_functional, stepped_curve),
           "area": (area_functional, stepped_surface)}
# on segment01 the elastic DV is 0: kappa^2 is quadratic in the stepped
# curvature, and the central difference reads roundoff only
STEP_CASES = [("length", "circle1"), ("length", "segment01"),
              ("elastic", "circle1"), ("elastic", "segment01"),
              ("elastic", "helix1"), ("area", "cylinder")]
BUMP_AT = {"circle1": ([0.6, 0.8], [1.0, 0.5]),
           "segment01": ([0.9, 0.0], [0.3, 1.0]),
           "helix1": ([1.0, 0.0, 0.0], [0.2, 1.0, 0.4]),
           "cylinder": ([1.0, 0.0, 0.3], [1.0, 0.3, -0.5])}


def _bump(shape, swapped=False):
    center, direction = BUMP_AT[shape]
    return bump_field(center, 0.8, direction[::-1] if swapped else direction,
                      name="bump")


@pytest.mark.parametrize("functional, shape", STEP_CASES)
def test_dv_is_the_jet_space_derivative_of_the_quadrature(functional, shape,
                                                          request):
    # the central difference of evaluate on real steps of the same jets:
    # truncation s^2 and roundoff eps |J| / s, both near 1e-10 here.  An
    # abs or a conjugating norm of a jet drops the imaginary part of the
    # sum, and DV with it
    make, stepped = STEPPED[functional]
    J, M = make(), request.getfixturevalue(shape)
    radial = request.getfixturevalue(f"radial{M.dim}")
    s = 1e-6
    for X in (radial, _bump(shape)):
        fd = (J.evaluate(stepped(M, X, s))
              - J.evaluate(stepped(M, X, -s))) / (2 * s)
        dv = J.discrete_derivative(M, X)
        assert abs(dv - fd) <= 1e-7 * (1.0 + abs(dv)), X.name


@pytest.mark.parametrize("functional, shape", STEP_CASES)
def test_dv_is_linear_in_the_field(functional, shape, request):
    # two bumps of one radius: the stencil step of DV's gamma'' follows the
    # field's scale (flow.second_derivative_step), so X, Y and X + Y share it
    J, M = STEPPED[functional][0](), request.getfixturevalue(shape)
    X, Y = _bump(shape), _bump(shape, swapped=True)
    both = J.discrete_derivative(M, sum_field([X, Y]))
    parts = J.discrete_derivative(M, X) + J.discrete_derivative(M, Y)
    assert abs(both - parts) <= 1e-13 * (1.0 + abs(both))
