"""One pass per field call: AmbientField.jet against (X, dX), and the chart
jets that curve Newton reads, bit for bit."""

import dataclasses

import numpy as np
import pytest

from shapecalc import geometry
from shapecalc.catalog import build_field, build_shape
from shapecalc.errors import InvariantViolation
from shapecalc.fields import (AmbientField, bump_field, pullback_field,
                              restriction_field, sum_field)
from shapecalc.flow import FlowConfig, flow_curve_jet, flow_manifold, flow_with_jacobian
from shapecalc.functionals import stepped_curve
from shapecalc.geometry import nearest_curve_param
from shapecalc.validation import _SQUARED_STEP, tangential_probe_fields

CATALOG = [
    ({"kind": "constant", "vector": [1.0, -0.5]}, 2),
    ({"kind": "constant", "vector": [0.0, 0.3, 1.0]}, 3),
    ({"kind": "radial"}, 2),
    ({"kind": "radial"}, 3),
    ({"kind": "rotation"}, 2),
    ({"kind": "rotation", "axis": [0.2, 0.0, 1.0]}, 3),
    ({"kind": "linear", "matrix": [[0.3, 1.0], [-0.7, 0.2]]}, 2),
    ({"kind": "linear", "matrix": [[0.3, 1.0, 0.0], [-0.7, 0.2, 0.4],
                                   [0.1, -0.5, 0.6]]}, 3),
]
CURVES = ["circle1", "ellipse21", "segment01", "helix1"]
PROFILES = {"step": None, "squared-step": _SQUARED_STEP}


def _assert_jet(F, pts):
    x, dx = F.jet(pts)
    assert np.array_equal(x, F.X(pts)) and np.array_equal(dx, F.dX(pts))


def _shell_points(dim, seed=0):
    """Points inside the cutoff's identity ball, in its shell, on and past
    its outer sphere, and the origin."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(60, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate([rng.uniform(0.0, 6.0, 20), rng.uniform(6.0, 10.0, 30),
                            [10.0, 10.5, 12.0, 6.0, 9.99, 16.0, 3.0, 7.5, 8.0,
                             0.0]])
    return dirs * radii[:, None]


@pytest.mark.parametrize("desc, dim", CATALOG)
def test_catalog_jet_is_x_and_dx_bit_for_bit(desc, dim):
    F = build_field(dict(desc, name="f"), dim)
    _assert_jet(F, _shell_points(dim))
    # rows inside the identity ball only: the nominal field as it is
    _assert_jet(F, _shell_points(dim)[:20])


def _curve_rows(M, radius, ball, tube_points, seed=0):
    """Rows on M (at a and mid-span, dist = 0 where the foot is exact), in
    the tube of `radius`, inside the support `ball` but outside the tube,
    and outside it."""
    on = M.chart(np.array([M.a, 0.5 * (M.a + M.b)]))
    tube = tube_points(M, radius, n=16, seed=seed)
    c, R = ball.center, ball.radius
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(12, M.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    inside = c + dirs[:6] * R * rng.uniform(0.0, 0.99, 6)[:, None]
    outside = c + dirs[6:] * R * rng.uniform(1.01, 2.0, 6)[:, None]
    inside = inside[M.project(inside).dist > radius]
    assert len(inside) > 0
    return np.concatenate([on, tube, inside, outside])


@pytest.mark.parametrize("curve", CURVES)
def test_bump_jets(curve, request, tube_points):
    M = request.getfixturevalue(curve)
    for P in tangential_probe_fields(M, n=2, seed=1):        # callable direction
        rows = _curve_rows(M, 0.5 * P.support.radius, P.support, tube_points)
        _assert_jet(P, np.concatenate([rows, P.support.center[None, :]]))
    B = bump_field(M.chart(0.3 * (M.a + M.b))[0], 0.4, np.ones(M.dim) / M.dim)
    _assert_jet(B, np.concatenate([B.support.center[None, :],
                                   _curve_rows(M, 0.2, B.support, tube_points)]))


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("curve", CURVES)
def test_curve_pullback_jets(curve, profile, request, tube_points, linear_field):
    M = request.getfixturevalue(curve)
    tube = min(0.1 * M.diameter, 0.4 * M.reach)
    extend = 0.15 * (M.b - M.a)
    kw = {} if PROFILES[profile] is None else {"profile": PROFILES[profile]}
    W = np.linspace(0.4, -0.7, M.dim)
    F = linear_field(M.dim)
    for V in (W, lambda t: F.X(M.chart(t))):
        D = pullback_field(M, V, tube, extend, "d", **kw)
        rows = _curve_rows(M, tube, D.support, tube_points)
        if curve != "helix1":
            # a row on M at dist = 0: the masked branch of grad_dist
            assert (M.project(rows[:2], extend).dist == 0.0).any()
        _assert_jet(D, rows)
        # every row in the tube: the unmasked path
        _assert_jet(D, tube_points(M, tube, n=16, seed=5))
        _assert_jet(D, rows[-6:])                    # none in the ball


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_surface_pullback_jets(cylinder, profile):
    kw = {} if PROFILES[profile] is None else {"profile": PROFILES[profile]}
    tube = 0.4
    rng = np.random.default_rng(3)
    th = rng.uniform(0.0, 2.0 * np.pi, 20)
    rho = np.concatenate([[1.0], 1.0 + tube * rng.uniform(-0.95, 0.95, 12),
                          [0.2, 0.1, 1.6, 5.0, 6.0, 7.0, 9.0]])
    rows = np.stack([rho * np.cos(th), rho * np.sin(th),
                     rng.uniform(-0.3, 2.3, 20)], axis=-1)
    rows[0] = [1.0, 0.0, 0.5]                        # on M, dist = 0
    assert cylinder.project(rows[:1]).dist[0] == 0.0

    def wave(params):
        e1, e2 = cylinder.tangent_frame(params)
        return np.cos(params[1])[:, None] * e1 + 0.5 * e2

    for V in (np.array([0.3, -0.5, 0.8]), wave):
        D = pullback_field(cylinder, V, tube, 0.0, "d", **kw)
        _assert_jet(D, rows)
        assert np.any(np.linalg.norm(rows - D.support.center, axis=1)
                      > D.support.radius)


@pytest.mark.parametrize("curve", CURVES)
def test_sum_and_restriction_jets(curve, request, tube_points, linear_field):
    M = request.getfixturevalue(curve)
    F = linear_field(M.dim)
    parts = [restriction_field(M, F, c) for c in ("perp", "tan", "nu")]
    tube = min(0.1 * M.diameter, 0.4 * M.reach)
    for R in parts:
        _assert_jet(R, _curve_rows(M, tube, R.support, tube_points))
    S = sum_field([F, *parts, tangential_probe_fields(M, n=1)[0]])
    _assert_jet(S, np.concatenate([_curve_rows(M, tube, S.support, tube_points),
                                   _shell_points(M.dim)]))


def test_surface_restriction_jets(cylinder, e3_field, radial3):
    rng = np.random.default_rng(4)
    th = rng.uniform(0.0, 2.0 * np.pi, 12)
    rho = 1.0 + 0.1 * rng.uniform(-0.9, 0.9, 12)
    rows = np.stack([rho * np.cos(th), rho * np.sin(th),
                     rng.uniform(0.0, 2.0, 12)], axis=-1)
    for c in ("perp", "tan", "nu"):
        _assert_jet(restriction_field(cylinder, radial3, c), rows)
    _assert_jet(sum_field([e3_field, restriction_field(cylinder, radial3, "perp")]),
                rows)


def test_a_jet_without_the_cutoff_product_rule_fails_construction():
    # on a constant nominal field the cutoff's product-rule term is all of
    # dX, so this jet drops it and keeps the rest
    F = build_field({"kind": "constant", "vector": [1.0, 0.5], "name": "c"}, 2)

    def dropped(pts):
        x, dx = F.jet(pts)
        return x, np.zeros_like(dx)

    with pytest.raises(InvariantViolation, match="jet's dX disagrees"):
        AmbientField(2, F.X, F.dX, F.support, "mutant", jet=dropped)
    AmbientField(2, F.X, F.dX, F.support, "same", jet=F.jet)


def test_a_jet_that_does_not_vanish_outside_fails_construction():
    F = build_field({"kind": "rotation", "name": "r"}, 2)

    def leaky(pts):
        x, dx = F.jet(pts)
        return x + 1e-300, dx

    with pytest.raises(InvariantViolation, match="jet differs"):
        AmbientField(2, F.X, F.dX, F.support, "leaky", jet=leaky)


def test_default_jet_is_x_then_dx(radial2):
    calls = []
    F = AmbientField(2, lambda p: calls.append("X") or radial2.X(p),
                     lambda p: calls.append("dX") or radial2.dX(p),
                     radial2.support, "plain")
    calls.clear()
    F.jet(np.array([[0.5, 0.2]]))
    assert calls == ["X", "dX"]
    _assert_jet(F, _shell_points(2))


@pytest.mark.parametrize("joint", [True, False])
def test_each_rk4_stage_calls_the_jet_once(circle1, radial2, joint):
    calls = []

    def counted(name, fn):
        return lambda *a: calls.append(name) or fn(*a)

    F = AmbientField(2, counted("X", radial2.X), counted("dX", radial2.dX),
                     radial2.support, "counted", jet=counted("jet", radial2.jet))
    calls.clear()
    ts = np.linspace(0.0, 1.0, 7)
    cfg = FlowConfig(0.03, 3)
    if joint:
        flow_with_jacobian(F, circle1.chart(ts), cfg)
    else:
        flow_curve_jet(F, circle1.chart(ts), circle1.dgamma(ts), None, cfg)
    assert calls == ["jet"] * 12


# ---------------------------------------------------------------------------
# chart jets


@pytest.mark.parametrize("curve", ["ellipse21", "helix1"])
def test_chart_jets_are_the_three_callables(curve, request):
    M = request.getfixturevalue(curve)
    ts = np.concatenate([np.linspace(M.a - 1.0, M.b + 1.0, 301), [0.0, np.pi]])
    got = M.jets(ts)
    for x, name in zip(got, ("gamma", "dgamma", "ddgamma")):
        assert np.array_equal(x, getattr(M, name)(ts))


@pytest.mark.parametrize("curve", ["ellipse21", "helix1"])
def test_newton_through_jets_moves_no_bit(curve, request, tube_points):
    M = request.getfixturevalue(curve)
    bare = dataclasses.replace(M, jets=None)
    assert bare.jets is None and M.jets is not None
    tube = 0.4 * M.reach
    pts = tube_points(M, tube, n=64, seed=9)
    moved = pts + 0.01 * tube
    extends = [0.0] if M.closed else [0.0, 0.15 * (M.b - M.a)]
    for extend in extends:
        t = nearest_curve_param(M, pts, extend)
        assert np.array_equal(t, nearest_curve_param(bare, pts, extend))
        # warm seeds: the feet of the points before they moved
        warm = nearest_curve_param(M, moved, extend, t)
        assert np.array_equal(warm, nearest_curve_param(bare, moved, extend, t))
    if not M.closed:
        # past the open ends, inside the widened range
        ends = M.chart(np.array([M.a - 0.1, M.b + 0.1]))
        assert np.array_equal(nearest_curve_param(M, ends, 0.15 * (M.b - M.a)),
                              nearest_curve_param(bare, ends, 0.15 * (M.b - M.a)))


def test_newton_reads_one_jets_call_per_iteration(ellipse21):
    calls = []
    counted = dataclasses.replace(
        ellipse21, jets=lambda t: calls.append(len(t)) or ellipse21.jets(t))
    calls.clear()
    nearest_curve_param(counted, ellipse21.chart(np.array([0.3, 1.0])) * 1.01)
    assert 1 <= len(calls) <= geometry.NEWTON_MAX_ITER and set(calls) == {2}


def test_jets_that_differ_fail_construction(ellipse21):
    def off(t):
        g, dg, ddg = ellipse21.jets(t)
        return g, dg, ddg * (1.0 + 1e-15)

    with pytest.raises(InvariantViolation, match="jets differ"):
        dataclasses.replace(ellipse21, jets=off)
    # a chart callable replaced without its jets: the jets are the old chart's
    with pytest.raises(InvariantViolation, match="jets differ"):
        dataclasses.replace(ellipse21,
                            ddgamma=lambda t: ellipse21.ddgamma(t) * (1.0 + 1e-15))


@pytest.mark.parametrize("curve", ["ellipse21", "helix1"])
def test_flowed_and_stepped_curves_carry_no_jets(curve, request, radial2, radial3):
    M = request.getfixturevalue(curve)
    X = radial2 if M.dim == 2 else radial3
    assert M.jets is not None
    assert flow_manifold(X, M, FlowConfig(0.01, 1)).jets is None
    assert flow_manifold(X, M, FlowConfig(0.01, 1), order=2).jets is None
    assert stepped_curve(M, X, 1e-3).jets is None


def test_hand_written_charts_other_than_ellipse_and_helix_have_no_jets():
    assert build_shape({"kind": "circle", "name": "c"}).jets is None
    assert build_shape({"kind": "segment", "p0": [0, 0], "p1": [1, 0]}).jets is None


# ---------------------------------------------------------------------------
# the foot's distance gradient and the kept quadrature rule


def test_grad_dist_with_and_without_points_on_m(circle1):
    off = np.array([[1.5, 0.0], [0.0, 0.7], [-0.3, -0.9]])
    on = np.array([[1.0, 0.0]])
    ft = circle1.project(off)
    assert np.array_equal(ft.grad_dist, ft.r / ft.dist[:, None])
    mixed = circle1.project(np.concatenate([off, on]))
    assert mixed.dist[-1] == 0.0
    assert np.array_equal(mixed.grad_dist[-1], [0.0, 0.0])
    assert np.array_equal(mixed.grad_dist[:-1], ft.grad_dist)


def test_gauss_legendre_rule_is_kept_read_only():
    nodes, wts = geometry.gauss_legendre(0.0, 2.0, 64)
    again = geometry.gauss_legendre(0.0, 2.0, 64)
    assert again[0] is nodes and again[1] is wts
    for a in (nodes, wts):
        with pytest.raises(ValueError):
            a[0] = 1.0
    other = geometry.gauss_legendre(0.0, 2.0, 32)
    assert len(other[0]) == 160 and len(nodes) == 320
