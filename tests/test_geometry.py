"""Curves, surfaces, frames, curvature, and nearest-point queries."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapecalc._stencil import _OFFSETS, _W, sample_derivative
from shapecalc.errors import (
    DegenerateImmersion,
    IllConditioned,
    InvariantViolation,
    NoConvergence,
    NonFinite,
)
from shapecalc import geometry
from shapecalc.geometry import (
    ParamCurve,
    ParamSurface,
    curvature,
    curve_curvature_derivs,
    frenet_rows,
    integrate_curve,
    integrate_surface,
    nearest_curve_param,
    nearest_surface_param,
    surface_max_curvature,
    surface_mean_curvature,
)

TWO_PI = 2.0 * np.pi


def catenary(half_width=1.0):
    # y = cosh x, not arc-length parameterized, strictly curved
    return ParamCurve(
        dim=2,
        a=-half_width,
        b=half_width,
        gamma=lambda t: np.stack([t, np.cosh(t)], axis=-1),
        dgamma=lambda t: np.stack([np.ones_like(t), np.sinh(t)], axis=-1),
        ddgamma=lambda t: np.stack([np.zeros_like(t), np.cosh(t)], axis=-1),
        closed=False,
        name="catenary",
    )


def test_circle_circumference_quadrature(circle1, circle2):
    one = lambda t: np.ones_like(t)
    assert integrate_curve(circle1, one, 64) == pytest.approx(TWO_PI, rel=1e-12)
    assert integrate_curve(circle2, one, 64) == pytest.approx(2 * TWO_PI, rel=1e-12)


def test_circle_curvature_is_inverse_radius(circle1, circle2):
    ts = np.linspace(0.0, TWO_PI, 17)
    np.testing.assert_allclose(curvature(circle1, ts), 1.0, rtol=1e-12)
    np.testing.assert_allclose(curvature(circle2, ts), 0.5, rtol=1e-12)


def test_ellipse_curvature_extremes(ellipse21):
    # a=2, b=1: kappa = a/b^2 at the flat ends of the minor axis sweep,
    # b/a^2 at the top
    k = curvature(ellipse21, np.array([0.0, np.pi / 2, np.pi]))
    np.testing.assert_allclose(k, [2.0, 0.25, 2.0], atol=1e-12)


def test_straight_segment_curvature_vanishes(segment01):
    ts = np.linspace(segment01.a, segment01.b, 9)
    np.testing.assert_allclose(curvature(segment01, ts), 0.0, atol=1e-14)


def test_helix_curvature_constant(helix1):
    # radius 1, pitch 2*pi: kappa = r/(r^2 + c^2) = 1/2 with c = pitch/(2*pi)
    ts = np.linspace(helix1.a, helix1.b, 9)
    np.testing.assert_allclose(curvature(helix1, ts), 0.5, rtol=1e-10)


def test_helix_arc_length_curvature_derivs(helix1):
    ts = np.array([0.3, 1.0, 4.0])
    k, dk, ddk = curve_curvature_derivs(helix1, ts)
    np.testing.assert_allclose(k, 0.5, rtol=1e-10)
    np.testing.assert_allclose(dk, 0.0, atol=1e-8)
    np.testing.assert_allclose(ddk, 0.0, atol=1e-6)


def test_catenary_curvature_derivs_match_closed_forms():
    cat = catenary()
    ts = np.array([-0.7, -0.2, 0.0, 0.4, 0.8])
    k, dk, ddk = curve_curvature_derivs(cat, ts)
    sech = 1.0 / np.cosh(ts)
    tanh = np.tanh(ts)
    np.testing.assert_allclose(k, sech**2, rtol=1e-10)
    np.testing.assert_allclose(dk, -2.0 * sech**3 * tanh, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(
        ddk, 2.0 * sech**4 * (3.0 * tanh**2 - sech**2), rtol=1e-5, atol=1e-7
    )


def test_circle_frame_convention(circle1):
    fr, straight = frenet_rows(circle1, np.array([0.0, 1.3]))
    np.testing.assert_allclose(fr.T[0], [0.0, 1.0], atol=1e-14)
    # planar normal is the tangent rotated a quarter turn, inward here
    np.testing.assert_allclose(fr.N[0], [-1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(fr.kappa, 1.0, rtol=1e-12)
    assert not straight.any()


def test_helix_frame_orthonormal(helix1):
    ts = np.linspace(helix1.a + 0.1, helix1.b - 0.1, 7)
    fr, straight = frenet_rows(helix1, ts)
    assert not straight.any()
    for vec in (fr.T, fr.N):
        np.testing.assert_allclose(np.linalg.norm(vec, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.sum(fr.T * fr.N, axis=1), 0.0, atol=1e-12)
    # radius 1, pitch 2 pi: kappa = 1 / 2 and N points at the axis
    np.testing.assert_allclose(fr.kappa, 0.5, rtol=1e-12)
    np.testing.assert_allclose(
        fr.N, -np.stack([np.cos(ts), np.sin(ts), 0.0 * ts], axis=-1),
        atol=1e-12)


def test_planar_straight_frame_from_rotated_tangent(segment01):
    # in the plane the normal comes from rotating the tangent, so straight
    # pieces still carry a frame with zero curvature and no straight row
    fr, straight = frenet_rows(segment01, np.array([0.5]))
    np.testing.assert_allclose(fr.T[0], [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(fr.N[0], [0.0, 1.0], atol=1e-14)
    assert fr.kappa[0] == pytest.approx(0.0, abs=1e-14)
    assert not straight.any()


def test_straight_space_curve_frame_is_degenerate():
    # a space curve has no Frenet normal where it is straight: those rows
    # are masked and carry N = 0, so kappa N is still the curvature vector
    def gamma(t):
        return np.stack([t, t, np.where(t > 0.5, (t - 0.5) ** 3, 0.0)], axis=-1)

    def dgamma(t):
        return np.stack([np.ones_like(t), np.ones_like(t),
                         np.where(t > 0.5, 3.0 * (t - 0.5) ** 2, 0.0)], axis=-1)

    def ddgamma(t):
        return np.stack([np.zeros_like(t), np.zeros_like(t),
                         np.where(t > 0.5, 6.0 * (t - 0.5), 0.0)], axis=-1)

    bent = ParamCurve(dim=3, a=0.0, b=1.0, gamma=gamma, dgamma=dgamma,
                      ddgamma=ddgamma, closed=False, name="bent3")
    ts = np.array([0.2, 0.5, 0.8])
    fr, straight = frenet_rows(bent, ts)
    np.testing.assert_array_equal(straight, [True, True, False])
    np.testing.assert_array_equal(fr.N[:2], 0.0)
    assert fr.kappa[0] == fr.kappa[1] == 0.0
    np.testing.assert_allclose(np.linalg.norm(fr.N[2]), 1.0, rtol=1e-12)
    # the curvature vector is gamma'' less its tangent part, over v^2
    d1, d2, T = dgamma(ts[2:])[0], ddgamma(ts[2:])[0], fr.T[2]
    np.testing.assert_allclose(fr.kappa[2] * fr.N[2] * (d1 @ d1),
                               d2 - T * (T @ d2), rtol=1e-12)


def test_zero_speed_curve_rejected():
    # speed 2t vanishes at the left endpoint
    with pytest.raises(DegenerateImmersion):
        ParamCurve(
            dim=2,
            a=0.0,
            b=1.0,
            gamma=lambda t: np.stack([t**2, np.zeros_like(t)], axis=-1),
            dgamma=lambda t: np.stack([2 * t, np.zeros_like(t)], axis=-1),
            ddgamma=lambda t: np.stack([2 * np.ones_like(t), np.zeros_like(t)], axis=-1),
            closed=False,
            name="cusp",
        )


def test_frenet_rows_rejects_zero_speed_between_grid_points():
    # speed 3(t - 1/2)^2 vanishes midway between two construction-grid
    # points, where it is 2.9e-6: the chart is built, its frame is not
    cubic = ParamCurve(
        dim=2,
        a=0.0,
        b=1.0,
        gamma=lambda t: np.stack([(t - 0.5) ** 3, np.zeros_like(t)], axis=-1),
        dgamma=lambda t: np.stack([3 * (t - 0.5) ** 2, np.zeros_like(t)], axis=-1),
        ddgamma=lambda t: np.stack([6 * (t - 0.5), np.zeros_like(t)], axis=-1),
        closed=False,
        name="cubic",
    )
    assert cubic.grid_speed.min() > 1e-6
    with pytest.raises(DegenerateImmersion,
                       match=r"curve 'cubic': zero speed at t = 0\.5$"):
        frenet_rows(cubic, 0.5)


def test_self_intersecting_curve_rejected():
    # figure-eight crosses itself at the origin
    with pytest.raises(DegenerateImmersion):
        ParamCurve(
            dim=2,
            a=0.0,
            b=TWO_PI,
            gamma=lambda t: np.stack([np.sin(t), np.sin(t) * np.cos(t)], axis=-1),
            dgamma=lambda t: np.stack([np.cos(t), np.cos(2 * t)], axis=-1),
            ddgamma=lambda t: np.stack([-np.sin(t), -2 * np.sin(2 * t)], axis=-1),
            closed=True,
            name="eight",
        )


def test_nearest_point_on_circle(circle1):
    pts = np.array([[2.0, 0.0], [0.0, 3.0], [-0.5, 0.0]])
    ts = nearest_curve_param(circle1, pts)
    feet = circle1.gamma(ts)
    np.testing.assert_allclose(feet[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(feet[1], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(feet[2], [-1.0, 0.0], atol=1e-12)
    d = circle1.project(pts).dist
    np.testing.assert_allclose(d, [1.0, 2.0, 0.5], rtol=1e-12)


def test_nearest_point_matches_distance(ellipse21):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(12, 2)) + np.array([0.0, 1.2])
    ts = nearest_curve_param(ellipse21, pts)
    feet = ellipse21.gamma(ts)
    d = ellipse21.project(pts).dist
    np.testing.assert_allclose(np.linalg.norm(pts - feet, axis=1), d, rtol=1e-9)
    # foot must beat a dense sampling of the curve
    dense = ellipse21.gamma(np.linspace(ellipse21.a, ellipse21.b, 4000))
    brute = np.min(
        np.linalg.norm(pts[:, None, :] - dense[None, :, :], axis=2), axis=1
    )
    assert np.all(d <= brute + 1e-9)


def test_newton_cap_raises(ellipse21, monkeypatch):
    assert ellipse21.foot is None
    pts = np.array([[2.3, 0.4], [-0.3, 1.4], [0.7, -0.6]])
    nearest_curve_param(ellipse21, pts)
    monkeypatch.setattr(geometry, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="ellipse21.*worst step"):
        nearest_curve_param(ellipse21, pts)


def test_held_feet_converge_at_extended_ends(segment01):
    # the foot of a point past an extended end is held there; that counts
    # as converged, and the foot parameter does not move with the point
    ext = 0.15
    pts = np.array([[1.7, 0.02], [0.3, -0.01], [1.0, 0.05]])
    ft = segment01.project(pts, extend=ext)
    np.testing.assert_array_equal(ft.params[:2], [segment01.b + ext, segment01.a - ext])
    np.testing.assert_array_equal(ft.grad_t[:2], 0.0)
    np.testing.assert_allclose(ft.grad_t[2], [1.0, 0.0], rtol=1e-14)


@pytest.mark.parametrize("curve", ["ellipse21", "helix1"])
def test_curve_foot_gradients_match_fd(curve, request):
    M = request.getfixturevalue(curve)
    rng = np.random.default_rng(5)
    ts = rng.uniform(M.a + 0.5, M.b - 0.5, 12)
    pts = M.gamma(ts) + 0.2 * rng.uniform(-1.0, 1.0, (12, M.dim))
    ft = M.project(pts)
    h = 1e-6
    for j in range(M.dim):
        e = np.zeros(M.dim)
        e[j] = h
        up, down = M.project(pts + e), M.project(pts - e)
        np.testing.assert_allclose(ft.grad_t[:, j],
                                   (up.params - down.params) / (2 * h), atol=1e-7)
        np.testing.assert_allclose(ft.grad_dist[:, j],
                                   (up.dist - down.dist) / (2 * h), atol=1e-7)
    np.testing.assert_array_equal(ft.params, nearest_curve_param(M, pts))
    np.testing.assert_array_equal(
        ft.dist, np.linalg.norm(pts - M.gamma(ft.params), axis=1))


def test_curve_foot_at_circle_centre(circle1):
    # every point of the circle is a foot of its centre: grad t blows up
    ft = circle1.project(np.zeros((1, 2)))
    assert ft.dist[0] == pytest.approx(1.0)
    assert not np.all(np.isfinite(ft.grad_t))


def _past_the_ends(M, extend, n=16, seed=0):
    """Points next to the curve beyond both ends, inside and past the
    widened range [a - extend, b + extend]: along the chart's own
    continuation, nudged off the curve by up to 0.05."""
    rng = np.random.default_rng(seed)
    reach = max(extend, 0.2)
    ts = np.concatenate([rng.uniform(M.a - 2 * reach, M.a, n // 2),
                         rng.uniform(M.b, M.b + 2 * reach, n - n // 2)])
    return (np.asarray(M.gamma(ts), dtype=float)
            + rng.uniform(-0.05, 0.05, (n, M.dim)))


def _arc_far_side(r, angle0, angle1, n=24, seed=0):
    """Points on the uncovered side of an arc's circle, within 80 degrees
    of an end, inside and outside the circle."""
    rng = np.random.default_rng(seed)
    k = n // 2
    off = np.radians(rng.uniform(1.0, 80.0, n))
    th = np.concatenate([angle0 - off[:k], angle1 + off[k:]])
    rho = r * rng.uniform(0.3, 2.0, n)
    return np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)


_FOOT_SHAPES = {
    "circle1": None,
    "circle_off_centre": {"kind": "circle", "radius": 1.5,
                          "center": [0.4, -0.7], "name": "circle_off_centre"},
    "crack_arc": None,
    "arc_negative": {"kind": "arc", "radius": 1.0, "angle0": -2.5,
                     "angle1": 3.0, "name": "arc_negative"},
    "segment01": None,
    "segment3d": {"kind": "segment", "p0": [0.1, -0.2, 0.3],
                  "p1": [1.0, 0.5, -0.4], "name": "segment3d"},
}
# (radius, angle0, angle1) of the arcs above
_ARCS = {"crack_arc": (2.0, np.pi + 0.5, TWO_PI - 0.5),
         "arc_negative": (1.0, -2.5, 3.0)}


@pytest.mark.parametrize("extend", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("shape", list(_FOOT_SHAPES))
def test_curve_foot_hook_matches_newton(shape, extend, request, tube_points):
    from shapecalc.catalog import build_shape

    desc = _FOOT_SHAPES[shape]
    M = request.getfixturevalue(shape) if desc is None else build_shape(desc)
    newton = dataclasses.replace(M, foot=None)
    assert M.foot is not None and newton.foot is None
    span = M.b - M.a
    # inside the reach of every shape here (radius >= 1, segments: any)
    sets = [tube_points(M, 0.5, n=40, seed=3)]
    if not M.closed:
        sets.append(_past_the_ends(M, extend, seed=4))
    if shape in _ARCS:
        sets.append(_arc_far_side(*_ARCS[shape], seed=5))
    pts = np.concatenate(sets)
    ff = M.project(pts, extend=extend)
    fn = newton.project(pts, extend=extend)
    same = np.abs(ff.params - fn.params) <= 1e-12 * span
    # arc_negative widened by 0.6 wraps all the way round, covering the
    # angles around its gap twice; there the two searches may pick feet one
    # turn apart, and no foot is held
    wraps = shape == "arc_negative" and extend == 0.6
    twice = ~same
    if wraps:
        assert twice.any()
        np.testing.assert_allclose(np.abs(ff.params - fn.params)[twice], TWO_PI,
                                   rtol=0.0, atol=1e-12 * span)
        np.testing.assert_allclose(M.gamma(ff.params[twice]),
                                   M.gamma(fn.params[twice]),
                                   rtol=0.0, atol=1e-12 * span)
    else:
        assert same.all()
    np.testing.assert_allclose(ff.dist, fn.dist, rtol=0.0, atol=1e-12 * span)
    np.testing.assert_array_equal(ff._held, fn._held)
    np.testing.assert_array_equal(np.all(ff.grad_t == 0.0, axis=1),
                                  np.all(fn.grad_t == 0.0, axis=1))
    if not (M.closed or wraps):
        assert ff._held.any() and not ff._held.all()
        # held feet sit on the widened bounds bit for bit
        held = ff.params[ff._held]
        np.testing.assert_array_equal(
            held, np.where(held < 0.5 * (M.a + M.b), M.a - extend, M.b + extend))


def test_arc_foot_deep_in_the_gap(crack_arc):
    # points more than 90 degrees past both ends of the arc: the nearest
    # point is the nearer end, which a dense sampling confirms
    r, a0, a1 = _ARCS["crack_arc"]
    mid_gap = 0.5 * (a0 + a1) + np.pi
    th = mid_gap + np.linspace(-0.9, 0.9, 19) * (np.pi - 0.5 * (a1 - a0) - np.pi / 2)
    rho = np.linspace(0.2, 3.0, 19) * r
    pts = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)
    ft = crack_arc.project(pts)
    dense = crack_arc.gamma(np.linspace(crack_arc.a, crack_arc.b, 20001))
    brute = np.min(np.linalg.norm(pts[:, None] - dense[None], axis=2), axis=1)
    np.testing.assert_allclose(ft.dist, brute, rtol=0.0, atol=1e-12)
    assert ft._held.all()
    np.testing.assert_array_equal(ft.params,
                                  np.where(th < mid_gap, crack_arc.b, crack_arc.a))


def test_curve_foot_hook_skips_newton(circle1, monkeypatch):
    pts = np.array([[2.3, 0.4], [-0.3, 1.4], [0.7, -0.6], [0.0, -0.2]])
    ref = nearest_curve_param(circle1, pts)
    # no iteration cap applies to the hook
    monkeypatch.setattr(geometry, "NEWTON_MAX_ITER", 1)
    np.testing.assert_array_equal(nearest_curve_param(circle1, pts), ref)
    with pytest.raises(NoConvergence):
        nearest_curve_param(dataclasses.replace(circle1, foot=None), pts)


def test_wrong_curve_foot_rejected(circle1):
    from shapecalc.catalog import build_shape

    def shifted(pts, extend):
        return circle1.foot(pts, extend) + 0.1

    with pytest.raises(InvariantViolation, match="foot is not the nearest point near t ="):
        dataclasses.replace(circle1, foot=shifted, name="circle_shifted_foot")

    off = build_shape({"kind": "circle", "radius": 1.0, "center": [0.5, -0.3],
                       "name": "circle_off_centre"})

    def centre_blind(pts, extend):
        return np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)

    with pytest.raises(InvariantViolation, match="foot is not the nearest point"):
        dataclasses.replace(off, foot=centre_blind)

    def wrong_shape(pts, extend):
        return circle1.foot(pts, extend)[:, None]

    with pytest.raises(InvariantViolation, match=r"foot must map \(n, 2\) to an \(n,\) array"):
        dataclasses.replace(circle1, foot=wrong_shape)


def test_flowed_and_reversed_curves_drop_foot(circle1, crack_arc, radial2):
    from shapecalc.flow import FlowConfig, flow_manifold

    assert flow_manifold(radial2, circle1, FlowConfig(0.1, 10)).foot is None
    pts = np.array([[1.3, 0.2], [-0.4, -0.9], [0.3, -2.4], [-1.5, -1.2]])
    for M in (circle1, crack_arc):
        bare = dataclasses.replace(M, foot=None)
        assert M.foot is not None and bare.foot is None
        # the hook-free chart's Newton search finds the same feet
        np.testing.assert_allclose(bare.gamma(nearest_curve_param(bare, pts)),
                                   M.gamma(nearest_curve_param(M, pts)),
                                   rtol=0.0, atol=1e-12)


def test_nearest_point_on_cylinder(cylinder):
    pts = np.array([[2.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
    us, vs = nearest_surface_param(cylinder, pts)
    feet = cylinder.phi(us, vs)
    d = cylinder.project(pts).dist
    np.testing.assert_allclose(np.linalg.norm(pts - feet, axis=1), d, rtol=1e-9)
    np.testing.assert_allclose(feet[0], [1.0, 0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(d, [1.0, 0.5], rtol=1e-9)


def _without_foot(surf, **overrides):
    """The same chart with the foot hook left out, or overridden."""
    kw = dict(a=surf.a, b=surf.b, c=surf.c, d=surf.d, phi=surf.phi,
              phi_u=surf.phi_u, phi_v=surf.phi_v, name=surf.name + "_bare")
    kw.update(overrides)
    return ParamSurface(**kw)


def test_cylinder_foot_matches_brute_force(cylinder):
    # seam points on either side of v = 0 = 2 pi, and heights out to the
    # widened rims
    rng = np.random.default_rng(11)
    n = 300
    r = rng.uniform(0.6, 1.4, n)
    z = rng.uniform(-0.3, 2.3, n)
    th = rng.uniform(0.0, TWO_PI, n)
    th[:6] = [0.0, 1e-9, -1e-9, TWO_PI - 1e-9, 1e-14, -1e-14]
    pts = np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
    lo, hi = cylinder.a - 0.3, cylinder.b + 0.3
    u, v = nearest_surface_param(cylinder, pts, extend_u=0.3)
    assert np.all((u >= lo) & (u <= hi))
    assert np.all((v >= 0.0) & (v <= TWO_PI))
    res = pts - cylinder.phi(u, v)
    dist = np.linalg.norm(res, axis=1)
    gu = np.linspace(lo, hi, 131)
    gv = np.linspace(cylinder.c, cylinder.d, 721)
    dense = cylinder.phi(*(x.ravel() for x in np.meshgrid(gu, gv, indexing="ij")))
    brute = np.array([np.linalg.norm(dense - p, axis=1).min() for p in pts])
    # sampling can never beat the true minimum, and misses it by at most
    # the distance from the foot to its nearest sample (the unit cylinder's
    # chart is an isometry up to the chord of v): half a cell diagonal
    assert np.all(dist <= brute + 1e-12)
    assert np.all(brute - dist <= 0.5 * np.hypot(gu[1] - gu[0], gv[1] - gv[0]))
    # the foot is stationary: p - phi is orthogonal to phi_v, and to phi_u
    # where u is not held at a rim
    free = (u > lo) & (u < hi)
    assert np.abs(np.einsum("ij,ij->i", res, cylinder.phi_v(u, v))).max() <= 1e-14
    assert np.abs(np.einsum("ij,ij->i", res[free],
                            cylinder.phi_u(u[free], v[free]))).max() <= 1e-14


def test_cylinder_foot_holds_points_past_the_rims(cylinder):
    # points past the rims take u = b and u = a (widened by extend_u), and
    # v their angle
    past = np.array([[1.2, 0.3, 2.5], [0.4, -0.8, -0.6]])
    angle = np.mod(np.arctan2(past[:, 1], past[:, 0]), TWO_PI)
    for extend in (0.0, 0.3):
        u, v = nearest_surface_param(cylinder, past, extend_u=extend)
        np.testing.assert_array_equal(u, [cylinder.b + extend,
                                          cylinder.a - extend])
        np.testing.assert_allclose(v, angle, rtol=0.0, atol=1e-14)


def test_surface_without_a_foot_cannot_be_projected(catenoid, cylinder,
                                                    e3_field):
    from shapecalc.flow import FlowConfig, flow_manifold

    pts = np.array([[1.2, 0.0, 0.1]])
    moved = flow_manifold(e3_field, cylinder, FlowConfig(0.1, 10))
    for M in (catenoid, moved):
        with pytest.raises(InvariantViolation,
                           match=rf"^surface '{re.escape(M.name)}': no foot map, "
                                 r"so it cannot be projected$"):
            M.project(pts)


def test_every_catalog_surface_kind_has_a_foot():
    from typing import get_type_hints

    from shapecalc import catalog

    kinds = [kind for kind, build in catalog.SHAPE_KINDS.items()
             if get_type_hints(build)["return"] is ParamSurface]
    assert kinds
    for kind in kinds:
        assert catalog.build_shape(kind).foot is not None


def _reference_distance(M, pts):
    """Distance to M as computed before project existed."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(M, ParamCurve):
        params = nearest_curve_param(M, pts)
    else:
        params = nearest_surface_param(M, pts)
    return np.linalg.norm(pts - M.chart(params), axis=1)


@pytest.mark.parametrize("shape", ["circle1", "ellipse21", "helix1", "cylinder"])
def test_project_dist_bit_equal_to_reference(shape, request):
    M = request.getfixturevalue(shape)
    rng = np.random.default_rng(7)
    base = M._grid_points[::7]
    pts = base + 0.3 * rng.uniform(-1.0, 1.0, base.shape)
    ft = M.project(pts)
    np.testing.assert_array_equal(ft.dist, _reference_distance(M, pts))
    # grad_dist is the unit vector from the foot
    np.testing.assert_allclose(ft.grad_dist * ft.dist[:, None], ft.r,
                               rtol=0.0, atol=1e-15)


def test_flowed_cylinder_drops_foot(cylinder, e3_field):
    from shapecalc.flow import FlowConfig, flow_manifold

    moved = flow_manifold(e3_field, cylinder, FlowConfig(0.1, 10))
    assert moved.foot is None


def test_wrong_foot_rejected(cylinder):
    def shifted(pts, extend_u):
        u, v = cylinder.foot(pts, extend_u)
        return u, v + 0.1

    with pytest.raises(InvariantViolation, match="foot"):
        _without_foot(cylinder, foot=shifted, name="cylinder_bad_foot")


def _reference_surface_normal(surf, us, vs):
    """phi_u x phi_v / |phi_u x phi_v|, as the free surface_normal function
    that ParamSurface.unit_normal replaced computed it."""
    cr = np.cross(np.asarray(surf.phi_u(us, vs), dtype=float),
                  np.asarray(surf.phi_v(us, vs), dtype=float))
    return cr / np.linalg.norm(cr, axis=1)[:, None]


def test_unit_normal_is_the_reference_formula(cylinder, catenoid):
    rng = np.random.default_rng(3)
    for M in (cylinder, catenoid):
        us = rng.uniform(M.a, M.b, 200)
        vs = rng.uniform(M.c, M.d, 200)
        np.testing.assert_array_equal(M.unit_normal((us, vs)),
                                      _reference_surface_normal(M, us, vs))
    # a cone chart, regular on its box, pinches to a point at u = 0
    cone = ParamSurface(
        a=1.0, b=2.0, c=0.0, d=TWO_PI,
        phi=lambda u, v: np.stack([u * np.cos(v), u * np.sin(v), u], axis=-1),
        phi_u=lambda u, v: np.stack(
            [np.cos(v), np.sin(v), np.ones_like(u)], axis=-1),
        phi_v=lambda u, v: np.stack(
            [-u * np.sin(v), u * np.cos(v), np.zeros_like(u)], axis=-1),
        name="cone",
    )
    with pytest.raises(DegenerateImmersion) as exc:
        cone.unit_normal((np.array([1.5, 0.0]), np.array([0.1, 0.3])))
    assert str(exc.value) == "surface 'cone': normal undefined at (0, 0.3)"


def test_surface_max_curvature_saddle_and_cylinder(cylinder, catenoid):
    # the catenoid's principal curvatures are +-1/cosh^2 u: a saddle with
    # H = 0 whose |kappa| peaks at 1 on u = 0, which sets the reach
    assert surface_mean_curvature(catenoid, (0.0, 0.0))[0] == pytest.approx(0.0, abs=1e-6)
    assert surface_max_curvature(catenoid, (0.0, 0.0))[0] == pytest.approx(1.0, rel=1e-6)
    assert catenoid.reach == pytest.approx(0.5, rel=1e-3)
    us = np.linspace(cylinder.a, cylinder.b, 7)
    vs = np.linspace(cylinder.c, cylinder.d, 7)
    np.testing.assert_allclose(surface_max_curvature(cylinder, (us, vs)), 1.0,
                               rtol=0.0, atol=1e-6)


def test_reversed_curve_same_points_same_bend(ellipse21):
    # the same point set traversed with t -> a + b - t
    a, b = ellipse21.a, ellipse21.b
    rev = ParamCurve(
        dim=2, a=a, b=b,
        gamma=lambda t: ellipse21.gamma(a + b - np.asarray(t, dtype=float)),
        dgamma=lambda t: -ellipse21.dgamma(a + b - np.asarray(t, dtype=float)),
        ddgamma=lambda t: ellipse21.ddgamma(a + b - np.asarray(t, dtype=float)),
        closed=True, name="ellipse21_rev")
    ts = np.linspace(ellipse21.a, ellipse21.b, 9)
    np.testing.assert_allclose(
        rev.gamma(ellipse21.a + ellipse21.b - ts), ellipse21.gamma(ts), atol=1e-12
    )
    one = lambda t: np.ones_like(t)
    assert integrate_curve(rev, one, 64) == pytest.approx(
        integrate_curve(ellipse21, one, 64), rel=1e-12
    )
    # signed planar curvature flips with orientation
    np.testing.assert_allclose(
        curvature(rev, ellipse21.a + ellipse21.b - ts), -curvature(ellipse21, ts),
        rtol=1e-10,
    )


def test_boundary_outward_normals(segment01, circle1, cylinder):
    # the conormal extension at the boundary parameters is the outward
    # unit conormal
    np.testing.assert_allclose(
        segment01.conormal_extension([segment01.a, segment01.b]),
        [[-1.0, 0.0], [1.0, 0.0]], atol=1e-14)
    # a closed curve has no boundary, and the extension is zero
    np.testing.assert_array_equal(circle1.conormal_extension([0.0, 1.0]), 0.0)
    # cylinder u runs along the axis, so the "a" rim points down
    np.testing.assert_allclose(
        cylinder.conormal_extension((cylinder.a, 0.3)), [[0.0, 0.0, -1.0]],
        atol=1e-12)


def _reference_outward_normal(M, end, v=None):
    """The outward unit conormal by its own formula: -T(a) / +T(b) at curve
    ends, -+ phi_v x N / |phi_v| on the u = a / u = b sides of a surface."""
    if isinstance(M, ParamCurve):
        t = M.a if end == "a" else M.b
        d1 = np.asarray(M.dgamma(np.array([t])), dtype=float)[0]
        T = d1 / np.linalg.norm(d1)
        return -T if end == "a" else T
    vs = np.atleast_1d(np.asarray(v, dtype=float))
    us = np.full_like(vs, M.a if end == "a" else M.b)
    pv = np.asarray(M.phi_v(us, vs), dtype=float)
    nu = np.cross(pv, M.unit_normal((us, vs))) / np.linalg.norm(pv, axis=1)[:, None]
    return -nu if end == "a" else nu


@pytest.mark.parametrize("shape", ["segment01", "crack_arc", "cylinder"])
def test_conormal_extension_is_the_outward_conormal(shape, request):
    M = request.getfixturevalue(shape)
    for end, s in (("a", M.a), ("b", M.b)):
        if isinstance(M, ParamCurve):
            got = M.conormal_extension(s)[0]
            want = _reference_outward_normal(M, end)
        else:
            vs = np.linspace(M.c, M.d, 17)
            got = M.conormal_extension((np.full_like(vs, s), vs))
            want = _reference_outward_normal(M, end, vs)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-16)


def test_cylinder_surface_quantities(cylinder):
    us = np.array([0.5, 1.5])
    vs = np.array([0.0, np.pi / 2])
    n = cylinder.unit_normal((us, vs))
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, rtol=1e-12)
    # this parameterization orients the normal toward the axis
    np.testing.assert_allclose(n[0], [-1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(n[1], [0.0, -1.0, 0.0], atol=1e-12)
    h = surface_mean_curvature(cylinder, (us, vs))
    np.testing.assert_allclose(h, -1.0, rtol=1e-6)
    one = lambda u, v: np.ones_like(u)
    assert integrate_surface(cylinder, one, (16, 16)) == pytest.approx(4 * np.pi,
                                                                   rel=1e-10)


def test_non_finite_integral_raises_naming_the_manifold(circle1, cylinder):
    # one bad node is enough: the integral is an error, not a NaN
    def one_nan(*params):
        out = np.ones_like(params[0])
        out[len(out) // 2] = np.nan
        return out

    with pytest.raises(NonFinite, match="integral over 'circle1' is not finite"):
        integrate_curve(circle1, one_nan, 64)
    with pytest.raises(NonFinite, match="integral over 'cylinder' is not finite"):
        integrate_surface(cylinder, one_nan, (16, 16))


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=TWO_PI))
def test_ellipse_frame_orthonormal_property(t):
    ell = _ellipse_cached()
    fr, _ = frenet_rows(ell, np.array([t]))
    speed = np.linalg.norm(ell.dgamma(np.array([t]))[0])
    assert np.linalg.norm(fr.T[0]) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(fr.N[0]) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(fr.T[0] @ fr.N[0])) < 1e-12
    # acceleration decomposes over the frame
    d2 = ell.ddgamma(np.array([t]))[0]
    tangential = float(d2 @ fr.T[0]) * fr.T[0]
    np.testing.assert_allclose(
        d2 - tangential, fr.kappa[0] * speed ** 2 * fr.N[0], atol=1e-9
    )


_ELL = {}


def _ellipse_cached():
    if "e" not in _ELL:
        from shapecalc.catalog import build_shape

        _ELL["e"] = build_shape({"kind": "ellipse", "a": 2.0, "b": 1.0, "name": "e"})
    return _ELL["e"]


# embedding desk check: the helper against the formula it replaced, kept
# here as the reference (full distance matrix, inline adjacency masks)


def _reference_extent(pts, nonadj):
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return dist.max(), dist[nonadj].min()


def _reference_curve_mask(n, closed):
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    if closed:
        gap = np.minimum(gap, n - gap)
    return gap > 1


def _reference_surface_mask(n):
    iu, iv = np.divmod(np.arange(n * n), n)
    du = np.abs(iu[:, None] - iu[None, :])
    dv = np.abs(iv[:, None] - iv[None, :])
    dv = np.minimum(dv, n - 1 - dv)
    return (du > 1) | (dv > 1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("closed", [False, True])
def test_curve_embedding_extent_bit_equal_to_reference(dim, closed):
    n = 512
    mask = geometry._curve_nonadjacent(n, closed)
    np.testing.assert_array_equal(mask, _reference_curve_mask(n, closed))
    rng = np.random.default_rng(17 + dim + 2 * closed)
    for _ in range(20):
        # random walks of mixed scale: near-coincident and far samples
        steps = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1.0)
        pts = np.cumsum(steps, axis=0) * rng.uniform(0.1, 10.0)
        diam, sep = geometry._embedding_extent(pts, mask)
        ref_diam, ref_sep = _reference_extent(pts, mask)
        assert diam == ref_diam and sep == ref_sep


def test_surface_embedding_extent_bit_equal_to_reference():
    n = 24
    mask = geometry._surface_nonadjacent(n)
    np.testing.assert_array_equal(mask, _reference_surface_mask(n))
    rng = np.random.default_rng(31)
    for _ in range(10):
        pts = rng.standard_normal((n * n, 3)) * rng.uniform(0.1, 10.0)
        diam, sep = geometry._embedding_extent(pts, mask)
        ref_diam, ref_sep = _reference_extent(pts, mask)
        assert diam == ref_diam and sep == ref_sep


def test_nonadjacency_masks_are_shared_and_read_only():
    for make, args in ((geometry._curve_nonadjacent, (512, True)),
                       (geometry._surface_nonadjacent, (24,))):
        mask = make(*args)
        assert make(*args) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = True


def test_nonadjacency_masks_match_reference_at_small_sizes():
    # the masks are unions of bool diagonals; at small n the wrapped ones
    # overlap the central ones
    for n in range(1, 9):
        for closed in (False, True):
            np.testing.assert_array_equal(geometry._curve_nonadjacent(n, closed),
                                          _reference_curve_mask(n, closed))
        if n >= 2:
            np.testing.assert_array_equal(geometry._surface_nonadjacent(n),
                                          _reference_surface_mask(n))


def test_embedding_extent_without_nonadjacent_pairs():
    # no pair to compare: the separation is inf, so no coincidence is flagged
    pts = np.random.default_rng(3).standard_normal((4, 3))
    diam, sep = geometry._embedding_extent(pts, np.zeros((4, 4), dtype=bool))
    assert sep == np.inf and diam > 0.0


def _wound_cylinder(turns: float) -> ParamSurface:
    """The unit cylinder chart over v in [0, 2 pi turns]."""
    return ParamSurface(
        a=0.0, b=2.0, c=0.0, d=TWO_PI * turns,
        phi=lambda u, v: np.stack([np.cos(v), np.sin(v), u], axis=-1),
        phi_u=lambda u, v: np.stack(
            [np.zeros_like(u), np.zeros_like(u), np.ones_like(u)], axis=-1),
        phi_v=lambda u, v: np.stack(
            [-np.sin(v), np.cos(v), np.zeros_like(u)], axis=-1),
        name="lapped-cylinder",
    )


def test_lapped_surface_chart_rejected():
    # wound 23 times the chart closes in v, but its 24 grid columns land on
    # one another, so non-adjacent samples coincide
    with pytest.raises(DegenerateImmersion, match="samples nearly coincide"):
        _wound_cylinder(23.0)


def test_surface_open_in_v_rejected():
    # wound 23/12 times the v = c and v = d seams do not meet
    with pytest.raises(InvariantViolation,
                       match=r"surface 'lapped-cylinder': does not close in v "
                             r"\(phi at v = c and v = d differs by"):
        _wound_cylinder(23.0 / 12.0)


def test_torus_chart_rejected():
    # a chart that closes in u as well as v: its u-sides are boundary, so
    # the grid rows u = a and u = b coincide as non-adjacent samples
    R, r = 2.0, 0.5
    with pytest.raises(DegenerateImmersion, match="samples nearly coincide"):
        ParamSurface(
            a=0.0, b=TWO_PI, c=0.0, d=TWO_PI,
            phi=lambda u, v: np.stack([(R + r * np.cos(u)) * np.cos(v),
                                       (R + r * np.cos(u)) * np.sin(v),
                                       r * np.sin(u)], axis=-1),
            phi_u=lambda u, v: np.stack([-r * np.sin(u) * np.cos(v),
                                         -r * np.sin(u) * np.sin(v),
                                         r * np.cos(u)], axis=-1),
            phi_v=lambda u, v: np.stack([-(R + r * np.cos(u)) * np.sin(v),
                                         (R + r * np.cos(u)) * np.cos(v),
                                         np.zeros_like(v)], axis=-1),
            name="torus",
        )


def _line(dim=2, a=0.0, b=1.0):
    e = np.eye(dim)[0]
    return dict(dim=dim, a=a, b=b,
                gamma=lambda t: t[:, None] * e,
                dgamma=lambda t: np.broadcast_to(e, (len(t), dim)).copy(),
                ddgamma=lambda t: np.zeros((len(t), dim)),
                closed=False, name="line")


@pytest.mark.parametrize("kwargs, message", [
    (_line(dim=4), "dim must be 2 or 3"),
    (_line(a=1.0, b=1.0), "need b > a"),
])
def test_curve_rejects_its_dimension_and_interval(kwargs, message):
    with pytest.raises(InvariantViolation, match=f"curve 'line': {message}"):
        ParamCurve(**kwargs)


def _nan_rows(*args):
    return np.full((len(args[0]), 3), np.nan)


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(_line(dim=3), gamma=_nan_rows), InvariantViolation,
     r"gamma must map \(n,\) to finite \(n, 3\)"),
    (dict(_line(), closed=True), InvariantViolation,
     r"closed but gamma\(a\) != gamma\(b\)"),
], ids=["non-finite-gamma", "open-ends-closed"])
def test_curve_rejects_a_bad_chart(kwargs, error, message):
    with pytest.raises(error, match=f"curve 'line': {message}"):
        ParamCurve(**kwargs)


@pytest.mark.parametrize("chart, error, message", [
    (dict(phi=_nan_rows), InvariantViolation,
     r"phi must map \(n,\),\(n,\) to finite \(n, 3\)"),
    # phi_u parallel to phi_v along the whole grid
    (dict(phi_u=lambda u, v: np.stack([-np.sin(v), np.cos(v), np.zeros_like(v)],
                                      axis=-1)),
     DegenerateImmersion, r"\|phi_u x phi_v\| vanishes near"),
], ids=["non-finite-phi", "vanishing-normal"])
def test_surface_rejects_a_bad_chart(cylinder, chart, error, message):
    with pytest.raises(error, match=f"surface 'flat': {message}"):
        dataclasses.replace(cylinder, name="flat", foot=None, **chart)


def test_surface_rejects_an_empty_box(cylinder):
    for box in (dict(b=cylinder.a), dict(d=cylinder.c)):
        with pytest.raises(InvariantViolation,
                           match="surface 'flat': empty parameter box"):
            dataclasses.replace(cylinder, name="flat", foot=None, **box)


def test_ill_conditioned_tangent_gram_raises():
    # (cos v, sin v, 1e-6 u): phi_u = (0, 0, 1e-6) against a unit phi_v, so
    # the Gram system's condition is 1e12, past the 1e10 the Weingarten
    # solve allows
    surf = ParamSurface(
        a=0.0, b=1e6, c=0.0, d=TWO_PI,
        phi=lambda u, v: np.stack([np.cos(v), np.sin(v), 1e-6 * u], axis=-1),
        phi_u=lambda u, v: np.stack(
            [np.zeros_like(u), np.zeros_like(u), np.full_like(u, 1e-6)], axis=-1),
        phi_v=lambda u, v: np.stack(
            [-np.sin(v), np.cos(v), np.zeros_like(v)], axis=-1),
        name="stretched",
    )
    with pytest.raises(IllConditioned,
                       match="surface 'stretched': tangent Gram system "
                             "condition exceeds 1e10"):
        surf.reach


def test_stencil_step_too_large_raises():
    with pytest.raises(ValueError, match="stencil step too large"):
        sample_derivative(lambda t: t[:, None], (np.array([0.5]),), 0.3, 1,
                          0.0, 1.0)


def _all_node_derivative(f, t, h, m, lo, hi, periodic):
    """The 5-point stencil derivative with f evaluated at all five nodes of
    every point, zero weights included: the reference sample_derivative
    must reproduce bit for bit."""
    n = len(t)
    if periodic:
        span = hi - lo
        rel = t - lo
        rel = np.where(rel >= span, rel - span, rel)
        nodes = lo + np.mod(rel[:, None] + h * (_OFFSETS - 2.0), span)
        w = np.broadcast_to(_W[m][2], (n, 5))
    else:
        left = np.floor((t - lo) / h + 1e-9).astype(int)
        right = np.floor((hi - t) / h + 1e-9).astype(int)
        s = np.clip(np.full(n, 2), np.maximum(4 - right, 0), np.minimum(left, 4))
        nodes = np.clip(t[:, None] + h * (_OFFSETS - s[:, None]), lo, hi)
        w = _W[m][s]
    vals = f(nodes.ravel())
    vals = vals.reshape((n, 5) + vals.shape[1:])
    w = w.reshape((n, 5) + (1,) * (vals.ndim - 2))
    return (w * vals).sum(axis=1) / h**m


def _counting(f):
    """f, recording the parameters of every call."""
    seen = []

    def counted(t):
        seen.append(t.copy())
        return f(t)
    return counted, seen


def _vector(t):
    return np.stack([np.sin(3.0 * t) + 2.0, np.cos(2.0 * t) + t**2], axis=-1)


def _matrix(t):
    # an (n, d, d) output, as a transported Jacobian
    A = np.array([[1.0, -2.0], [0.5, 3.0]])
    return np.sin(t[:, None, None] * A + 0.25) + 1.5


def _hex(a):
    return [float.hex(float(x)) for x in np.ravel(a)]


@pytest.mark.parametrize("values", [_vector, _matrix])
@pytest.mark.parametrize("m, periodic, t, rows", [
    # closed: the centre node of the m = 1 stencil has weight 0.0
    (1, True, np.linspace(0.0, TWO_PI, 41), 4 * 41),
    # open: the four points within 2h of an end keep all five nodes
    (1, False, np.array([0.0, 0.07, 0.5, 0.93, 1.0]), 5 * 4 + 4),
    # m = 2 weights every node
    (2, True, np.linspace(0.0, TWO_PI, 41), 5 * 41),
    (2, False, np.array([0.0, 0.07, 0.5, 0.93, 1.0]), 5 * 5),
])
def test_stencil_evaluates_only_weighted_nodes(values, m, periodic, t, rows):
    lo, hi = (0.0, TWO_PI) if periodic else (0.0, 1.0)
    h = 0.01 if periodic else 0.05
    f, seen = _counting(values)
    got = sample_derivative(f, (t,), h, m, lo, hi, periodic=periodic)
    assert len(seen) == 1 and len(seen[0]) == rows
    assert got.shape == (len(t),) + values(t).shape[1:]
    assert _hex(got) == _hex(_all_node_derivative(values, t, h, m, lo, hi,
                                                  periodic))
    if not periodic:
        # the end stencil of t = 0 runs over 0, h, ..., 4h, its third node
        # included; an m = 1 interior point is not evaluated itself
        assert np.isin(np.arange(5) * h, seen[0]).all()
        assert (0.5 in seen[0]) == (m == 2)


def test_lapped_open_arc_rejected():
    # an open arc over t in [0, 2 pi 511/300]: sample 300 lands on sample 0
    with pytest.raises(DegenerateImmersion):
        ParamCurve(
            dim=2, a=0.0, b=TWO_PI * 511.0 / 300.0,
            gamma=lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
            dgamma=lambda t: np.stack([-np.sin(t), np.cos(t)], axis=-1),
            ddgamma=lambda t: np.stack([-np.cos(t), -np.sin(t)], axis=-1),
            closed=False,
            name="lapped-arc",
        )


def test_surface_keeps_its_sample_grid(cylinder):
    us = np.linspace(cylinder.a, cylinder.b, 24)
    vs = np.linspace(cylinder.c, cylinder.d, 24)
    U, V = np.meshgrid(us, vs, indexing="ij")
    np.testing.assert_array_equal(cylinder._grid_us, U.ravel())
    np.testing.assert_array_equal(cylinder._grid_vs, V.ravel())
    np.testing.assert_array_equal(cylinder._grid_points,
                                  cylinder.phi(U.ravel(), V.ravel()))


# ---------------------------------------------------------------------------
# hook-free Newton finds the nearest point, not just a stationary one


@pytest.mark.parametrize("shape", ["crack_arc", "arc_m2", "helix1"])
def test_newton_projection_matches_brute_force(shape, request):
    from shapecalc.catalog import build_shape

    if shape == "arc_m2":
        M = build_shape({"kind": "arc", "radius": 2.0, "angle0": -2.0,
                         "angle1": np.pi - 3.0, "name": "arc_m2"})
    else:
        M = request.getfixturevalue(shape)
    M = dataclasses.replace(M, foot=None)
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, (400, M.dim))
    dist = np.linalg.norm(pts - M.gamma(nearest_curve_param(M, pts)), axis=1)
    dense = M.gamma(np.linspace(M.a, M.b, 20001))
    brute = np.min(np.linalg.norm(pts[:, None] - dense[None], axis=2), axis=1)
    # brute force only samples the curve, so it can never beat a true minimum
    assert np.all(dist <= brute + 1e-12)
    assert np.all(brute - dist <= 2e-6)


# ---------------------------------------------------------------------------
# warm-started curve projections inside a projection session


@pytest.fixture
def seeds_passed(monkeypatch):
    """List that gains the seed argument of each nearest_curve_param call."""
    seeds = []
    real = geometry.nearest_curve_param

    def recorded(curve, pts, extend=0.0, seed=None):
        seeds.append(seed)
        return real(curve, pts, extend, seed)

    monkeypatch.setattr(geometry, "nearest_curve_param", recorded)
    return seeds


def test_projection_outside_a_session_has_no_history(ellipse21):
    p2 = np.array([[2.3, 0.4], [-0.3, 1.1], [0.7, -0.8]])
    fresh = ellipse21.project(p2)
    ellipse21.project(p2 + 1e-3)
    again = ellipse21.project(p2)
    assert geometry._SESSION.get() is None
    np.testing.assert_array_equal(again.params, fresh.params)
    np.testing.assert_array_equal(again.dist, fresh.dist)


def _moved_in_session(curve, p1, p2):
    """Feet of p2 projected right after p1 inside one projection session."""
    with geometry.projection_session():
        curve.project(p1)
        return curve.project(p2)


def test_warm_start_taken_on_a_small_move(ellipse21, seeds_passed):
    p1 = np.array([[2.1, 0.1], [-0.3, 1.05], [0.7, -0.9]])
    p2 = p1 + np.array([0.01, -0.01])
    ft = _moved_in_session(ellipse21, p1, p2)
    assert seeds_passed[0] is None and seeds_passed[1] is not None
    np.testing.assert_allclose(ft.params, ellipse21.project(p2).params,
                               rtol=0.0, atol=1e-13 * TWO_PI)


@pytest.mark.parametrize("case", ["rows", "move", "medial_axis"])
def test_warm_start_falls_back_to_grid_seeds(case, ellipse21, seeds_passed):
    # reach 0.25: moves up to 0.025, old distance plus move below 0.25
    assert ellipse21.reach == pytest.approx(0.25, rel=1e-9)
    p1 = np.array([[2.1, 0.1], [-0.3, 1.05], [0.7, -0.9]])
    if case == "rows":
        p2 = p1[:2] + 1e-3
    elif case == "move":
        p2 = p1 + np.array([0.0, 0.03])
    else:
        # (1.3, +-0.01) lie inside the evolute, on either side of the medial
        # axis y = 0: each keeps a local foot on both halves.  The move,
        # 0.02, is allowed; the old distance, 0.65, is past the reach
        p1, p2 = np.array([[1.3, 0.01]]), np.array([[1.3, -0.01]])
    ft = _moved_in_session(ellipse21, p1, p2)
    assert seeds_passed[1] is None
    fresh = ellipse21.project(p2)
    np.testing.assert_array_equal(ft.params, fresh.params)
    if case == "medial_axis":
        # the global foot is on the lower half; the old upper foot would
        # have seeded Newton into the upper, farther local minimum
        assert ellipse21.gamma(ft.params)[0, 1] < 0.0
        t_up = nearest_curve_param(ellipse21, p2, seed=ellipse21.project(p1).params)
        assert ellipse21.gamma(t_up)[0, 1] > 0.0
        assert np.linalg.norm(p2 - ellipse21.gamma(t_up)) > ft.dist[0] + 1e-3


def test_foot_hook_curves_never_touch_the_session(circle1, crack_arc):
    pts = np.array([[1.2, 0.1], [-0.3, 0.8]])
    with geometry.projection_session():
        for M in (circle1, crack_arc):
            M.project(pts)
            M.project(pts + 1e-3)
        assert geometry._SESSION.get() == {}


def test_warm_newton_cap_raises(ellipse21, seeds_passed, monkeypatch):
    p1 = np.array([[2.1, 0.1], [-0.3, 1.05], [0.7, -0.9]])
    with geometry.projection_session():
        ellipse21.project(p1)
        monkeypatch.setattr(geometry, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence,
                           match=r"^curve 'ellipse21': nearest-point Newton still "
                                 r"moving after 1 steps \(worst step \S+ at t = \S+, "
                                 r"tolerance \S+\)$"):
            ellipse21.project(p1 + 1e-3)
    assert seeds_passed[1] is not None


@pytest.mark.parametrize("shape", ["crack_arc", "ellipse21", "helix1"])
def test_warm_projection_matches_brute_force(shape, request, tube_points,
                                             seeds_passed):
    M = dataclasses.replace(request.getfixturevalue(shape), foot=None)
    rng = np.random.default_rng(1)
    p1 = tube_points(M, 0.5 * M.reach, n=200)
    step = rng.normal(size=p1.shape)
    p2 = p1 + 0.09 * M.reach * step / np.linalg.norm(step, axis=1)[:, None]
    ft = _moved_in_session(M, p1, p2)
    assert seeds_passed[1] is not None
    dense = M.gamma(np.linspace(M.a, M.b, 20001))
    brute = np.min(np.linalg.norm(p2[:, None] - dense[None], axis=2), axis=1)
    assert np.all(ft.dist <= brute + 1e-12)
    # these points sit close to the curve, where sampling the curve errs by
    # more than the 2e-6 the far points of the test above allow; the
    # grid-seeded feet are the reference instead
    np.testing.assert_allclose(ft.dist, M.project(p2).dist, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the manifold queries shared by curves and surfaces


def test_reach_values(circle2, segment01, helix1, cylinder):
    # 0.5 / kappa_max: a radius-2 circle and the unit helix of pitch 2 pi
    # both bend with kappa = 1/2
    assert circle2.reach == pytest.approx(1.0, rel=1e-12)
    assert segment01.reach == np.inf
    assert helix1.reach == pytest.approx(1.0, rel=1e-12)
    assert cylinder.reach == pytest.approx(0.5, rel=1e-9)


def test_reach_sees_far_stretches_that_come_close(seeds_passed):
    # an arc (kappa = 1) whose open ends are 2 sin(0.1) apart, and a helix
    # (kappa = 0.994) whose turns lie 0.5 apart: the curvature alone gives
    # a reach near 0.5, past half of either gap.  The reach is half the gap
    # less at most half the longest stride of 4 grid steps
    from shapecalc.catalog import build_shape

    arc = dataclasses.replace(
        build_shape({"kind": "arc", "radius": 1.0, "angle0": 0.1,
                     "angle1": TWO_PI - 0.1}), foot=None)
    helix = build_shape({"kind": "helix", "radius": 1.0, "pitch": 0.5,
                         "turns": 3.0})
    for M, gap in ((arc, 2.0 * np.sin(0.1)), (helix, 0.5)):
        stride = 4.0 * float(M.grid_speed.max()) * (M.b - M.a) / 511
        assert 0.5 * (gap - stride) - 1e-12 <= M.reach <= 0.5 * gap
    # each first foot lies past the reach, so inside a session the second
    # projection seeds from the grid; a curvature-only reach of 0.5 would
    # let it keep the first foot on the other stretch (arc: t = a at 0.1228
    # for 0.1053 at t = b; helix: the upper turn at 0.2592 for 0.2392)
    for M, p1, p2 in ((arc, [[1.05, 0.01]], [[1.05, -0.01]]),
                      (helix, [[1.0, 0.0, 0.76]], [[1.0, 0.0, 0.74]])):
        seeds_passed.clear()
        ft = _moved_in_session(M, np.array(p1), np.array(p2))
        assert seeds_passed == [None, None]
        dense = M.gamma(np.linspace(M.a, M.b, 200001))
        brute = np.linalg.norm(dense - np.array(p2), axis=1).min()
        assert ft.dist[0] <= brute + 1e-12
        assert brute - ft.dist[0] <= 1e-9


def test_far_separation_is_a_lower_bound():
    # a half circle: points more than 3 apart along it lie at least
    # 2 sin(1.5) apart, which the bound may undercut by one stride of 4
    # grid steps, and no two lie farther than pi apart along it
    n = 512
    t = np.linspace(0.0, np.pi, n)
    pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
    got = geometry._far_separation(pts, False, 3.0)
    assert 2.0 * np.sin(1.5) - 4.0 * np.pi / (n - 1) <= got <= 2.0 * np.sin(1.5)
    assert geometry._far_separation(pts, False, np.pi) == np.inf
    # on a closed polygon the distance along it wraps: no pair of a circle
    # lies more than half its length apart
    ring = np.stack([np.cos(t[:-1] * 2), np.sin(t[:-1] * 2)], axis=-1)
    assert geometry._far_separation(ring, True, 0.99 * np.pi) < 2.0
    assert geometry._far_separation(ring, True, np.pi) == np.inf


def _query_params(M, n=9):
    t = np.linspace(M.a, M.b, n)
    if isinstance(M, ParamCurve):
        return t
    return t, np.linspace(M.c, M.d, n)


@pytest.mark.parametrize("shape", ["circle1", "segment01", "crack_arc",
                                   "helix1", "cylinder"])
def test_manifold_queries_agree(shape, request):
    M = request.getfixturevalue(shape)
    params = _query_params(M)
    pts = M.chart(params)
    frame = M.tangent_frame(params)
    N = M.unit_normal(params)
    assert pts.shape == N.shape == (9, M.dim)
    gram = np.einsum("aij,bij->iab", np.array(frame), np.array(frame))
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(len(frame)), gram.shape),
                               atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(N, axis=1), 1.0, atol=1e-14)
    for e in frame:
        np.testing.assert_allclose(np.einsum("ij,ij->i", N, e), 0.0, atol=1e-14)
    # normal_part is a projection that keeps N and kills the tangent frame
    x = np.random.default_rng(1).normal(size=(9, M.dim))
    once = M.normal_part(params, x)
    np.testing.assert_allclose(M.normal_part(params, once), once, atol=1e-14)
    np.testing.assert_allclose(M.normal_part(params, N), N, atol=1e-14)
    for e in frame:
        np.testing.assert_allclose(M.normal_part(params, e), 0.0, atol=1e-14)
    # the conormal extension is the outward conormal on the boundary
    nu = M.conormal_extension(params)
    on = M.on_boundary(params)
    if M.name == "circle1":
        assert not on.any()
        np.testing.assert_array_equal(nu, 0.0)
        return
    np.testing.assert_array_equal(np.flatnonzero(on), [0, 8])
    assert np.all(np.linalg.norm(nu[1:-1], axis=1) < 1.0)
    for k, end in ((0, "a"), (-1, "b")):
        want = (_reference_outward_normal(M, end) if isinstance(M, ParamCurve)
                else _reference_outward_normal(M, end, params[1][k])[0])
        np.testing.assert_allclose(nu[k], want, atol=1e-14)


def test_project_has_one_signature():
    assert (inspect.signature(ParamCurve.project)
            == inspect.signature(ParamSurface.project))


@pytest.mark.parametrize("extend", [0.0, 0.3])
@pytest.mark.parametrize("in_session", [False, True])
@pytest.mark.parametrize(
    "shape", ["circle1", "segment01", "ellipse21", "helix1", "cylinder"])
def test_projecting_zero_points_gives_an_empty_foot(shape, in_session, extend,
                                                    request):
    # hook and hook-free kinds alike; inside a session the second projection
    # meets the first one's zero-point entry (the warm rule's maxima)
    M = request.getfixturevalue(shape)
    pts = np.zeros((0, M.dim))
    if in_session:
        with geometry.projection_session():
            M.project(pts, extend)
            ft = M.project(pts, extend)
    else:
        ft = M.project(pts, extend)
    assert ft.r.shape == (0, M.dim) and ft.dist.shape == (0,)
    params = (ft.params,) if isinstance(M, ParamCurve) else ft.params
    assert all(x.shape == (0,) for x in params)
    assert ft.grad_dist.shape == (0, M.dim)


def _reference_rule(lo, hi, panels):
    # reference: the composite rule written out in full
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + halfw * geometry.GL_NODES[None, :]).ravel()
    return nodes, np.tile(halfw * geometry.GL_WEIGHTS, panels)


def test_gauss_legendre_matches_the_inline_rule(circle1, crack_arc, cylinder):
    from shapecalc.functionals import CURVE_PANELS, SIDE_PANELS, SURFACE_PANELS
    intervals = [(circle1.a, circle1.b, CURVE_PANELS), (circle1.a, circle1.b, 64),
                 (crack_arc.a, crack_arc.b, 256),
                 (cylinder.a, cylinder.b, SURFACE_PANELS[0]),
                 (cylinder.c, cylinder.d, SURFACE_PANELS[1]),
                 (cylinder.c, cylinder.d, SIDE_PANELS)]
    for lo, hi, panels in intervals:
        for got, ref in zip(geometry.gauss_legendre(lo, hi, panels),
                            _reference_rule(lo, hi, panels)):
            np.testing.assert_array_equal(got, ref)
    # the tensor-product surface rule, summed as integrate_surface sums it
    un, wu = _reference_rule(cylinder.a, cylinder.b, 8)
    vn, wv = _reference_rule(cylinder.c, cylinder.d, 24)
    U, V = np.meshgrid(un, vn, indexing="ij")
    uu, vv = U.ravel(), V.ravel()
    jac = np.linalg.norm(np.cross(cylinder.phi_u(uu, vv), cylinder.phi_v(uu, vv)),
                         axis=1)
    ref = float(np.sum((wu[:, None] * wv[None, :]).ravel() * np.cos(vv) ** 2 * jac))
    assert integrate_surface(cylinder, lambda u, v: np.cos(v) ** 2,
                             panels=(8, 24)) == ref


def test_nearest_seed_matches_brute_force():
    # more points than one block of the search
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(3 * geometry._BLOCK + 50, 3))
    seeds = rng.normal(size=(97, 3))
    brute = np.argmin(np.linalg.norm(pts[:, None, :] - seeds[None], axis=2), axis=1)
    np.testing.assert_array_equal(geometry._nearest_seed(pts, seeds), brute)


def _dense_nearest_seed(pts, seeds):
    # reference: the whole distance matrix at once
    s2 = (seeds ** 2).sum(axis=1)
    return (s2 - 2.0 * (pts @ seeds.T)).argmin(axis=1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("blocks, extra",
                         [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 77)])
def test_nearest_seed_bit_equal_to_the_dense_formula(blocks, extra, dim):
    # zero rows, block boundaries and a count that is no multiple of the
    # block; every 5th point sits on a duplicated seed, whose tie goes to
    # the first copy
    n = blocks * geometry._BLOCK + extra
    rng = np.random.default_rng(7 + 10 * blocks + extra + dim)
    seeds = rng.normal(size=(64, dim))
    seeds[40:] = seeds[:24]
    pts = rng.normal(size=(n, dim))
    first = np.arange(len(pts[::5])) % 24
    pts[::5] = seeds[40 + first]
    got = geometry._nearest_seed(pts, seeds)
    assert got.shape == (n,) and got.dtype == np.intp
    np.testing.assert_array_equal(got, _dense_nearest_seed(pts, seeds))
    np.testing.assert_array_equal(got[::5], first)


def test_grid_speed_and_grid_ball(ellipse21, helix1, cylinder):
    for M in (ellipse21, helix1):
        np.testing.assert_array_equal(
            M.grid_speed, np.linalg.norm(M.dgamma(M._grid_ts), axis=1))
        assert not M.grid_speed.flags.writeable
    for M in (ellipse21, helix1, cylinder):
        mid, rad = M.grid_ball
        np.testing.assert_array_equal(mid, M._grid_points.mean(axis=0))
        assert rad == np.linalg.norm(M._grid_points - mid, axis=1).max()
        assert rad <= M.diameter
        assert M.grid_ball is M.grid_ball
        assert not mid.flags.writeable


# -- the array contract of chart callables -------------------------------


def _catenary_with(**overrides):
    cat = catenary()
    kw = dict(dim=2, a=cat.a, b=cat.b, gamma=cat.gamma, dgamma=cat.dgamma,
              ddgamma=cat.ddgamma, closed=False, name="catenary_bad")
    kw.update(overrides)
    return ParamCurve(**kw)


@pytest.mark.parametrize("label, wrap", [
    ("gamma", lambda fn: lambda t: fn(t).tolist()),
    ("ddgamma", lambda fn: lambda t: fn(t).astype(np.float32)),
    ("dgamma", lambda fn: lambda t: fn(t)[:, :1]),
], ids=["list-gamma", "float32-ddgamma", "n1-dgamma"])
def test_malformed_curve_callable_rejected_at_construction(label, wrap):
    bad = wrap(getattr(catenary(), label))
    with pytest.raises(InvariantViolation,
                       match=rf"catenary_bad': {label} must return a float64"):
        _catenary_with(**{label: bad})


def test_malformed_surface_callable_rejected_at_construction(cylinder):
    bad = lambda u, v: cylinder.phi_v(u, v).astype(np.float32)
    with pytest.raises(InvariantViolation,
                       match=r"cylinder_bare': phi_v must return a float64"):
        _without_foot(cylinder, phi_v=bad)
    bad_foot = lambda pts, extend_u: tuple(x.astype(np.float32)
                                           for x in cylinder.foot(pts, extend_u))
    with pytest.raises(InvariantViolation, match="foot must map"):
        _without_foot(cylinder, foot=bad_foot)


def test_curvature_queries_return_rows_for_scalar_input(circle1, segment01,
                                                        cylinder):
    assert curvature(circle1, 0.5).shape == (1,)
    assert frenet_rows(circle1, 0.5)[0].T.shape == (1, 2)
    assert all(x.shape == (1,) for x in curve_curvature_derivs(segment01, 0.5))
    assert surface_mean_curvature(cylinder, (0.5, 1.0)).shape == (1,)
    assert surface_max_curvature(cylinder, (0.5, 1.0)).shape == (1,)


@pytest.mark.parametrize("radius", [1e-2, 1e-3, 1e-4, 1e-5])
def test_thin_cylinder_passes_its_foot_check(radius):
    from shapecalc.catalog import build_shape

    # height 1: a probe pushed by 1e-3 of the diameter would cross the axis
    M = build_shape({"kind": "cylinder", "name": "thin", "radius": radius})
    assert M.foot is not None
    assert M.reach == pytest.approx(0.5 * radius, rel=1e-6)


# small circles far from the origin: the roundoff of p - chart(foot(p))
# scales with |p| (up to 7.9e-10 of the offset here), not with the circle
@pytest.mark.parametrize("radius, center", [(1e-3, [5.0, 5.0]),
                                            (1e-2, [50.0, 50.0])])
def test_small_far_circle_passes_its_foot_check(radius, center):
    from shapecalc.catalog import build_shape

    M = build_shape({"kind": "circle", "name": "far", "radius": radius,
                     "center": center})
    assert M.foot is not None
    # the probe offset is 1e-3 of the diameter (the separation cap is
    # looser on these circles); t is arc length, so shifting it by 1e-6 of
    # the offset tilts p - gamma by that share, which must still fail
    shift = 1e-6 * 1e-3 * M.diameter

    def off(pts, extend):
        return M.foot(pts, extend) + shift

    with pytest.raises(InvariantViolation, match="foot is not the nearest point"):
        dataclasses.replace(M, foot=off, name="far_off_foot")


# small exact charts far from the origin: the central differences of the
# derivative desk check lose about eps |gamma| / h to roundoff, which the
# check allows for (rel 1.73e-6 and 1.01e-6 against 1e-6 without it)
@pytest.mark.parametrize("desc", [
    {"kind": "segment", "name": "far_segment", "p0": [50.0, 50.0],
     "p1": [50.001, 50.0]},
    {"kind": "circle", "name": "far_circle", "radius": 1e-3,
     "center": [200.0, 0.0]}])
def test_small_far_curve_passes_its_derivative_check(desc):
    from shapecalc.catalog import build_shape

    M = build_shape(desc)
    assert M.diameter == pytest.approx(1e-3 * (2.0 if desc["kind"] == "circle"
                                               else 1.0), rel=1e-3)


def test_derivative_off_by_1e6_near_origin_still_rejected(circle1, cylinder):
    # dgamma + 2.4e-6 N on the unit-speed circle, phi_u + 2.4e-6 e_x on the
    # cylinder (|phi_u| = 1): both read rel 1.2e-6 against their 1e-6
    def nudged(t):
        return circle1.dgamma(t) + 2.4e-6 * circle1.unit_normal(t)

    def tilted(u, v):
        return cylinder.phi_u(u, v) + np.array([2.4e-6, 0.0, 0.0])

    with pytest.raises(InvariantViolation,
                       match=r"dgamma disagrees with finite differences .*rel 1\.2"):
        dataclasses.replace(circle1, dgamma=nudged, foot=None, name="nudged")
    with pytest.raises(InvariantViolation,
                       match=r"phi_u disagrees with finite differences near "
                             r"\(u, v\) = \(\S+, \S+\) \(rel 1\.2"):
        dataclasses.replace(cylinder, phi_u=tilted, foot=None, name="tilted")


@pytest.mark.parametrize("label, region", [
    ("phi_u", lambda u, v: v > np.pi),
    ("phi_v", lambda u, v: (u < 1.0) & (v < 3.0)),
])
def test_surface_derivative_check_names_the_failing_sample(cylinder, label,
                                                           region):
    # the partial is off by 1e-5 only inside the region, so the (u, v) the
    # message names must lie there
    def off(u, v):
        return getattr(cylinder, label)(u, v) + 1e-5 * region(u, v)[:, None]

    with pytest.raises(InvariantViolation,
                       match=rf"{label} disagrees with finite differences near") as err:
        dataclasses.replace(cylinder, **{label: off}, foot=None, name="off")
    at = re.search(r"near \(u, v\) = \((\S+), (\S+)\) \(rel", str(err.value))
    u, v = map(float, at.groups())
    assert region(np.array([u]), np.array([v]))[0]
