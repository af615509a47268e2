"""Ambient fields: bump profiles, support checks, splitting, restriction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapecalc.errors import InvariantViolation, SupportViolation
from shapecalc.fields import (
    AmbientField,
    Ball,
    bump_field,
    bump_profile,
    bump_profile_deriv,
    bump_profile_deriv2,
    check_tangency,
    default_holdall,
    fd_jacobian,
    restriction_field,
    smooth_step,
    smooth_step_jet,
    split_field,
    sum_field,
    _sample_params,
)
from shapecalc.validation import tangential_probe_fields


def test_bump_profile_reference_values():
    s = np.array([0.0, 0.5, 1.0, 1.5, -1.0])
    got = bump_profile(s)
    np.testing.assert_allclose(got[0], 1.0, rtol=1e-15)
    # exp(1 - 1/(1 - 1/4)) = exp(-1/3)
    np.testing.assert_allclose(got[1], np.exp(-1.0 / 3.0), rtol=1e-14)
    np.testing.assert_allclose(got[2:], 0.0, atol=0.0)


def test_bump_profile_deriv_matches_fd():
    s = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    fd = (bump_profile(s + h) - bump_profile(s - h)) / (2 * h)
    np.testing.assert_allclose(bump_profile_deriv(s), fd, atol=1e-7)
    assert bump_profile_deriv(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_smooth_step_shape():
    s = np.array([-0.5, 0.0, 0.5, 1.0, 1.7])
    got = smooth_step(s)
    np.testing.assert_allclose(got, [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)
    inner = np.linspace(0.05, 0.95, 33)
    assert np.all(np.diff(smooth_step(inner)) < 0.0)
    h = 1e-6
    fd = (smooth_step(inner + h) - smooth_step(inner - h)) / (2 * h)
    np.testing.assert_allclose(smooth_step_jet(inner)[1], fd, atol=1e-7)


def test_ball_membership():
    ball = Ball(np.array([1.0, 0.0]), 2.0)
    assert ball.contains_ball(np.array([1.5, 0.0]), 1.0)
    assert not ball.contains_ball(np.array([2.5, 0.0]), 1.0)
    ext = ball.exterior_points(16, rng=np.random.default_rng(0))
    assert np.all(np.linalg.norm(ext - ball.center, axis=1) > ball.radius)
    intr = ball.interior_points(16, rng=np.random.default_rng(0))
    assert np.all(np.linalg.norm(intr - ball.center, axis=1) < ball.radius)


def test_field_jacobian_consistency_enforced():
    support = Ball(np.zeros(2), 1.0)

    def X(p):
        r2 = np.sum(p**2, axis=1, keepdims=True)
        return np.where(r2 < 1.0, (1.0 - r2) ** 3, 0.0) * p

    with pytest.raises(InvariantViolation):
        AmbientField(dim=2, X=X, dX=lambda p: np.zeros((len(p), 2, 2)), support=support)


def test_field_must_vanish_outside_support():
    support = Ball(np.zeros(2), 1.0)
    with pytest.raises(InvariantViolation):
        AmbientField(
            dim=2,
            X=lambda p: np.ones_like(p),
            dX=lambda p: np.zeros((len(p), 2, 2)),
            support=support,
        )


def test_field_scale_must_be_positive(e1_field):
    for bad in (0.0, -0.5):
        with pytest.raises(InvariantViolation):
            AmbientField(
                dim=2,
                X=e1_field.X,
                dX=e1_field.dX,
                support=e1_field.support,
                scale=bad,
            )


def test_bump_field_support_and_scale():
    b = bump_field(np.array([0.5, 0.0]), 0.3, np.array([1.0, 0.0]))
    assert b.scale == pytest.approx(0.3)
    np.testing.assert_allclose(
        b.X(np.array([[0.5, 0.0]]))[0], [1.0, 0.0], rtol=1e-14
    )
    far = np.array([[0.81, 0.0], [0.5, 0.31], [2.0, 2.0]])
    np.testing.assert_allclose(b.X(far), 0.0, atol=0.0)


def test_callable_bump_direction_needs_jacobian():
    with pytest.raises(ValueError):
        bump_field(np.array([0.5, 0.0]), 0.3, lambda p: np.ones_like(p))


def test_bump_field_must_fit_holdall():
    hold = default_holdall(2)
    with pytest.raises(SupportViolation):
        bump_field(np.array([hold.radius + 1.0, 0.0]), 0.5, np.array([1.0, 0.0]))


def test_sum_field_values_and_scale(e1_field):
    b1 = bump_field(np.array([0.5, 0.0]), 0.3, np.array([1.0, 0.0]))
    b2 = bump_field(np.array([-0.5, 0.0]), 0.5, np.array([0.0, 1.0]))
    s = sum_field([b1, b2])
    assert s.scale == pytest.approx(0.3)
    pts = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(s.X(pts), b1.X(pts) + b2.X(pts), rtol=1e-14)
    np.testing.assert_allclose(s.dX(pts), b1.dX(pts) + b2.dX(pts), rtol=1e-14)
    # an unscaled summand leaves the narrowest known scale in charge
    mixed = sum_field([e1_field, b1])
    assert mixed.scale == pytest.approx(0.3)
    assert sum_field([e1_field, e1_field]).scale is None


def test_sum_field_rejects_no_fields_and_mixed_dimensions(e1_field, e3_field):
    with pytest.raises(ValueError, match="sum_field needs at least one field"):
        sum_field([])
    with pytest.raises(InvariantViolation, match="sum_field: mixed dimensions"):
        sum_field([e1_field, e3_field])


def test_fd_jacobian_matches_linear_map():
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    X = lambda p: p @ A.T
    J = fd_jacobian(X, 2, 1e-5)
    got = J(np.array([[0.4, -0.2], [1.0, 2.0]]))
    np.testing.assert_allclose(got, np.broadcast_to(A, (2, 2, 2)), atol=1e-9)


def test_split_field_reassembles(segment01, e1_field):
    params = _sample_params(segment01, 32)
    x, x_perp, x_nu = split_field(segment01, e1_field, params)
    np.testing.assert_array_equal(x, e1_field.X(segment01.chart(params)))
    # the remainder x - x_perp - x_nu is tangent
    np.testing.assert_allclose(
        segment01.normal_part(params, x - x_perp - x_nu), 0.0, atol=1e-12)
    # horizontal field on a horizontal segment has no normal part
    np.testing.assert_allclose(x_perp, 0.0, atol=1e-12)
    on_bd = segment01.on_boundary(params)
    assert on_bd[0] and on_bd[-1] and not on_bd[1:-1].any()
    # the conormal share dominates at the ends and dies off inside
    np.testing.assert_allclose(x_nu[0], [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(x_nu[len(x_nu) // 2]) < 1e-3


def test_split_field_closed_curve_has_no_conormal(circle1, radial2):
    params = _sample_params(circle1, 64)
    x, x_perp, x_nu = split_field(circle1, radial2, params)
    np.testing.assert_allclose(x_nu, 0.0, atol=1e-12)
    # the radial field is purely normal on a centered circle
    np.testing.assert_allclose(x - x_perp, 0.0, atol=1e-9)
    assert not circle1.on_boundary(params).any()


def test_perp_restriction_needs_no_conormal(cylinder, linear_field):
    # the perp part reads the normal part alone, on a surface whose
    # conormal extension the nu part builds on
    field = linear_field(3)
    params = (np.array([0.1, 1.8]), np.array([0.3, 0.0]))
    pts = cylinder.chart(params)
    x = field.X(pts)
    nu = cylinder.conormal_extension(params)
    assert np.linalg.norm(nu, axis=1).min() > 0.5
    np.testing.assert_allclose(restriction_field(cylinder, field, "perp").X(pts),
                               cylinder.normal_part(params, x), atol=1e-12)
    np.testing.assert_allclose(restriction_field(cylinder, field, "nu").X(pts),
                               np.einsum("ij,ij->i", x, nu)[:, None] * nu,
                               atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_split_field_orthogonality_property(seed):
    from shapecalc.catalog import build_field, build_shape

    key = "state"
    if key not in _SPLIT_CACHE:
        _SPLIT_CACHE[key] = (
            build_shape({"kind": "ellipse", "a": 2.0, "b": 1.0, "name": "e"}),
            build_field({"kind": "rotation", "name": "rot"}, 2),
        )
    ell, rot = _SPLIT_CACHE[key]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 48))
    x, x_perp, x_nu = split_field(ell, rot, _sample_params(ell, n))
    x_tan = x - x_perp - x_nu
    assert np.all(np.abs(np.sum(x_perp * x_tan, axis=1)) < 1e-12)
    assert np.all(np.abs(np.sum(x_perp * x_nu, axis=1)) < 1e-12)


_SPLIT_CACHE = {}


def test_check_tangency_classifies(circle1, radial2):
    probes = tangential_probe_fields(circle1, n=1, seed=0)
    rep = check_tangency(circle1, probes[0])
    assert rep.max_normal_residual <= 1e-12
    rep_rad = check_tangency(circle1, radial2)
    assert rep_rad.max_normal_residual > 0.9


def test_project_normal_is_projection(ellipse21, rotation2):
    ts = np.linspace(0.0, 2 * np.pi, 15)
    pts = ellipse21.gamma(ts)
    vec = rotation2.X(pts)
    once = ellipse21.normal_part(ts, vec)
    twice = ellipse21.normal_part(ts, once)
    np.testing.assert_allclose(once, twice, atol=1e-12)
    tangents = ellipse21.dgamma(ts)
    np.testing.assert_allclose(np.sum(once * tangents, axis=1), 0.0, atol=1e-9)


def test_restriction_field_components_on_circle(circle1, radial2):
    ts = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    pts = circle1.gamma(ts)
    perp = restriction_field(circle1, radial2, "perp")
    tan = restriction_field(circle1, radial2, "tan")
    np.testing.assert_allclose(perp.X(pts), radial2.X(pts), atol=1e-9)
    np.testing.assert_allclose(tan.X(pts), 0.0, atol=1e-9)
    # away from the tube both components shut off
    far = np.array([[3.0, 3.0], [0.0, 2.5]])
    np.testing.assert_allclose(perp.X(far), 0.0, atol=0.0)


def test_restriction_field_conormal_on_segment(segment01, e1_field):
    nu = restriction_field(segment01, e1_field, "nu")
    ends = np.array([[0.5, 0.0], [1.5, 0.0]])
    np.testing.assert_allclose(nu.X(ends), [[1.0, 0.0], [1.0, 0.0]], atol=1e-9)
    mid = np.array([[1.0, 0.0]])
    assert np.linalg.norm(nu.X(mid)) < 1e-3


def test_straight_space_segment_needs_only_the_tangent(linear_field):
    # a straight space curve has no Frenet normal; the split needs only T
    from shapecalc.catalog import build_shape

    M = build_shape({"kind": "segment", "p0": [0.5, 0.0, 0.2],
                     "p1": [1.5, 0.4, -0.3], "name": "segment3d"})
    field = linear_field(3)
    T = M.dgamma(np.array([0.0]))[0]
    T = T / np.linalg.norm(T)
    ts = np.linspace(M.a, M.b, 7)
    vec = field.X(M.gamma(ts))
    perp = M.normal_part(ts, vec)
    np.testing.assert_allclose(perp @ T, 0.0, atol=1e-14)
    np.testing.assert_allclose(perp, vec - np.outer(vec @ T, T), atol=1e-14)
    rep = check_tangency(M, field)
    assert rep.max_normal_residual > 0.1 and rep.max_boundary_residual > 0.1
    nu = restriction_field(M, field, "nu")
    ends = M.gamma(np.array([M.a, M.b]))
    np.testing.assert_allclose(nu.X(ends), np.outer(field.X(ends) @ T, T),
                               atol=1e-9)


def test_restriction_field_rejects_unknown_component(circle1, radial2):
    with pytest.raises(ValueError):
        restriction_field(circle1, radial2, "sideways")


# ---------------------------------------------------------------------------
# analytic Jacobians of curve pullback fields

CURVES = ["circle1", "ellipse21", "segment01", "helix1"]
TUBE = {"circle1": 0.2, "ellipse21": 0.1, "segment01": 0.1, "helix1": 0.3}


def _restriction_points(M, tube_points):
    pts = tube_points(M, TUBE[M.name], n=24, seed=7)
    if M.name == "segment01":
        # past both extended ends, where the foot is held at the end
        ext = 0.15 * (M.b - M.a)
        past = np.array([M.b + ext + 0.005, M.b + ext + 0.02,
                         M.a - ext - 0.005, M.a - ext - 0.02])
        side = np.zeros((4, M.dim))
        side[:, 1] = [0.01, -0.01, 0.005, -0.005]
        pts = np.vstack([pts, np.asarray(M.gamma(past), dtype=float) + side])
    return pts


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("component", ["perp", "tan", "nu"])
def test_restriction_field_analytic_jacobian(curve, component, request,
                                             tube_points, linear_field,
                                             assert_fd_jacobian):
    from shapecalc.fields import _component_on_params
    from shapecalc.geometry import nearest_curve_param

    M = request.getfixturevalue(curve)
    field = linear_field(M.dim)
    tau = TUBE[curve]
    F = restriction_field(M, field, component, tube_radius=tau)
    pts = _restriction_points(M, tube_points)
    assert np.all(np.linalg.norm(pts - F.support.center, axis=1)
                  <= F.support.radius)
    assert_fd_jacobian(F, pts)
    # X is the pullback formula, bit for bit
    extend = 0.0 if M.closed else 0.15 * (M.b - M.a)
    t = nearest_curve_param(M, pts, extend=extend)
    dist = np.linalg.norm(pts - M.gamma(t), axis=1)
    direct = (smooth_step(dist / tau)[:, None]
              * _component_on_params(M, field, component)(t))
    assert np.array_equal(F.X(pts), direct)
    if curve == "segment01" and component == "perp":
        # the held feet past the extended ends still carry a value
        assert np.all(np.linalg.norm(F.X(pts[-4:]), axis=1) > 0.0)


def test_restriction_field_jacobian_finite_at_circle_centre(circle1, radial2):
    for component in ("perp", "tan"):
        F = restriction_field(circle1, radial2, component)
        dX = F.dX(np.zeros((1, 2)))
        assert np.all(np.isfinite(dX))
        np.testing.assert_array_equal(dX, 0.0)


@pytest.mark.parametrize("curve", CURVES)
def test_restriction_field_shares_one_projection(curve, request, tube_points,
                                                 linear_field, projection_calls):
    M = request.getfixturevalue(curve)
    F = restriction_field(M, linear_field(M.dim), "perp",
                          tube_radius=TUBE[curve])
    pts = tube_points(M, TUBE[curve], n=16, seed=11)
    projection_calls.clear()
    # X and dX from one jet call take one projection, and every other call
    # takes its own (the pullback keeps no memo)
    F.jet(pts)
    assert len(projection_calls) == 1
    F.dX(tube_points(M, TUBE[curve], n=16, seed=12))
    assert len(projection_calls) == 2
    F.X(pts)
    assert len(projection_calls) == 3


# ---------------------------------------------------------------------------
# the support ball of a pullback field holds its whole tube


def _sphere_points(F, n, seed, frac=0.999999999):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, F.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return F.support.center + frac * F.support.radius * dirs


@pytest.mark.parametrize("shape", ["segment01", "crack_arc", "helix1", "cylinder"])
def test_restriction_field_vanishes_just_inside_its_support(shape, request,
                                                             radial2, radial3):
    # the tube about the widened manifold ends inside the support sphere,
    # so nothing is clipped there
    M = request.getfixturevalue(shape)
    radial = radial2 if M.dim == 2 else radial3
    for component in ("perp", "tan", "nu"):
        F = restriction_field(M, radial, component)
        pts = _sphere_points(F, 20000, seed=1)
        np.testing.assert_array_equal(F.X(pts), 0.0)
        np.testing.assert_array_equal(F.dX(pts[:2000]), 0.0)


def test_field_jacobian_of_wrong_shape_rejected_at_construction(e1_field):
    # dX rows must be (d, d) matrices: an (n, d) return names dX
    with pytest.raises(InvariantViolation, match=r"field 'flat': dX must return"):
        AmbientField(dim=2, X=e1_field.X, dX=lambda p: e1_field.dX(p)[:, :, 0],
                     support=e1_field.support, name="flat")


# second derivatives: the profiles, and D^2X[v, v] of bumps and sums


def test_profile_second_derivatives_match_fd():
    h = 1e-5
    s = np.linspace(-0.95, 0.95, 41)
    fd = (bump_profile_deriv(s + h) - bump_profile_deriv(s - h)) / (2 * h)
    np.testing.assert_allclose(bump_profile_deriv2(s), fd, atol=1e-7)
    assert bump_profile_deriv2(np.array([0.0]))[0] == -2.0
    np.testing.assert_array_equal(bump_profile_deriv2(np.array([1.0, -1.5])), 0.0)
    inner = np.linspace(0.02, 0.98, 49)
    fd = (smooth_step_jet(inner + h)[1] - smooth_step_jet(inner - h)[1]) / (2 * h)
    np.testing.assert_allclose(smooth_step_jet(inner)[2], fd, atol=1e-7)
    ends = np.array([-0.5, 0.0, 1.0, 1.5])
    S, dS, d2S = smooth_step_jet(ends)
    np.testing.assert_array_equal(S, [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(dS, 0.0)
    np.testing.assert_array_equal(d2S, 0.0)


def _reference_smooth_step(s):
    """smooth_step and its derivative as they read before smooth_step_jet
    (kept here as the reference)."""
    def f(u):
        out = np.zeros_like(u)
        m = u > 1e-12
        out[m] = np.exp(-1.0 / u[m])
        return out

    def df(u):
        out = np.zeros_like(u)
        m = u > 1e-12
        out[m] = np.exp(-1.0 / u[m]) / (u[m] * u[m])
        return out

    sc = np.clip(s, 0.0, 1.0)
    S = f(1.0 - sc) / (f(1.0 - sc) + f(sc) + 1e-300)
    dS = np.zeros_like(s)
    m = (s > 1e-12) & (s < 1.0 - 1e-12)
    sm = s[m]
    fa, fb = f(1.0 - sm), f(sm)
    den = fa + fb
    dS[m] = (-df(1.0 - sm) * fb - fa * df(sm)) / (den * den)
    return S, dS


def test_smooth_step_jet_is_the_reference_step_bit_for_bit():
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    s = np.concatenate([rng.uniform(-0.5, 1.5, 20000), [0.0, 1.0, 0.5, 1e-12,
                        1.0 - 1e-12, 2e-12, 1.0 - 2e-12, eps, 1.0 - eps,
                        -np.inf, np.inf]])
    S, dS, _ = smooth_step_jet(s)
    ref_S, ref_dS = _reference_smooth_step(s)
    assert S.tobytes() == ref_S.tobytes() and dS.tobytes() == ref_dS.tobytes()
    assert smooth_step(s).tobytes() == S.tobytes()
    S1, dS1 = smooth_step_jet(s, order=1)
    assert S1.tobytes() == S.tobytes() and dS1.tobytes() == dS.tobytes()


def _d2X_by_differences(field, pts, v, h=1e-6):
    plus = np.einsum("nij,nj->ni", field.dX(pts + h * v), v)
    minus = np.einsum("nij,nj->ni", field.dX(pts - h * v), v)
    return (plus - minus) / (2 * h)


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_direction_bump_d2X(dim):
    rng = np.random.default_rng(30 + dim)
    center, radius = rng.uniform(-1.0, 1.0, dim), 0.7
    b = bump_field(center, radius, rng.standard_normal(dim))
    e = rng.standard_normal((300, dim))
    e /= np.linalg.norm(e, axis=1)[:, None]
    # inside the ball, past its edge, and the centre itself
    pts = center + rng.uniform(0.0, 1.2 * radius, 300)[:, None] * e
    pts = np.vstack([pts, center])
    v = rng.standard_normal(pts.shape)
    v /= np.linalg.norm(v, axis=1)[:, None]
    got = b.d2X(pts, v)
    np.testing.assert_allclose(got, _d2X_by_differences(b, pts, v), atol=1e-7)
    # at the centre the Hessian is beta''(0) I / radius^2, beta''(0) = -2
    np.testing.assert_allclose(got[-1], -2.0 / radius**2 * b.X(center[None])[0],
                               rtol=1e-14)
    outside = np.linalg.norm(pts - center, axis=1) >= radius
    np.testing.assert_array_equal(got[outside], 0.0)


def test_callable_bump_has_no_d2X():
    b = bump_field(np.array([0.5, 0.0]), 0.3, lambda p: np.ones_like(p),
                   direction_jacobian=lambda p: np.zeros((len(p), 2, 2)))
    assert b.d2X is None


def test_sum_field_d2X_only_when_every_part_has_one(e1_field, radial2):
    b1 = bump_field(np.array([0.5, 0.0]), 0.3, np.array([1.0, 0.0]))
    b2 = bump_field(np.array([-0.5, 0.0]), 0.5, np.array([0.0, 1.0]))
    s = sum_field([b1, b2, radial2])
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (200, 2))
    v = rng.standard_normal((200, 2))
    np.testing.assert_array_equal(
        s.d2X(pts, v), b1.d2X(pts, v) + b2.d2X(pts, v) + radial2.d2X(pts, v))
    free = bump_field(np.array([0.5, 0.0]), 0.3, lambda p: np.ones_like(p),
                      direction_jacobian=lambda p: np.zeros((len(p), 2, 2)))
    assert sum_field([b1, free]).d2X is None


def test_field_d2X_of_wrong_shape_rejected_at_construction(e1_field):
    with pytest.raises(InvariantViolation, match=r"field 'flat': d2X must return"):
        AmbientField(dim=2, X=e1_field.X, dX=e1_field.dX,
                     d2X=lambda p, v: e1_field.d2X(p, v)[:, 0],
                     support=e1_field.support, name="flat")
