"""Structure suites: nullity, locality, normal dependence, crack tips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapecalc import validation
from shapecalc.errors import CrackNotInterior, ProbeOverlap
from shapecalc.fields import Ball, check_tangency
from shapecalc.functionals import (
    analytic_dlength,
    crack_functional,
    elastic_functional,
    length_functional,
)
from shapecalc.validation import (
    crack_suite,
    extract_crack_coefficients,
    locality_pairs,
    locality_suite,
    normal_dependence_suite,
    nullity_negative_field,
    tangential_nullity_suite,
    tangential_probe_fields,
)


def test_curve_probes_are_tangent(circle1):
    probes = tangential_probe_fields(circle1, n=3, seed=0)
    assert len(probes) == 3
    assert len({p.name for p in probes}) == 3
    for p in probes:
        rep = check_tangency(circle1, p)
        assert rep.max_normal_residual <= 1e-12
        assert rep.max_boundary_residual <= 1e-12


def test_surface_probes_are_tangent(cylinder):
    for p in tangential_probe_fields(cylinder, n=2, seed=1):
        rep = check_tangency(cylinder, p)
        assert rep.max_normal_residual <= 1e-12


def test_surface_probes_are_pullback_fields(cylinder, monkeypatch):
    from shapecalc.fields import smooth_step

    built = []
    real = validation.pullback_field
    monkeypatch.setattr(validation, "pullback_field",
                        lambda *args: built.append(args) or real(*args))
    probes = tangential_probe_fields(cylinder, n=2, seed=1)
    delta = 0.8 * cylinder.reach
    assert [(a[2], a[3], a[4]) for a in built] == [
        (delta, 0.0, f"tangent-wave{i}[cylinder]") for i in range(2)]
    mid, rad = cylinder.grid_ball
    rng = np.random.default_rng(1)
    # the draws tangential_probe_fields makes for each probe
    draws = [(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0), int(rng.integers(1, 4)),
              int(rng.integers(1, 4)), rng.uniform(0.0, 2.0 * np.pi),
              rng.uniform(0.0, 2.0 * np.pi)) for _ in probes]
    us = rng.uniform(cylinder.a, cylinder.b, 64)
    vs = rng.uniform(cylinder.c, cylinder.d, 64)
    on_m = cylinder.chart((us, vs))
    n = cylinder.unit_normal((us, vs))
    off = np.concatenate([on_m + delta * n, on_m + 1.5 * delta * n,
                          on_m - delta * n, [mid + np.array([0.0, 0.0, rad + delta])]])
    for P, (c1, c2, k1, k2, th1, th2) in zip(probes, draws):
        np.testing.assert_array_equal(P.support.center, mid)
        assert P.support.radius == rad + delta
        # the hand-written tube formula the probes had before
        ft = cylinder.project(on_m)
        fu, fv = ft.params
        w = smooth_step(ft.dist / delta) * np.sin(np.pi * (fu - cylinder.a)
                                                  / (cylinder.b - cylinder.a)) ** 2
        e1, e2 = cylinder.tangent_frame((fu, fv))
        ang = 2.0 * np.pi * (fv - cylinder.c) / (cylinder.d - cylinder.c)
        old = w[:, None] * (c1 * np.cos(k1 * ang + th1)[:, None] * e1
                            + c2 * np.cos(k2 * ang + th2)[:, None] * e2)
        assert np.array_equal(P.X(on_m), old)
        np.testing.assert_array_equal(P.X(off), 0.0)


def test_open_curve_probes_respect_endpoints(segment01):
    for p in tangential_probe_fields(segment01, n=2, seed=0):
        rep = check_tangency(segment01, p)
        assert rep.max_normal_residual <= 1e-12
        assert rep.max_boundary_residual <= 1e-12


def test_negative_probe_is_not_tangent(circle1):
    bad = nullity_negative_field(circle1)
    assert check_tangency(circle1, bad).max_normal_residual > 1e-3


def test_nullity_suite_accepts_tangent_rejects_normal(circle1):
    probes = tangential_probe_fields(circle1, n=2, seed=0)
    (res,) = tangential_nullity_suite(
        [length_functional()], circle1, probes,
        negative=[nullity_negative_field(circle1)],
    )
    assert res.suite == "tangential_nullity"
    assert res.passed
    # three checks per tangent probe plus the control
    assert len(res.cases) == 3 * len(probes) + 1
    neg = [c for c in res.cases if "negative control" in c.description]
    assert len(neg) == 1 and neg[0].passed


def test_nullity_suite_on_an_open_curve(segment01):
    # an interior normal bump leaves a straight segment's length stationary,
    # so the control of an open curve pushes its end b along the outward
    # conormal instead
    neg = nullity_negative_field(segment01)
    assert neg.name == "conormal-bump[segment01]"
    np.testing.assert_allclose(neg.X(segment01.chart(segment01.b)),
                               segment01.conormal_extension(segment01.b))
    probes = tangential_probe_fields(segment01, n=2, seed=0)
    (res,) = tangential_nullity_suite([length_functional()], segment01, probes,
                                      negative=[neg])
    assert res.passed
    (control,) = [c for c in res.cases if "negative control" in c.description]
    assert control.measured > control.bound


def test_nullity_suite_flags_normal_probe(circle1, radial2):
    (res,) = tangential_nullity_suite([length_functional()], circle1, [radial2])
    assert not res.passed
    tangency = [c for c in res.cases if c.description.startswith("tangency")]
    assert tangency and not tangency[0].passed


def test_locality_pairs_structure(circle1, e1_field, rotation2):
    pairs = locality_pairs(circle1, [e1_field, rotation2])
    assert len(pairs) == 3
    assert all(p.expect_equal for p in pairs[:-1])
    assert not pairs[-1].expect_equal
    for p in pairs:
        assert p.witness_points.shape[1] == 2


@pytest.mark.parametrize("shape,fields", [("cylinder", ["e3_field", "stretch_z"]),
                                          ("helix1", ["radial3", "e3_field"])])
def test_locality_pairs_surface_and_space_curve(shape, fields, request):
    from shapecalc.validation import TANGENCY_TOL, _samples_on

    M = request.getfixturevalue(shape)
    pairs = locality_pairs(M, [request.getfixturevalue(f) for f in fields])
    assert [p.expect_equal for p in pairs] == [True, True, False]
    # witnesses sit half a tube radius off M, along the unit normal
    delta = min(0.8 * M.reach, 0.2 * M.diameter)
    np.testing.assert_allclose(M.project(pairs[0].witness_points).dist,
                               0.5 * delta, rtol=1e-9)
    on_m = _samples_on(M, 200)
    for p in pairs:
        wit = p.witness_points
        gap = np.abs(p.X.X(on_m) - p.Y.X(on_m)).max()
        off = np.abs(p.X.X(wit) - p.Y.X(wit)).max()
        if p.expect_equal:
            assert gap <= TANGENCY_TOL
            assert off > 0.0
        else:
            # the negative control's bump lives on M
            assert gap > 1e-3


def test_locality_suite_passes(circle1, e1_field, rotation2, fd5, monkeypatch):
    oracle = []
    real = validation.fd_quotients

    def recorded(J, M, X, cfg):
        oracle.append(X)
        return real(J, M, X, cfg)

    monkeypatch.setattr(validation, "fd_quotients", recorded)
    pairs = locality_pairs(circle1, [e1_field, rotation2])
    res = locality_suite(length_functional(), circle1, pairs, cfg=fd5)
    assert res.passed
    # one FD derivative per distinct field: the negative control's X is
    # pair 0's X
    assert pairs[-1].X is pairs[0].X
    assert len(oracle) == 5 and len({id(X) for X in oracle}) == 5
    agree = [c for c in res.cases if c.description.startswith("|dJ(X) - dJ(Y)|")]
    assert len(agree) == 2
    neg = [c for c in res.cases if "negative control" in c.description]
    assert len(neg) == 1 and neg[0].passed


def test_normal_dependence_suite_segment(segment01, rotation2):
    res = normal_dependence_suite(length_functional(), segment01, [rotation2])
    assert res.suite == "normal_dependence"
    assert res.passed
    kinds = sorted(c.description.split(" [")[0] for c in res.cases)
    assert kinds == ["additivity dJ(X)=dJ(Xperp)+dJ(Xnu)", "tangential part inert"]


def test_crack_suite_straight(crack_segment):
    J = crack_functional(Ball(np.zeros(2), 3.0), crack_segment)
    res = crack_suite(J)
    assert res.passed
    descs = [c.description for c in res.cases]
    assert sum("= 1 [" in d for d in descs) == 2
    assert sum("stable under probe halving" in d for d in descs) == 2
    assert sum("matches curvature density" in d for d in descs) == 3


def test_crack_suite_curved_tips(crack_arc):
    J = crack_functional(Ball(np.zeros(2), 4.0), crack_arc)
    res = crack_suite(J)
    assert res.passed
    descs = [c.description for c in res.cases]
    # curved tips: coefficients are recorded, not pinned to a constant
    assert any("tip values recorded" in d for d in descs)
    assert not any("= 1 [" in d for d in descs)
    assert not any("stable under probe halving" in d for d in descs)
    assert sum("matches curvature density" in d for d in descs) == 3


def test_crack_suite_straight_elastic_asserts_no_unit_weights(crack_segment):
    # unit endpoint weights belong to the length variation only
    J = crack_functional(Ball(np.zeros(2), 3.0), crack_segment,
                         inner=elastic_functional())
    descs = [c.description for c in crack_suite(J).cases]
    assert not any("= 1 [" in d for d in descs)
    assert sum("stable under probe halving" in d for d in descs) == 2
    assert not any("matches curvature density" in d for d in descs)


def test_crack_coefficients_straight(crack_segment):
    J = crack_functional(Ball(np.zeros(2), 3.0), crack_segment)
    co = extract_crack_coefficients(J)
    assert co.alpha1 == pytest.approx(1.0, abs=2e-5)
    assert co.alpha2 == pytest.approx(1.0, abs=2e-5)
    assert co.stations.shape == (3,)
    assert np.all(co.stations > crack_segment.a)
    assert np.all(co.stations < crack_segment.b)
    assert co.h_samples.shape == (3,)
    assert 0.0 < co.probe_radius <= 0.1 * 2.0


def test_probe_overlap_detected(crack_segment):
    J = crack_functional(Ball(np.zeros(2), 3.0), crack_segment)
    with pytest.raises(ProbeOverlap):
        extract_crack_coefficients(J, probe_radius=1.2)
    with pytest.raises(ProbeOverlap):
        extract_crack_coefficients(J, probe_radius=0.9)


def test_probe_reaching_the_region_boundary_rejected(crack_segment):
    # margin 2 in a region of radius 3 about the segment's midpoint
    J = crack_functional(Ball(np.zeros(2), 3.0), crack_segment)
    with pytest.raises(CrackNotInterior, match="reaches the region boundary"):
        extract_crack_coefficients(J, probe_radius=J.margin)


def test_closed_crack_rejected(circle1):
    J = crack_functional(Ball(np.zeros(2), 3.0), circle1)
    with pytest.raises(ProbeOverlap):
        extract_crack_coefficients(J)


def test_crack_h_samples_measure_dv_against_the_closed_form(crack_arc):
    from shapecalc.derivative import discrete_variation

    J = crack_functional(Ball(np.zeros(2), 4.0), crack_arc)
    co = extract_crack_coefficients(J)
    cases = [c for c in crack_suite(J).cases if c.description.startswith("h-sample")]
    assert len(cases) == len(co.probes) == 3
    for case, X in zip(cases, co.probes):
        want = abs(discrete_variation(J, crack_arc, X) - analytic_dlength(crack_arc, X))
        assert case.measured == want
        assert case.passed


@pytest.mark.parametrize("curve", ["crack_segment", "crack_arc"])
def test_crack_suite_cases_hold_python_scalars(curve, request):
    # numpy scalars in a SuiteCase break json.dumps of the report
    J = crack_functional(Ball(np.zeros(2), 4.0), request.getfixturevalue(curve))
    for c in crack_suite(J).cases:
        assert type(c.measured) is float and type(c.bound) is float, c.description
        assert type(c.passed) is bool, c.description


# ---------------------------------------------------------------------------
# analytic Jacobians of curve pullback fields

CURVES = ["circle1", "ellipse21", "segment01", "helix1"]


def _tube_formula(M, W, delta, extend, pts):
    from shapecalc.fields import smooth_step
    from shapecalc.geometry import nearest_curve_param

    t = nearest_curve_param(M, pts, extend=extend)
    s = np.linalg.norm(pts - M.gamma(t), axis=1) / delta
    return (s * s * smooth_step(s))[:, None] * W


def _locality_setup(M, seed=0):
    """The tube width, extension and first direction locality_pairs draws."""
    from shapecalc.geometry import curvature

    kmax = float(np.abs(curvature(M, M._grid_ts)).max())
    speed_min = float(np.linalg.norm(M.dgamma(M._grid_ts), axis=1).min())
    reach = 0.5 / kmax if kmax > 1e-12 else np.inf
    delta = min(0.8 * reach, 0.2 * M.diameter)
    extend = 0.0 if M.closed else min(0.5 * (M.b - M.a), 1.3 * delta / speed_min)
    W = np.random.default_rng(seed).normal(size=M.dim)
    return delta, extend, W / np.linalg.norm(W)


@pytest.mark.parametrize("curve", CURVES)
def test_tube_discrepancy_analytic_jacobian(curve, request, tube_points,
                                            assert_fd_jacobian, projection_calls):
    from shapecalc.fields import pullback_field
    from shapecalc.validation import _SQUARED_STEP

    M = request.getfixturevalue(curve)
    delta, extend, W = _locality_setup(M)
    D = pullback_field(M, W, delta, extend, "tube", profile=_SQUARED_STEP)
    pts = tube_points(M, delta, n=24, seed=3)
    assert_fd_jacobian(D, pts)
    assert np.array_equal(D.X(pts), _tube_formula(M, W, delta, extend, pts))
    fresh = tube_points(M, delta, n=16, seed=4)
    projection_calls.clear()
    D.jet(fresh)  # X and dX in one pass: one projection
    assert len(projection_calls) == 1
    D.X(tube_points(M, delta, n=16, seed=5))
    assert len(projection_calls) == 2


def test_tube_discrepancy_jacobian_finite_at_circle_centre(circle1):
    from shapecalc.fields import pullback_field
    from shapecalc.validation import _SQUARED_STEP

    delta, extend, W = _locality_setup(circle1)
    D = pullback_field(circle1, W, delta, extend, "tube", profile=_SQUARED_STEP)
    assert np.all(np.isfinite(D.dX(np.zeros((1, 2)))))


def test_tube_discrepancy_exact_jacobian_on_surface(cylinder, assert_fd_jacobian,
                                                   monkeypatch):
    # grad d = (p - foot) / d holds on a surface too, past its rims included
    from shapecalc import geometry
    from shapecalc.fields import pullback_field
    from shapecalc.validation import _SQUARED_STEP

    delta = min(0.8 * cylinder.reach, 0.2 * cylinder.diameter)
    W = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    D = pullback_field(cylinder, W, delta, 0.0, "tube", profile=_SQUARED_STEP)
    rng = np.random.default_rng(6)
    n = 32
    rho = 1.0 + delta * rng.uniform(-0.95, 0.95, n)
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    z = rng.uniform(cylinder.a - 0.5 * delta, cylinder.b + 0.5 * delta, n)
    pts = np.stack([rho * np.cos(th), rho * np.sin(th), z], axis=-1)
    assert_fd_jacobian(D, pts)
    assert np.abs(D.dX(pts)).max() > 0.1
    calls = []
    real = geometry.nearest_surface_param
    monkeypatch.setattr(geometry, "nearest_surface_param",
                        lambda *args: calls.append(1) or real(*args))
    fresh = pts + 1e-3
    D.jet(fresh)  # X and dX in one pass: one projection
    assert len(calls) == 1


@pytest.mark.parametrize("curve", CURVES)
def test_locality_sums_analytic_jacobian(curve, request, tube_points, linear_field,
                                         assert_fd_jacobian, projection_calls):
    M = request.getfixturevalue(curve)
    X = linear_field(M.dim)
    tube_pair, bump_pair = locality_pairs(M, [X])
    delta, extend, W = _locality_setup(M)
    pts = tube_points(M, delta, n=24, seed=3)
    for pair in (tube_pair, bump_pair):
        assert_fd_jacobian(pair.Y, pts)
        assert np.all(np.isfinite(pair.Y.dX(np.zeros((1, M.dim)))))
    assert np.array_equal(tube_pair.Y.X(pts),
                          X.X(pts) + _tube_formula(M, W, delta, extend, pts))
    fresh = tube_points(M, delta, n=16, seed=4)
    projection_calls.clear()
    tube_pair.Y.jet(fresh)
    assert len(projection_calls) == 1
    # the on-manifold bump has a constant direction: no projection at all
    bump_pair.Y.jet(fresh)
    assert len(projection_calls) == 1


def _probe_points(P, n, seed):
    """Points in the probe's ball, some just inside its rim."""
    rng = np.random.default_rng(seed)
    c, rho = P.support.center, P.support.radius
    dirs = rng.normal(size=(n, len(c)))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    frac = rng.uniform(0.0, 0.95, n)
    frac[:3] = [0.97, 0.98, 0.99]
    return c + (frac * rho)[:, None] * dirs


@pytest.mark.parametrize("curve", CURVES)
def test_tangent_probe_analytic_jacobian(curve, request, assert_fd_jacobian,
                                         projection_calls):
    from shapecalc.fields import bump_profile
    from shapecalc.geometry import nearest_curve_param

    M = request.getfixturevalue(curve)
    probes = tangential_probe_fields(M, n=2, seed=0)
    # the draws tangential_probe_fields makes for each probe
    rng = np.random.default_rng(0)
    for P in probes:
        t0 = M.a + (M.b - M.a) * (rng.uniform(0.0, 1.0) if M.closed
                                  else rng.uniform(0.25, 0.75))
        amp = rng.uniform(0.5, 1.5)
        c, rho = P.support.center, P.support.radius
        np.testing.assert_array_equal(c, M.gamma(np.array([t0]))[0])
        pts = _probe_points(P, 24, seed=5)
        assert_fd_jacobian(P, pts)
        d1 = M.dgamma(nearest_curve_param(M, pts))
        beta = bump_profile(np.linalg.norm(pts - c, axis=1) / rho)
        direct = beta[:, None] * (amp * d1 / np.linalg.norm(d1, axis=1)[:, None])
        assert np.array_equal(P.X(pts), direct)
        fresh = _probe_points(P, 16, seed=6)
        projection_calls.clear()
        P.X(fresh)
        P.dX(fresh)
        assert len(projection_calls) == 1
        P.dX(_probe_points(P, 16, seed=7))
        assert len(projection_calls) == 2
    if curve == "circle1":
        for P in probes:
            assert np.all(np.isfinite(P.dX(np.zeros((1, 2)))))


# ---------------------------------------------------------------------------
# the locality discrepancy is a squared-step pullback field


def _tube_jacobian_formula(M, W, delta, extend, pts):
    """W (x) g'(s) grad d / delta for g(s) = s^2 step(s), as the discrepancy
    wrote it inline before it became a pullback field."""
    from shapecalc.fields import smooth_step, smooth_step_jet

    ft = M.project(pts, extend)
    s = ft.dist / delta
    dg = 2.0 * s * smooth_step(s) + s * s * smooth_step_jet(s)[1]
    return W[None, :, None] * (dg[:, None] * ft.grad_dist / delta)[:, None, :]


def _past_widened_ends(M, delta, extend):
    """Points beyond both ends of the widened curve, within delta of them."""
    ts = np.array([M.b + extend + 0.3 * delta, M.b + extend + 0.1 * delta,
                   M.a - extend - 0.3 * delta, M.a - extend - 0.1 * delta])
    off = np.array([0.4, -0.6, 0.5, -0.3])[:, None] * delta
    return np.asarray(M.gamma(ts), dtype=float) + off * M.unit_normal(ts)


@pytest.mark.parametrize("curve", ["segment01", "crack_arc"])
def test_locality_discrepancy_holds_the_whole_tube(curve, request, radial2):
    M = request.getfixturevalue(curve)
    pair = locality_pairs(M, [radial2])[0]
    delta, extend, W = _locality_setup(M)
    pts = _past_widened_ends(M, delta, extend)
    assert np.array_equal(pair.Y.X(pts),
                          radial2.X(pts) + _tube_formula(M, W, delta, extend, pts))
    assert np.all(np.abs(_tube_formula(M, W, delta, extend, pts)) > 0.0)
    if curve == "segment01":
        # both 0.05 from the widened segment, which ends at x = 1.76
        pts = np.array([[1.695, 0.05], [1.699, 0.05]])
        D = pair.Y.X(pts) - pair.X.X(pts)
        np.testing.assert_allclose(D[0], D[1], rtol=0.0, atol=1e-15)
        assert np.abs(D).min() > 0.01


@pytest.mark.parametrize("shape", CURVES + ["cylinder"])
def test_squared_step_pullback_jacobian_is_the_inline_formula(shape, request,
                                                              tube_points):
    from shapecalc.fields import pullback_field
    from shapecalc.validation import _SQUARED_STEP

    M = request.getfixturevalue(shape)
    if shape == "cylinder":
        delta, extend = min(0.8 * M.reach, 0.2 * M.diameter), 0.0
        W = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        rng = np.random.default_rng(8)
        rho = 1.0 + delta * rng.uniform(-1.2, 1.2, 40)
        th = rng.uniform(0.0, 2.0 * np.pi, 40)
        z = rng.uniform(M.a - 0.5 * delta, M.b + 0.5 * delta, 40)
        pts = np.stack([rho * np.cos(th), rho * np.sin(th), z], axis=-1)
    else:
        delta, extend, W = _locality_setup(M)
        pts = tube_points(M, 1.2 * delta, n=40, seed=9)
        if not M.closed:
            pts = np.vstack([pts, _past_widened_ends(M, delta, extend)])
    D = pullback_field(M, W, delta, extend, "tube", profile=_SQUARED_STEP)
    got = D.dX(pts)
    assert np.array_equal(got, _tube_jacobian_formula(M, W, delta, extend, pts))
    assert np.abs(got).max() > 0.1


def _arc(r, angle0, span):
    from shapecalc.catalog import build_shape

    return build_shape({"kind": "arc", "radius": r, "angle0": angle0,
                        "angle1": angle0 + span, "name": "arc"})


def _segment(p0, p1):
    from shapecalc.catalog import build_shape

    return build_shape({"kind": "segment", "p0": list(p0), "p1": list(p1),
                        "name": "segment"})


def _point(dim):
    # x >= 0.5 keeps the segment off the origin (d = 2) and the vertical
    # axis (d = 3), where the smoothed radial field varies on a tiny scale
    return st.tuples(st.floats(0.5, 3.0), *[st.floats(-2.0, 2.0)] * (dim - 1))


def _segments(dim):
    ends = st.tuples(_point(dim), _point(dim))
    return ends.filter(lambda e: np.linalg.norm(np.subtract(*e)) >= 0.3).map(
        lambda e: _segment(*e))


_OPEN_CURVES = st.one_of(
    st.builds(_arc, st.floats(0.5, 3.0), st.floats(-np.pi, np.pi),
              st.floats(0.3, np.pi)),
    _segments(2), _segments(3))


@settings(max_examples=25, deadline=None)
@given(M=_OPEN_CURVES)
def test_pullback_fields_property_on_open_curves(M, tube_points, assert_fd_jacobian):
    """The restriction components of radial and the locality discrepancy,
    each widened as its caller widens it: dX matches central differences
    of X in the tube and past the widened ends, and X is 0 just inside the
    support sphere."""
    from shapecalc.catalog import build_field
    from shapecalc.fields import pullback_field, restriction_field
    from shapecalc.validation import _SQUARED_STEP

    radial = build_field({"kind": "radial", "name": "radial"}, M.dim)
    tau = min(0.1 * M.diameter, 0.4 * M.reach)
    delta, extend, W = _locality_setup(M)
    D = pullback_field(M, W, delta, extend, "tube", profile=_SQUARED_STEP)
    pair = locality_pairs(M, [radial])[0]
    cases = [(restriction_field(M, radial, c), tau, 0.15 * (M.b - M.a))
             for c in ("perp", "tan", "nu")] + [(D, delta, extend)]
    for F, tube, widen in cases:
        pts = np.vstack([tube_points(M, tube, n=16, seed=1),
                         _past_widened_ends(M, tube, widen)])
        assert_fd_jacobian(F, pts)
        rng = np.random.default_rng(2)
        dirs = rng.normal(size=(2000, M.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rim = F.support.center + 0.999999999 * F.support.radius * dirs
        np.testing.assert_array_equal(F.X(rim), 0.0)
    # the pair's sum carries exactly this discrepancy
    assert np.array_equal(pair.Y.X(pts), radial.X(pts) + D.X(pts))
    assert_fd_jacobian(pair.Y, pts)


def test_crack_suite_runs_only_the_probes_it_reports(crack_segment, crack_arc,
                                                     monkeypatch):
    # straight tips: two tip probes, three interior probes, and the two tip
    # probes again at half the radius; curved tips skip the halving
    from shapecalc import validation

    calls = []
    real = validation.discrete_variation
    monkeypatch.setattr(validation, "discrete_variation",
                        lambda *args: calls.append(1) or real(*args))
    for curve, expected in ((crack_segment, 7), (crack_arc, 5)):
        calls.clear()
        J = crack_functional(Ball(np.zeros(2), 4.0), curve)
        crack_suite(J)
        assert len(calls) == expected


def test_nullity_measures_field_only_cases_once(circle1, monkeypatch):
    from shapecalc import validation

    counts = {"check_tangency": 0, "invariance_residual": 0}
    for name in counts:
        def counted(*args, _real=getattr(validation, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(validation, name, counted)
    probes = tangential_probe_fields(circle1, n=1, seed=0)
    neg = [nullity_negative_field(circle1)]
    Js = [length_functional(), elastic_functional()]
    results = tangential_nullity_suite(Js, circle1, probes, negative=neg)
    # one tangency check per probe, one invariance flow per tangent probe
    assert counts == {"check_tangency": 2, "invariance_residual": 1}
    monkeypatch.undo()
    # each functional's result is the one it gets alone, under its own tag
    for J, res in zip(Js, results):
        assert all(f"[{J.name}/circle1/" in c.description for c in res.cases)
        assert [res] == tangential_nullity_suite([J], circle1, probes,
                                                 negative=neg)


def test_crack_coefficients_carry_their_interior_probes(crack_arc):
    J = crack_functional(Ball(np.zeros(2), 4.0), crack_arc)
    co = extract_crack_coefficients(J)
    assert len(co.probes) == len(co.stations)
    for X, t in zip(co.probes, co.stations):
        np.testing.assert_array_equal(X.support.center, crack_arc.chart(t)[0])
        assert X.support.radius == co.probe_radius
