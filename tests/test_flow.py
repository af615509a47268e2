"""Flow integration: RK4 accuracy, jacobians, manifold transport, invariance."""

import dataclasses
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shapecalc import cli, geometry, validation
from shapecalc import flow as flow_mod
from shapecalc.derivative import flow_schedule
from shapecalc.errors import (DegenerateImmersion, InvariantViolation,
                              NoConvergence, NonFinite)
from shapecalc.fields import AmbientField, bump_field
from shapecalc.flow import (
    INVARIANCE_BUDGET,
    FlowConfig,
    _jacobian_product,
    flow_curve_jet,
    flow_manifold,
    flow_point,
    flow_with_jacobian,
    invariance_residual,
    richardson_row,
    step_count,
)
from shapecalc.functionals import length

TWO_PI = 2.0 * np.pi


def test_rotation_quarter_turn(rotation2):
    cfg = FlowConfig(t_final=np.pi / 2, n_steps=1000)
    end = flow_point(rotation2, np.array([1.0, 0.0]), cfg)
    np.testing.assert_allclose(end, [0.0, 1.0], atol=1e-10)


def test_rk4_error_scales_fourth_order(rotation2):
    exact = np.array([0.0, 1.0])
    errs = []
    for n in (50, 100):
        got = flow_point(rotation2, np.array([1.0, 0.0]), FlowConfig(np.pi / 2, n))
        errs.append(np.linalg.norm(got - exact))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_flow_group_property(radial2):
    x0 = np.array([1.0, 0.5])
    both = flow_point(radial2, x0, FlowConfig(0.3, 300))
    half = flow_point(radial2, x0, FlowConfig(0.15, 150))
    again = flow_point(radial2, half, FlowConfig(0.15, 150))
    np.testing.assert_allclose(again, both, atol=1e-10)


def test_flow_jacobian_rotation(rotation2):
    x, J = flow_with_jacobian(rotation2, np.array([1.0, 0.0]), FlowConfig(np.pi / 2, 400))
    np.testing.assert_allclose(x[0], [0.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(J[0], [[0.0, -1.0], [1.0, 0.0]], atol=1e-9)


def test_flow_jacobian_matches_fd():
    b = bump_field(np.array([0.0, 0.0]), 1.0, np.array([0.4, -0.3]))
    x0 = np.array([0.2, 0.1])
    cfg = FlowConfig(0.2, 200)
    _, J = flow_with_jacobian(b, x0, cfg)
    h = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (flow_point(b, x0 + e, cfg) - flow_point(b, x0 - e, cfg)) / (2 * h)
    np.testing.assert_allclose(J[0], fd, atol=1e-8)


def test_curve_jet_under_identity_grows_by_exp_t(circle1, identity2):
    # inside the cutoff X(x) = x, so v' = v and a' = a: the flowed gamma'
    # and gamma'' are e^t times the chart's, up to RK4's error.  Each of n
    # RK4 steps of h multiplies by the degree-4 Taylor polynomial of e^h,
    # so that error is n h^5 / 120 = 8.3e-12 relative here
    ts = np.linspace(circle1.a, circle1.b, 17)
    t, n = 0.1, step_count(0.1)
    h = t / n
    rk4 = (1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24) ** n
    moved = flow_manifold(identity2, circle1, FlowConfig(t, n))
    for name in ("dgamma", "ddgamma"):
        got, start = getattr(moved, name)(ts), getattr(circle1, name)(ts)
        np.testing.assert_allclose(got, rk4 * start, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(got, np.exp(t) * start, rtol=1e-11, atol=1e-15)


def test_curve_jet_matches_differences_of_the_flowed_chart(crack_arc, radial2):
    # the jet's gamma' and gamma'' against 5-point differences of the
    # flowed chart itself, on a field whose d2X is not zero
    t = 0.05
    moved = flow_manifold(radial2, crack_arc, FlowConfig(t, step_count(t)))
    ts = np.linspace(crack_arc.a + 0.1, crack_arc.b - 0.1, 9)
    h = 1e-3
    chart = [moved.gamma(ts + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (chart[0] - 8 * chart[1] + 8 * chart[3] - chart[4]) / (12 * h)
    d2 = (-chart[0] + 16 * chart[1] - 30 * chart[2] + 16 * chart[3]
          - chart[4]) / (12 * h * h)
    np.testing.assert_allclose(moved.dgamma(ts), d1, atol=1e-10)
    np.testing.assert_allclose(moved.ddgamma(ts), d2, atol=1e-7)
    # the second variational term is what moves gamma'' off dPhi gamma''
    _, J = flow_with_jacobian(radial2, crack_arc.gamma(ts),
                              FlowConfig(t, step_count(t)))
    first_order = np.einsum("nij,nj->ni", J, crack_arc.ddgamma(ts))
    assert np.abs(moved.ddgamma(ts) - first_order).max() > 1e-3


def test_elastic_fd_under_a_constant_field_is_exactly_zero(circle1, e1_field, fd5):
    # dX = 0 and d2X = 0 inside the cutoff, so the jet flow leaves gamma'
    # and gamma'' bit for bit as they are and the FD quotients are exact
    # zeros: the case that sets paper-compare's margin_max
    from shapecalc.derivative import fd_quotients
    from shapecalc.functionals import elastic_functional

    tr = fd_quotients(elastic_functional(), circle1, e1_field, fd5)
    assert tr.value == 0.0
    assert np.all(tr.quotients == 0.0)


def test_flow_manifold_scales_circle(circle1, identity2):
    # d/dt x = x has the exact solution x e^t, so lengths scale by e^t
    t = 0.3
    moved = flow_manifold(identity2, circle1, FlowConfig(t, 100))
    assert moved.transported
    assert length(moved) == pytest.approx(TWO_PI * np.exp(t), rel=1e-7)


def test_flow_manifold_preserves_surface_area_when_tangent(cylinder, e3_field):
    from shapecalc.functionals import surface_area

    moved = flow_manifold(e3_field, cylinder, FlowConfig(0.4, 40))
    assert surface_area(moved) == pytest.approx(surface_area(cylinder), rel=1e-10)


def test_blowup_is_reported(circle1):
    # a compactly supported field is bounded and cannot blow up, so the
    # overflow guards of both steppers are exercised with a bare
    # duck-typed stand-in: x' = x^2 leaves every point with x > 1/2 of
    # the unit circle before t = 2
    def X(p):
        out = np.zeros_like(p)
        out[:, 0] = p[:, 0] ** 2
        return out

    field = SimpleNamespace(X=X, name="quad")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            flow_point(field, np.array([1.0, 0.0]), FlowConfig(2.0, 60))
        with pytest.raises(NonFinite, match="'quad' left the numeric range"):
            invariance_residual(field, circle1, 2.0)


@pytest.mark.parametrize("n_steps", [0, -3, 2.0, None])
def test_flow_config_needs_a_positive_integer_step_count(n_steps):
    with pytest.raises(InvariantViolation,
                       match="n_steps must be a positive integer"):
        FlowConfig(0.1, n_steps)


def test_invariance_residual_tangent_rotation(circle1, rotation2):
    assert invariance_residual(rotation2, circle1, 0.5) <= 1e-9


def test_invariance_residual_detects_motion(circle1, identity2):
    # radial growth moves every circle point a distance e^t - 1
    res = invariance_residual(identity2, circle1, 0.1)
    assert res == pytest.approx(np.exp(0.1) - 1.0, rel=1e-6)


def test_invariance_residual_rotation_keeps_the_cylinder(cylinder):
    from shapecalc.catalog import build_field

    rot3 = build_field(
        {
            "kind": "linear",
            "matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "name": "rot3",
        },
        3,
    )
    res = invariance_residual(rot3, cylinder, 0.5)
    assert res <= 1e-9


def _recording_point_flows(monkeypatch):
    import shapecalc.flow as flow_mod

    flows = []
    real = flow_mod.flow_point

    def recorded(field, x0, cfg):
        out = real(field, x0, cfg)
        flows.append((x0, cfg, out))
        return out

    monkeypatch.setattr(flow_mod, "flow_point", recorded)
    return flows


def _recording_rk6_flows(monkeypatch):
    flows = []
    real = flow_mod._rk6

    def recorded(field, x, t, n_steps):
        out = real(field, x, t, n_steps)
        flows.append((x, t, n_steps, out))
        return out

    monkeypatch.setattr(flow_mod, "_rk6", recorded)
    return flows


def _tangent_probe(shape, probe, request, n=2, seed=0):
    """The shape fixture and its tangent probe of that name, among the n
    that tangential_probe_fields builds from seed (the bundled runs take
    n = 2, seed 0)."""
    from shapecalc.validation import tangential_probe_fields

    M = request.getfixturevalue(shape)
    (field,) = [f for f in tangential_probe_fields(M, n=n, seed=seed)
                if f.name == probe]
    return M, field


# the bundled runs' probes (n = 2, seed 0), and three off that set on the
# shape of least reach, where an extrapolated-midpoint table never met the
# budget
BUDGET_CASES = [
    pytest.param(shape, f"tangent-{kind}{i}[{shape}]", 2, 0,
                 id=f"{shape}-tangent-{kind}{i}[{shape}]")
    for shape, kind in (("circle1", "bump"), ("ellipse21", "bump"),
                        ("helix1", "bump"), ("cylinder", "wave"))
    for i in range(2)] + [
    pytest.param("ellipse21", f"tangent-bump{i}[ellipse21]", 3, 1,
                 id=f"ellipse21-tangent-bump{i}[ellipse21]-n3-seed1")
    for i in range(3)]


@pytest.mark.parametrize("shape, probe, n, seed", BUDGET_CASES)
def test_invariance_flow_meets_its_error_budget(shape, probe, n, seed, request,
                                                monkeypatch):
    M, field = _tangent_probe(shape, probe, request, n, seed)
    flows = _recording_rk6_flows(monkeypatch)
    residual = invariance_residual(field, M, 0.5)
    monkeypatch.undo()
    # the residual is the largest |ext| of the table on the levels' residual
    # vectors.  The budget holds the error the residual reads, not the phase
    # error along M, so the distances, not the points, match those of an
    # RK6 flow at four times the finest level's steps (whose own error is
    # 4^-6 of that level's).  The levels are projected again in one session
    # and in order, as invariance_residual does, so that a hook-free curve's
    # warm-started feet are the same
    row = []
    with geometry.projection_session():
        for _, _, _, out in flows:
            row = richardson_row(row, M.project(out).r, 6)
    ext = np.linalg.norm(row[-1], axis=1)
    assert residual == ext.max()
    x0, t, n_steps, _ = flows[-1]
    ref = M.project(flow_mod._rk6(field, x0, t, 4 * n_steps))
    assert np.abs(ext - ref.dist).max() <= 2.0 * INVARIANCE_BUDGET
    assert abs(residual - ref.dist.max()) <= 2.0 * INVARIANCE_BUDGET


def test_invariance_flow_counts(circle1, cylinder, ellipse21, monkeypatch):
    from shapecalc.catalog import build_field
    from shapecalc.validation import tangential_probe_fields

    # RK6 integrates a constant field exactly, so the three levels of the
    # table already meet the budget, as they do for the cylinder's second
    # wave.  The first ellipse21 bump estimates over the budget at three
    # levels and takes a fourth.  The first level steps at most 20
    # DEFAULT_MAX_STEP: ceil(50 / 20) = 3 steps at t = 0.5
    const = build_field({"kind": "constant", "vector": [0.3, -0.2],
                         "name": "c"}, 2)
    wave1 = tangential_probe_fields(cylinder, n=2, seed=0)[1]
    assert wave1.name == "tangent-wave1[cylinder]"
    bump = tangential_probe_fields(ellipse21, n=2, seed=0)[0]
    assert bump.name == "tangent-bump0[ellipse21]"
    flows = _recording_rk6_flows(monkeypatch)
    for field, M, steps in ((const, circle1, [3, 6, 12]),
                            (wave1, cylinder, [3, 6, 12]),
                            (bump, ellipse21, [3, 6, 12, 24])):
        flows.clear()
        invariance_residual(field, M, 0.5)
        assert [n for _, _, n, _ in flows] == steps


# x' = (sin y, -sin x cos y): smooth, nonlinear, with no closed-form flow
SMOOTH_2D = SimpleNamespace(
    X=lambda p: np.stack([np.sin(p[:, 1]),
                          -np.sin(p[:, 0]) * np.cos(p[:, 1])], axis=1),
    name="smooth")


def _rk6_error_ratios():
    x0 = np.array([[0.3, 0.7]])
    ref = flow_mod._rk6(SMOOTH_2D, x0, 1.0, 512)
    errors = [np.abs(flow_mod._rk6(SMOOTH_2D, x0, 1.0, n) - ref).max()
              for n in (4, 8, 16)]
    return errors[0] / errors[1], errors[1] / errors[2]


def test_rk6_tableau_is_consistent():
    # the coefficients are the nearest floats to rationals of denominator
    # at most 120, whose sums are taken exactly
    def exact(values):
        return [Fraction(v).limit_denominator(120) for v in values]

    c, A, b = flow_mod.RK6_TABLEAU
    assert len(c) == len(A) == len(b) == 7
    assert all(len(row) == i for i, row in enumerate(A))
    assert sum(exact(b)) == 1
    assert [sum(exact(row)) for row in A] == exact(c)


def test_rk6_error_falls_64_fold_per_halving():
    # sixth order: each halving of the step divides the error by about 2^6
    for ratio in _rk6_error_ratios():
        assert 56.0 <= ratio <= 72.0


def test_rk6_order_test_fails_on_a_mutated_coefficient(monkeypatch):
    c, A, b = flow_mod.RK6_TABLEAU
    last = A[6][:5] + (-15 / 11,)  # a76 = -16/11 in the method
    monkeypatch.setattr(flow_mod, "RK6_TABLEAU", (c, A[:6] + (last,), b))
    assert not all(56.0 <= r <= 72.0 for r in _rk6_error_ratios())


@pytest.mark.parametrize("p", [1, 4, 6])
def test_richardson_row_removes_the_leading_terms(p):
    """Two columns past the first remove the h^p and h^(p+1) terms of a
    series halved level by level, so a + b h^p + c h^(p+1) comes back as a,
    which pins the weights 2^(p+j-1) - 1: 63 and 127 at p = 6 (RK6, the
    invariance table), 15 and 31 at p = 4 (RK4), 1 and 3 at p = 1 (the FD
    quotients, a + b t + c t^2)."""
    a, b, c = 0.75, -3.0, 5.0
    row = []
    for h in 0.1 / 2.0 ** np.arange(3):
        row = richardson_row(row, a + b * h**p + c * h ** (p + 1), p)
    assert len(row) == 3
    assert abs(row[-1] - a) <= 1e-15
    # and entrywise on arrays, as the invariance table uses it
    vec = []
    for h in 0.1 / 2.0 ** np.arange(3):
        vec = richardson_row(vec, np.array([a, 2 * a]) + b * h**p, p)
    np.testing.assert_allclose(vec[-1], [a, 2 * a], rtol=0, atol=1e-15)


def test_warm_feet_match_grid_feet(ellipse21, helix1, radial3, fd5,
                                   monkeypatch):
    """Inside the invariance flows of both ellipse21 tangent probes and one
    helix1 FD schedule (an open curve, widened), every warm-started
    projection lands on the grid-seeded feet to Newton's tolerance.  An
    ellipse21 invariance residual seeds from the grid in its coarse
    levels' stages, whose samples move by more than 0.1 reach from one
    stage to the next (16 and 14 times on the two probes), and starts every
    other projection warm."""
    from shapecalc.derivative import fd_quotients
    from shapecalc.fields import restriction_field
    from shapecalc.functionals import length_functional
    from shapecalc.validation import NULLITY_TIME, tangential_probe_fields

    real = geometry.nearest_curve_param
    warm, grid = [], []

    def recorded(curve, pts, extend=0.0, seed=None):
        t = real(curve, pts, extend, seed)
        if seed is None:
            grid.append(len(pts))
            return t
        span = curve.b - curve.a
        d = t - real(curve, pts, extend)
        if curve.closed:
            d = np.mod(d + 0.5 * span, span) - 0.5 * span
        warm.append(np.abs(d).max() / span)
        return t

    monkeypatch.setattr(geometry, "nearest_curve_param", recorded)
    for probe in tangential_probe_fields(ellipse21, n=2, seed=0):
        grid.clear()
        n_warm = len(warm)
        invariance_residual(probe, ellipse21, NULLITY_TIME)
        assert len(grid) <= 16
        assert len(warm) - n_warm > 100
    n_warm = len(warm)
    fd_quotients(length_functional(), helix1,
                 restriction_field(helix1, radial3, "perp"), fd5)
    assert len(warm) > n_warm
    assert max(warm) <= 1e-13


def test_invariance_flow_over_the_step_cap_raises_before_flowing(circle1,
                                                                 monkeypatch):
    # x' = 300 x reaches e^150 ~ 1e65 at t = 0.5: finite, but the 3-, 6-
    # and 12-step flows differ by far more, beyond any affordable step:
    # the order law h^7 of three levels predicts 12 (1.5e47 / 1e-12)^(1/7),
    # about 3e9 steps.  The catalog fields are compactly supported, so a
    # bare stand-in serves
    fast = SimpleNamespace(X=lambda p: 300.0 * p, name="fast")
    flows = _recording_rk6_flows(monkeypatch)
    with pytest.raises(NoConvergence, match=r"'fast'.*error of 1\.5\d*e\+47 "
                       r".* at 12 steps, so 3\.\d*e\+09 steps"):
        invariance_residual(fast, circle1, 0.5)
    assert [n for _, _, n, _ in flows] == [3, 6, 12]
    assert all(np.isfinite(out).all() for _, _, _, out in flows)


def test_invariance_flow_of_the_wrong_order_raises(request, monkeypatch):
    # with a76 = -15/11 the stepper is of order about 1: on circle1's
    # tangent-bump0 the residual differences fall about 2-fold per level,
    # not 2^6, and the table raises at three levels (21 steps) instead of
    # flowing levels up to 12,288 steps
    M, field = _tangent_probe("circle1", "tangent-bump0[circle1]", request)
    c, A, b = flow_mod.RK6_TABLEAU
    monkeypatch.setattr(flow_mod, "RK6_TABLEAU",
                        (c, A[:6] + (A[6][:5] + (-15 / 11,),), b))
    flows = _recording_rk6_flows(monkeypatch)
    with pytest.raises(NoConvergence, match=r"levels of 3, 6 and 12 steps "
                       r"fell [12]\.\d+-fold, less than the 32-fold"):
        invariance_residual(field, M, 0.5)
    assert [n for _, _, n, _ in flows] == [3, 6, 12]


def _counting_flows(monkeypatch):
    import shapecalc.flow as flow_mod

    calls = []
    real = flow_mod.flow_with_jacobian

    def counted(field, x0, cfg):
        calls.append(len(np.atleast_2d(x0)))
        return real(field, x0, cfg)

    monkeypatch.setattr(flow_mod, "flow_with_jacobian", counted)
    return calls


def _counting_jet_flows(monkeypatch):
    calls = []
    real = flow_mod.flow_curve_jet

    def counted(field, x0, v0, a0, cfg):
        calls.append((len(x0), "a" if a0 is not None else "v"))
        return real(field, x0, v0, a0, cfg)

    monkeypatch.setattr(flow_mod, "flow_curve_jet", counted)
    return calls


# per shape: bump centre and direction, the transported partials asked for
# one after the other, the parameter set they are asked at, and the flows
# they take.  A curve's dgamma reads one jet flow of (x, gamma') and its
# ddgamma one of (x, gamma', gamma''), however often they are asked; a
# surface's phi_u and phi_v share one Jacobian flow
SHARED_JACOBIAN = {
    "circle1": ([1.0, 0.0], [0.3, 0.2], ("dgamma", "ddgamma", "dgamma", "ddgamma"),
                (np.linspace(0.2, 1.8, 9),), [(9, "v"), (9, "a")]),
    "cylinder": ([1.0, 0.0, 1.0], [0.3, 0.2, 0.1], ("phi_u", "phi_v"),
                 (np.linspace(0.2, 1.8, 9), np.linspace(0.0, 1.5, 9)), [9]),
}


@pytest.mark.parametrize("shape", SHARED_JACOBIAN)
def test_flowed_manifold_shares_one_jacobian_per_node_set(shape, request,
                                                          monkeypatch):
    center, direction, partials, params, flows = SHARED_JACOBIAN[shape]
    field = bump_field(np.array(center), 0.8, np.array(direction))
    assert field.d2X is not None
    base = request.getfixturevalue(shape)

    def make():
        return flow_manifold(field, base, FlowConfig(0.1, 10))

    jacobians = _counting_flows(monkeypatch)
    jets = _counting_jet_flows(monkeypatch)
    calls, other = (jets, jacobians) if base.dim == 2 else (jacobians, jets)
    moved = make()
    calls.clear()
    got = [getattr(moved, name)(*params) for name in partials]
    assert calls == flows
    # each derivative taken cold on its own flowed manifold agrees bit for bit
    for name, value in zip(partials, got):
        np.testing.assert_array_equal(value, getattr(make(), name)(*params))
    # a change in any parameter is a new node set
    calls.clear()
    shifted = params[:-1] + (params[-1] + 0.01,)
    getattr(moved, partials[-1])(*shifted)
    getattr(moved, partials[0])(shifted[0] + 0.01, *shifted[1:])
    assert calls == flows[-1:] + flows[:1] and other == []


@pytest.mark.parametrize("n_steps", [1, 7])
@pytest.mark.parametrize("kind", ["bump", "linear"])
def test_point_flow_is_the_point_part_of_the_joint_flow(kind, n_steps):
    from shapecalc.catalog import build_field

    if kind == "bump":
        field = bump_field(np.array([0.1, -0.2]), 1.5, np.array([0.4, -0.3]))
    else:
        field = build_field({"kind": "linear", "matrix": [[0.3, -1.0], [0.7, 0.2]],
                             "name": "lin"}, 2)
    rng = np.random.default_rng(5)
    pts, v, a = rng.uniform(-1.0, 1.0, (3, 11, 2))
    cfg = FlowConfig(0.3, n_steps)
    x = flow_point(field, pts, cfg)
    np.testing.assert_array_equal(x, flow_with_jacobian(field, pts, cfg)[0])
    # the curve jet flow, with and without its second-derivative rows,
    # whose v agree too
    assert field.d2X is not None
    full, velocity = (flow_curve_jet(field, pts, v, a, cfg),
                      flow_curve_jet(field, pts, v, None, cfg))
    np.testing.assert_array_equal(x, full[0])
    np.testing.assert_array_equal(x, velocity[0])
    np.testing.assert_array_equal(full[1], velocity[1])


@pytest.mark.parametrize("shape", ["circle1", "segment01", "crack_arc", "cylinder"])
def test_zero_time_flowed_manifold_is_the_base(shape, request):
    from shapecalc.functionals import surface_area

    base = request.getfixturevalue(shape)
    field = bump_field(np.zeros(base.dim), 0.5, np.ones(base.dim))
    moved = flow_manifold(field, base, FlowConfig(0.0, 1))
    if base.dim == 3:
        U, V = np.meshgrid(np.linspace(base.a, base.b, 7),
                           np.linspace(base.c, base.d, 7), indexing="ij")
        params = (U.ravel(), V.ravel())
        names = ("phi", "phi_u", "phi_v")
        measure = surface_area
    else:
        params = (np.linspace(base.a, base.b, 33),)
        names = ("gamma", "dgamma")
        measure = length
    for name in names:
        np.testing.assert_array_equal(getattr(moved, name)(*params),
                                      getattr(base, name)(*params))
    assert measure(moved) == measure(base)


@pytest.mark.parametrize("d", [2, 3])
def test_jacobian_product_equals_einsum(d):
    rng = np.random.default_rng(40 + d)
    for n in (1, 7, 2560):
        A = rng.standard_normal((n, d, d))
        B = rng.standard_normal((n, d, d))
        A[rng.random(A.shape) < 0.2] = 0.0
        np.testing.assert_array_equal(_jacobian_product(A, B),
                                      np.einsum("nij,njk->nik", A, B))


def _counted(field):
    calls = []

    def X(pts):
        calls.append("X")
        return field.X(pts)

    def dX(pts):
        calls.append("dX")
        return field.dX(pts)

    return AmbientField(dim=field.dim, X=X, dX=dX, support=field.support,
                        name=field.name), calls


@pytest.mark.parametrize("t_final", [0.0, -0.0])
def test_zero_time_flow_is_the_identity_without_field_calls(radial2, t_final):
    field, calls = _counted(radial2)
    calls.clear()  # construction checks sample the field
    cfg = FlowConfig(t_final, 1)
    pts = np.array([[1.0, 0.5], [-0.25, 2.0], [0.0, -0.0]])
    moved = flow_point(field, pts, cfg)
    np.testing.assert_array_equal(moved, pts)
    assert moved is not pts
    np.testing.assert_array_equal(flow_point(field, pts[0], cfg), pts[0])
    x, J = flow_with_jacobian(field, pts, cfg)
    np.testing.assert_array_equal(x, pts)
    np.testing.assert_array_equal(J, np.broadcast_to(np.eye(2), (3, 2, 2)))
    jet = flow_curve_jet(field, pts, 2.0 * pts, 3.0 * pts, cfg)
    for got, start in zip(jet, (pts, 2.0 * pts, 3.0 * pts)):
        np.testing.assert_array_equal(got, start)
    assert calls == []


# -- one first RK4 stage per FD schedule --------------------------------------


def test_fd_schedule_computes_one_first_stage(circle1, radial2, fd5):
    # every level takes one RK4 step from the same nodes and jets; length
    # reads dgamma alone, one jet flow per level (the counted field has no
    # d2X, so the jets are gamma' alone)
    field, calls = _counted(radial2)
    calls.clear()
    for Mt in flow_schedule(field, circle1, fd5):
        length(Mt)
    assert calls.count("X") == calls.count("dX") == 1 + 3 * fd5.levels


def _schedule_values(field, M, cfg, clear):
    """dgamma, then gamma, of every level of one FD schedule on fixed
    nodes, the first-stage memo emptied before each flow when `clear`."""
    nodes = np.linspace(M.a, M.b, 40)
    ts = (cfg.t0 / 2.0 ** np.arange(cfg.levels)).tolist()
    levels = [flow_manifold(field, M, FlowConfig(t, step_count(t))) for t in ts]
    out = []
    for name in ("dgamma", "gamma"):
        for Mt in levels:
            if clear:
                flow_mod._first[0] = None
            out.append(getattr(Mt, name)(nodes))
    return out


@pytest.mark.parametrize("shape, field", [("circle1", "radial2"),
                                          ("ellipse21", "radial2"),
                                          ("helix1", "radial3")])
def test_first_stage_memo_changes_no_bit(shape, field, fd5, request):
    # circle1 flows the catalog field; the hook-free curves flow its normal
    # restriction, which projects in every stage and warm-starts the second
    # from the first stage's feet, memoized or not
    from shapecalc.fields import restriction_field

    M = request.getfixturevalue(shape)
    X = request.getfixturevalue(field)
    if M.foot is None:
        X = restriction_field(M, X, "perp")
    cold = _schedule_values(X, M, fd5, clear=True)
    warm = _schedule_values(X, M, fd5, clear=False)
    for a, b in zip(cold, warm):
        np.testing.assert_array_equal(a, b)
    # M at twice the speed: its nodes ts / 2 are M's node points at ts, its
    # gamma' and gamma'' differ.  Flowed right after M, each must read its
    # own first stage, not the one keyed on the shared points
    fast = geometry.ParamCurve(
        dim=M.dim, a=M.a, b=M.a + 0.5 * (M.b - M.a), closed=M.closed,
        gamma=lambda t: M.gamma(2.0 * t), dgamma=lambda t: 2.0 * M.dgamma(2.0 * t),
        ddgamma=lambda t: 4.0 * M.ddgamma(2.0 * t), name="fast")
    ts = np.linspace(M.a, M.b, 40)
    cfg = FlowConfig(fd5.t0, step_count(fd5.t0))
    np.testing.assert_array_equal(fast.gamma(0.5 * ts), M.gamma(ts))
    for name in ("dgamma", "ddgamma"):
        fresh = []
        for C, nodes in ((M, ts), (fast, 0.5 * ts)):
            flow_mod._first[0] = None
            fresh.append(getattr(flow_manifold(X, C, cfg), name)(nodes))
        for (C, nodes), want in zip(((M, ts), (fast, 0.5 * ts)), fresh):
            np.testing.assert_array_equal(
                getattr(flow_manifold(X, C, cfg), name)(nodes), want)


def test_point_and_joint_flows_never_share_a_first_stage(radial2):
    field, calls = _counted(radial2)
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, (9, 2))
    cfg = FlowConfig(0.01, 1)
    flow_mod._first[0] = None
    calls.clear()
    x = flow_point(field, pts, cfg)
    assert calls == ["X"] * 4
    calls.clear()
    xj, _ = flow_with_jacobian(field, pts, cfg)
    assert calls == ["X", "dX"] * 4
    np.testing.assert_array_equal(xj, x)
    calls.clear()
    flow_point(field, pts, cfg)
    assert calls == ["X"] * 4
    # the same kind from the same points is served; another field, or
    # other points, is not
    calls.clear()
    flow_point(field, pts, FlowConfig(0.005, 1))
    assert calls == ["X"] * 3
    other, other_calls = _counted(radial2)
    other_calls.clear()
    flow_point(other, pts, cfg)
    assert other_calls == ["X"] * 4
    calls.clear()
    flow_point(field, pts[:-1], cfg)
    assert calls == ["X"] * 4


# -- flowed manifolds are built unchecked; Tier-1 checks them here ---------

ROOT = Path(__file__).resolve().parents[1]
RUNS = {"paper_suite": ROOT / "src" / "shapecalc" / "configs" / "paper_suite.json",
        "general_curves": ROOT / "perfbench" / "general_curves.json"}


def _rebuilt(Mt):
    """Mt as a hand-written chart, which runs every desk check at its strict
    tolerances."""
    return dataclasses.replace(Mt, base=None)


@pytest.mark.parametrize("shape", ["circle1", "segment01", "cylinder"])
def test_flow_manifold_constructs_without_flowing(shape, request, monkeypatch):
    base = request.getfixturevalue(shape)
    field, calls = _counted(bump_field(np.zeros(base.dim), 3.0,
                                       0.3 * np.ones(base.dim)))
    calls.clear()  # the field's own construction checks sample it
    points = _recording_point_flows(monkeypatch)
    jacobians = _counting_flows(monkeypatch)
    jets = _counting_jet_flows(monkeypatch)
    moved = flow_manifold(field, base, FlowConfig(0.1, 10))
    assert moved.transported and moved.base is base
    assert calls == [] and points == [] and jacobians == [] and jets == []


def _moved(shape, request):
    base = request.getfixturevalue(shape)
    field = bump_field(np.zeros(base.dim), 3.0, 0.3 * np.ones(base.dim))
    return flow_manifold(field, base, FlowConfig(0.1, 10))


def _folded(M, i, j):
    """The flowed M with its chart at grid points i and j of its base (the
    same parameters as a rebuild's grid) both sent to their midpoint."""
    if isinstance(M, geometry.ParamCurve):
        label, grid = "gamma", (M.base._grid_ts,)
    else:
        label, grid = "phi", (M.base._grid_us, M.base._grid_vs)
    chart = getattr(M, label)
    mid = chart(*(g[[i, j]] for g in grid)).mean(axis=0)

    def fold(*params):
        out = chart(*params).copy()
        for k in (i, j):
            out[np.all([p == g[k] for p, g in zip(params, grid)], axis=0)] = mid
        return out

    return dataclasses.replace(M, **{label: fold}, name="folded")


# grid pairs (i, j), non-adjacent: two steps apart, and across the shape
FOLDS = {"circle1": [(100, 102), (100, 356)],
         "cylinder": [(10 * 24 + 5, 12 * 24 + 5), (10 * 24 + 5, 10 * 24 + 17)]}


@pytest.mark.parametrize("shape, pair", [(s, p) for s in FOLDS for p in FOLDS[s]])
def test_transported_fold_still_raises(shape, pair, request):
    # the fold builds as a flowed manifold; its rebuild, the check that
    # test_desk_checks_pass_on_every_flowed_manifold runs, catches it
    folded = _folded(_moved(shape, request), *pair)
    with pytest.raises(DegenerateImmersion, match=r"'folded': samples nearly "
                                                  r"coincide \(self-intersection\?\)"):
        _rebuilt(folded)


@pytest.mark.parametrize("shape, label", [("circle1", "dgamma"),
                                          ("cylinder", "phi_u"),
                                          ("cylinder", "phi_v")])
def test_transported_partial_scaled_still_raises(shape, label, request):
    moved = _moved(shape, request)
    partial = getattr(moved, label)
    scaled = dataclasses.replace(
        moved, **{label: lambda *p: partial(*p) * (1.0 + 1e-4)})
    with pytest.raises(InvariantViolation,
                       match=rf"{label} disagrees with finite differences"):
        _rebuilt(scaled)


def test_transported_surface_keeps_its_seams(cylinder, e3_field):
    moved = flow_manifold(e3_field, cylinder, FlowConfig(0.1, 10))
    # phi drifts by 1e-5 across v: the seam opens far beyond its 1e-12
    # tolerance, while phi_v still agrees with phi's differences
    drift = np.array([1e-5 / (cylinder.d - cylinder.c), 0.0, 0.0])

    def opened(u, v):
        return moved.phi(u, v) + (v - cylinder.c)[:, None] * drift

    with pytest.raises(InvariantViolation,
                       match=r"surface 'cylinder@e3:0.1': does not close in v "
                             r"\(phi at v = c and v = d differs by"):
        _rebuilt(dataclasses.replace(moved, phi=opened))


def _schedule_inputs(plan, monkeypatch):
    """(M, X) of every FD schedule a run builds: its comparisons' and its
    locality suite's (recorded with the suite's oracle stubbed out)."""
    inputs = [(M, X) for M in cli._generic_shapes(plan)
              if any(cli.compatible(J, M) for J in cli._plain_functionals(plan))
              for X in cli._fields_for(plan, M)]

    def recorded(J, M, X, cfg):
        inputs.append((M, X))
        return SimpleNamespace(value=0.0)

    with monkeypatch.context() as m:
        m.setattr(validation, "fd_quotients", recorded)
        for job in cli.suite_jobs(plan):
            if job.label.startswith("locality"):
                job.run()
    return inputs


@pytest.mark.parametrize("run", sorted(RUNS))
def test_desk_checks_pass_on_every_flowed_manifold(run, monkeypatch):
    # a flow keeps its base regular, closed and embedded, so the FD oracle
    # builds its manifolds unchecked; every one the bundled runs flow
    # passes every desk check when rebuilt as a hand-written chart
    plan = cli.load_plan(str(RUNS[run]))
    inputs = _schedule_inputs(plan, monkeypatch)
    # comparisons and locality fields, each distinct field once: 18 + 11
    # and 6 + 7 schedules
    assert len(inputs) == {"paper_suite": 29, "general_curves": 13}[run]
    built = 0
    for M, X in inputs:
        for Mt in flow_schedule(X, M, plan.cfg):
            assert Mt.transported
            _rebuilt(Mt)
            built += 1
    assert built == {"paper_suite": 174, "general_curves": 78}[run]
