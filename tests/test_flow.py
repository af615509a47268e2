"""Flow integration: RK4 accuracy, jacobians, manifold transport, invariance."""

from types import SimpleNamespace

import numpy as np
import pytest

from shapecalc.errors import NoConvergence, NonFinite
from shapecalc.fields import AmbientField, bump_field
from shapecalc.flow import (
    INVARIANCE_BUDGET,
    FlowConfig,
    _jacobian_product,
    flow_manifold,
    flow_point,
    flow_with_jacobian,
    invariance_residual,
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


def test_default_step_count_matches_explicit(rotation2):
    # t_final = 0.05 resolves to five steps of the default maximum size
    auto = flow_point(rotation2, np.array([1.0, 0.0]), FlowConfig(0.05))
    manual = flow_point(rotation2, np.array([1.0, 0.0]), FlowConfig(0.05, n_steps=5))
    np.testing.assert_array_equal(auto, manual)


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


def test_blowup_is_reported():
    # a compactly supported field is bounded and cannot blow up, so the
    # overflow guard is exercised with a bare duck-typed stand-in
    def X(p):
        out = np.zeros_like(p)
        out[:, 0] = p[:, 0] ** 2
        return out

    field = SimpleNamespace(X=X, name="quad")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            flow_point(field, np.array([1.0, 0.0]), FlowConfig(2.0, 60))


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


def _first_probe(shape, request):
    from shapecalc.validation import tangential_probe_fields

    M = request.getfixturevalue(shape)
    return M, tangential_probe_fields(M, n=2, seed=0)[0]


@pytest.mark.parametrize("shape, probe", [("circle1", "tangent-bump0[circle1]"),
                                          ("cylinder", "tangent-wave0[cylinder]")])
def test_invariance_flow_meets_its_error_budget(shape, probe, request,
                                                monkeypatch):
    M, field = _first_probe(shape, request)
    assert field.name == probe
    flows = _recording_point_flows(monkeypatch)
    invariance_residual(field, M, 0.5)
    monkeypatch.undo()
    # the last flow is the one measured; four times its steps is exact to
    # about 1e-12 / 4^4
    x0, cfg, measured = flows[-1]
    ref = flow_point(field, x0, FlowConfig(cfg.t_final, 4 * cfg.n_steps))
    assert np.linalg.norm(measured - ref, axis=1).max() <= 2.0 * INVARIANCE_BUDGET


def test_invariance_flow_counts(circle1, request, monkeypatch):
    from shapecalc.catalog import build_field

    # RK4 integrates a constant field exactly, so the step-doubling pair
    # already meets the budget; the bump probe needs a third flow
    const = build_field({"kind": "constant", "vector": [0.3, -0.2],
                         "name": "c"}, 2)
    _, bump = _first_probe("circle1", request)
    flows = _recording_point_flows(monkeypatch)
    invariance_residual(const, circle1, 0.5)
    assert [cfg.n_steps for _, cfg, _ in flows] == [50, 100]
    flows.clear()
    invariance_residual(bump, circle1, 0.5)
    steps = [cfg.n_steps for _, cfg, _ in flows]
    assert steps[:2] == [50, 100] and len(steps) == 3 and steps[2] > 100


def test_invariance_flow_over_the_step_cap_raises_before_flowing(circle1,
                                                                 monkeypatch):
    # x' = 300 x reaches e^150 ~ 1e65 at t = 0.5: finite, but the 50- and
    # 100-step flows differ by ~1e64, far beyond any affordable step.  The
    # catalog fields are compactly supported, so a bare stand-in serves
    fast = SimpleNamespace(X=lambda p: 300.0 * p, name="fast")
    flows = _recording_point_flows(monkeypatch)
    with pytest.raises(NoConvergence, match=r"'fast'.*error of \S+e\+6\d.*steps"):
        invariance_residual(fast, circle1, 0.5)
    assert [cfg.n_steps for _, cfg, _ in flows] == [50, 100]
    assert all(np.isfinite(out).all() for _, _, out in flows)


def _counting_flows(monkeypatch):
    import shapecalc.flow as flow_mod

    calls = []
    real = flow_mod.flow_with_jacobian

    def counted(field, x0, cfg):
        calls.append(len(np.atleast_2d(x0)))
        return real(field, x0, cfg)

    monkeypatch.setattr(flow_mod, "flow_with_jacobian", counted)
    return calls


# per shape: bump centre and direction, the transported partials asked for
# one after the other, and the parameter set they are asked at
SHARED_JACOBIAN = {
    "circle1": ([1.0, 0.0], [0.3, 0.2], ("dgamma", "dgamma"),
                (np.linspace(0.2, 1.8, 9),)),
    "cylinder": ([1.0, 0.0, 1.0], [0.3, 0.2, 0.1], ("phi_u", "phi_v"),
                 (np.linspace(0.2, 1.8, 9), np.linspace(0.0, 1.5, 9))),
}


@pytest.mark.parametrize("shape", SHARED_JACOBIAN)
def test_flowed_manifold_shares_one_jacobian_per_node_set(shape, request,
                                                          monkeypatch):
    center, direction, partials, params = SHARED_JACOBIAN[shape]
    field = bump_field(np.array(center), 0.8, np.array(direction))
    base = request.getfixturevalue(shape)

    def make():
        return flow_manifold(field, base, FlowConfig(0.1, 10))

    calls = _counting_flows(monkeypatch)
    moved = make()
    calls.clear()
    got = [getattr(moved, name)(*params) for name in partials]
    assert calls == [9]
    # each derivative taken cold on its own flowed manifold agrees bit for bit
    for name, value in zip(partials, got):
        np.testing.assert_array_equal(value, getattr(make(), name)(*params))
    # a change in any parameter is a new node set
    calls.clear()
    shifted = params[:-1] + (params[-1] + 0.01,)
    getattr(moved, partials[-1])(*shifted)
    getattr(moved, partials[0])(shifted[0] + 0.01, *shifted[1:])
    assert calls == [9, 9]


@pytest.mark.parametrize("n_steps", [1, 7])
@pytest.mark.parametrize("kind", ["bump", "linear"])
def test_point_flow_is_the_point_part_of_the_joint_flow(kind, n_steps):
    from shapecalc.catalog import build_field

    if kind == "bump":
        field = bump_field(np.array([0.1, -0.2]), 1.5, np.array([0.4, -0.3]))
    else:
        field = build_field({"kind": "linear", "matrix": [[0.3, -1.0], [0.7, 0.2]],
                             "name": "lin"}, 2)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (11, 2))
    cfg = FlowConfig(0.3, n_steps)
    np.testing.assert_array_equal(flow_point(field, pts, cfg),
                                  flow_with_jacobian(field, pts, cfg)[0])


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
    cfg = FlowConfig(t_final)
    pts = np.array([[1.0, 0.5], [-0.25, 2.0], [0.0, -0.0]])
    moved = flow_point(field, pts, cfg)
    np.testing.assert_array_equal(moved, pts)
    assert moved is not pts
    np.testing.assert_array_equal(flow_point(field, pts[0], cfg), pts[0])
    x, J = flow_with_jacobian(field, pts, cfg)
    np.testing.assert_array_equal(x, pts)
    np.testing.assert_array_equal(J, np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert calls == []
