"""JSON catalog: building shapes, fields, functionals, and diagnostics."""

import numpy as np
import pytest

from shapecalc import catalog
from shapecalc.catalog import (
    FIELD_KINDS,
    FUNCTIONAL_KINDS,
    SHAPE_KINDS,
    build_field,
    build_shape,
    compatible,
    parse_field,
    parse_functional,
)
from shapecalc.errors import ConfigError
from shapecalc.fields import smooth_step, smooth_step_jet
from shapecalc.functionals import (
    area_functional,
    elastic_functional,
    length_functional,
)
from shapecalc.geometry import ParamCurve, ParamSurface


def test_kind_registries():
    assert set(SHAPE_KINDS) == {"arc", "circle", "cylinder", "ellipse", "helix", "segment"}
    assert set(FIELD_KINDS) == {"constant", "linear", "radial", "rotation"}
    assert set(FUNCTIONAL_KINDS) == {"area", "crack", "elastic", "length"}


def test_every_shape_kind_builds():
    descs = [
        {"kind": "circle", "radius": 1.5},
        {"kind": "ellipse", "a": 2.0, "b": 1.0},
        {"kind": "segment", "p0": [0.0, 1.0], "p1": [1.0, 1.0]},
        {"kind": "arc", "radius": 1.0, "angle0": 0.2, "angle1": 1.7},
        {"kind": "helix", "radius": 1.0, "pitch": 3.0, "turns": 2.0},
        {"kind": "cylinder", "radius": 0.5, "height": 1.0},
    ]
    built = [build_shape(d) for d in descs]
    assert all(isinstance(m, ParamCurve) for m in built[:5])
    assert isinstance(built[5], ParamSurface)
    assert built[0].closed and not built[2].closed
    assert built[4].dim == 3


def test_unknown_shape_kind():
    with pytest.raises(ConfigError, match="unknown kind 'torus'"):
        build_shape({"kind": "torus", "radius": 1.0})


def test_unknown_parameters_rejected():
    with pytest.raises(ConfigError,
                       match=r"^shape: unknown parameter\(s\) 'colour', 'size'$"):
        build_shape({"kind": "circle", "size": 1.0, "colour": "red"})


def test_shape_parameter_diagnostics():
    with pytest.raises(ConfigError, match="pitch"):
        build_shape({"kind": "helix"})
    with pytest.raises(ConfigError, match="radius"):
        build_shape({"kind": "circle", "radius": -1.0})
    with pytest.raises(ConfigError, match="coincide"):
        build_shape({"kind": "segment", "p0": [1.0, 0.0], "p1": [1.0, 0.0]})
    with pytest.raises(ConfigError):
        build_shape({"kind": "arc", "radius": 1.0, "angle0": 2.0, "angle1": 2.0})
    with pytest.raises(ConfigError):
        build_shape({"kind": "ellipse", "a": 0.0, "b": 1.0})


def test_field_dims():
    assert parse_field({"kind": "radial"}).dims == frozenset({2, 3})
    assert parse_field({"kind": "rotation"}).dims == frozenset({2})
    assert parse_field({"kind": "constant", "vector": [1.0, 0.0]}).dims == frozenset({2})
    assert parse_field(
        {"kind": "constant", "vector": [0.0, 0.0, 1.0]}
    ).dims == frozenset({3})


def test_field_dim_mismatch():
    with pytest.raises(ConfigError, match="dimension"):
        build_field({"kind": "constant", "vector": [1.0, 0.0]}, 3)
    with pytest.raises(ConfigError, match="dimension"):
        build_field({"kind": "rotation"}, 3)


def test_unknown_field_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_field({"kind": "vortex"})


def test_linear_field_matrix_validation():
    with pytest.raises(ConfigError):
        build_field({"kind": "linear", "matrix": [[1.0, 0.0]]}, 2)
    f = build_field({"kind": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]]}, 2)
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(f.X(pts), [[2.0, 0.0], [-1.0, 0.0]], rtol=1e-12)


def test_circle_and_arc_charts_match_their_reference_formulas():
    # the inline charts each kind carried before they shared one
    r, c = 1.5, np.array([0.3, -0.7])
    circle = build_shape({"kind": "circle", "radius": r, "center": c.tolist()})
    ts = np.linspace(circle.a, circle.b, 1000)
    th = ts / r
    np.testing.assert_array_equal(
        circle.gamma(ts), c + r * np.stack([np.cos(th), np.sin(th)], axis=-1))
    np.testing.assert_array_equal(
        circle.dgamma(ts), np.stack([-np.sin(th), np.cos(th)], axis=-1))
    np.testing.assert_array_equal(
        circle.ddgamma(ts), np.stack([-np.cos(th), -np.sin(th)], axis=-1) / r)
    r, a0 = 2.0, 0.4
    arc = build_shape({"kind": "arc", "radius": r, "angle0": a0, "angle1": 2.5})
    ts = np.linspace(arc.a, arc.b, 1000)
    th = a0 + ts / r
    np.testing.assert_array_equal(
        arc.gamma(ts), r * np.stack([np.cos(th), np.sin(th)], axis=-1))
    np.testing.assert_array_equal(
        arc.dgamma(ts), np.stack([-np.sin(th), np.cos(th)], axis=-1))
    np.testing.assert_array_equal(
        arc.ddgamma(ts), np.stack([-np.cos(th), -np.sin(th)], axis=-1) / r)


@pytest.mark.parametrize("reader, bad, wrong, null", [
    ("scalar", "x", "must be a number", "must be a number"),
    ("integer", 1.5, "must be an integer", "must be an integer"),
    ("boolean", 1, "must be a boolean", "must be a boolean"),
    ("vector", "x", "must be a vector of numbers",
     "must be a finite vector of length 2 or 3"),
    ("matrix", "x", "must be a matrix of numbers",
     "must be a finite square matrix of size 2 or 3"),
    ("string", 3, "must be a non-empty string", "must be a non-empty string"),
    ("sequence", 3, "must be a non-empty list", "must be a non-empty list"),
    ("mapping", 3, "must be a JSON object", "must be a JSON object"),
])
def test_param_reader_messages(reader, bad, wrong, null):
    def read(raw):
        with pytest.raises(ConfigError) as exc:
            getattr(catalog._Params(raw, "cfg"), reader)("k")
        return str(exc.value)

    assert read({}) == "cfg: missing required parameter 'k'"
    assert read({"k": bad}) == f"cfg: parameter 'k' {wrong}"
    # a null stands for "absent" only where the default is None
    assert read({"k": None}) == f"cfg: parameter 'k' {null}"


def test_functional_parsing_and_naming(crack_segment):
    shapes = {"crack_straight": crack_segment}
    for kind in ("length", "elastic", "area"):
        parsed = parse_functional({"kind": kind}, shapes)
        assert not hasattr(parsed, "crack")
        assert parsed.name == kind
    parsed = parse_functional(
        {
            "kind": "crack",
            "inner": "length",
            "crack": "crack_straight",
            "region_center": [0.0, 0.0],
            "region_radius": 3.0,
        },
        shapes,
    )
    assert parsed.crack is crack_segment
    assert parsed.name == "crack[length@crack_straight]"


def test_crack_functional_config_errors(crack_segment, cylinder):
    shapes = {"crack_straight": crack_segment, "cyl": cylinder}
    base = {
        "kind": "crack",
        "inner": "length",
        "region_center": [0.0, 0.0],
        "region_radius": 3.0,
    }
    with pytest.raises(ConfigError):
        parse_functional({**base, "crack": "missing"}, shapes)
    with pytest.raises(ConfigError):
        parse_functional({**base, "crack": "cyl"}, shapes)
    with pytest.raises(ConfigError):
        parse_functional({**base, "crack": "crack_straight", "inner": "bogus"}, shapes)
    with pytest.raises(ConfigError):
        parse_functional({"kind": "spectral"}, shapes)


def test_compatibility_matrix(circle1, ellipse21, helix1, segment01, cylinder):
    L, E, A = length_functional(), elastic_functional(), area_functional()
    assert compatible(L, circle1) and compatible(L, helix1) and compatible(L, segment01)
    assert not compatible(L, cylinder)
    # the bending first variation takes any planar chart, arc-length or not
    assert compatible(E, circle1) and compatible(E, segment01)
    assert compatible(E, ellipse21)
    assert not compatible(E, helix1)
    assert compatible(A, cylinder)
    assert not compatible(A, circle1)


def test_shape_names_default_and_custom():
    named = build_shape({"kind": "circle", "radius": 1.0, "name": "ring"})
    assert named.name == "ring"
    anon = build_shape({"kind": "circle", "radius": 1.0})
    assert anon.name


# the hold-all cutoff: the field kinds that _localized wraps, against the
# old whole-array formula (kept here as the reference)

LOCALIZED_KINDS = [
    ({"kind": "constant", "vector": [0.3, -1.0], "name": "c2"}, 2),
    ({"kind": "constant", "vector": [0.0, 0.0, 1.0], "name": "e3"}, 3),
    ({"kind": "radial", "name": "radial"}, 2),
    ({"kind": "radial", "name": "radial"}, 3),
    ({"kind": "rotation", "name": "rotation"}, 2),
    ({"kind": "rotation", "axis": [0.0, 0.0, 1.0], "name": "spin_z"}, 3),
    ({"kind": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]], "name": "shear"}, 2),
    ({"kind": "linear", "matrix": [[0.3, 1.0, 0.0], [-0.7, 0.2, 0.4],
                                   [0.1, -0.5, 0.6]], "name": "lin3"}, 3),
]


def _reference_localized(nominal_X, nominal_dX, pts):
    span = catalog.CUTOFF_OUTER - catalog.CUTOFF_INNER
    rr = np.linalg.norm(pts, axis=1)
    s = (rr - catalog.CUTOFF_INNER) / span
    w = smooth_step(s)
    dw = np.asarray(smooth_step_jet(s)[1], dtype=float) / span
    grad = np.zeros_like(pts)
    act = dw != 0.0
    if act.any():
        grad[act] = (dw[act] / rr[act])[:, None] * pts[act]
    X = w[:, None] * nominal_X(pts)
    dX = (w[:, None, None] * nominal_dX(pts)
          + nominal_X(pts)[:, :, None] * grad[:, None, :])
    return X, dX


def _cutoff_points(dim, rng):
    # inside the inner radius, in the transition shell and outside, plus
    # the two radii themselves
    inner, outer = catalog.CUTOFF_INNER, catalog.CUTOFF_OUTER
    radii = np.concatenate([
        rng.uniform(0.0, inner, 3000), rng.uniform(inner, outer, 3000),
        rng.uniform(outer, 12.0, 496),
        [0.0, inner, np.nextafter(inner, np.inf), outer, inner + 1e-12]])
    e = rng.standard_normal((len(radii), dim))
    e /= np.linalg.norm(e, axis=1)[:, None]
    return radii[:, None] * e


def _field_and_nominals(desc, dim, monkeypatch):
    """The built field and the (X, dX) nominal forms _localized wrapped."""
    nominals = []
    real = catalog._localized

    def spy(nominal_X, nominal_dX, *rest):
        nominals.append((nominal_X, nominal_dX))
        return real(nominal_X, nominal_dX, *rest)

    monkeypatch.setattr(catalog, "_localized", spy)
    field = build_field(desc, dim)
    (nominals,) = nominals
    return field, nominals


@pytest.mark.parametrize("desc,dim", LOCALIZED_KINDS,
                         ids=[f"{d['name']}-{k}" for d, k in LOCALIZED_KINDS])
def test_localized_cutoff_matches_whole_array_formula(desc, dim, monkeypatch):
    field, (nominal_X, nominal_dX) = _field_and_nominals(desc, dim, monkeypatch)
    pts = _cutoff_points(dim, np.random.default_rng(dim))
    ref_X, ref_dX = _reference_localized(nominal_X, nominal_dX, pts)
    X = field.X(pts)
    assert X.dtype == ref_X.dtype and X.shape == ref_X.shape
    assert X.tobytes() == ref_X.tobytes()
    # values equal; 1.0 * a + x * 0.0 used to turn some -0.0 into +0.0
    np.testing.assert_array_equal(field.dX(pts), ref_dX)
    # rows inside the inner radius are the nominal field itself
    inside = np.linalg.norm(pts, axis=1) <= catalog.CUTOFF_INNER
    np.testing.assert_array_equal(field.dX(pts[inside]), nominal_dX(pts[inside]))


def _norm_shell_localized(nominal_X, nominal_dX, dim):
    """_localized as it read when its shell test took the norm of every
    point (kept here as the reference)."""
    span = catalog.CUTOFF_OUTER - catalog.CUTOFF_INNER

    def shell_of(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rr = np.linalg.norm(pts, axis=1)
        shell = rr > catalog.CUTOFF_INNER
        return pts, rr[shell], shell

    def X(pts):
        pts, rr, shell = shell_of(pts)
        out = nominal_X(pts)
        if shell.any():
            w = smooth_step((rr - catalog.CUTOFF_INNER) / span)
            out[shell] = w[:, None] * out[shell]
        return out

    def dX(pts):
        pts, rr, shell = shell_of(pts)
        out = nominal_dX(pts)
        if shell.any():
            s = (rr - catalog.CUTOFF_INNER) / span
            w = smooth_step(s)
            dw = smooth_step_jet(s)[1] / span
            grad = np.zeros((len(rr), dim))
            act = dw != 0.0
            grad[act] = (dw[act] / rr[act])[:, None] * pts[shell][act]
            out[shell] = (w[:, None, None] * out[shell]
                          + nominal_X(pts)[shell][:, :, None] * grad[:, None, :])
        return out

    return X, dX


@pytest.mark.parametrize("desc,dim", LOCALIZED_KINDS,
                         ids=[f"{d['name']}-{k}" for d, k in LOCALIZED_KINDS])
def test_localized_shell_on_squares_is_bit_equal_to_the_norm_test(desc, dim,
                                                                  monkeypatch):
    field, nominals = _field_and_nominals(desc, dim, monkeypatch)
    ref_X, ref_dX = _norm_shell_localized(*nominals, dim)
    rng = np.random.default_rng(10 + dim)
    inner = catalog.CUTOFF_INNER
    # within 8 ulps of the inner radius, where |p|^2 rounds to either side
    # of 36 (and onto it), inside it, on it along an axis, and out to the
    # outer radius
    e = rng.standard_normal((6000, dim))
    e /= np.linalg.norm(e, axis=1)[:, None]
    radii = np.concatenate([
        inner * (1.0 + rng.integers(-8, 9, 4000) * np.finfo(float).eps),
        rng.uniform(0.0, inner, 1000),
        rng.uniform(inner, catalog.CUTOFF_OUTER, 1000)])
    pts = np.vstack([radii[:, None] * e, inner * np.eye(dim),
                     catalog.CUTOFF_OUTER * np.eye(dim)])
    r2 = (pts ** 2).sum(axis=1)
    assert (r2 > inner ** 2).sum() > 2000 and (r2 == inner ** 2).sum() > 50
    assert field.X(pts).tobytes() == ref_X(pts).tobytes()
    assert field.dX(pts).tobytes() == ref_dX(pts).tobytes()


# the second derivative D^2X[v, v] that a flowed curve's jet reads


def _d2X_by_differences(field, pts, v, h=1e-5):
    """Central difference of dX along v, applied to v."""
    plus = np.einsum("nij,nj->ni", field.dX(pts + h * v), v)
    minus = np.einsum("nij,nj->ni", field.dX(pts - h * v), v)
    return (plus - minus) / (2 * h)


@pytest.mark.parametrize("desc,dim", LOCALIZED_KINDS,
                         ids=[f"{d['name']}-{k}" for d, k in LOCALIZED_KINDS])
def test_localized_d2X_matches_differences_of_dX(desc, dim):
    # inside the inner radius, in the shell (6, 10) and outside, where the
    # cutoff's second-order product rule has all three terms to get right
    field = build_field(desc, dim)
    assert field.d2X is not None
    rng = np.random.default_rng(20 + dim)
    inner, outer = catalog.CUTOFF_INNER, catalog.CUTOFF_OUTER
    for lo, hi in ((0.5, inner), (inner, outer), (outer, 12.0)):
        e = rng.standard_normal((400, dim))
        e /= np.linalg.norm(e, axis=1)[:, None]
        pts = rng.uniform(lo, hi, 400)[:, None] * e
        if dim == 3:
            # keep the radial field's smoothed axis out of the difference
            pts = pts[np.linalg.norm(pts[:, :2], axis=1) > 0.3]
        v = rng.standard_normal(pts.shape)
        v /= np.linalg.norm(v, axis=1)[:, None]
        got = field.d2X(pts, v)
        want = _d2X_by_differences(field, pts, v)
        assert got.shape == pts.shape
        err = np.abs(got - want).max(axis=1) / (1.0 + np.abs(got).max(axis=1))
        assert err.max() <= 1e-8
        if lo >= outer:
            np.testing.assert_array_equal(got, 0.0)
        elif hi <= inner and desc["kind"] != "radial":
            # constant and linear fields: 0 inside the cutoff
            np.testing.assert_array_equal(got, 0.0)


def _corrupted(field, d2X):
    from shapecalc.fields import AmbientField

    return AmbientField(dim=field.dim, X=field.X, dX=field.dX,
                        support=field.support, name="corrupt", d2X=d2X)


def _radial_nominal_d2X(dim, monkeypatch):
    captured = []
    real = catalog._localized

    def spy(nominal_X, nominal_dX, d, name, nominal_d2X=None):
        captured.append(nominal_d2X)
        return real(nominal_X, nominal_dX, d, name, nominal_d2X)

    monkeypatch.setattr(catalog, "_localized", spy)
    field = build_field({"kind": "radial", "name": "radial"}, dim)
    monkeypatch.undo()
    (nominal,) = captured
    return field, nominal


@pytest.mark.parametrize("dim", [2, 3])
def test_corrupted_d2X_is_rejected_at_construction(dim, monkeypatch):
    from shapecalc.errors import InvariantViolation

    radial, nominal = _radial_nominal_d2X(dim, monkeypatch)
    const = build_field({"kind": "constant", "vector": [1.0] * dim, "name": "c"}, dim)
    bad = {
        # the cutoff shell's product-rule terms dropped
        "radial without its shell term": (radial, nominal),
        "constant without its shell term": (const, lambda p, v: np.zeros_like(p)),
        # scaled by 1 + 1e-5: the check holds 1e-6 of 1 + |d2X| per point
        "radial scaled": (radial, lambda p, v: (1.0 + 1e-5) * radial.d2X(p, v)),
    }
    for label, (field, d2X) in bad.items():
        with pytest.raises(InvariantViolation,
                           match=r"field 'corrupt': d2X disagrees with finite "
                                 r"differences"):
            _corrupted(field, d2X)
    # the intact closed forms pass the same check
    _corrupted(radial, radial.d2X)
    _corrupted(const, const.d2X)
