"""Shared fixtures for the test suite.

Shapes and fields are built through the JSON catalog so the tests exercise
the same constructors the CLI uses.  Everything is session scoped: the
geometry objects are immutable and their construction-time self checks are
not free.
"""

import numpy as np
import pytest

from shapecalc.catalog import build_field, build_shape
from shapecalc.derivative import FDConfig
from shapecalc.fields import fd_jacobian
from shapecalc.geometry import ParamSurface

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def circle1():
    return build_shape({"kind": "circle", "radius": 1.0, "name": "circle1"})


@pytest.fixture(scope="session")
def circle2():
    return build_shape({"kind": "circle", "radius": 2.0, "name": "circle2"})


@pytest.fixture(scope="session")
def ellipse21():
    return build_shape({"kind": "ellipse", "a": 2.0, "b": 1.0, "name": "ellipse21"})


@pytest.fixture(scope="session")
def segment01():
    # unit-length straight segment kept away from the origin, where the
    # smoothed radial catalog field varies on a tiny scale
    return build_shape(
        {"kind": "segment", "p0": [0.5, 0.0], "p1": [1.5, 0.0], "name": "segment01"}
    )


@pytest.fixture(scope="session")
def crack_segment():
    return build_shape(
        {"kind": "segment", "p0": [-1.0, 0.0], "p1": [1.0, 0.0], "name": "crack_straight"}
    )


@pytest.fixture(scope="session")
def crack_arc():
    return build_shape(
        {
            "kind": "arc",
            "radius": 2.0,
            "angle0": np.pi + 0.5,
            "angle1": TWO_PI - 0.5,
            "name": "crack_arc",
        }
    )


@pytest.fixture(scope="session")
def helix1():
    return build_shape(
        {"kind": "helix", "radius": 1.0, "pitch": TWO_PI, "turns": 1.0, "name": "helix1"}
    )


@pytest.fixture(scope="session")
def cylinder():
    return build_shape(
        {"kind": "cylinder", "radius": 1.0, "height": 2.0, "name": "cylinder"}
    )


@pytest.fixture(scope="session")
def catenoid():
    # (cosh u cos v, cosh u sin v, u): a minimal surface (H = 0, every point
    # a saddle) with principal curvatures +-1/cosh^2 u, so |kappa| peaks at
    # 1 on u = 0; it closes in v and has no foot hook, so it cannot be
    # projected
    return ParamSurface(
        a=-0.5, b=0.5, c=0.0, d=TWO_PI,
        phi=lambda u, v: np.stack(
            [np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u], axis=-1),
        phi_u=lambda u, v: np.stack(
            [np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), np.ones_like(u)],
            axis=-1),
        phi_v=lambda u, v: np.stack(
            [-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), np.zeros_like(u)],
            axis=-1),
        name="catenoid",
    )


@pytest.fixture(scope="session")
def radial2():
    return build_field({"kind": "radial", "name": "radial"}, 2)


@pytest.fixture(scope="session")
def rotation2():
    return build_field({"kind": "rotation", "name": "rotation"}, 2)


@pytest.fixture(scope="session")
def e1_field():
    return build_field({"kind": "constant", "vector": [1.0, 0.0], "name": "e1"}, 2)


@pytest.fixture(scope="session")
def identity2():
    return build_field(
        {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]], "name": "identity"}, 2
    )


@pytest.fixture(scope="session")
def shear2():
    return build_field(
        {"kind": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]], "name": "shear"}, 2
    )


@pytest.fixture(scope="session")
def radial3():
    return build_field({"kind": "radial", "name": "radial"}, 3)


@pytest.fixture(scope="session")
def e3_field():
    return build_field(
        {"kind": "constant", "vector": [0.0, 0.0, 1.0], "name": "e3"}, 3
    )


@pytest.fixture(scope="session")
def stretch_z():
    return build_field(
        {
            "kind": "linear",
            "matrix": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            "name": "stretch_z",
        },
        3,
    )


@pytest.fixture(scope="session")
def fd5():
    # five halving levels keep the Richardson tail long enough to settle the
    # noisier probe-field derivatives
    return FDConfig(t0=1e-2, levels=5)


@pytest.fixture(scope="session")
def tube_points():
    """make(M, radius, n, seed) -> (n, dim) points at signed distances up
    to `radius` from a curve along its normal directions; the first four sit
    just inside the cutoff, at 0.97 to 0.995 of `radius`."""

    def make(M, radius, n=24, seed=0):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(M.a, M.b, n)
        d1 = np.asarray(M.dgamma(ts), dtype=float)
        T = d1 / np.linalg.norm(d1, axis=1)[:, None]
        if M.dim == 2:
            nrm = np.stack([-T[:, 1], T[:, 0]], axis=-1)
        else:
            e = rng.normal(size=(n, 3))
            e -= T * np.einsum("ij,ij->i", e, T)[:, None]
            nrm = e / np.linalg.norm(e, axis=1)[:, None]
        frac = rng.uniform(-0.95, 0.95, n)
        frac[:4] = [0.97, -0.98, 0.99, -0.995]
        return np.asarray(M.gamma(ts), dtype=float) + (frac * radius)[:, None] * nrm

    return make


@pytest.fixture
def projection_calls(monkeypatch):
    """List that gains one entry per nearest_curve_param call."""
    from shapecalc import geometry

    calls = []
    real = geometry.nearest_curve_param

    def counted(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[1])))
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "nearest_curve_param", counted)
    return calls


@pytest.fixture(scope="session")
def linear_field():
    """dim -> a linear field with normal, tangential and conormal parts on
    every test curve."""
    matrices = {2: [[0.3, 1.0], [-0.7, 0.2]],
                3: [[0.3, 1.0, 0.0], [-0.7, 0.2, 0.4], [0.1, -0.5, 0.6]]}
    return lambda dim: build_field(
        {"kind": "linear", "matrix": matrices[dim], "name": "lin"}, dim)


@pytest.fixture(scope="session")
def assert_fd_jacobian():
    """check(F, pts): F.dX matches central differences of F.X to 1e-6
    relative to the largest Jacobian entry."""

    def check(F, pts):
        got = F.dX(pts)
        ref = fd_jacobian(F.X, F.dim, 1e-6)(pts)
        scale = 1.0 + np.abs(got).max()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6 * scale)

    return check
