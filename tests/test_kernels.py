"""Row kernels without short-axis reductions keep the bits of the forms
they replace: _row_dot and _row_norm against np.sum and np.linalg.norm,
the planar stage products against einsum, and the catalog's radial,
linear and constant fields against their nominal forms and cutoff product
rule as written with reductions and broadcasts."""

import numpy as np
import pytest

from shapecalc.catalog import CUTOFF_INNER, CUTOFF_OUTER, RADIAL_EPS, build_field
from shapecalc.fields import smooth_step, smooth_step_jet
from shapecalc.flow import _row_products
from shapecalc.geometry import _row_dot, _row_norm

SIZES = (1, 7, 2560)


def _rows(rng, n, d):
    # entries over ten decades, so that the sums round
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 5, size=(n, 1))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", (2, 3))
def test_row_norm_and_dot_are_the_reductions_bit_for_bit(n, d):
    rng = np.random.default_rng(10 * n + d)
    for _ in range(5):
        x, y = _rows(rng, n, d), _rows(rng, n, d)
        np.testing.assert_array_equal(_row_norm(x), np.linalg.norm(x, axis=1))
        np.testing.assert_array_equal(_row_dot(x, y), np.sum(x * y, axis=1))
        # a complex step's rows: sqrt of the unconjugated x.x
        z = x + 1j * 1e-20 * _rows(rng, n, d)
        np.testing.assert_array_equal(_row_norm(z), np.sqrt(np.sum(z * z, axis=1)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", (2, 3))
def test_row_products_are_einsum_bit_for_bit(n, d):
    rng = np.random.default_rng(20 * n + d)
    D, v, a = rng.normal(size=(n, d, d)), _rows(rng, n, d), _rows(rng, n, d)
    Dv, Da = _row_products(D, v, a)
    np.testing.assert_array_equal(Dv, np.einsum("nij,nj->ni", D, v))
    np.testing.assert_array_equal(Da, np.einsum("nij,nj->ni", D, a))
    (Dv1,) = _row_products(D, v)
    np.testing.assert_array_equal(Dv1, Dv)


def test_planar_products_of_negative_zeros_read_positive_zero():
    # einsum starts from +0.0, so a row whose two products are -0.0 (a
    # segment's gamma'' of zeros against a Jacobian row of negatives) sums
    # to +0.0; array_equal cannot see the sign, signbit can
    D = np.array([[[-1.0, -2.0], [3.0, -4.0]]])
    zeros = np.zeros((1, 2))
    ref = np.einsum("nij,nj->ni", D, zeros)
    (got,) = _row_products(D, zeros)
    assert not np.signbit(ref).any()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


# -- the catalog fields against their forms with reductions --------------------


def _nominal(desc, dim):
    """(X, dX, d2X) of a catalog field's nominal form, with its row sums
    taken by np.sum over the short axis and dX broadcast."""
    if desc["kind"] == "radial":
        proj = np.eye(dim)
        if dim == 3:
            proj[2, 2] = 0.0

        def X(p):
            q = p @ proj
            return q / np.sqrt((q * q).sum(axis=1) + RADIAL_EPS**2)[:, None]

        def dX(p):
            q = p @ proj
            rho = np.sqrt((q * q).sum(axis=1) + RADIAL_EPS**2)
            return (proj[None, :, :] / rho[:, None, None]
                    - q[:, :, None] * q[:, None, :] / rho[:, None, None]**3)

        def d2X(p, v):
            q, w = p @ proj, v @ proj
            rho2 = (q * q).sum(axis=1) + RADIAL_EPS**2
            rho3 = rho2 * np.sqrt(rho2)
            qw = (q * w).sum(axis=1)
            along_q = (3.0 * qw * qw / rho2 - (w * w).sum(axis=1)) / rho3
            return (-2.0 * qw / rho3)[:, None] * w + along_q[:, None] * q

        return X, dX, d2X
    if desc["kind"] == "linear":
        A = np.asarray(desc["matrix"], dtype=float)
        return (lambda p: p @ A.T,
                lambda p: np.broadcast_to(A, (len(p), dim, dim)).copy(),
                lambda p, v: np.zeros_like(p))
    vec = np.asarray(desc["vector"], dtype=float)
    return (lambda p: np.broadcast_to(vec, (len(p), dim)).copy(),
            lambda p: np.zeros((len(p), dim, dim)),
            lambda p, v: np.zeros_like(p))


def _reference(desc, dim, pts, v):
    """(X, dX, d2X) of the cut-off field at pts: the nominal form, times
    the cutoff with its product rules on the rows past CUTOFF_INNER."""
    NX, NdX, Nd2X = _nominal(desc, dim)
    x, dx, d2x = NX(pts), NdX(pts), Nd2X(pts, v)
    shell = (pts * pts).sum(axis=1) > CUTOFF_INNER**2
    if not shell.any():
        return x, dx, d2x
    span = CUTOFF_OUTER - CUTOFF_INNER
    p, vs = pts[shell], v[shell]
    rr = np.linalg.norm(p, axis=1)
    w, dw, d2w = smooth_step_jet((rr - CUTOFF_INNER) / span)
    dw, d2w = dw / span, d2w / (span * span)
    grad = np.zeros((len(rr), dim))
    act = dw != 0.0
    grad[act] = (dw[act] / rr[act])[:, None] * p[act]
    xs, dxs = x[shell], dx[shell]
    pv = np.einsum("ij,ij->i", p, vs) / rr
    gv = dw * pv
    hvv = d2w * pv * pv + dw * (np.einsum("ij,ij->i", vs, vs) - pv * pv) / rr
    DNv = np.einsum("nij,nj->ni", dxs, vs)
    d2x[shell] = (w[:, None] * d2x[shell] + (2.0 * gv)[:, None] * DNv
                  + hvv[:, None] * xs)
    x[shell] = w[:, None] * xs
    dx[shell] = w[:, None, None] * dxs + xs[:, :, None] * grad[:, None, :]
    np.testing.assert_array_equal(
        x[shell], smooth_step((rr - CUTOFF_INNER) / span)[:, None] * xs)
    return x, dx, d2x


FIELDS = [({"kind": "radial", "name": "radial"}, 2),
          ({"kind": "radial", "name": "radial"}, 3),
          ({"kind": "linear", "matrix": [[0.3, 1.0], [-0.7, 0.2]], "name": "lin"}, 2),
          ({"kind": "linear", "matrix": [[0.3, 1.0, 0.0], [-0.7, 0.2, 0.4],
                                         [0.1, -0.5, 0.6]], "name": "lin"}, 3),
          ({"kind": "constant", "vector": [1.0, -0.5], "name": "c"}, 2),
          ({"kind": "constant", "vector": [0.0, 0.3, 1.0], "name": "c"}, 3)]


@pytest.mark.parametrize("desc, dim", FIELDS,
                         ids=[f"{d['kind']}{dim}" for d, dim in FIELDS])
def test_catalog_fields_keep_their_bits_in_and_out_of_the_shell(desc, dim):
    F = build_field(desc, dim)
    rng = np.random.default_rng(dim)
    dirs = rng.normal(size=(2560, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # radii inside the cutoff, in its shell and past it, and an
    # all-interior batch (every node of the bundled shapes)
    mixed = dirs * rng.uniform(0.0, 1.2 * CUTOFF_OUTER, 2560)[:, None]
    inner = dirs * rng.uniform(0.0, CUTOFF_INNER, 2560)[:, None]
    r2 = (mixed * mixed).sum(axis=1)
    assert (r2 < CUTOFF_INNER**2).any() and (r2 > CUTOFF_OUTER**2).any()
    assert ((r2 > CUTOFF_INNER**2) & (r2 < CUTOFF_OUTER**2)).any()
    for pts in (mixed, inner):
        v = rng.normal(size=pts.shape)
        want = _reference(desc, dim, pts, v)
        jX, jdX = F.jet(pts)
        for got, ref in zip((F.X(pts), F.dX(pts), F.d2X(pts, v)), want):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(jX, want[0])
        np.testing.assert_array_equal(jdX, want[1])
