"""Shape functionals on curves and surfaces with closed-form first variations.

Sign conventions inherited from the geometry module (planar N = 90-degree
CCW rotation of T, signed planar curvature, surface N = phi_u x phi_v,
outward unit conormals on the boundary) pin every formula below; each
global sign was fixed by matching a finite-difference derivative on
circle / segment / cylinder model cases:

  d length(X)  = -int kappa (X.N) ds + (X.T)(b) - (X.T)(a)
               =  int T.(dX T) ds                       (Jacobian form)
  d area(X)    =  int H (X.N) dA + sum_sides int (X.nu) |phi_v| dv
  d elastic(X) =  int (2 kappa'' + kappa^3)(X.N) ds
                 + [kappa^2 (X.T) + 2 kappa d/ds(X.N) - 2 kappa' (X.N)]_a^b

with the brackets dropped on closed curves.

Each functional also has a discrete first variation (DV): the exact
t-derivative at t = 0 of its own quadrature on a manifold transported by
the flow of X.  To first order in t the flow moves the chart by X o chart
and each first partial p by eta = dX(chart) p, and the flowed curve's
second derivative is the 5-point stencil of its first
(flow.curve_stencil), so DV needs X, dX and that stencil, and no flow:

  DV length(X)  = sum_w T.eta                      (eta = dX gamma')
  DV area(X)    = sum_W n.(eta_u x phi_v + phi_u x eta_v) / |n|,
                  n = phi_u x phi_v
  DV elastic(X) = sum_w [2 c.(eta x gamma'' + gamma' x eta'') / |gamma'|^5
                         - 5 |c|^2 (gamma'.eta) / |gamma'|^7],
                  c = gamma' x gamma''

on the nodes and weights of length, surface_area and bending_energy, with
gamma'' and eta'' the curve_stencil of gamma' and eta.  The FD oracle in
`derivative` extrapolates toward the same number; |FD - DV| is the
oracle's own error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CrackNotInterior, InvariantViolation
from .fields import AmbientField, Ball
from .flow import curve_stencil
from .geometry import (ParamCurve, ParamSurface, _cross, curvature,
                       curve_curvature_derivs, frenet_rows, gauss_legendre,
                       integrate_curve, integrate_surface,
                       surface_mean_curvature, surface_nodes)

# default quadrature resolution: fine enough that sharply modulated probe
# fields (compactly supported bumps) are integrated well below the
# comparison tolerances
CURVE_PANELS = 512
SURFACE_PANELS = (8, 24)
SIDE_PANELS = 64


@dataclass(frozen=True)
class ShapeFunctional:
    """A real-valued functional of a parametric manifold.

    evaluate must be reparametrization-invariant; discrete_derivative
    returns the discrete first variation of evaluate's quadrature along an
    ambient field (see the module docstring), and analytic_derivative, when
    present, the closed-form first variation.
    """

    name: str
    evaluate: Callable[[object], float]
    discrete_derivative: Callable[[object, AmbientField], float]
    analytic_derivative: Optional[Callable[[object, AmbientField], float]] = None


def _eta(X: AmbientField, chart, partials, params) -> list[np.ndarray]:
    """dX(chart) p for each first partial p: the t-derivative at t = 0 of
    the partials of the chart flowed by X."""
    J = X.dX(chart(*params))
    return [np.einsum("nij,nj->ni", J, p(*params)) for p in partials]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


# ---------------------------------------------------------------------------
# length


def length(curve: ParamCurve) -> float:
    """Arc length by composite Gauss-Legendre quadrature on CURVE_PANELS."""
    return integrate_curve(curve, lambda ts: np.ones_like(ts), panels=CURVE_PANELS)


def length_density(curve: ParamCurve, X: AmbientField):
    """ts -> -kappa (X.N): the interior density of the length variation
    against the arc measure.  kappa N is the curvature vector, 0 where a
    space curve is straight and its Frenet N does not exist."""
    def density(ts):
        fr, _ = frenet_rows(curve, ts)
        xv = X.X(curve.gamma(ts))
        return -fr.kappa * np.einsum("ij,ij->i", xv, fr.N)

    return density


def analytic_dlength(curve: ParamCurve, X: AmbientField) -> float:
    """First variation of arc length along X: the curvature density plus,
    on an open curve, X against the outward unit conormal at both ends."""
    total = integrate_curve(curve, length_density(curve, X), panels=CURVE_PANELS)
    if not curve.closed:
        for t in (curve.b, curve.a):
            xv = X.X(curve.chart(t))[0]
            total += float(xv @ curve.conormal_extension(t)[0])
    return total


def discrete_dlength(curve: ParamCurve, X: AmbientField) -> float:
    """DV of length: sum_w T.(dX gamma'), the Jacobian form int T.(dX T) ds
    on length's nodes.  It needs no frame."""
    nodes, wts = gauss_legendre(curve.a, curve.b, CURVE_PANELS)
    d1 = curve.dgamma(nodes)
    (eta,) = _eta(X, curve.gamma, (curve.dgamma,), (nodes,))
    return float(np.sum(wts * _dot(d1, eta) / np.linalg.norm(d1, axis=1)))


# ---------------------------------------------------------------------------
# surface area


def surface_area(surf: ParamSurface) -> float:
    """Area by composite Gauss-Legendre quadrature of |phi_u x phi_v| on
    SURFACE_PANELS."""
    return integrate_surface(surf, lambda us, vs: np.ones_like(us),
                             panels=SURFACE_PANELS)


def discrete_darea(surf: ParamSurface, X: AmbientField) -> float:
    """DV of surface_area: the t-derivative of |phi_u x phi_v| summed with
    surface_area's weights."""
    uu, vv, W = surface_nodes(surf, SURFACE_PANELS)
    pu, pv = surf.phi_u(uu, vv), surf.phi_v(uu, vv)
    eu, ev = _eta(X, surf.phi, (surf.phi_u, surf.phi_v), (uu, vv))
    n = np.cross(pu, pv)
    dn = np.cross(eu, pv) + np.cross(pu, ev)
    return float(np.sum(W * _dot(n, dn) / np.linalg.norm(n, axis=1)))


def _side_flux(surf: ParamSurface, X: AmbientField, end: str) -> float:
    # int_c^d (X . nu_out)(phi(u0, v)) |phi_v(u0, v)| dv on one u-side
    vn, wts = gauss_legendre(surf.c, surf.d, SIDE_PANELS)
    u0 = surf.a if end == "a" else surf.b
    us = np.full_like(vn, u0)
    # the conormal extension is the outward unit conormal on the u-sides
    nu = surf.conormal_extension((us, vn))
    pv = surf.phi_v(us, vn)
    xv = X.X(surf.phi(us, vn))
    vals = np.einsum("ij,ij->i", xv, nu) * np.linalg.norm(pv, axis=1)
    return float(np.sum(wts * vals))


def analytic_darea(surf: ParamSurface, X: AmbientField) -> float:
    """First variation of area: mean-curvature interior term plus outward
    flux through the u-side boundary circles."""

    def density(us, vs):
        H = surface_mean_curvature(surf, (us, vs))
        N = surf.unit_normal((us, vs))
        xv = X.X(surf.phi(us, vs))
        return H * np.einsum("ij,ij->i", xv, N)

    total = integrate_surface(surf, density, panels=SURFACE_PANELS)
    return total + (_side_flux(surf, X, "b") + _side_flux(surf, X, "a"))


# ---------------------------------------------------------------------------
# elastic (bending) energy


def bending_energy(curve: ParamCurve) -> float:
    """int kappa^2 ds in any regular parametrization, on CURVE_PANELS."""
    return integrate_curve(curve, lambda ts: curvature(curve, ts) ** 2,
                           panels=CURVE_PANELS)


def discrete_delastic(curve: ParamCurve, X: AmbientField) -> float:
    """DV of bending_energy, whose integrand is |c|^2 / |gamma'|^5 with
    c = gamma' x gamma''.  gamma'' and eta'' are the flow.curve_stencil of
    gamma' and eta, so gamma'' is that of the oracle's t = 0 curve."""
    nodes, wts = gauss_legendre(curve.a, curve.b, CURVE_PANELS)

    def eta(ts):
        return _eta(X, curve.gamma, (curve.dgamma,), (ts,))[0]

    d1, e1 = curve.dgamma(nodes), eta(nodes)
    d2 = curve_stencil(X, curve, curve.dgamma, nodes)
    e2 = curve_stencil(X, curve, eta, nodes)
    c = _cross(d1, d2)
    dc = _cross(e1, d2) + _cross(d1, e2)
    v2 = _dot(d1, d1)
    return float(np.sum(wts * (2.0 * _dot(c, dc) / v2**2.5
                               - 5.0 * _dot(c, c) * _dot(d1, e1) / v2**3.5)))


def analytic_delastic(curve: ParamCurve, X: AmbientField) -> float:
    """First variation of int kappa^2 ds for planar curves in any regular
    parametrization: primes are arc-length derivatives (the chain rule of
    curve_curvature_derivs) and the integral is taken against ds.

    Interior density (2 kappa'' + kappa^3)(X.N); open ends add
    kappa^2 (X.T) + 2 kappa d/ds(X.N) - 2 kappa' (X.N), where d/ds(X.N)
    expands to (dX T).N - kappa (X.T) since dN/ds = -kappa T.
    """
    if curve.dim != 2:
        raise InvariantViolation(
            "elastic first variation is implemented for planar curves"
        )

    def density(ts):
        fr, _ = frenet_rows(curve, ts)
        _, _, k2 = curve_curvature_derivs(curve, ts)
        xv = X.X(curve.gamma(ts))
        return (2.0 * k2 + fr.kappa**3) * np.einsum("ij,ij->i", xv, fr.N)

    total = integrate_curve(curve, density, panels=CURVE_PANELS)
    if curve.closed:
        return total
    for t, sgn in ((curve.b, 1.0), (curve.a, -1.0)):
        fr, _ = frenet_rows(curve, t)
        T, N = fr.T[0], fr.N[0]
        k, k1, _ = curve_curvature_derivs(curve, t)
        k, k1 = float(k[0]), float(k1[0])
        p = curve.chart(t)
        xv = X.X(p)[0]
        dxv = X.dX(p)[0]
        x_t = float(xv @ T)
        x_n = float(xv @ N)
        dxn_ds = float((dxv @ T) @ N) - k * x_t
        total += sgn * (k**2 * x_t + 2.0 * k * dxn_ds - 2.0 * k1 * x_n)
    return total


# ---------------------------------------------------------------------------
# functional objects and the cracked-set wrapper


def length_functional() -> ShapeFunctional:
    return ShapeFunctional("length", length, discrete_dlength, analytic_dlength)


def area_functional() -> ShapeFunctional:
    return ShapeFunctional("area", surface_area, discrete_darea, analytic_darea)


def elastic_functional() -> ShapeFunctional:
    # value, DV and closed form all take any regular planar chart, flowed
    # ones included
    return ShapeFunctional("elastic", bending_energy, discrete_delastic,
                           analytic_delastic)


@dataclass(frozen=True)
class CrackFunctional:
    """Functional of a cracked set Omega \\ Sigma, driven entirely by the
    crack Sigma: the complement's geometry is fixed, so evaluation and
    both first variations delegate to the inner curve functional.

    `crack` is the curve Sigma the functional was built around, and
    `margin` the clearance between it and the region boundary at
    construction; probe fields must fit inside it.
    """

    name: str
    crack: ParamCurve
    inner: ShapeFunctional
    margin: float
    evaluate: Callable[[object], float] = field(init=False)
    analytic_derivative: Optional[Callable] = field(init=False)
    discrete_derivative: Callable = field(init=False)

    def __post_init__(self):
        for name in ("evaluate", "analytic_derivative", "discrete_derivative"):
            object.__setattr__(self, name, getattr(self.inner, name))

    def require_probe(self, radius: float):
        """Probe balls of this radius must stay inside the region."""
        if radius >= self.margin:
            raise CrackNotInterior(
                f"probe radius {radius:g} reaches the region boundary "
                f"(clearance {self.margin:g})"
            )


def crack_functional(region: Ball, crack: ParamCurve,
                     inner: ShapeFunctional | None = None) -> CrackFunctional:
    """Wrap a curve functional as a functional of the set region \\ crack.

    The crack must sit strictly inside the region; CrackNotInterior
    otherwise.
    """
    if inner is None:
        inner = length_functional()
    dmax = float(np.linalg.norm(crack._grid_points - region.center, axis=1).max())
    margin = region.radius - dmax
    if margin <= 0.0:
        raise CrackNotInterior(
            f"crack '{crack.name}' is not strictly inside the region "
            f"(max point distance {dmax:g} vs radius {region.radius:g})"
        )
    return CrackFunctional(name=f"crack[{inner.name}@{crack.name}]",
                           crack=crack, inner=inner, margin=margin)
