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

Each closed form is the paper's structure theorem: a kernel that depends
on M alone, paired with the normal trace X.N on M and with the traces of
X on the boundary (Hadamard-Zolesio is the interior case; Delfour &
Zolesio, Shapes and Geometries, ch. 9).  length_kernel, area_kernel and
elastic_kernel hold weights, measure, density g (-kappa, H or
2 kappa'' + kappa^3), N and the chart at the nodes, and the boundary data
of the end terms, each in a one-entry memo keyed on the identity of M
(which it holds, so no other manifold takes its id): `cli` runs every
field of a shape before the next shape, so each is built once per (J, M).
The pairing sums wts * (g * (X.N)) * measure, then adds the end terms at
b before those at a (the side fluxes, each a float sum, b before a), as
one quadrature of the density g (X.N) does: folding wts * g * measure
into one array ahead of time would move bits.

Each functional is one quadrature, sum_w density * measure on the nodes
of CURVE_PANELS or SURFACE_PANELS: density 1 (length, area) or kappa^2
(bending energy, geometry.curvature) against |gamma'| or |phi_u x phi_v|.
Its discrete first variation (DV) is the exact t-derivative at t = 0 of
that sum on M flowed by X, whose jets are to first order gamma' + t eta
and gamma'' + t eta'' (eta = dX(gamma) gamma'; gamma'', eta'' the 5-point
flow.curve_stencil of gamma', eta), or phi_u + t eta_u and phi_v + t eta_v.
DV is the complex step Im J(jets at t = ih) / h: it takes no difference,
so h = IM_STEP = 1e-200 sits far below roundoff and DV is exact to it.
The sums are complex-safe: no abs or np.linalg.norm of a jet
(geometry._row_norm is sqrt of the unconjugated x.x), no comparison on a
jet value, and no float cast on the stepped path.  The FD oracle in
`derivative` extrapolates toward the same number; |FD - DV| is the
oracle's own error.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import CrackNotInterior, InvariantViolation, NonFinite
from .fields import AmbientField, Ball, last_call_memo
from .flow import curve_stencil
from .geometry import (ParamCurve, ParamSurface, _row_norm, curvature,
                       curve_curvature_derivs, frenet_rows, gauss_legendre,
                       integrate_curve, integrate_surface,
                       surface_mean_curvature, surface_nodes)

# default quadrature resolution: fine enough that sharply modulated probe
# fields (compactly supported bumps) are integrated well below the
# comparison tolerances
CURVE_PANELS = 512
SURFACE_PANELS = (8, 24)
SIDE_PANELS = 64
# h of the complex step DV = Im J(jets at t = ih) / h
IM_STEP = 1e-200


@dataclass(frozen=True)
class ShapeFunctional:
    """A real-valued functional of a parametric manifold.

    evaluate must be reparametrization-invariant; discrete_derivative
    returns the discrete first variation of evaluate's quadrature along an
    ambient field (the complex step of the module docstring for the
    built-in functionals), and analytic_derivative, when present, the
    closed-form first variation.  order is the highest derivative of the
    chart that evaluate reads: 1 for gamma' or phi_u and phi_v, 2 for
    gamma'' (flow.flow_manifold).
    """

    name: str
    evaluate: Callable[[object], float]
    discrete_derivative: Callable[[object, AmbientField], float]
    analytic_derivative: Optional[Callable[[object, AmbientField], float]] = None
    order: int = 1


def _eta(X: AmbientField, chart, partials, params) -> list[np.ndarray]:
    """dX(chart) p for each first partial p: the t-derivative at t = 0 of
    the partials of the chart flowed by X."""
    J = X.dX(chart(*params))
    return [np.einsum("nij,nj->ni", J, p(*params)) for p in partials]


def stepped_curve(curve: ParamCurve, X: AmbientField, step) -> ParamCurve:
    """curve with the jets its quadratures read stepped along X (see the
    module docstring): at step = ih, curve flowed by X for the time ih."""
    def eta(ts):
        return _eta(X, curve.gamma, (curve.dgamma,), (ts,))[0]

    def ddgamma(ts):
        return (curve_stencil(X, curve, curve.dgamma, ts)
                + step * curve_stencil(X, curve, eta, ts))

    # bending energy reads gamma' twice on the same nodes
    dgamma = last_call_memo(lambda ts: curve.dgamma(ts) + step * eta(ts))
    return replace(curve, dgamma=dgamma, ddgamma=ddgamma, base=curve,
                   foot=None, jets=None, name=f"{curve.name}@{X.name}:{step:g}")


def stepped_surface(surf: ParamSurface, X: AmbientField, step) -> ParamSurface:
    """surf with phi_u, phi_v stepped along X, as stepped_curve."""
    etas = last_call_memo(lambda us, vs: _eta(
        X, surf.phi, (surf.phi_u, surf.phi_v), (us, vs)))
    return replace(
        surf, phi_u=lambda us, vs: surf.phi_u(us, vs) + step * etas(us, vs)[0],
        phi_v=lambda us, vs: surf.phi_v(us, vs) + step * etas(us, vs)[1],
        base=surf, foot=None, name=f"{surf.name}@{X.name}:{step:g}")


def complex_step(evaluate, stepped):
    """The DV of evaluate: Im evaluate(stepped(M, X, ih)) / h."""
    def discrete_derivative(M, X: AmbientField) -> float:
        return evaluate(stepped(M, X, 1j * IM_STEP)).imag / IM_STEP

    return discrete_derivative


# ---------------------------------------------------------------------------
# structure-theorem kernels


@dataclass(frozen=True)
class Kernel:
    """The half of a closed form that does not depend on X: a density g
    against the unit normal N at the quadrature points pts, with weights
    wts and measure (|gamma'| or |phi_u x phi_v|), and the closed form's
    own boundary data `ends`, in the order its terms are added."""

    wts: np.ndarray
    measure: np.ndarray
    g: np.ndarray
    N: np.ndarray
    pts: np.ndarray
    ends: tuple


def _memo_on_identity(build):
    """build(M) with a one-entry memo keyed on the identity of M, which the
    entry holds, so that no other manifold takes its id meanwhile."""
    last = [(None, None)]

    def kernel(M) -> Kernel:
        held, value = last[0]
        if held is not M:
            value = build(M)
            last[0] = (M, value)
        return value

    return kernel


def _interior(k: Kernel, M, X: AmbientField) -> float:
    """sum wts * (g * (X.N)) * measure: the interior term of the closed
    form; NonFinite, naming M, when it is not finite."""
    xn = np.einsum("ij,ij->i", X.X(k.pts), k.N)
    total = np.sum(k.wts * (k.g * xn) * k.measure)
    if not np.isfinite(total):
        raise NonFinite(f"integral over '{M.name}' is not finite")
    return total.item()


def _curve_kernel(curve: ParamCurve, g, ends: tuple) -> Kernel:
    """The kernel on the curve quadrature's nodes, its density g(frame,
    nodes)."""
    nodes, wts = gauss_legendre(curve.a, curve.b, CURVE_PANELS)
    speed = _row_norm(curve.dgamma(nodes))
    fr, _ = frenet_rows(curve, nodes)
    return Kernel(wts, speed, g(fr, nodes), fr.N, curve.gamma(nodes), ends)


# ---------------------------------------------------------------------------
# length


def length(curve: ParamCurve) -> float:
    """Arc length by composite Gauss-Legendre quadrature on CURVE_PANELS."""
    return integrate_curve(curve, lambda ts: np.ones_like(ts), panels=CURVE_PANELS)


@_memo_on_identity
def length_kernel(curve: ParamCurve) -> Kernel:
    """-kappa against N: kappa N is the curvature vector, 0 where a space
    curve is straight and its Frenet N does not exist.  An open curve's
    ends are (chart point, outward unit conormal) at b, then at a."""
    ends = () if curve.closed else tuple(
        (curve.chart(t), curve.conormal_extension(t)[0])
        for t in (curve.b, curve.a))
    return _curve_kernel(curve, lambda fr, nodes: -fr.kappa, ends)


def analytic_dlength(curve: ParamCurve, X: AmbientField) -> float:
    """First variation of arc length along X: the curvature density plus,
    on an open curve, X against the outward unit conormal at both ends."""
    k = length_kernel(curve)
    total = _interior(k, curve, X)
    for p, nu in k.ends:
        total += float(X.X(p)[0] @ nu)
    return total


# ---------------------------------------------------------------------------
# surface area


def surface_area(surf: ParamSurface) -> float:
    """Area by composite Gauss-Legendre quadrature of |phi_u x phi_v| on
    SURFACE_PANELS."""
    return integrate_surface(surf, lambda us, vs: np.ones_like(us),
                             panels=SURFACE_PANELS)


@_memo_on_identity
def area_kernel(surf: ParamSurface) -> Kernel:
    """H against N; the ends are the u-sides, b then a, each (weights,
    outward unit conormal, |phi_v|, phi) on SIDE_PANELS nodes in v."""
    uu, vv, W = surface_nodes(surf, SURFACE_PANELS)
    jac = _row_norm(np.cross(surf.phi_u(uu, vv), surf.phi_v(uu, vv)))
    H = surface_mean_curvature(surf, (uu, vv))
    vn, wts = gauss_legendre(surf.c, surf.d, SIDE_PANELS)
    sides = []
    for u0 in (surf.b, surf.a):
        us = np.full_like(vn, u0)
        # the conormal extension is the outward unit conormal on the u-sides
        sides.append((wts, surf.conormal_extension((us, vn)),
                      np.linalg.norm(surf.phi_v(us, vn), axis=1),
                      surf.phi(us, vn)))
    return Kernel(W, jac, H, surf.unit_normal((uu, vv)), surf.phi(uu, vv),
                  tuple(sides))


def analytic_darea(surf: ParamSurface, X: AmbientField) -> float:
    """First variation of area: mean-curvature interior term plus outward
    flux through the u-side boundary circles."""
    k = area_kernel(surf)
    # int_c^d (X . nu_out)(phi(u0, v)) |phi_v(u0, v)| dv on each u-side
    flux_b, flux_a = (
        float(np.sum(wts * (np.einsum("ij,ij->i", X.X(pts), nu) * norm_pv)))
        for wts, nu, norm_pv, pts in k.ends)
    return _interior(k, surf, X) + (flux_b + flux_a)


# ---------------------------------------------------------------------------
# elastic (bending) energy


def bending_energy(curve: ParamCurve) -> float:
    """int kappa^2 ds in any regular parametrization, on CURVE_PANELS."""
    return integrate_curve(curve, lambda ts: curvature(curve, ts) ** 2,
                           panels=CURVE_PANELS)


@_memo_on_identity
def elastic_kernel(curve: ParamCurve) -> Kernel:
    """2 kappa'' + kappa^3 against N; an open curve's ends are (sign, T, N,
    kappa, kappa', chart point) at b (+1), then at a (-1).  One
    curve_curvature_derivs call on the nodes with b and a appended gives
    both: its stencils are row-wise, so every row reads as on its own."""
    nodes, _ = gauss_legendre(curve.a, curve.b, CURVE_PANELS)
    n = len(nodes)
    ends_t = () if curve.closed else (curve.b, curve.a)
    kap, k1, k2 = curve_curvature_derivs(curve, np.concatenate([nodes, ends_t]))
    ends = []
    for i, (t, sgn) in enumerate(zip(ends_t, (1.0, -1.0)), start=n):
        fr, _ = frenet_rows(curve, t)
        ends.append((sgn, fr.T[0], fr.N[0], float(kap[i]), float(k1[i]),
                     curve.chart(t)))
    return _curve_kernel(curve, lambda fr, nodes: 2.0 * k2[:n] + fr.kappa**3,
                         tuple(ends))


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
    k = elastic_kernel(curve)
    total = _interior(k, curve, X)
    for sgn, T, N, kap, k1, p in k.ends:
        xv, dxv = (v[0] for v in X.jet(p))
        x_t = float(xv @ T)
        x_n = float(xv @ N)
        dxn_ds = float((dxv @ T) @ N) - kap * x_t
        total += sgn * (kap**2 * x_t + 2.0 * kap * dxn_ds - 2.0 * k1 * x_n)
    return total


# ---------------------------------------------------------------------------
# functional objects and the cracked-set wrapper


def length_functional() -> ShapeFunctional:
    return ShapeFunctional("length", length,
                           complex_step(length, stepped_curve), analytic_dlength)


def area_functional() -> ShapeFunctional:
    return ShapeFunctional("area", surface_area,
                           complex_step(surface_area, stepped_surface),
                           analytic_darea)


def elastic_functional() -> ShapeFunctional:
    # value, DV and closed form all take any regular planar chart, flowed
    # ones included
    return ShapeFunctional("elastic", bending_energy,
                           complex_step(bending_energy, stepped_curve),
                           analytic_delastic, order=2)


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
    order: int = field(init=False)

    def __post_init__(self):
        for name in ("evaluate", "analytic_derivative", "discrete_derivative",
                     "order"):
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
