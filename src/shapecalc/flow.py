"""Flows of ambient fields and transported manifolds.

The flow map Phi_t solves x' = X(x) with a fixed-step RK4 integrator; the
space Jacobian dPhi_t is co-transported through the variational equation
(dPhi)' = dX(Phi) dPhi, so first derivatives of a flowed parametrization
are exact images of the base derivatives:

    (Phi_t o gamma)'(s) = dPhi_t(gamma(s)) gamma'(s).

Second parameter derivatives of flowed manifolds come from 5-point
differences of the transported first derivatives (wrapped across seams of
closed curves / v-periodic surfaces, shifted inside open ends).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stencil import sample_derivative
from .errors import InvariantViolation, NonFinite
from .fields import AmbientField, last_call_memo
from .geometry import ParamCurve, ParamSurface

DEFAULT_MAX_STEP = 0.01


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 flow to time t_final.

    n_steps defaults to ceil(|t_final| / 0.01), keeping the step at or
    below 0.01.
    """

    t_final: float
    n_steps: int | None = None

    def __post_init__(self):
        if self.n_steps is None:
            object.__setattr__(
                self, "n_steps",
                max(1, math.ceil(abs(self.t_final) / DEFAULT_MAX_STEP)))
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise InvariantViolation("n_steps must be a positive integer")


def flow_point(field: AmbientField, x0, cfg: FlowConfig) -> np.ndarray:
    """Flow one point or a batch (n, d) of points to time t_final.

    At t_final = 0 the flow is the identity and the field is not called.
    """
    x = np.asarray(x0, dtype=float)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    h = cfg.t_final / cfg.n_steps
    if h == 0.0:
        x = x.copy()
        return x[0] if scalar else x
    X = field.X
    for _ in range(cfg.n_steps):
        k1 = np.asarray(X(x), dtype=float)
        k2 = np.asarray(X(x + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(X(x + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(X(x + h * k3), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"flow of '{field.name}' left the numeric range")
    return x[0] if scalar else x


def flow_with_jacobian(field: AmbientField, x0,
                       cfg: FlowConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_t(x0), dPhi_t(x0)) for a batch of points, via the joint RK4 on
    the variational system.  At t_final = 0 this is (x0, I) without a
    field call."""
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = x.shape
    J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    h = cfg.t_final / cfg.n_steps
    if h == 0.0:
        return x.copy(), J
    X, dX = field.X, field.dX

    def rhs(xc, Jc):
        return (np.asarray(X(xc), dtype=float),
                _jacobian_product(np.asarray(dX(xc), dtype=float), Jc))

    for _ in range(cfg.n_steps):
        k1x, k1J = rhs(x, J)
        k2x, k2J = rhs(x + 0.5 * h * k1x, J + 0.5 * h * k1J)
        k3x, k3J = rhs(x + 0.5 * h * k2x, J + 0.5 * h * k2J)
        k4x, k4J = rhs(x + h * k3x, J + h * k3J)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        J = J + (h / 6.0) * (k1J + 2 * k2J + 2 * k3J + k4J)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(J))):
            raise NonFinite(f"flow of '{field.name}' left the numeric range")
    return x, J


def _jacobian_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-point matrix product A[n] @ B[n] of two (n, d, d) stacks.

    Sums the d products over j = 0, 1, ... with whole-column operations,
    in the order of einsum("nij,njk->nik"), whose values it reproduces
    (only the sign of a zero can differ) at a fraction of the cost for
    d = 2, 3.  matmul is not used: its sums are not bit-equal to einsum's.
    """
    n, d, _ = A.shape
    out = np.empty((n, d, d))
    for i in range(d):
        for k in range(d):
            acc = A[:, i, 0] * B[:, 0, k]
            for j in range(1, d):
                acc += A[:, i, j] * B[:, j, k]
            out[:, i, k] = acc
    return out


def flow_manifold(field: AmbientField, manifold, cfg: FlowConfig):
    """Manifold transported by the flow, same type as the input.

    The flowed parametrization callables evaluate flows lazily; parameter
    second derivatives use finite differences of the transported first
    derivatives with step 1e-5 times the parameter span.
    """
    if isinstance(manifold, ParamCurve):
        return _flow_curve(field, manifold, cfg)
    if isinstance(manifold, ParamSurface):
        return _flow_surface(field, manifold, cfg)
    raise TypeError("expected ParamCurve or ParamSurface")


def _flow_curve(field: AmbientField, curve: ParamCurve,
                cfg: FlowConfig) -> ParamCurve:
    def gamma_t(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return flow_point(field, np.asarray(curve.gamma(ts), dtype=float), cfg)

    def dgamma_t(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        _, J = flow_with_jacobian(field, np.asarray(curve.gamma(ts), dtype=float), cfg)
        return np.einsum("nij,nj->ni", J, np.asarray(curve.dgamma(ts), dtype=float))

    # wide stencil step by default: fields with composed direction callables
    # carry value jitter that the differencing amplifies by 1/h, and the
    # curvature of anything built on this ddgamma keeps that noise visible.
    # A field of characteristic width rho caps the step instead: the stencil
    # truncation grows like h^4 times a seventh derivative ~ rho^-7, so the
    # widest safe step scales as rho^(7/4).
    h2 = 1.6e-4 * (curve.b - curve.a)
    if field.scale is not None:
        h2 = min(h2, 2.3e-3 * field.scale ** 1.75)

    def ddgamma_t(ts):
        return sample_derivative(dgamma_t, ts, h2, 1, curve.a, curve.b,
                                 periodic=curve.closed)

    return ParamCurve(dim=curve.dim, a=curve.a, b=curve.b, gamma=gamma_t,
                      dgamma=dgamma_t, ddgamma=ddgamma_t, closed=curve.closed,
                      name=f"{curve.name}@{field.name}:{cfg.t_final:g}",
                      transported=True)


def _flow_surface(field: AmbientField, surf: ParamSurface,
                  cfg: FlowConfig) -> ParamSurface:
    def phi_t(us, vs):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        us, vs = np.broadcast_arrays(us, vs)
        return flow_point(field, np.asarray(surf.phi(us, vs), dtype=float), cfg)

    # phi_u and phi_v are nearly always asked for on the same nodes one
    # after the other; the last transported Jacobian serves both
    jacobian = last_call_memo(lambda us, vs: flow_with_jacobian(
        field, np.asarray(surf.phi(us, vs), dtype=float), cfg)[1])

    def _transport(base_deriv, us, vs):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        us, vs = np.broadcast_arrays(us, vs)
        J = jacobian(us, vs)
        return np.einsum("nij,nj->ni", J, np.asarray(base_deriv(us, vs), dtype=float))

    def phi_u_t(us, vs):
        return _transport(surf.phi_u, us, vs)

    def phi_v_t(us, vs):
        return _transport(surf.phi_v, us, vs)

    h2 = 1e-5 * (surf.d - surf.c)

    def phi_vv_t(us, vs):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        us, vs = np.broadcast_arrays(us, vs)
        us = np.ascontiguousarray(us)
        return sample_derivative(
            lambda vv: phi_v_t(np.repeat(us, 5), vv),
            vs, h2, 1, surf.c, surf.d, periodic=surf.periodic_v)

    return ParamSurface(a=surf.a, b=surf.b, c=surf.c, d=surf.d, phi=phi_t,
                        phi_u=phi_u_t, phi_v=phi_v_t, phi_vv=phi_vv_t,
                        name=f"{surf.name}@{field.name}:{cfg.t_final:g}",
                        transported=True)


def invariance_residual(field: AmbientField, manifold, cfg) -> float:
    """Max distance from flowed samples back to the manifold: 200 on a
    curve, a 15 x 15 grid on a surface, seams included.

    cfg is a FlowConfig, or a bare time t (then the step defaults to 5e-4:
    tangential fields keep the manifold invariant, so the residual reduces
    to integrator error and a small step keeps that error near roundoff).
    """
    if not isinstance(cfg, FlowConfig):
        t = float(cfg)
        cfg = FlowConfig(t_final=t, n_steps=max(1, math.ceil(abs(t) / 5e-4)))
    if isinstance(manifold, ParamCurve):
        params = np.linspace(manifold.a, manifold.b, 200)
    else:
        U, V = np.meshgrid(np.linspace(manifold.a, manifold.b, 15),
                           np.linspace(manifold.c, manifold.d, 15), indexing="ij")
        params = (U.ravel(), V.ravel())
    pts = manifold.chart(params)
    flowed = flow_point(field, pts, cfg)
    return float(manifold.project(flowed).dist.max())
