"""Ambient vector fields and their decomposition along a manifold.

An AmbientField is a compactly supported C^k field on the hold-all domain,
given by vectorized callables X: (n, d) -> (n, d) and dX: (n, d) -> (n, d, d),
and optionally d2X: ((n, d), (n, d)) -> (n, d), the second derivative
D^2X[v, v] along given rows v, which a flowed curve's second jet reads
(flow).  jet: (n, d) -> (X, dX) gives both in one pass, bit for bit the
values of X and dX (forward mode: a value and its derivative share every
intermediate, Griewank & Walther, Evaluating Derivatives, 2008, ch. 3).
Bumps, sums and pullbacks compute it from the same body as their X and
dX, sharing the support test, the projection, the distance and the
cutoff; any other field's jet is (X(pts), dX(pts)), and construction
checks a supplied one against them (AmbientField).
split_field decomposes X|_M at given parameters into X_perp + X_tan + X_nu
with the manifold's own queries (see geometry): X_perp is normal_part, X_nu
the component along conormal_extension, X_tan the remainder.  The perp
restriction reads normal_part alone, so it needs no conormal.

pullback_field carries a vector off a manifold along the nearest-point
projection, inside a tube about the manifold widened past its open ends.
Its support ball holds every point within `tube` of the widened manifold,
so X and dX are 0 on and outside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._stencil import sample_derivative
from .errors import InvariantViolation, SupportViolation
from .geometry import ParamCurve, _checked

_CHECK_RNG_SEED = 4243


# ---------------------------------------------------------------------------
# smooth cutoffs


def bump_profile(s) -> np.ndarray:
    """Radial bump beta(s) = exp(1 - 1/(1 - s^2)) on [0, 1), zero beyond.

    beta(0) = 1 and all derivatives vanish at s = 1.
    """
    s = np.abs(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    m = s < 1.0 - 1e-12
    sm = s[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - sm * sm))
    return out


def bump_profile_deriv(s) -> np.ndarray:
    """d beta/d s (for |s|, caller handles the chain rule)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0 - 1e-12
    sm = s[m]
    q = 1.0 - sm * sm
    out[m] = np.exp(1.0 - 1.0 / q) * (-2.0 * sm / (q * q))
    return out


def bump_profile_deriv2(s) -> np.ndarray:
    """d^2 beta/d s^2 = beta (4 s^2 / q^4 - 8 s^2 / q^3 - 2 / q^2), q = 1 - s^2;
    -2 at s = 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0 - 1e-12
    s2 = s[m] * s[m]
    q = 1.0 - s2
    q2 = q * q
    out[m] = np.exp(1.0 - 1.0 / q) * (4.0 * s2 / (q2 * q2) - 8.0 * s2 / (q2 * q)
                                      - 2.0 / q2)
    return out


def smooth_step_jet(s, order: int = 2) -> tuple[np.ndarray, ...]:
    """(S, S', S'') of the C^infinity transition S: 1 for s <= 0, 0 for
    s >= 1, monotone between, or (S, S') at order 1.  With f(u) =
    exp(-1/u), fa = f(1 - s), fb = f(s), D = fa + fb and N = fa' fb - fa fb'
    (primes d/ds):

        S = fa / D,   S' = N / D^2,
        S'' = (fa'' fb - fa fb'') / D^2 - 2 N (fa' + fb') / D^3,

    and f' = f / u^2, f'' = f (1 - 2u) / u^4.  Outside (1e-12, 1 - 1e-12)
    one of fa, fb underflows to 0, so S is 1 or 0 and S', S'' are 0."""
    s = np.asarray(s, dtype=float)
    S = (s < 0.5).astype(float)
    dS = np.zeros_like(s)
    m = (s > 1e-12) & (s < 1.0 - 1e-12)
    a, b = 1.0 - s[m], s[m]
    fa, fb = np.exp(-1.0 / a), np.exp(-1.0 / b)
    dfa, dfb = -fa / (a * a), fb / (b * b)
    den = fa + fb
    num = dfa * fb - fa * dfb
    S[m] = fa / den
    dS[m] = num / (den * den)
    if order == 1:
        return S, dS
    d2S = np.zeros_like(s)
    d2fa = fa * (1.0 - 2.0 * a) / (a * a * a * a)
    d2fb = fb * (1.0 - 2.0 * b) / (b * b * b * b)
    d2S[m] = ((d2fa * fb - fa * d2fb) / (den * den)
              - 2.0 * num * (dfa + dfb) / (den * den * den))
    return S, dS, d2S


def _f_exp(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    m = u > 1e-12
    out[m] = np.exp(-1.0 / u[m])
    return out


def smooth_step(s) -> np.ndarray:
    """C^infinity transition: 1 for s <= 0, 0 for s >= 1, monotone between;
    smooth_step_jet(s)[0] bit for bit, at half its cost."""
    s = np.asarray(s, dtype=float)
    sc = np.clip(s, 0.0, 1.0)
    fa = _f_exp(1.0 - sc)
    fb = _f_exp(sc)
    return fa / (fa + fb + 1e-300)


# ---------------------------------------------------------------------------
# supports and the hold-all


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def contains_ball(self, center, radius) -> bool:
        c = np.asarray(center, dtype=float)
        return np.linalg.norm(c - self.center) + radius <= self.radius

    def exterior_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = len(self.center)
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = self.radius * (1.0 + 0.05 + rng.uniform(0, 1, n))
        return self.center + dirs * radii[:, None]

    def interior_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = len(self.center)
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = self.radius * rng.uniform(0, 1, n) ** (1.0 / d)
        return self.center + dirs * radii[:, None]


def default_holdall(dim: int) -> Ball:
    """Hold-all domain: ball of radius 16 about the origin."""
    return Ball(np.zeros(dim), 16.0)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class AmbientField:
    """Compactly supported ambient field with analytic or FD Jacobian.

    X maps (n, dim) float64 points to float64 (n, dim) rows and dX to
    float64 (n, dim, dim) rows.  jet maps points to the pair (X, dX) in
    one pass: a field whose X and dX share work (a support test, a
    projection, a cutoff) supplies its own, computed by the same body as
    its X and dX, and a field without one gets (X(pts), dX(pts)).  Either
    way jet(pts) equals (X(pts), dX(pts)) bit for bit, so a reader of both
    (an RK4 stage of a joint or jet flow) calls jet and a reader of one
    calls X or dX.  d2X, when set, maps (n, dim) points and
    (n, dim) rows v to the float64 (n, dim) rows D^2X[v, v]; a flowed
    curve carries its second derivative through the second variational
    equation only for a field that has it (flow).  Construction checks
    that contract on the values its desk checks compute and raises
    InvariantViolation naming the callable that broke it; every other
    reader uses the values as they are.  It samples 64 points outside
    `support` (X and dX must vanish there) and checks dX against central
    differences of X at 32 interior points to relative 1e-6,
    Richardson-combined with a second step where one step alone misses.
    d2X gets the same check at the same points, against the central
    difference of dX along one random unit row v per point; one dX call
    serves the points and their +-h v rows.  A supplied jet takes the
    place of that interior dX call, with the 64 exterior points stacked
    before its rows: it must return X and dX there bit for bit
    (np.array_equal), and its dX takes the interior checks.  So the check
    costs no field call and no projection more than a field without a jet
    (its bitwise agreement inside the support is Tier-1's to test).

    `scale`, when set, is the characteristic width of the field's spatial
    variation (a bump's radius); it caps the step of the 5-point stencil
    that gives DV, and a flowed curve of a field without d2X, gamma''
    (flow.second_derivative_step).
    """

    dim: int
    X: Callable[[np.ndarray], np.ndarray]
    dX: Callable[[np.ndarray], np.ndarray]
    support: Ball
    name: str = "field"
    scale: float | None = None
    d2X: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.scale is not None and not self.scale > 0.0:
            raise InvariantViolation(
                f"field '{self.name}': scale must be positive, got {self.scale!r}"
            )
        own_jet = self.jet is not None
        if not own_jet:
            X, dX = self.X, self.dX
            object.__setattr__(self, "jet", lambda pts: (X(pts), dX(pts)))
        where, d = f"field '{self.name}'", self.dim
        rng = np.random.default_rng(_CHECK_RNG_SEED)
        out = self.support.exterior_points(64, rng)
        Xo = _checked(where, "X", self.X(out), (64, d))
        dXo = _checked(where, "dX", self.dX(out), (64, d, d))
        if np.abs(Xo).max() > 1e-13 or np.abs(dXo).max() > 1e-13:
            raise InvariantViolation(f"{where}: does not vanish outside its support")
        pts = self.support.interior_points(32, rng)
        h = 1e-6 * (1.0 + self.support.radius)
        rows = [pts]
        if self.d2X is not None:
            # one dX call on pts and the +-h v rows of the d2X check
            v = rng.normal(size=(32, d))
            v /= np.linalg.norm(v, axis=1)[:, None]
            rows += [pts + h * v, pts - h * v]
        n = 32 * len(rows)
        if own_jet:
            # the jet in place of dX at the interior rows, the exterior
            # stacked before them: one call, no projection more
            label = "jet's dX"
            jX, jdX = self.jet(np.concatenate([out, *rows]))
            if not (np.array_equal(jX[:64], Xo) and np.array_equal(jdX[:64], dXo)):
                raise InvariantViolation(
                    f"{where}: jet differs from (X, dX) bit for bit outside "
                    f"its support")
            dXr = _checked(where, label, jdX[64:], (n, d, d))
        else:
            label = "dX"
            dXr = _checked(where, label, self.dX(np.concatenate(rows)), (n, d, d))
        got, *shifted = np.split(dXr, len(rows))
        _check_fd(where, label, got,
                  lambda step: _central_difference(self.X, pts, d, step), h)
        if self.d2X is not None:
            plus, minus = shifted

            def directional(step):
                # (dX(pts + step v) v - dX(pts - step v) v) / 2 step
                P, M = ((plus, minus) if step == h else
                        np.split(self.dX(np.concatenate([pts + step * v,
                                                         pts - step * v])), 2))
                return np.einsum("nij,nj->ni", P - M, v) / (2 * step)

            _check_fd(where, "d2X", _checked(where, "d2X", self.d2X(pts, v), (32, d)),
                      directional, h)


def _check_fd(where: str, label: str, got: np.ndarray, fd_at, h: float):
    """InvariantViolation unless got agrees with the central difference
    fd_at(h) to relative 1e-6 of 1 + max|got| per point; where one step
    misses, the difference is Richardson-combined with fd_at(2h)."""
    axes = tuple(range(1, got.ndim))
    denom = 1.0 + np.abs(got).max(axis=axes)
    fd = fd_at(h)
    if (np.abs(fd - got).max(axis=axes) / denom).max() > 1e-6:
        # on a tube a few hundredths wide the h^2 error alone reaches
        # the tolerance: Richardson-combine with a step of 2h
        fd = (4.0 * fd - fd_at(2.0 * h)) / 3.0
    rel = np.abs(fd - got).max(axis=axes) / denom
    if rel.max() > 1e-6:
        raise InvariantViolation(
            f"{where}: {label} disagrees with finite differences "
            f"(rel {rel.max():.2e})"
        )


_STACKED_ROWS = 256


def _central_difference(X, pts, dim: int, h: float) -> np.ndarray:
    """Central-difference Jacobian of X at pts.  Up to _STACKED_ROWS
    shifted rows pts +- h e_j go to X in one call (a desk check's 32
    points: the per-call cost dominates there); more take one call per
    shift, which keeps the peak memory of a projecting X (fd_jacobian of a
    pullback) that of len(pts) rows.  X is row-wise, so both give the
    same values."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    shifts = [s * h * e for e in np.eye(dim) for s in (1.0, -1.0)]
    if 2 * dim * n <= _STACKED_ROWS:
        vals = np.split(X(np.concatenate([pts + e for e in shifts])), 2 * dim)
    else:
        vals = [X(pts + e) for e in shifts]
    out = np.empty((n, dim, dim))
    for j in range(dim):
        out[:, :, j] = (vals[2 * j] - vals[2 * j + 1]) / (2 * h)
    return out


def fd_jacobian(X: Callable[[np.ndarray], np.ndarray], dim: int,
                h: float) -> Callable[[np.ndarray], np.ndarray]:
    """Central-difference Jacobian of a vectorized field callable."""
    return lambda pts: _central_difference(X, pts, dim, h)


def last_call_memo(fn: Callable[..., object]) -> Callable[..., object]:
    """fn with a one-entry memo keyed on the exact bytes of its array
    arguments.

    Pairs of evaluations on the same arrays one after the other share one
    computation: the transported derivatives of a flowed manifold (one jet
    flow for gamma' and gamma'' on a curve, one Jacobian flow for phi_u
    and phi_v on a surface), a stepped curve's gamma' read twice on the
    same nodes, a tangent bump's direction and its Jacobian (one
    nearest-point projection).  The memo is
    private to the closure that holds it, and the (key, value) pair is
    replaced as one object, so a reader never sees a key with another
    key's value.
    """
    last = [(None, None)]

    def call(*arrays: np.ndarray):
        key = tuple((a.shape, a.tobytes()) for a in arrays)
        last_key, value = last[0]
        if last_key != key:
            value = fn(*arrays)
            last[0] = (key, value)
        return value

    return call


def bump_field(center, radius: float, direction, name: str = "bump",
               direction_jacobian=None) -> AmbientField:
    """Smooth bump supported in the ball B(center, radius).

    X(p) = beta(|p - center| / radius) * direction(p); `direction` is a
    constant vector or a vectorized callable (n, d) -> (n, d).  A callable
    direction comes with `direction_jacobian`, (n, d) -> (n, d, d); both
    are called only where the bump is alive, and X calls only the first.
    jet computes the radius, the profile and the direction once for X and
    dX.  Only a constant direction gives the field a d2X.
    The ambient dimension is len(center).  Raises SupportViolation if the
    ball is not contained in the hold-all default_holdall(dim).
    """
    center = np.asarray(center, dtype=float)
    dim = len(center)
    if not default_holdall(dim).contains_ball(center, radius):
        raise SupportViolation(
            f"bump at {center.tolist()} radius {radius:g} escapes the hold-all"
        )
    const_dir = not callable(direction)
    if const_dir:
        dvec = np.asarray(direction, dtype=float)
    elif direction_jacobian is None:
        raise ValueError("a callable bump direction needs direction_jacobian")

    def _eval(pts: np.ndarray, with_dX: bool):
        # (X, dX) from one radius, one profile and one direction call;
        # dX is None unless with_dX
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = pts - center
        dist = np.linalg.norm(r, axis=1)
        s = dist / radius
        beta = bump_profile(s)
        if const_dir:
            x = beta[:, None] * dvec[None, :]
        else:
            # callable directions (e.g. nearest-point pullbacks) are only
            # meaningful, and only needed, where the bump is alive
            x = np.zeros_like(pts)
            m = beta > 0.0
            if np.any(m):
                q = pts[m]
                D = np.asarray(direction(q), dtype=float)
                x[m] = beta[m, None] * D
        if not with_dX:
            return x, None
        grad_s = np.zeros_like(pts)
        k = dist > 1e-300
        grad_s[k] = r[k] / (dist[k, None] * radius)
        grad_beta = bump_profile_deriv(s)[:, None] * grad_s
        if const_dir:
            return x, dvec[None, :, None] * grad_beta[:, None, :]
        # d(beta D) = D (x) grad beta + beta dD
        dx = np.zeros((len(pts), dim, dim))
        if np.any(m):
            dx[m] = (D[:, :, None] * grad_beta[m, None, :]
                     + beta[m, None, None] * np.asarray(direction_jacobian(q),
                                                        dtype=float))
        return x, dx

    def X(pts: np.ndarray) -> np.ndarray:
        return _eval(pts, False)[0]

    def dX(pts: np.ndarray) -> np.ndarray:
        return _eval(pts, True)[1]

    def jet(pts: np.ndarray):
        return _eval(pts, True)

    def d2X(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
        # (v^T H v) dvec with H the Hessian of beta(|r| / radius):
        # H radius^2 = beta'' r^ r^T + (beta' / s)(I - r^ r^T), r^ = r / |r|,
        # and beta' / s -> beta''(0) = -2 at the centre
        r = pts - center
        dist = np.linalg.norm(r, axis=1)
        s = dist / radius
        rv = np.zeros(len(pts))
        over_s = np.full(len(pts), -2.0)
        m = dist > 1e-300
        rv[m] = np.einsum("ij,ij->i", r[m], v[m]) / dist[m]
        over_s[m] = bump_profile_deriv(s[m]) / s[m]
        rv2 = rv * rv
        hess = (bump_profile_deriv2(s) * rv2
                + over_s * (np.einsum("ij,ij->i", v, v) - rv2)) / (radius * radius)
        return hess[:, None] * dvec[None, :]

    return AmbientField(dim=dim, X=X, dX=dX,
                        support=Ball(center, radius), name=name, scale=radius,
                        d2X=d2X if const_dir else None, jet=jet)


def sum_field(fields: Sequence[AmbientField], name: str = "sum") -> AmbientField:
    """Pointwise sum; support is the smallest ball containing all supports.
    Its jet sums the parts' jets.  It has a d2X when every part has one."""
    if not fields:
        raise ValueError("sum_field needs at least one field")
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise InvariantViolation("sum_field: mixed dimensions")
    centers = np.array([f.support.center for f in fields])
    mid = centers.mean(axis=0)
    rad = max(np.linalg.norm(f.support.center - mid) + f.support.radius
              for f in fields)

    def X(pts):
        return sum(f.X(pts) for f in fields)

    def dX(pts):
        return sum(f.dX(pts) for f in fields)

    def jet(pts):
        # each part's one pass, summed in the order of X and dX
        xs, dxs = zip(*(f.jet(pts) for f in fields))
        return sum(xs), sum(dxs)

    def d2X(pts, v):
        return sum(f.d2X(pts, v) for f in fields)

    scales = [f.scale for f in fields if f.scale is not None]
    return AmbientField(dim=dim, X=X, dX=dX, support=Ball(mid, rad), name=name,
                        scale=min(scales) if scales else None,
                        d2X=d2X if all(f.d2X is not None for f in fields) else None,
                        jet=jet)


# ---------------------------------------------------------------------------
# projections and splitting


def _sample_params(manifold, n_samples: int):
    if isinstance(manifold, ParamCurve):
        return np.linspace(manifold.a, manifold.b, n_samples)
    k = max(2, int(np.ceil(np.sqrt(n_samples))))
    us = np.linspace(manifold.a, manifold.b, k)
    vs = np.linspace(manifold.c, manifold.d, k, endpoint=False)
    U, V = np.meshgrid(us, vs, indexing="ij")
    return U.ravel(), V.ravel()


def split_field(manifold, field: AmbientField, params
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, x_perp, x_nu) of `field` on the manifold at params, each (n, d);
    the tangential part x_tan is x - x_perp - x_nu."""
    x = field.X(manifold.chart(params))
    nu = manifold.conormal_extension(params)
    return (x, manifold.normal_part(params, x),
            np.einsum("ij,ij->i", x, nu)[:, None] * nu)


@dataclass(frozen=True)
class TangencyReport:
    max_normal_residual: float
    max_boundary_residual: float


def check_tangency(manifold, field: AmbientField) -> TangencyReport:
    """Max |X_perp| over 200 samples and max |X_nu| = |X . nu| (nu the unit
    conormal) over the boundary samples among them."""
    params = _sample_params(manifold, 200)
    _, x_perp, x_nu = split_field(manifold, field, params)
    on_bd = manifold.on_boundary(params)
    return TangencyReport(
        float(np.linalg.norm(x_perp, axis=1).max()),
        float(np.linalg.norm(x_nu[on_bd], axis=1).max(initial=0.0)))


# ---------------------------------------------------------------------------
# ambient realizations of split components


def _component_on_params(manifold, field: AmbientField, which: str):
    """Return V(params) evaluating one split component, valid slightly
    beyond the parameter domain (frames extend through the callables)."""
    def V(params):
        if which == "perp":
            return manifold.normal_part(params, field.X(manifold.chart(params)))
        x, x_perp, x_nu = split_field(manifold, field, params)
        return x_nu if which == "nu" else x - x_perp - x_nu
    return V


def _scatter(rows, vals: np.ndarray, n: int) -> np.ndarray:
    """n rows, vals on `rows` (a mask or indices, as many as vals) and 0
    elsewhere; vals itself when they fill all n."""
    if len(vals) == n:
        return vals
    out = np.zeros((n,) + vals.shape[1:])
    out[rows] = vals
    return out


def pullback_field(manifold, V, tube: float, extend: float, name: str,
                   profile=(smooth_step, partial(smooth_step_jet, order=1))
                   ) -> AmbientField:
    """X(p) = g(d / tube) V, d = |p - foot|, with V a constant vector or a
    callable of the foot parameters, taken at the nearest-point foot on the
    manifold widened by `extend` (see project; a closed curve ignores it).

    profile is (g, g_jet): g(s) and g_jet(s) = (g(s), g'(s)), the g of
    both bit for bit, g zero from s = 1 on.  dX = V (x) g'(s) grad d /
    tube, plus g dV/dt (x) grad t for a callable V on a curve (dV/dt by a
    5-point difference); there X, dX and jet are one body, which makes one
    support-ball test, one projection and one g or g_jet call per call, so
    jet projects once for both.  A callable V on a surface (the
    tangent-wave probes of validation.tangential_probe_fields, and surface
    restriction fields) gets a central-difference dX of step
    1e-6 (1 + diameter) and the default jet.
    """
    g, g_jet = profile
    is_curve = isinstance(manifold, ParamCurve)
    if is_curve and manifold.closed:
        extend = 0.0
    const = not callable(V)
    V = np.asarray(V, dtype=float) if const else V
    # the grid ball, grown by the farthest the widening reaches and the tube
    mid, rad = manifold.grid_ball
    rad = rad + extend * float(manifold.grid_speed.max()) + tube
    dim = manifold.dim

    def _eval(pts, with_X: bool, with_dX: bool):
        # projection is only needed inside the support ball; everything
        # outside is zero by construction
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        m = np.linalg.norm(pts - mid, axis=1) <= rad
        if not np.any(m):
            return (np.zeros_like(pts) if with_X else None,
                    np.zeros((n, dim, dim)) if with_dX else None)
        ft = manifold.project(pts if m.all() else pts[m], extend)
        s = ft.dist / tube
        gs, dgs = g_jet(s) if with_dX else (g(s), None)
        x = (_scatter(m, gs[:, None] * (V if const else V(ft.params)), n)
             if with_X else None)
        if not with_dX:
            return x, None
        # g' vanishes wherever g does (the two underflow together), and
        # inside the tube grad t is finite
        k = gs > 0.0
        rows = np.flatnonzero(m)[k]
        grad = (dgs[k][:, None] * ft.grad_dist[k] / tube)[:, None, :]
        if const:
            dx = V[None, :, None] * grad
        elif np.any(k):
            t = ft.params[k]
            dV = sample_derivative(V, (t,), 1e-4 * (manifold.b - manifold.a), 1,
                                   manifold.a - extend, manifold.b + extend,
                                   periodic=manifold.closed)
            dx = (V(t)[:, :, None] * grad
                  + gs[k, None, None] * dV[:, :, None] * ft.grad_t[k, None, :])
        else:
            dx = np.zeros((0, dim, dim))
        return x, _scatter(rows, dx, n)

    def X(pts):
        return _eval(pts, True, False)[0]

    if const or is_curve:
        def dX(pts):
            return _eval(pts, False, True)[1]

        def jet(pts):
            return _eval(pts, True, True)
    else:
        # a surface chart has no phi_uu or phi_uv, so no exact foot gradient
        dX = fd_jacobian(X, dim, 1e-6 * (1.0 + manifold.diameter))
        jet = None
    return AmbientField(dim=dim, X=X, dX=dX, support=Ball(mid, rad), name=name,
                        jet=jet)


def restriction_field(manifold, field: AmbientField, component: str,
                      tube_radius: float | None = None) -> AmbientField:
    """pullback_field of one split component of `field`, component "perp",
    "tan" or "nu".  The default tube, min(0.1 diameter, 0.4 reach), stays
    well inside the focal radius, past which the projection goes
    multivalued; open ends are widened by 0.15 of the parameter span so
    the projection stays smooth there."""
    if component not in ("perp", "tan", "nu"):
        raise ValueError("component must be 'perp', 'tan' or 'nu'")
    if tube_radius is None:
        tube_radius = min(0.1 * manifold.diameter, 0.4 * manifold.reach)
    return pullback_field(manifold, _component_on_params(manifold, field, component),
                          tube_radius, 0.15 * (manifold.b - manifold.a),
                          f"{field.name}|{component}")
