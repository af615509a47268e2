"""Parametrized curves and surfaces.

Conventions, fixed once and used by every downstream module:

* plane curves: N is the tangent rotated 90 degrees counter-clockwise,
  curvature is signed via T' = v*kappa*N (unit CCW circle has kappa = +1);
* space curves: kappa = |gamma' x gamma''| / v^3 >= 0, N = T'/|T'|
  (undefined where the curve is straight: frenet_rows sets N = 0 there);
* surfaces: N = phi_u x phi_v / |phi_u x phi_v|; the mean curvature returned
  by surface_mean_curvature is the trace of the Weingarten map in the
  {phi_u, phi_v} basis, so its sign is tied to the orientation of N;
* outward unit conormal: conormal_extension at the boundary parameters,
  where its ramp is exactly -1 / +1: -T(a) and +T(b) at curve ends, and
  -+ phi_v x N / |phi_v| on the u = a / u = b sides of a surface.

A surface's u-sides are always boundary and v always closes: construction
rejects a chart whose v = c and v = d seams do not meet with
InvariantViolation, and a chart that also closes in u (a torus) repeats its
grid row u = a at u = b, which the embedding desk check rejects with
DegenerateImmersion.

One array contract for every chart callable: gamma, dgamma, ddgamma take
one (n,) float64 parameter array, phi, phi_u, phi_v two of one length, and
each returns float64 rows, (n, dim) on a curve and (n, 3) on a surface; a
curve's optional jets returns the three rows of gamma, dgamma, ddgamma.  A
foot hook takes (n, dim) float64 points and returns float64 (n,) parameter
arrays.  Construction checks the contract on every value
its desk checks compute and raises InvariantViolation naming the callable
that broke it; every other reader uses the values as they are.

ParamCurve and ParamSurface answer the same manifold queries, so callers
never branch on the type to ask them.  `params` is t for a curve and the
pair (u, v) for a surface, scalars or (n,) arrays, u and v of one shape;
every query, and every curvature function below, returns one row per
parameter point, for scalar input too.

* dim: ambient dimension (2 or 3 for curves, 3 for surfaces).
* reach: 0.5 / (largest |curvature| kmax on the construction grid), inf
  when kmax is at most 1e-12, half the smallest focal radius seen; on a
  curve at most half the distance of two points more than pi / kmax apart
  along it (_far_separation), such as an open end and another stretch.
  The scale below which tubes and probes keep the nearest-point projection
  single valued and smooth.  Computed once per manifold.
* chart(params): points on the manifold, (n, dim).
* tangent_frame(params): orthonormal tangent vectors, (T,) for a curve and
  Gram-Schmidt (e1, e2) of (phi_u, phi_v) for a surface; needs only first
  derivatives, so it exists on straight space curves too.
* unit_normal(params): one unit vector orthogonal to the tangent space.
  Surfaces: N.  Plane curves: T turned by 90 degrees.  Space curves: the
  coordinate axis least aligned with T, made normal to it (defined where
  the Frenet normal is not).
* normal_part(params, x): x minus its tangent-frame components; a
  projection (idempotent, self-adjoint).
* on_boundary(params): mask of parameters on the boundary, the ends of
  [a, b] in t or u; empty for closed curves.
* conormal_extension(params): smooth tangent field equal to the outward
  unit conormal on the boundary, ramped by ((s - a)/L)^4 - ((b - s)/L)^4
  in between (s = t or u, L = b - a), zero without a boundary.
* diameter: the largest distance between two construction-grid points.
* grid_ball: (centroid, radius) of the construction grid, computed once;
  every grid point lies within radius of the centroid, and radius is at
  most the diameter.
* grid_speed: the speed along the direction project widens, at the
  construction grid: |phi_u| on a surface, |gamma'| on a curve (kept from
  the regularity check, every entry above 1e-12 times max(1, largest)).
* project(pts, extend=0.0), one signature on both kinds: the nearest-point
  foot of ambient points (n, dim), with the parameter range widened by
  extend past open ends (t on a curve, u on a surface; closed directions
  wrap).  Returns a Foot:
  - params: the foot parameters, t or the pair (u, v);
  - r: the residual vector p - chart(params);
  - dist: |r|;
  - grad_dist = r/dist, 0 where dist = 0, computed on first use;
    it is the gradient of the distance on any manifold inside the reach;
  - grad_t (curves only, computed on first use): the implicit-function
    gradient of t, 0 where t is held at an end of the widened range.
  A manifold with a foot hook returns the hook's exact feet, with no
  seeding and no Newton iteration; a surface without one raises
  InvariantViolation.  A hook-free curve runs a Newton search and raises
  NoConvergence when it still moves after NEWTON_MAX_ITER steps.  Newton
  starts from grid seeds, except inside a projection session (one per
  running flow, see projection_session), where it may start from the feet
  of the session's previous projection on the same curve and extend (the
  warm rule of nearest_curve_param).  Outside a session a projection is a
  pure function of its input.  Zero points give an empty Foot on every kind.
  nearest_curve_param and nearest_surface_param are the module functions
  behind project.

Desk checks evaluate each chart callable once per construction, on the
grid, closure ends or seam edges and derivative-check samples concatenated.
The embedding desk check keeps non-adjacent grid samples 1e-7 of the
diameter apart.

Desk checks run on hand-written charts only: a transported manifold
(`base`: the manifold it was flowed from) is the image of a checked one
under a flow, a diffeomorphism, so it is as regular, closed and embedded
as its base.  It is built with no check and no construction grid, and
answers the queries built on the chart callables alone, all that
J.evaluate reads; reach, diameter, grid_ball, grid_speed and project read
the grid and are for hand-written charts.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from ._stencil import sample_derivative
from .errors import (
    DegenerateImmersion,
    IllConditioned,
    InvariantViolation,
    NoConvergence,
    NonFinite,
)

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

_CHECK_RNG_SEED = 1097

# iteration cap of the nearest-point Newton search on a curve without a foot
# hook, which raises NoConvergence when it is reached
NEWTON_MAX_ITER = 25

# roundoff of p - chart(foot(p)) per unit |p| in the foot-hook desk check:
# the exact feet of 400 random circles and 400 random arcs (angles up to
# 13 rad) read up to 12 eps
FOOT_ROUNDOFF = 32.0 * np.finfo(float).eps

# roundoff of a central difference (f(t + h) - f(t - h)) / 2h per unit
# max|f| / h in the derivative desk checks: the exact charts of a segment
# from (50, 50) to (50.001, 50) and of a circle of radius 1e-3 centred at
# (200, 0) read up to 0.29 of it in dgamma, and the circle 2.25 in ddgamma
DIFF_ROUNDOFF = 4.0 * np.finfo(float).eps

# rows per block of the pair kernels (_nearest_seed, _embedding_extent): a
# 128 x 512 float64 block is 512 KiB and stays in cache.  Seeding 2,560
# points on a 512-point curve grid as one matrix builds three 10 MB
# temporaries and takes 10-12 ms on a 2-core Xeon, 2.5-3 ms in blocks
_BLOCK = 128


def _params(params, k: int) -> tuple[np.ndarray, ...]:
    """The k parameter arrays of a query as chart arguments: t for a curve
    (k = 1), the pair (u, v) of one shape for a surface (k = 2), scalars as
    one row."""
    return tuple(np.atleast_1d(np.asarray(x, dtype=float))
                 for x in ((params,) if k == 1 else params))


def _checked(where: str, label: str, value, shape: tuple) -> np.ndarray:
    """value, when it is a float64 array of the given shape; otherwise
    InvariantViolation naming the callable `label` that returned it."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.shape == shape):
        got = (f"{value.dtype} {value.shape}" if isinstance(value, np.ndarray)
               else type(value).__name__)
        raise InvariantViolation(
            f"{where}: {label} must return a float64 array of shape {shape}, "
            f"got {got}")
    return value


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


def _reach(kappa: np.ndarray) -> float:
    kmax = float(kappa.max())
    return 0.5 / kmax if kmax > 1e-12 else np.inf


def _reject(x, frame) -> np.ndarray:
    """x minus its components along the orthonormal vectors in frame, each
    taken against x itself."""
    x = np.asarray(x, dtype=float)
    out = x
    for e in frame:
        out = out - e * np.einsum("ij,ij->i", x, e)[:, None]
    return out


def _ramp(s: np.ndarray, a: float, b: float) -> np.ndarray:
    """Conormal-extension weight: -1 at s = a, +1 at s = b, a polynomial in
    between, so fixed-panel quadrature of anything built on it converges
    spectrally."""
    span = b - a
    return ((s - a) / span) ** 4 - ((b - s) / span) ** 4


# ---------------------------------------------------------------------------
# embedding desk check


def _pair_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of every row of a to every row of b by
    np.subtract.outer (no (n, m, dim) temporary), summed in norm's order:
    the same bits."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 += np.subtract.outer(a[:, k], b[:, k]) ** 2
    return d2


def _embedding_extent(pts: np.ndarray, nonadj: np.ndarray) -> tuple[float, float]:
    """(diameter, separation) of a sample set: the largest distance between
    two samples and the smallest between two non-adjacent ones (inf when
    no pair is non-adjacent).  Both are taken over blocks of _BLOCK rows of
    the distance matrix; max and min are exact, so the blocks change no
    bit.  sqrt is monotone and correctly rounded, so taking it after max /
    min gives the same bits as taking it first.
    """
    diam2, sep2 = 0.0, np.inf
    for k0 in range(0, len(pts), _BLOCK):
        d2 = _pair_sq_dist(pts[k0:k0 + _BLOCK], pts)
        diam2 = max(diam2, d2.max())
        sep2 = min(sep2, np.min(d2, where=nonadj[k0:k0 + _BLOCK], initial=np.inf))
    return float(np.sqrt(diam2)), float(np.sqrt(sep2))


def _far_separation(pts: np.ndarray, closed: bool, far: float) -> float:
    """A lower bound on the distance of two points of a sampled curve more
    than `far` apart along its polygon (closed across the seam), inf when
    none are: the least such distance between every 4th sample and the
    last, less the longest polygon stride between two of them."""
    if closed:
        pts = np.vstack([pts, pts[:1]])
    arc = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    idx = np.unique(np.append(np.arange(0, len(pts), 4), len(pts) - 1))
    gap = np.abs(np.subtract.outer(arc[idx], arc[idx]))
    if closed:
        gap = np.minimum(gap, arc[-1] - gap)
    d2 = _pair_sq_dist(pts[idx], pts[idx])
    near = np.sqrt(np.min(d2, where=gap > far, initial=np.inf))
    return max(near - np.diff(arc[idx]).max(), 0.0)


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False
    return mask


def _far_indices(n: int, period: int | None) -> np.ndarray:
    """Pairs of n indices more than one apart, cyclically when a period is
    given: the complement of a few bool diagonals, so no n x n integer
    array is built."""
    near = np.zeros((n, n), dtype=bool)
    for k in (-1, 0, 1):
        for shift in (0,) if period is None else (-period, 0, period):
            near |= np.eye(n, k=k + shift, dtype=bool)
    return ~near


@lru_cache(maxsize=None)
def _curve_nonadjacent(n: int, closed: bool) -> np.ndarray:
    """Pairs of n curve samples more than one step apart (across the seam
    of a closed curve too)."""
    return _frozen(_far_indices(n, n if closed else None))


@lru_cache(maxsize=None)
def _surface_nonadjacent(n: int) -> np.ndarray:
    """Pairs of an n x n surface grid outside each other's 8-neighborhood,
    the first and last columns adjacent: the chart closes in v."""
    far_u, far_v = _far_indices(n, None), _far_indices(n, n - 1)
    return _frozen((far_u[:, None, :, None] | far_v[None, :, None, :])
                   .reshape(n * n, n * n))


def _check_difference(where: str, label: str, plus, minus, got, h: float,
                      rel_tol: float, at: tuple):
    """Derivative desk check shared by curves and surfaces: `got` must match
    the central difference (plus - minus) / 2h of f to rel_tol of
    1 + |got|, or to the difference's roundoff DIFF_ROUNDOFF max|f| / h
    when that is larger.  `at`, the sample parameters (t,) or (u, v), names
    the failing one."""
    scale = 1.0 + np.linalg.norm(got, axis=1)
    rel = np.linalg.norm((plus - minus) / (2.0 * h) - got, axis=1) / scale
    fmax = max(np.linalg.norm(plus, axis=1).max(),
               np.linalg.norm(minus, axis=1).max())
    tol = np.maximum(rel_tol, DIFF_ROUNDOFF * fmax / h / scale)
    if np.any(rel > tol):
        k = int(np.argmax(rel / tol))
        vals = ", ".join(f"{x[k]:g}" for x in at)
        near = f"t = {vals}" if len(at) == 1 else f"(u, v) = ({vals})"
        raise InvariantViolation(
            f"{where}: {label} disagrees with finite differences near {near} "
            f"(rel {rel[k]:.2e})")


def _check_foot(where: str, foot, chart, partials, pts, normals, diam: float,
                sep: float, shape_msg: str):
    """Foot-hook desk check shared by curves and surfaces.

    Points pushed along +-normals by 1e-3 of the diameter, but at most a
    tenth of the separation of the embedding check, must project back onto
    the manifold at that distance, with p - chart orthogonal to every
    partial.  On a resolved grid the separation lies well inside the focal
    radius, so the cap keeps the probes of a thin shape (a cylinder much
    longer than wide) from crossing its axis.  Both residuals are held to
    1e-10 of the offset, or to FOOT_ROUNDOFF max|p| / offset when that is
    larger: the roundoff of p - chart grows with |p|, so an exact foot on a
    small shape far from the origin reads more than 1e-10.  foot(p)
    returns the tuple of float64 (n,) parameter arrays that chart and
    partials take; `shape_msg` names the expected mapping.
    """
    offset = min(1e-3 * diam, 0.1 * sep)
    p = np.concatenate([pts + offset * normals, pts - offset * normals])
    tol = max(1e-10, FOOT_ROUNDOFF * np.linalg.norm(p, axis=1).max() / offset)
    params = foot(p)
    if (len(params) != len(partials)
            or not all(isinstance(x, np.ndarray) and x.dtype == np.float64
                       and x.shape == (len(p),) for x in params)):
        raise InvariantViolation(f"{where}: foot must map {shape_msg} of float64")
    r = p - chart(*params)
    gap = np.abs(np.linalg.norm(r, axis=1) - offset) / offset
    tang = np.zeros(len(p))
    for fn in partials:
        d = fn(*params)
        tang = np.maximum(tang, np.abs(np.einsum("ij,ij->i", r, d))
                          / (offset * np.linalg.norm(d, axis=1)))
    worst = max(gap.max(), tang.max())
    if not worst <= tol:
        k = int(np.argmax(np.maximum(gap, tang)))
        at = ", ".join(f"{x[k]:g}" for x in params)
        near = f"({at})" if len(params) > 1 else f"t = {at}"
        raise InvariantViolation(
            f"{where}: foot is not the nearest point near {near} "
            f"(rel {worst:.2e})"
        )


# ---------------------------------------------------------------------------
# types


class _Sampled:
    """Construction-grid facts and the embedding desk check that curves
    and surfaces share (see the module docstring)."""

    @property
    def transported(self) -> bool:
        return self.base is not None

    @cached_property
    def grid_ball(self) -> tuple[np.ndarray, float]:
        mid = _frozen(self._grid_points.mean(axis=0))
        return mid, float(np.linalg.norm(self._grid_points - mid, axis=1).max())

    def normal_part(self, params, x) -> np.ndarray:
        return _reject(x, self.tangent_frame(params))

    def _values(self, where: str, label: str, *blocks) -> list:
        """The callable `label` on the concatenated parameter blocks, each a
        tuple of (k,) arrays (t, or u and v), checked against the array
        contract and split back into one value array per block."""
        args = [np.concatenate(x) for x in zip(*blocks)]
        out = _checked(where, label, getattr(self, label)(*args),
                       (len(args[0]), self.dim))
        return np.split(out, np.cumsum([len(b[0]) for b in blocks[:-1]]))

    def _check_embedding(self, where: str, pts: np.ndarray, nonadj: np.ndarray):
        """Keeps the grid points and the diameter; DegenerateImmersion when
        non-adjacent samples nearly coincide.  Returns (diameter,
        separation)."""
        object.__setattr__(self, "_grid_points", pts)
        diam, sep = _embedding_extent(pts, nonadj)
        if sep < 1e-7 * diam:
            raise DegenerateImmersion(
                f"{where}: samples nearly coincide (self-intersection?)")
        object.__setattr__(self, "diameter", diam)
        return diam, sep


@dataclass(frozen=True)
class ParamCurve(_Sampled):
    """Regular parametrized curve gamma: [a, b] -> R^dim (dim = 2 or 3).

    gamma, dgamma, ddgamma map (n,) float64 parameter arrays to float64
    (n, dim) values.  Construction of a hand-written chart runs desk checks:
    that array contract on every value they compute, regularity and an
    embedding test on a dense grid, endpoint matching for closed curves, and
    a finite-difference consistency test of the supplied derivatives.

    base is the curve this one was numerically flowed from (None on a
    hand-written chart; transported says whether it is set).  A transported
    curve checks only its parameter range and has no construction grid
    (see the module docstring).

    foot, when set, is an exact nearest-point map foot(pts, extend) -> t
    onto the curve with its parameter range widened to [a - extend,
    b + extend] (closed curves wrap and ignore extend); nearest_curve_param
    returns it with no grid seeding and no Newton iteration.  Construction
    checks it on grid points pushed off the curve along +-normal
    directions.  Flowed curves carry none.

    jets, when set, maps (n,) parameters to (gamma, gamma', gamma'') in one
    call, bit for bit the values of the three callables, which
    nearest_curve_param reads once per Newton iteration (a chart computes
    them from shared work, the catalog's ellipse and helix from one cos/sin
    pair).  Construction checks it against the three at the ends and the
    derivative check's samples.  Flowed and stepped curves carry none,
    since a copy of their base's jets would be its chart's.
    """

    dim: int
    a: float
    b: float
    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]
    ddgamma: Callable[[np.ndarray], np.ndarray]
    closed: bool
    name: str = "curve"
    base: ParamCurve | None = None
    foot: Callable[[np.ndarray, float], np.ndarray] | None = None
    jets: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
                   ] | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InvariantViolation(f"curve '{self.name}': dim must be 2 or 3")
        if not self.b > self.a:
            raise InvariantViolation(f"curve '{self.name}': need b > a")
        if self.transported:
            return
        n = 512
        if self.closed:
            grid = np.linspace(self.a, self.b, n + 1)[:-1]
        else:
            grid = np.linspace(self.a, self.b, n)
        where = f"curve '{self.name}'"
        # the derivative check's samples ts and their shifts ts +- h
        h = 1e-6 * (self.b - self.a)
        ts = np.random.default_rng(_CHECK_RNG_SEED).uniform(
            self.a + 2 * h, self.b - 2 * h, 32)
        ends, probes = (np.array([self.a, self.b]),), ((ts,), (ts + h,), (ts - h,))
        pts, g_ends, g_ts, g_plus, g_minus = self._values(
            where, "gamma", (grid,), ends, *probes)
        if not np.all(np.isfinite(pts)):
            raise InvariantViolation(
                f"{where}: gamma must map (n,) to finite (n, {self.dim})"
            )
        vel, dg_ends, dg_ts, dg_plus, dg_minus = self._values(
            where, "dgamma", (grid,), ends, *probes)
        speed = np.linalg.norm(vel, axis=1)
        if speed.min() <= 1e-12 * max(1.0, speed.max()):
            raise DegenerateImmersion(
                f"curve '{self.name}': speed vanishes near t = {grid[speed.argmin()]:g}"
            )
        extent = self._check_embedding(
            where, pts, _curve_nonadjacent(n, self.closed))
        ddg_ends, ddg_ts = self._values(where, "ddgamma", ends, probes[0])
        scale = 1.0 + np.abs(pts).max()
        if self.closed:
            for (va, vb), label, tol in (
                (g_ends, "gamma", 1e-12 * scale),
                (dg_ends, "dgamma", 1e-12 * scale),
                (ddg_ends, "ddgamma", 1e-8 * scale),
            ):
                if np.linalg.norm(va - vb) > tol:
                    raise InvariantViolation(
                        f"{where}: closed but {label}(a) != {label}(b)"
                    )
        _check_difference(where, "dgamma", g_plus, g_minus, dg_ts, h, 1e-6,
                          (ts,))
        _check_difference(where, "ddgamma", dg_plus, dg_minus, ddg_ts, h, 1e-6,
                          (ts,))
        if self.jets is not None:
            got = self.jets(np.concatenate([ends[0], ts]))
            want = [np.concatenate(v) for v in ((g_ends, g_ts), (dg_ends, dg_ts),
                                                (ddg_ends, ddg_ts))]
            if not (isinstance(got, tuple) and len(got) == 3 and all(
                    np.array_equal(x, y) for x, y in zip(got, want))):
                raise InvariantViolation(
                    f"{where}: jets differ from (gamma, dgamma, ddgamma) "
                    f"bit for bit")
        if self.foot is not None:
            _check_foot(where, lambda p: (self.foot(p, 0.0),),
                        self.gamma, (self.dgamma,), pts, self.unit_normal(grid),
                        *extent, f"(n, {self.dim}) to an (n,) array")
        object.__setattr__(self, "_grid_ts", grid)
        object.__setattr__(self, "grid_speed", _frozen(speed))

    # -- manifold queries (see the module docstring) ----------------------

    @cached_property
    def reach(self) -> float:
        curv = _reach(np.abs(curvature(self, self._grid_ts)))
        # pi / kmax = 2 pi curv
        far = _far_separation(self._grid_points, self.closed, 2.0 * np.pi * curv)
        return min(curv, 0.5 * far)

    def chart(self, t) -> np.ndarray:
        return self.gamma(*_params(t, 1))

    def tangent_frame(self, t) -> tuple[np.ndarray]:
        return (_unit_rows(self.dgamma(*_params(t, 1))),)

    def unit_normal(self, t) -> np.ndarray:
        (T,) = self.tangent_frame(t)
        if self.dim == 2:
            return np.stack([-T[:, 1], T[:, 0]], axis=-1)
        e = np.eye(3)[np.argmin(np.abs(T), axis=1)]
        e -= T * np.einsum("ij,ij->i", e, T)[:, None]
        return _unit_rows(e)

    def on_boundary(self, t) -> np.ndarray:
        (t,) = _params(t, 1)
        return ((t == self.a) | (t == self.b)) & (not self.closed)

    def conormal_extension(self, t) -> np.ndarray:
        (t,) = _params(t, 1)
        if self.closed:
            return np.zeros((len(t), self.dim))
        return _ramp(t, self.a, self.b)[:, None] * self.tangent_frame(t)[0]

    def project(self, pts, extend: float = 0.0) -> "Foot":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        session = _SESSION.get() if self.foot is None else None
        seed = None
        if session is not None:
            key = (id(self), extend)
            seed = _warm_seed(self, session.get(key), pts)
        # called through the module global, so a wrapper installed there
        # sees every projection
        t = nearest_curve_param(self, pts, extend, seed)
        if self.closed:
            held = np.zeros(len(t), dtype=bool)
        else:
            held = (t <= self.a - extend) | (t >= self.b + extend)
        foot = Foot(self, t, pts - self.chart(t), held)
        if session is not None:
            # the entry holds the curve, so its id is not reused meanwhile
            session[key] = (self, pts.copy(), t, foot.dist)
        return foot


@dataclass(frozen=True)
class ParamSurface(_Sampled):
    """Regular parametrized surface phi: [a,b] x [c,d] -> R^3.

    phi, phi_u, phi_v map pairs of (n,) arrays to (n, 3).  The surface has
    the topology of a cylinder: the u-sides are boundary, and construction
    raises InvariantViolation when phi or phi_v at v = c differs from its
    value at v = d, so every chart closes in v.

    base is the surface this one was numerically flowed from (None on a
    hand-written chart; transported says whether it is set).  A transported
    surface checks only its parameter box and has no construction grid
    (see the module docstring).

    foot is the exact nearest-point map foot(pts, extend_u) -> (u, v) onto
    the surface with its u-range widened by extend_u: the only way a
    surface projects.  Construction checks it on grid points pushed off the
    surface along +-N.  Flowed surfaces, and hand-written charts that are
    never projected, have none.
    """

    a: float
    b: float
    c: float
    d: float
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    phi_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    phi_v: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "surface"
    base: ParamSurface | None = None
    foot: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]] | None = None

    dim = 3

    def __post_init__(self):
        if not (self.b > self.a and self.d > self.c):
            raise InvariantViolation(f"surface '{self.name}': empty parameter box")
        if self.transported:
            return
        n = 24
        us = np.linspace(self.a, self.b, n)
        vs = np.linspace(self.c, self.d, n)
        U, V = np.meshgrid(us, vs, indexing="ij")
        uu, vv = U.ravel(), V.ravel()
        where = f"surface '{self.name}'"
        # seam edges: v = c then v = d along us
        v_seam = (np.concatenate([us, us]), np.repeat([self.c, self.d], n))
        # the derivative check's samples (su, sv) and their shifts
        rng = np.random.default_rng(_CHECK_RNG_SEED + 1)
        hu = 1e-6 * (self.b - self.a)
        hv = 1e-6 * (self.d - self.c)
        su = rng.uniform(self.a + 2 * hu, self.b - 2 * hu, 32)
        sv = rng.uniform(self.c + 2 * hv, self.d - 2 * hv, 32)
        pts, phi_vs, phi_up, phi_um, phi_vp, phi_vm = self._values(
            where, "phi", (uu, vv), v_seam, (su + hu, sv), (su - hu, sv),
            (su, sv + hv), (su, sv - hv))
        if not np.all(np.isfinite(pts)):
            raise InvariantViolation(
                f"{where}: phi must map (n,),(n,) to finite (n, 3)"
            )
        partials = ((uu, vv), v_seam, (su, sv))
        pu, _, pu_s = self._values(where, "phi_u", *partials)
        pv, pv_vs, pv_s = self._values(where, "phi_v", *partials)
        jac = np.linalg.norm(np.cross(pu, pv), axis=1)
        if jac.min() <= 1e-12 * max(1.0, jac.max()):
            k = jac.argmin()
            raise DegenerateImmersion(
                f"{where}: |phi_u x phi_v| vanishes near "
                f"(u, v) = ({uu[k]:g}, {vv[k]:g})"
            )
        _check_difference(where, "phi_u", phi_up, phi_um, pu_s, hu, 1e-6, (su, sv))
        _check_difference(where, "phi_v", phi_vp, phi_vm, pv_s, hv, 1e-6, (su, sv))
        # the v = c and v = d seams meet
        tol = 1e-12 * (1.0 + np.abs(pts).max())
        for label, x in (("phi", phi_vs), ("phi_v", pv_vs)):
            if (gap := np.abs(x[:n] - x[n:]).max()) > tol:
                raise InvariantViolation(
                    f"{where}: does not close in v ({label} at v = c and "
                    f"v = d differs by {gap:.3e} > {tol:.3e})")
        extent = self._check_embedding(where, pts, _surface_nonadjacent(n))
        if self.foot is not None:
            _check_foot(where, lambda p: self.foot(p, 0.0),
                        self.phi, (self.phi_u, self.phi_v), pts,
                        _unit_rows(np.cross(pu, pv)), *extent,
                        "(n, 3) to two (n,) arrays")
        object.__setattr__(self, "_grid_us", uu)
        object.__setattr__(self, "_grid_vs", vv)
        object.__setattr__(self, "grid_speed", _frozen(np.linalg.norm(pu, axis=1)))

    # -- manifold queries (see the module docstring) ----------------------

    @cached_property
    def reach(self) -> float:
        return _reach(surface_max_curvature(self, (self._grid_us, self._grid_vs)))

    def chart(self, params) -> np.ndarray:
        return self.phi(*_params(params, 2))

    def tangent_frame(self, params) -> tuple[np.ndarray, np.ndarray]:
        us, vs = _params(params, 2)
        e1 = _unit_rows(self.phi_u(us, vs))
        pv = self.phi_v(us, vs)
        return e1, _unit_rows(pv - e1 * np.einsum("ij,ij->i", pv, e1)[:, None])

    def unit_normal(self, params) -> np.ndarray:
        us, vs = _params(params, 2)
        cr = np.cross(self.phi_u(us, vs), self.phi_v(us, vs))
        ncr = np.linalg.norm(cr, axis=1)
        if ncr.min() <= 1e-12:
            k = ncr.argmin()
            raise DegenerateImmersion(
                f"surface '{self.name}': normal undefined at ({us[k]:g}, {vs[k]:g})"
            )
        return cr / ncr[:, None]

    def on_boundary(self, params) -> np.ndarray:
        us, _ = _params(params, 2)
        return (us == self.a) | (us == self.b)

    def conormal_extension(self, params) -> np.ndarray:
        us, vs = _params(params, 2)
        pv = self.phi_v(us, vs)
        nu = np.cross(pv, self.unit_normal((us, vs)))
        nu /= np.linalg.norm(pv, axis=1)[:, None]
        return _ramp(us, self.a, self.b)[:, None] * nu

    def project(self, pts, extend: float = 0.0) -> "Foot":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        uv = nearest_surface_param(self, pts, extend)
        return Foot(self, uv, pts - self.chart(uv))


@dataclass(frozen=True)
class FrenetFrame:
    """Frame data along a curve, one row per parameter: unit tangent T, unit
    normal N and curvature kappa."""

    T: np.ndarray
    N: np.ndarray
    kappa: np.ndarray


# ---------------------------------------------------------------------------
# frames and curvature


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b row by row; in the plane the signed a0 b1 - a1 b0 as a
    one-column array, so |c|^2 and c.dc read the same in the plane and in
    space."""
    if a.shape[1] == 2:
        return (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])[:, None]
    return np.cross(a, b)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b row by row, unconjugated, as column sums from the left:
    a0 b0 + a1 b1 (+ a2 b2), the order np.sum(a * b, axis=1) takes on rows
    of 2 and 3 (measured bit-equal on real and complex rows, n = 1 to
    4,800), without a reduction over the short axis."""
    acc = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[1]):
        acc += a[:, k] * b[:, k]
    return acc


def _row_norm(x: np.ndarray) -> np.ndarray:
    """|x| row by row as sqrt(x.x), unconjugated, with x.x summed by
    _row_dot from the left, (x0 x0 + x1 x1) + x2 x2: np.linalg.norm's bits
    on real rows, and analytic (no abs, no conj), so complex-step safe
    (functionals)."""
    return np.sqrt(_row_dot(x, x))


def _kappa(d1: np.ndarray, d2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Curvature from gamma', gamma'' and the speed v: the signed planar
    cross product, or |gamma' x gamma''| in space, over v^3."""
    c = _cross(d1, d2)
    return (c[:, 0] if d1.shape[1] == 2 else _row_norm(c)) / v**3


def curvature(curve: ParamCurve, t) -> np.ndarray:
    """Curvature without frame construction (safe where a 3d curve is straight).

    Signed in the plane, |gamma' x gamma''|/v^3 >= 0 in space.
    """
    (ts,) = _params(t, 1)
    d1 = curve.dgamma(ts)
    return _kappa(d1, curve.ddgamma(ts), _row_norm(d1))


def frenet_rows(curve: ParamCurve, t) -> tuple[FrenetFrame, np.ndarray]:
    """Frame at parameter(s) t and the mask of rows where a space curve is
    straight (|T'| at most 1e-12 relative to gamma''); N is 0 on those
    rows, so kappa N is the curvature vector on every row.  In the plane N
    is T turned by 90 degrees and the mask is all False."""
    (ts,) = _params(t, 1)
    d1 = curve.dgamma(ts)
    d2 = curve.ddgamma(ts)
    v = np.linalg.norm(d1, axis=1)
    if v.min() <= 1e-12:
        raise DegenerateImmersion(
            f"curve '{curve.name}': zero speed at t = {ts[v.argmin()]:g}"
        )
    T = d1 / v[:, None]
    kap = _kappa(d1, d2, v)
    if curve.dim == 2:
        N = np.stack([-T[:, 1], T[:, 0]], axis=-1)
        return FrenetFrame(T, N, kap), np.zeros(len(ts), dtype=bool)
    Tp = (d2 - T * np.einsum("ij,ij->i", T, d2)[:, None]) / v[:, None]
    nTp = np.linalg.norm(Tp, axis=1)
    straight = nTp <= 1e-12 * (1.0 + np.linalg.norm(d2, axis=1).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        N = Tp / nTp[:, None]
    N[straight] = 0.0
    return FrenetFrame(T, N, kap), straight


def curve_curvature_derivs(curve: ParamCurve, t):
    """(kappa, dkappa/ds, d2kappa/ds2) at parameter(s) t.

    Parameter derivatives of kappa use central differences with one
    Richardson step (5-point stencils, shifted inside [a, b] near open ends),
    then the chain rule converts to arc-length derivatives.
    """
    (ts,) = _params(t, 1)
    h = 1e-4 * (curve.b - curve.a)
    kfun = partial(curvature, curve)
    k = kfun(ts)
    k1 = sample_derivative(kfun, (ts,), h, 1, curve.a, curve.b, periodic=curve.closed)
    k2 = sample_derivative(kfun, (ts,), h, 2, curve.a, curve.b, periodic=curve.closed)
    d1 = curve.dgamma(ts)
    d2 = curve.ddgamma(ts)
    v = np.linalg.norm(d1, axis=1)
    vp = np.einsum("ij,ij->i", d1, d2) / v
    dk_ds = k1 / v
    d2k_ds2 = k2 / v**2 - k1 * vp / v**3
    return k, dk_ds, d2k_ds2


# ---------------------------------------------------------------------------
# mean and principal curvature


def _weingarten(surf: ParamSurface, params):
    """Coordinates (a1, a2, a3, a4) of N_u = a1 phi_u + a2 phi_v and
    N_v = a3 phi_u + a4 phi_v.

    N_u and N_v come from 5-point differences of the unit normal; their
    tangent coordinates solve the 2x2 Gram systems.
    """
    us, vs = _params(params, 2)
    h = 1e-5 * min(surf.b - surf.a, surf.d - surf.c)
    normal = lambda *uv: surf.unit_normal(uv)
    Nu = sample_derivative(normal, (us, vs), h, 1, surf.a, surf.b, along=0)
    Nv = sample_derivative(normal, (us, vs), h, 1, surf.c, surf.d,
                           periodic=True)
    pu = surf.phi_u(us, vs)
    pv = surf.phi_v(us, vs)
    E = np.einsum("ij,ij->i", pu, pu)
    F = np.einsum("ij,ij->i", pu, pv)
    G = np.einsum("ij,ij->i", pv, pv)
    half = 0.5 * (E + G)
    disc = np.sqrt(np.maximum(0.25 * (E - G) ** 2 + F**2, 0.0))
    lo, hi2 = half - disc, half + disc
    if np.any(hi2 > 1e10 * np.maximum(lo, 1e-300)):
        raise IllConditioned(
            f"surface '{surf.name}': tangent Gram system condition exceeds 1e10"
        )
    det = E * G - F * F
    a1 = (G * np.einsum("ij,ij->i", pu, Nu) - F * np.einsum("ij,ij->i", pv, Nu)) / det
    a2 = (E * np.einsum("ij,ij->i", pv, Nu) - F * np.einsum("ij,ij->i", pu, Nu)) / det
    a3 = (G * np.einsum("ij,ij->i", pu, Nv) - F * np.einsum("ij,ij->i", pv, Nv)) / det
    a4 = (E * np.einsum("ij,ij->i", pv, Nv) - F * np.einsum("ij,ij->i", pu, Nv)) / det
    return a1, a2, a3, a4


def surface_mean_curvature(surf: ParamSurface, params) -> np.ndarray:
    """Trace of the Weingarten map in the {phi_u, phi_v} basis.

    Sign follows the orientation of N (cylinder with inward N gives
    H = -1/r).
    """
    a1, _, _, a4 = _weingarten(surf, params)
    return a1 + a4


def surface_max_curvature(surf: ParamSurface, params) -> np.ndarray:
    """Largest |principal curvature|: the largest |eigenvalue| of the
    Weingarten map.  Unlike |H| it does not vanish on a saddle, so it bounds
    the reach from above wherever the surface bends."""
    a1, a2, a3, a4 = _weingarten(surf, params)
    half_tr = 0.5 * (a1 + a4)
    # the map is self-adjoint in the first fundamental form, so its
    # eigenvalues are real; clamp the roundoff below zero
    root = np.sqrt(np.maximum(half_tr**2 - (a1 * a4 - a2 * a3), 0.0))
    return np.abs(half_tr) + root


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=4)
def gauss_legendre(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of composite 5-point Gauss-Legendre on [lo, hi] with
    `panels` equal panels.  The last four rules are kept, keyed on (lo, hi,
    panels), as read-only arrays that every caller shares."""
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1] - edges[0])
    return (_frozen((mid[:, None] + halfw * GL_NODES[None, :]).ravel()),
            _frozen(np.tile(halfw * GL_WEIGHTS, panels)))


def integrate_curve(curve: ParamCurve, density: Callable[[np.ndarray], np.ndarray],
                    panels: int) -> float:
    """Integral of density(t) against the arc-length measure |gamma'(t)| dt.

    Composite 5-point Gauss-Legendre with `panels` equal panels; complex
    jets give a complex sum.  A non-finite one raises NonFinite.
    """
    nodes, wts = gauss_legendre(curve.a, curve.b, panels)
    speed = _row_norm(curve.dgamma(nodes))
    total = np.sum(wts * density(nodes) * speed)
    if not np.isfinite(total):
        raise NonFinite(f"integral over '{curve.name}' is not finite")
    return total.item()


def surface_nodes(surf: ParamSurface, panels: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, weights) of the tensor composite Gauss-Legendre rule on the
    parameter box, flattened u-major."""
    un, wu = gauss_legendre(surf.a, surf.b, panels[0])
    vn, wv = gauss_legendre(surf.c, surf.d, panels[1])
    U, V = np.meshgrid(un, vn, indexing="ij")
    return U.ravel(), V.ravel(), (wu[:, None] * wv[None, :]).ravel()


def integrate_surface(surf: ParamSurface,
                      density: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      panels: tuple[int, int]) -> float:
    """Integral of density(u, v) against the area measure |phi_u x phi_v| du
    dv, complex on complex jets; NonFinite when it is not finite."""
    uu, vv, W = surface_nodes(surf, panels)
    jac = _row_norm(np.cross(surf.phi_u(uu, vv), surf.phi_v(uu, vv)))
    total = np.sum(W * density(uu, vv) * jac)
    if not np.isfinite(total):
        raise NonFinite(f"integral over '{surf.name}' is not finite")
    return total.item()


# ---------------------------------------------------------------------------
# nearest-point projection (shared by flow invariance checks and field
# restrictions)


def _nearest_seed(pts: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Index of the seed nearest to each point: a |p - s|^2 argmin over
    blocks of _BLOCK points, so no n x m x dim temporary and no n x m
    matrix is built; a block's distances stay in cache.  Each block is
    s2 - 2 (p @ s.T) computed in place, the same arithmetic (the products
    by -2 and 2 are exact and addition commutes), so the argmin is bit for
    bit that of the whole matrix: ties go to the first seed."""
    s2 = (seeds ** 2).sum(axis=1)
    best = np.empty(len(pts), dtype=np.intp)
    for k0 in range(0, len(pts), _BLOCK):
        d2 = pts[k0:k0 + _BLOCK] @ seeds.T
        d2 *= -2.0
        d2 += s2
        best[k0:k0 + _BLOCK] = d2.argmin(axis=1)
    return best


# the projection session of the innermost running flow, None outside every
# flow: a dict keyed on (id(curve), extend) holding (curve, pts, t, dist)
# of the last projection onto that curve (see ParamCurve.project)
_SESSION: ContextVar[dict | None] = ContextVar("projection_session",
                                               default=None)


@contextmanager
def projection_session():
    """Scope in which projections onto a hook-free curve may start Newton
    from the feet of the previous projection onto the same curve and
    extend (the warm rule of nearest_curve_param).  flow._rk4 opens one per
    flow; a nested session shadows the outer one until it closes.  Being a
    context variable, a session is private to its thread.  Yields the
    session's dict, which flow._first_stage saves and restores with the
    stage it memoizes."""
    session = {}
    token = _SESSION.set(session)
    try:
        yield session
    finally:
        _SESSION.reset(token)


def _warm_seed(curve: ParamCurve, last, pts: np.ndarray) -> np.ndarray | None:
    """The feet of the session's last projection onto curve as Newton seeds
    for pts, or None (grid seeds) unless the warm rule holds."""
    if last is None:
        return None
    _, old_pts, old_t, old_dist = last
    if len(old_pts) != len(pts):
        return None
    move = np.linalg.norm(pts - old_pts, axis=1)
    reach = curve.reach
    # initial=0.0 lets zero points through (both maxima are of norms)
    if (move.max(initial=0.0) <= 0.1 * reach
            and (old_dist + move).max(initial=0.0) < reach):
        return old_t
    return None


def nearest_curve_param(curve: ParamCurve, pts: np.ndarray,
                        extend: float = 0.0,
                        seed: np.ndarray | None = None) -> np.ndarray:
    """Parameter of the point on the curve nearest to each ambient point.

    With extend > 0 the search interval widens to [a - extend, b + extend]
    (the callables must remain valid there); closed curves wrap instead.
    A curve with a foot hook returns foot(pts, extend): no seeding and no
    Newton cap.  Otherwise: seeds from the construction grid (a 768-point
    grid of the widened interval when extend > 0 on an open curve), or the
    caller's seed parameters, one per point, plus Newton on
    (p - gamma(t)).gamma'(t) = 0, every step taken downhill in the
    distance, so it settles in a minimum and not in a farthest point (a
    seed at an open end where the distance rises inward stays there).
    Raises NoConvergence when Newton still moves after NEWTON_MAX_ITER
    steps.  Each iteration reads gamma, gamma' and gamma'' from one call
    of the curve's jets, or from its three callables when it has none.

    The result is the nearest point when p lies inside the reach: there the
    foot is unique and the nearest grid seed lies in its basin.  Farther
    out a local minimum can be returned; callers keep their points inside
    the reach (tubes and probes are sized by it).  `reach` bounds only the
    curvature, so this assumes that no two stretches of the curve far apart
    along it, and no open end and another stretch, come closer than twice
    the reach.

    ParamCurve.project passes a seed only inside a projection session, and
    only under the warm rule: the points are as many as in the session's
    previous projection onto the same curve and extend, each has moved at
    most 0.1 reach since, and each one's old distance plus its move is
    below the reach.  The segment from old to new point then stays inside
    the reach, where the foot is unique and moves continuously (Federer,
    Curvature measures, 1959, Thm 4.8), so no point can cross the medial
    axis and the old foot lies in the basin of the new one.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if curve.foot is not None:
        return curve.foot(pts, extend)
    span = curve.b - curve.a
    if seed is not None:
        t = seed
    elif curve.closed or extend == 0.0:
        t = curve._grid_ts[_nearest_seed(pts, curve._grid_points)]
    else:
        seeds_t = np.linspace(curve.a - extend, curve.b + extend, 768)
        t = seeds_t[_nearest_seed(pts, curve.gamma(seeds_t))]
    lo = curve.a - extend
    hi = curve.b + extend
    tol = 1e-13 * span
    jets = curve.jets or (lambda t: (curve.gamma(t), curve.dgamma(t),
                                     curve.ddgamma(t)))
    for _ in range(NEWTON_MAX_ITER):
        g, dg, ddg = jets(t)
        r = pts - g
        f = np.einsum("ij,ij->i", r, dg)
        fp = np.einsum("ij,ij->i", r, ddg) - np.einsum("ij,ij->i", dg, dg)
        # f and fp are -F' and -F'' for F = |p - gamma(t)|^2 / 2.  Where F is
        # convex (fp < 0) the Newton step -f / fp goes downhill; elsewhere it
        # climbs toward a farthest point, so it is mirrored downhill instead
        step = f / np.maximum(np.abs(fp), 1e-300)
        step = np.clip(step, -0.1 * span, 0.1 * span)
        t = t + step
        if curve.closed:
            t = curve.a + np.mod(t - curve.a, span)
        else:
            t = np.clip(t, lo, hi)
            # a foot held at an end of the search interval by a step that
            # points out of it has converged there
            step = np.where(((t == lo) & (step < 0.0)) | ((t == hi) & (step > 0.0)),
                            0.0, step)
        # initial=0.0: zero points have converged
        if np.abs(step).max(initial=0.0) < tol:
            return t
    k = int(np.argmax(np.abs(step)))
    raise NoConvergence(
        f"curve '{curve.name}': nearest-point Newton still moving after "
        f"{NEWTON_MAX_ITER} steps (worst step {abs(step[k]):.3e} at t = {t[k]:g}, "
        f"tolerance {tol:.3e})"
    )


class Foot:
    """Nearest-point data of ambient points p over a curve or a surface, as
    returned by project (see the module docstring).

    params are the foot parameters (t, or the pair (u, v)),
    r = p - chart(params) the residual vector and dist = |r|.  The gradients
    are computed on first use, so a caller that needs only the values pays
    for no more than the projection:

    * grad_dist = r/dist, 0 where dist = 0;
    * grad_t, curves only: gamma'^T / (|gamma'|^2 - (p - gamma).gamma''),
      the implicit-function derivative of (p - gamma(t)).gamma'(t) = 0; 0
      where t is held at an open end of the search interval, and not finite
      at a focal point (the centre of a circle), where the foot is not
      differentiable.  Inside the reach the denominator is positive.
    """

    def __init__(self, manifold, params, r: np.ndarray,
                 held: np.ndarray | None = None):
        self.manifold = manifold
        self.params = params
        self.dist = np.linalg.norm(r, axis=1)
        self.r = r
        self._held = held

    @cached_property
    def grad_dist(self) -> np.ndarray:
        m = self.dist > 0.0
        if m.all():
            return self.r / self.dist[:, None]
        out = np.zeros_like(self.r)
        out[m] = self.r[m] / self.dist[m, None]
        return out

    @cached_property
    def grad_t(self) -> np.ndarray:
        curve = self.manifold
        dg = curve.dgamma(self.params)
        ddg = curve.ddgamma(self.params)
        den = np.einsum("ij,ij->i", dg, dg) - np.einsum("ij,ij->i", self.r, ddg)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = dg / den[:, None]
        out[self._held] = 0.0
        return out


def nearest_surface_param(surf: ParamSurface, pts: np.ndarray,
                          extend_u: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the nearest surface point per ambient point: the chart's
    exact foot(pts, extend_u); InvariantViolation on a surface without one."""
    if surf.foot is None:
        raise InvariantViolation(
            f"surface '{surf.name}': no foot map, so it cannot be projected")
    return surf.foot(np.atleast_2d(np.asarray(pts, dtype=float)), extend_u)
