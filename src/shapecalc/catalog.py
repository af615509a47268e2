"""Named builders for shapes, fields, and functionals.

Experiment configs address everything here by a `kind` string plus keyword
parameters.  Builders validate eagerly and raise ConfigError naming the
offending entry, so a bad config dies with a useful message before any
numerics run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, ShapecalcError
from .fields import (AmbientField, Ball, bump_field, smooth_step,
                     smooth_step_deriv, sum_field)
from .functionals import (CrackFunctional, area_functional, crack_functional,
                          elastic_functional, length_functional)
from .geometry import ParamCurve, ParamSurface

__all__ = [
    "SHAPE_KINDS", "FIELD_KINDS", "FUNCTIONAL_KINDS",
    "ParsedField",
    "build_shape", "parse_field", "build_field", "parse_functional",
    "compatible",
]

# Fields whose nominal forms do not decay (constant, linear, rotation, ...)
# are multiplied by a radial cutoff: identity on |p| <= CUTOFF_INNER, zero
# from CUTOFF_OUTER out, where a comparison would pass on 0 = 0, so
# cli.load_plan rejects a shape that reaches |p| >= CUTOFF_OUTER.  In between
# (helix1 reaches 6.36) closed forms and the oracle read the same cut-off
# field, Jacobian included.
CUTOFF_INNER = 6.0
CUTOFF_OUTER = 10.0

# smoothing length for the unit radial field at its axis singularity
RADIAL_EPS = 1e-4

_MISSING = object()


class _Params:
    """Keyword-parameter reader that reports errors against a config path."""

    def __init__(self, raw: dict, where: str):
        if not isinstance(raw, dict):
            raise ConfigError(
                f"{where}: parameters must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        self.raw = dict(raw)
        self.where = where

    def _take(self, key: str, default):
        """Remove and return the value under key, or default when it is
        absent; an absent required key (default _MISSING) raises.  Readers
        treat a null as absent only where the default is None."""
        val = self.raw.pop(key, default)
        if val is _MISSING:
            raise ConfigError(f"{self.where}: missing required parameter '{key}'")
        return val

    def scalar(self, key: str, default=_MISSING, positive: bool = False) -> float:
        val = self._take(key, default)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{self.where}: parameter '{key}' must be a number")
        val = float(val)
        if not np.isfinite(val):
            raise ConfigError(f"{self.where}: parameter '{key}' must be finite")
        if positive and val <= 0.0:
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be positive, got {val:g}"
            )
        return val

    def integer(self, key: str, default=_MISSING, minimum: int | None = None) -> int:
        val = self._take(key, default)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{self.where}: parameter '{key}' must be an integer")
        if minimum is not None and val < minimum:
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be at least {minimum}, "
                f"got {val}"
            )
        return val

    def boolean(self, key: str, default=_MISSING) -> bool:
        val = self._take(key, default)
        if not isinstance(val, bool):
            raise ConfigError(f"{self.where}: parameter '{key}' must be a boolean")
        return val

    def vector(self, key: str, default=_MISSING, dims=(2, 3)):
        val = self._take(key, default)
        if val is None and default is None:
            return None
        try:
            arr = np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a vector of numbers"
            ) from None
        if arr.ndim != 1 or len(arr) not in dims or not np.all(np.isfinite(arr)):
            want = " or ".join(str(d) for d in dims)
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a finite vector of "
                f"length {want}"
            )
        return arr

    def matrix(self, key: str):
        val = self._take(key, _MISSING)
        try:
            arr = np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a matrix of numbers"
            ) from None
        if (arr.ndim != 2 or arr.shape[0] != arr.shape[1]
                or arr.shape[0] not in (2, 3) or not np.all(np.isfinite(arr))):
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a finite square "
                f"matrix of size 2 or 3"
            )
        return arr

    def string(self, key: str, default=_MISSING) -> str:
        val = self._take(key, default)
        if val is None and default is None:
            return None
        if not isinstance(val, str) or not val:
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a non-empty string"
            )
        return val

    def sequence(self, key: str, default=_MISSING) -> list:
        val = self._take(key, default)
        if val is None and default is None:
            return []
        if not isinstance(val, (list, tuple)) or not val:
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a non-empty list"
            )
        return list(val)

    def mapping(self, key: str, default=_MISSING) -> dict:
        val = self._take(key, default)
        if val is None and default is None:
            return {}
        if not isinstance(val, dict):
            raise ConfigError(
                f"{self.where}: parameter '{key}' must be a JSON object"
            )
        return dict(val)

    def finish(self):
        if self.raw:
            extra = ", ".join(repr(k) for k in sorted(self.raw))
            raise ConfigError(f"{self.where}: unknown parameter(s) {extra}")


@contextmanager
def _as_config_error(prefix: str):
    """A builder's ShapecalcError, re-raised as a ConfigError led by prefix."""
    try:
        yield
    except ConfigError:
        raise
    except ShapecalcError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _split_desc(desc, where: str, kinds, named: bool = True):
    """Normalize a descriptor to (kind, name, params) with diagnostics."""
    if isinstance(desc, str):
        desc = {"kind": desc}
    if not isinstance(desc, dict):
        raise ConfigError(
            f"{where}: expected an object with a 'kind' key, got "
            f"{type(desc).__name__}"
        )
    params = dict(desc)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or not kind:
        raise ConfigError(f"{where}: missing 'kind'")
    if kind not in kinds:
        known = ", ".join(sorted(kinds))
        raise ConfigError(f"{where}: unknown kind '{kind}' (known: {known})")
    if not named:
        return kind, kind, params
    name = params.pop("name", kind)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}: 'name' must be a non-empty string")
    return kind, name, params


# ---------------------------------------------------------------------------
# shapes


def _circle_chart(r: float, center: np.ndarray, th0: float):
    """(gamma, gamma', gamma'') of the counterclockwise arc-length chart of
    the circle of radius r about center, starting at the angle th0."""
    def gamma(ts):
        th = th0 + ts / r
        return center + r * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def dgamma(ts):
        th = th0 + ts / r
        return np.stack([-np.sin(th), np.cos(th)], axis=-1)

    def ddgamma(ts):
        th = th0 + ts / r
        return np.stack([-np.cos(th), -np.sin(th)], axis=-1) / r

    return gamma, dgamma, ddgamma


def _shape_circle(p: _Params, name: str) -> ParamCurve:
    r = p.scalar("radius", default=1.0, positive=True)
    center = p.vector("center", default=(0.0, 0.0), dims=(2,))
    p.finish()
    gamma, dgamma, ddgamma = _circle_chart(r, center, 0.0)

    # exact nearest point: the angle of p about the centre (the centre
    # itself takes angle 0); a closed curve ignores extend
    def foot(pts, extend):
        q = pts - center
        return r * np.mod(np.arctan2(q[:, 1], q[:, 0]), 2.0 * np.pi)

    return ParamCurve(dim=2, a=0.0, b=2.0 * np.pi * r, gamma=gamma,
                      dgamma=dgamma, ddgamma=ddgamma, closed=True, name=name,
                      foot=foot)


def _shape_segment(p: _Params, name: str) -> ParamCurve:
    p0 = p.vector("p0")
    p1 = p.vector("p1")
    p.finish()
    if len(p0) != len(p1):
        raise ConfigError(f"{p.where}: p0 and p1 have different dimensions")
    L = float(np.linalg.norm(p1 - p0))
    if L <= 1e-12:
        raise ConfigError(f"{p.where}: p0 and p1 coincide")
    u = (p1 - p0) / L
    dim = len(p0)
    a, b = 0.0, L

    def gamma(ts):
        return p0 + ts[:, None] * u

    def dgamma(ts):
        return np.broadcast_to(u, (len(ts), dim)).copy()

    def ddgamma(ts):
        return np.zeros((len(ts), dim))

    # exact nearest point: the coordinate along u, clipped to the widened
    # range with the bounds ParamCurve.project's held test compares against
    def foot(pts, extend):
        s = (pts - p0) @ u
        return np.clip(s, a - extend, b + extend)

    return ParamCurve(dim=dim, a=a, b=b, gamma=gamma, dgamma=dgamma,
                      ddgamma=ddgamma, closed=False, name=name, foot=foot)


def _shape_ellipse(p: _Params, name: str) -> ParamCurve:
    sa = p.scalar("a", positive=True)
    sb = p.scalar("b", positive=True)
    p.finish()

    def gamma(ts):
        return np.stack([sa * np.cos(ts), sb * np.sin(ts)], axis=-1)

    def dgamma(ts):
        return np.stack([-sa * np.sin(ts), sb * np.cos(ts)], axis=-1)

    def ddgamma(ts):
        return np.stack([-sa * np.cos(ts), -sb * np.sin(ts)], axis=-1)

    return ParamCurve(dim=2, a=0.0, b=2.0 * np.pi, gamma=gamma,
                      dgamma=dgamma, ddgamma=ddgamma, closed=True, name=name)


def _shape_helix(p: _Params, name: str) -> ParamCurve:
    r = p.scalar("radius", default=1.0, positive=True)
    pitch = p.scalar("pitch")
    turns = p.scalar("turns", default=1.0, positive=True)
    p.finish()
    c = pitch / (2.0 * np.pi)

    def gamma(ts):
        return np.stack([r * np.cos(ts), r * np.sin(ts), c * ts], axis=-1)

    def dgamma(ts):
        return np.stack([-r * np.sin(ts), r * np.cos(ts),
                         np.full_like(ts, c)], axis=-1)

    def ddgamma(ts):
        return np.stack([-r * np.cos(ts), -r * np.sin(ts),
                         np.zeros_like(ts)], axis=-1)

    return ParamCurve(dim=3, a=0.0, b=2.0 * np.pi * turns, gamma=gamma,
                      dgamma=dgamma, ddgamma=ddgamma, closed=False, name=name)


def _shape_cylinder(p: _Params, name: str) -> ParamSurface:
    r = p.scalar("radius", default=1.0, positive=True)
    h = p.scalar("height", default=1.0, positive=True)
    p.finish()

    def phi(us, vs):
        return np.stack([r * np.cos(vs), r * np.sin(vs), us], axis=-1)

    def phi_u(us, vs):
        return np.stack([np.zeros_like(us), np.zeros_like(us),
                         np.ones_like(us)], axis=-1)

    def phi_v(us, vs):
        return np.stack([-r * np.sin(vs), r * np.cos(vs),
                         np.zeros_like(vs)], axis=-1)

    # exact nearest point: height clipped to the widened axis range, angle
    # read off the position (a point on the axis takes angle 0)
    def foot(pts, extend_u):
        u = np.clip(pts[:, 2], -extend_u, h + extend_u)
        v = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        return u, v

    return ParamSurface(a=0.0, b=h, c=0.0, d=2.0 * np.pi, phi=phi,
                        phi_u=phi_u, phi_v=phi_v, name=name, foot=foot)


def _shape_arc(p: _Params, name: str) -> ParamCurve:
    r = p.scalar("radius", default=1.0, positive=True)
    a0 = p.scalar("angle0")
    a1 = p.scalar("angle1")
    p.finish()
    if not a1 > a0:
        raise ConfigError(f"{p.where}: angle1 must exceed angle0")
    if a1 - a0 >= 2.0 * np.pi:
        raise ConfigError(
            f"{p.where}: arc spans a full turn or more; use a circle"
        )

    gamma, dgamma, ddgamma = _circle_chart(r, np.zeros(2), a0)

    # exact nearest point: the angle of p unwrapped into the turn centred on
    # the arc's mid-angle, so a point beyond either end lands nearer that
    # end, then clipped to the widened range as ParamCurve.project's held
    # test expects
    a, b = 0.0, r * (a1 - a0)
    mid = 0.5 * (a0 + a1)

    def foot(pts, extend):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        th = mid + np.mod(th - mid + np.pi, 2.0 * np.pi) - np.pi
        return np.clip(r * (th - a0), a - extend, b + extend)

    return ParamCurve(dim=2, a=a, b=b, gamma=gamma, dgamma=dgamma,
                      ddgamma=ddgamma, closed=False, name=name, foot=foot)


SHAPE_KINDS: Mapping[str, Callable] = {
    "circle": _shape_circle,
    "segment": _shape_segment,
    "ellipse": _shape_ellipse,
    "helix": _shape_helix,
    "cylinder": _shape_cylinder,
    "arc": _shape_arc,
}


def build_shape(desc, where: str = "shape"):
    """Build a ParamCurve or ParamSurface from a descriptor."""
    kind, name, params = _split_desc(desc, where, SHAPE_KINDS)
    with _as_config_error(f"{where}: cannot build shape '{name}': "):
        return SHAPE_KINDS[kind](_Params(params, where), name)


# ---------------------------------------------------------------------------
# fields


def _localized(nominal_X, nominal_dX, dim: int, name: str) -> AmbientField:
    """Multiply a smooth unbounded field by the hold-all cutoff.

    The cutoff is identically 1 on |p| <= CUTOFF_INNER, so values and
    Jacobians near the catalog shapes are exactly those of the nominal
    field, returned as they are; the cutoff and, for the Jacobian, the
    product rule are applied only to the rows outside that radius, in
    place (the nominal forms return new arrays).
    """
    span = CUTOFF_OUTER - CUTOFF_INNER

    def shell_of(pts):
        # |p| > CUTOFF_INNER read on squares: sqrt is monotone and correctly
        # rounded, so the shell is the same set, and only its rows take norms
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r2 = pts[:, 0] * pts[:, 0]
        for k in range(1, dim):
            r2 += pts[:, k] * pts[:, k]
        shell = r2 > CUTOFF_INNER ** 2
        return pts, np.linalg.norm(pts[shell], axis=1), shell

    def X(pts):
        pts, rr, shell = shell_of(pts)
        out = nominal_X(pts)
        if shell.any():
            w = smooth_step((rr - CUTOFF_INNER) / span)
            out[shell] = w[:, None] * out[shell]
        return out

    def dX(pts):
        pts, rr, shell = shell_of(pts)
        out = nominal_dX(pts)
        if shell.any():
            s = (rr - CUTOFF_INNER) / span
            w = smooth_step(s)
            dw = smooth_step_deriv(s) / span
            grad = np.zeros((len(rr), dim))
            act = dw != 0.0
            grad[act] = (dw[act] / rr[act])[:, None] * pts[shell][act]
            out[shell] = (w[:, None, None] * out[shell]
                          + nominal_X(pts)[shell][:, :, None] * grad[:, None, :])
        return out

    return AmbientField(dim=dim, X=X, dX=dX,
                        support=Ball(np.zeros(dim), CUTOFF_OUTER), name=name)


def _linear_nominal(A: np.ndarray):
    def X(pts):
        return pts @ A.T

    def dX(pts):
        return np.broadcast_to(A, (len(pts), *A.shape)).copy()

    return X, dX


def _field_constant(p: _Params, name: str):
    v = p.vector("vector")
    p.finish()
    dim = len(v)

    def make(d):
        def X(pts):
            return np.broadcast_to(v, (len(pts), dim)).copy()

        def dX(pts):
            return np.zeros((len(pts), dim, dim))

        return _localized(X, dX, dim, name)

    return frozenset({dim}), make


def _field_radial(p: _Params, name: str):
    p.finish()

    def make(dim):
        # unit vector away from the origin (d=2) or the vertical axis (d=3);
        # RADIAL_EPS rounds off the singularity without moving on-shape
        # values by more than eps^2/2 relative
        proj = np.eye(dim)
        if dim == 3:
            proj[2, 2] = 0.0

        def X(pts):
            q = pts @ proj
            rho = np.sqrt((q * q).sum(axis=1) + RADIAL_EPS**2)
            return q / rho[:, None]

        def dX(pts):
            q = pts @ proj
            rho = np.sqrt((q * q).sum(axis=1) + RADIAL_EPS**2)
            return (proj[None, :, :] / rho[:, None, None]
                    - q[:, :, None] * q[:, None, :] / rho[:, None, None]**3)

        return _localized(X, dX, dim, name)

    return frozenset({2, 3}), make


def _field_rotation(p: _Params, name: str):
    axis = p.vector("axis", default=None, dims=(3,))
    p.finish()
    if axis is None:
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        return frozenset({2}), lambda d: _localized(*_linear_nominal(A), 2, name)
    nrm = float(np.linalg.norm(axis))
    if nrm <= 1e-12:
        raise ConfigError(f"{p.where}: parameter 'axis' must be nonzero")
    ax = axis / nrm
    A = np.array([[0.0, -ax[2], ax[1]],
                  [ax[2], 0.0, -ax[0]],
                  [-ax[1], ax[0], 0.0]])
    return frozenset({3}), lambda d: _localized(*_linear_nominal(A), 3, name)


def _field_linear(p: _Params, name: str):
    A = p.matrix("matrix")
    p.finish()
    dim = A.shape[0]
    return frozenset({dim}), lambda d: _localized(*_linear_nominal(A), dim, name)


def _field_bump(p: _Params, name: str):
    center = p.vector("center")
    radius = p.scalar("radius", positive=True)
    direction = p.vector("dir", dims=(len(center),))
    p.finish()
    return frozenset({len(center)}), lambda d: bump_field(center, radius,
                                                          direction, name=name)


def _field_sum(p: _Params, name: str):
    raw_terms = p.sequence("terms")
    p.finish()
    parsed = [parse_field(t, where=f"{p.where}.terms[{i}]")
              for i, t in enumerate(raw_terms)]
    dims = frozenset.intersection(*[q.dims for q in parsed])
    if not dims:
        raise ConfigError(f"{p.where}: terms have no common dimension")

    def make(dim):
        return sum_field([q.build(dim) for q in parsed], name=name)

    return dims, make


FIELD_KINDS: Mapping[str, Callable] = {
    "constant": _field_constant,
    "radial": _field_radial,
    "rotation": _field_rotation,
    "linear": _field_linear,
    "bump": _field_bump,
    "sum": _field_sum,
}


@dataclass(frozen=True)
class ParsedField:
    """Validated field descriptor, instantiable per ambient dimension; build
    makes each dimension's field once, and every job of a plan shares it."""

    name: str
    dims: frozenset
    where: str
    _make: Callable[[int], AmbientField] = field(repr=False)
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def build(self, dim: int) -> AmbientField:
        if dim not in self.dims:
            have = " or ".join(str(d) for d in sorted(self.dims))
            raise ConfigError(
                f"{self.where}: field '{self.name}' lives in dimension "
                f"{have}, not {dim}"
            )
        if dim not in self._built:
            with _as_config_error(
                    f"{self.where}: cannot build field '{self.name}': "):
                self._built[dim] = self._make(dim)
        return self._built[dim]


def parse_field(desc, where: str = "field") -> ParsedField:
    """Validate a field descriptor; building is deferred per dimension."""
    kind, name, params = _split_desc(desc, where, FIELD_KINDS)
    dims, make = FIELD_KINDS[kind](_Params(params, where), name)
    return ParsedField(name=name, dims=dims, where=where, _make=make)


def build_field(desc, dim: int, where: str = "field") -> AmbientField:
    return parse_field(desc, where).build(dim)


# ---------------------------------------------------------------------------
# functionals


FUNCTIONAL_KINDS = ("length", "area", "elastic", "crack")


def parse_functional(desc, shapes: Mapping[str, object],
                     where: str = "functional"):
    """Resolve a functional descriptor to a ShapeFunctional, or to a
    CrackFunctional carrying the crack curve it names by shape."""
    kind, _, params = _split_desc(desc, where, FUNCTIONAL_KINDS, named=False)
    p = _Params(params, where)
    if kind == "length":
        p.finish()
        return length_functional()
    if kind == "area":
        p.finish()
        return area_functional()
    if kind == "elastic":
        p.finish()
        return elastic_functional()

    inner_kind = p.string("inner", default="length")
    crack_name = p.string("crack")
    center = p.vector("region_center")
    radius = p.scalar("region_radius", positive=True)
    p.finish()
    if inner_kind not in ("length", "elastic"):
        raise ConfigError(
            f"{where}: crack inner functional must be 'length' or 'elastic', "
            f"got '{inner_kind}'"
        )
    if crack_name not in shapes:
        known = ", ".join(sorted(shapes)) or "none defined"
        raise ConfigError(
            f"{where}: crack references unknown shape '{crack_name}' "
            f"(shapes: {known})"
        )
    crack = shapes[crack_name]
    if not isinstance(crack, ParamCurve) or crack.closed:
        raise ConfigError(
            f"{where}: crack shape '{crack_name}' must be an open curve"
        )
    if len(center) != crack.dim:
        raise ConfigError(
            f"{where}: region_center has dimension {len(center)}, crack "
            f"'{crack_name}' has dimension {crack.dim}"
        )
    inner = length_functional() if inner_kind == "length" else elastic_functional()
    with _as_config_error(f"{where}: "):
        return crack_functional(Ball(center, radius), crack, inner=inner)


def compatible(functional, shape) -> bool:
    """Whether a (functional, shape) pairing is well-posed.

    length takes any curve, area any surface, elastic any planar curve.
    Crack functionals are tied to the crack curve they were built around
    and never enter the generic cross product.
    """
    if isinstance(functional, CrackFunctional):
        return False
    if functional.name == "length":
        return isinstance(shape, ParamCurve)
    if functional.name == "area":
        return isinstance(shape, ParamSurface)
    if functional.name == "elastic":
        return isinstance(shape, ParamCurve) and shape.dim == 2
    return False
