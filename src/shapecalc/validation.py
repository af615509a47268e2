"""Executable form of the structure theorems.

Each suite turns one theorem clause into recorded numeric cases:

  * tangential nullity: fields tangent to the manifold (and to its boundary)
    leave every functional's derivative at zero, and their flows keep the
    manifold invariant;
  * locality: two fields agreeing on the manifold produce the same
    derivative, however different they are elsewhere;
  * normal dependence: the derivative of X equals the sum over the ambient
    realizations of its normal-bundle part and boundary-conormal part, the
    tangential part contributing nothing;
  * crack endpoint coefficients: for a crack functional, unit conormal
    probes at the tips extract the endpoint weights, interior normal probes
    sample the curvature density.

Nullity, normal dependence and crack read each derivative as the
discrete first variation of J's quadrature (derivative.discrete_variation),
which takes X and dX on M and no flow.  There it tests the theorem: the
Jacobian form of a tangent field, or of a field's tangential part, vanishes
only through an integration by parts, and a tip bump gives the crack's
endpoint weight.  Locality keeps the flow-based FD oracle: the discrete
variation depends on X only along M, so two fields that agree on M would
agree by construction.  `derivative.compare` keeps the oracle too, so
each closed form is checked against a derivative that shares no formula
with it; on the same comparisons the tests hold |FD - DV| within the
oracle's error.

Failures are recorded in the result cases, never raised: negative controls
are first-class citizens and carry expect_zero/expect_equal flags so that a
control that correctly violates its bound counts as a passed case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .derivative import FDConfig, discrete_variation, fd_quotients
from .errors import ProbeOverlap
from .fields import (AmbientField, _sample_params, bump_field, check_tangency,
                     last_call_memo, pullback_field, restriction_field,
                     smooth_step, smooth_step_jet, sum_field)
from .flow import INVARIANCE_BOUND, invariance_residual
from .functionals import CrackFunctional, length
from .geometry import ParamCurve, curvature

TANGENCY_TOL = 1e-12
NULLITY_TIME = 0.5
# interior stations per crack
CRACK_STATIONS = 3


@dataclass(frozen=True)
class SuiteCase:
    description: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class StructureSuiteResult:
    suite: str
    cases: list[SuiteCase]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


# ---------------------------------------------------------------------------
# tangential nullity


def tangential_nullity_suite(Js: Sequence, M, fields: Sequence[AmbientField],
                             negative: Sequence[AmbientField] = ()
                             ) -> list[StructureSuiteResult]:
    """Tangential fields must keep M invariant and each J in Js stationary;
    one result per functional.  Tangency and invariance depend on (M, X)
    only: each is measured once per field and reported under every
    functional's tag.  Fields in `negative` are controls expected to break
    tangency; their cases pass when the bounds are violated.
    """
    cases: list[list[SuiteCase]] = [[] for _ in Js]
    dj_bounds = [INVARIANCE_BOUND * (1.0 + abs(float(J.evaluate(M)))) for J in Js]
    for k, X in enumerate([*fields, *negative]):
        tr = check_tangency(M, X)
        tres = max(tr.max_normal_residual, tr.max_boundary_residual)
        inv = invariance_residual(X, M, NULLITY_TIME) if k < len(fields) else None
        for J, out, dj_bound in zip(Js, cases, dj_bounds):
            tag = f"{J.name}/{M.name}/{X.name}"
            val = abs(discrete_variation(J, M, X))
            if inv is None:
                out.append(SuiteCase(f"negative control breaks nullity [{tag}]",
                                     val, dj_bound,
                                     tres > TANGENCY_TOL and val > dj_bound))
                continue
            out += [SuiteCase(f"tangency residual [{tag}]", tres, TANGENCY_TOL,
                              tres <= TANGENCY_TOL),
                    SuiteCase(f"flow invariance t={NULLITY_TIME:g} [{tag}]", inv,
                              INVARIANCE_BOUND, inv <= INVARIANCE_BOUND),
                    SuiteCase(f"|dJ| [{tag}]", val, dj_bound, val <= dj_bound)]
    return [StructureSuiteResult("tangential_nullity", c) for c in cases]


# ---------------------------------------------------------------------------
# locality


@dataclass(frozen=True)
class LocalityPair:
    """Two fields that agree on the manifold (expect_equal) or deliberately
    do not (negative control), plus off-manifold witness points where they
    must differ."""

    X: AmbientField
    Y: AmbientField
    witness_points: np.ndarray
    description: str
    expect_equal: bool = True


def _samples_on(M, n: int) -> np.ndarray:
    # _sample_params' samples, less a closed curve's repeat of t = a at t = b
    if isinstance(M, ParamCurve):
        return M.chart(np.linspace(M.a, M.b, n, endpoint=not M.closed))
    return M.chart(_sample_params(M, n))


def locality_suite(J, M, pairs: Sequence[LocalityPair],
                   cfg: FDConfig) -> StructureSuiteResult:
    """Derivatives must agree for field pairs that coincide on M (checked on
    200 samples).  Each distinct field takes one FD derivative: the
    negative control of locality_pairs reuses pair 0's X."""
    cases: list[SuiteCase] = []
    pts = _samples_on(M, 200)
    fields = {id(Y): Y for pair in pairs for Y in (pair.X, pair.Y)}
    dj = {k: fd_quotients(J, M, Y, cfg).value for k, Y in fields.items()}
    for pair in pairs:
        tag = f"{J.name}/{M.name}/{pair.description}"
        on_m = float(np.abs(pair.X.X(pts) - pair.Y.X(pts)).max())
        wit = np.atleast_2d(np.asarray(pair.witness_points, dtype=float))
        off_m = float(np.abs(pair.X.X(wit) - pair.Y.X(wit)).max())
        vx, vy = dj[id(pair.X)], dj[id(pair.Y)]
        diff = abs(vx - vy)
        bound = 1e-6 * (1.0 + abs(vx))
        if pair.expect_equal:
            cases.append(SuiteCase(f"fields agree on M [{tag}]", on_m,
                                   TANGENCY_TOL, on_m <= TANGENCY_TOL))
            cases.append(SuiteCase(f"fields differ off M [{tag}]", off_m,
                                   0.0, off_m > 0.0))
            cases.append(SuiteCase(f"|dJ(X) - dJ(Y)| [{tag}]", diff, bound,
                                   diff <= bound))
        else:
            broke = on_m > TANGENCY_TOL and diff > bound
            cases.append(SuiteCase(
                f"negative control breaks locality [{tag}]", diff, bound, broke))
    return StructureSuiteResult("locality", cases)


def _squared_step_jet(s):
    S, dS = smooth_step_jet(s, order=1)
    return s * s * S, 2.0 * s * S + s * s * dS


# g(s) = s^2 step(s) and (g, g'): a tube profile that vanishes to second
# order on M, so a pullback_field built on it changes nothing on M,
# first space derivatives included, and shape derivatives must not move
_SQUARED_STEP = (lambda s: s * s * smooth_step(s), _squared_step_jet)


def locality_pairs(M, fields: Sequence[AmbientField]) -> list[LocalityPair]:
    """One pair per field: the field against itself plus an off-manifold
    discrepancy.  Appends a negative control whose discrepancy is an
    on-manifold bump: along the normal, or along the outward conormal at
    the end of an open curve."""
    rng = np.random.default_rng(0)
    delta = min(0.8 * M.reach, 0.2 * M.diameter)
    if isinstance(M, ParamCurve):
        open_curve = not M.closed
        # pullback_field ignores extend on a closed curve
        extend = min(0.5 * (M.b - M.a), 1.3 * delta / float(M.grid_speed.min()))
        params = M.a + (M.b - M.a) * np.array([0.3, 0.55, 0.8])
        mid = params[1]
    else:
        open_curve, extend = False, 0.0
        params = (M.a + (M.b - M.a) * np.array([0.3, 0.55, 0.8]),
                  M.c + (M.d - M.c) * np.array([0.2, 0.5, 0.85]))
        mid = (params[0][1], params[1][1])
    # witness points half a tube radius off the manifold
    foot = M.chart(params)
    off = M.unit_normal(params)
    witnesses = foot + 0.5 * delta * off

    pairs: list[LocalityPair] = []
    for i, X in enumerate(fields):
        W = rng.normal(size=M.dim)
        W = W / np.linalg.norm(W)
        D = pullback_field(M, W, delta, extend, f"tube-discrepancy{i}[{M.name}]",
                           profile=_SQUARED_STEP)
        pairs.append(LocalityPair(X, sum_field([X, D], f"{X.name}+{D.name}"),
                                  witnesses, f"{X.name} vs +off-M tube term", True))
    if fields:
        X = fields[0]
        D_on = _moving_bump(M, mid, delta, f"on-manifold-bump[{M.name}]",
                            open_curve)
        pairs.append(LocalityPair(X, sum_field([X, D_on], f"{X.name}+{D_on.name}"),
                                  witnesses, f"{X.name} vs +on-M bump", False))
    return pairs


# ---------------------------------------------------------------------------
# normal dependence (structure decomposition)


def normal_dependence_suite(J, M, fields: Sequence[AmbientField]
                            ) -> StructureSuiteResult:
    """dJ(X) = dJ(X-perp part) + dJ(X-conormal part); tangential part inert.

    Part fields are the ambient realizations of the orthogonal splitting
    restricted to M, so the comparison exercises the full pipeline: split,
    extend, differentiate.
    """
    cases: list[SuiteCase] = []
    for X in fields:
        tag = f"{J.name}/{M.name}/{X.name}"
        Xp = restriction_field(M, X, "perp")
        Xn = restriction_field(M, X, "nu")
        Xt = restriction_field(M, X, "tan")
        v, vp, vn, vt = (discrete_variation(J, M, Y) for Y in (X, Xp, Xn, Xt))
        scale = 1.0 + abs(v)
        bound = 1e-6 * scale
        resid = abs(v - vp - vn)
        cases.append(SuiteCase(f"additivity dJ(X)=dJ(Xperp)+dJ(Xnu) [{tag}]",
                               resid, bound, resid <= bound))
        cases.append(SuiteCase(f"tangential part inert [{tag}]", abs(vt),
                               bound, abs(vt) <= bound))
    return StructureSuiteResult("normal_dependence", cases)


# ---------------------------------------------------------------------------
# tangential probe fields (shared by the CLI and the test-suites)


def tangential_probe_fields(M, n: int = 5, seed: int = 0) -> list[AmbientField]:
    """Random fields tangent to M (and inert on its boundary).

    Curves get bump-modulated unit-tangent fields localized away from the
    endpoints and inside the focal radius; surfaces get tangent-frame waves
    on the chart, carried off the surface by pullback_field (tube 0.8 reach,
    no widening).  Both constructions keep the restriction to M smooth
    enough for the fixed-panel quadrature used by the built-in
    functionals."""
    rng = np.random.default_rng(seed)
    out: list[AmbientField] = []

    if isinstance(M, ParamCurve):
        span = M.b - M.a
        for i in range(n):
            # wide bumps keep the restriction slowly varying; the bending
            # integrand in particular punishes narrow probes with a
            # quadrature-error slope the extrapolation cannot remove
            if M.closed:
                t0 = M.a + span * rng.uniform(0.0, 1.0)
                center = M.chart(t0)[0]
                rho = min(0.25 * M.diameter, 0.8 * M.reach)
            else:
                t0 = M.a + span * rng.uniform(0.25, 0.75)
                center = M.chart(t0)[0]
                # keep the bump clear of both endpoints
                dend = float(np.linalg.norm(M.chart([M.a, M.b]) - center,
                                            axis=1).min())
                rho = min(0.25 * M.diameter, 0.8 * M.reach, 0.8 * dend)
            amp = rng.uniform(0.5, 1.5)
            foot = last_call_memo(M.project)

            def direction(pts, amp=amp, foot=foot):
                d1 = M.dgamma(foot(pts).params)
                return amp * d1 / np.linalg.norm(d1, axis=1)[:, None]

            def direction_jacobian(pts, amp=amp, foot=foot):
                # d(amp T(t(p))) = amp dT/dt (x) grad t, with
                # dT/dt = (gamma'' - T (T . gamma'')) / |gamma'|
                ft = foot(pts)
                d1 = M.dgamma(ft.params)
                d2 = M.ddgamma(ft.params)
                v = np.linalg.norm(d1, axis=1)[:, None]
                T = d1 / v
                dT = (d2 - T * np.einsum("ij,ij->i", T, d2)[:, None]) / v
                return amp * dT[:, :, None] * ft.grad_t[:, None, :]

            out.append(bump_field(center, rho, direction,
                                  name=f"tangent-bump{i}[{M.name}]",
                                  direction_jacobian=direction_jacobian))
        return out

    # surfaces: tangent-frame waves carried off the surface by
    # pullback_field, cut off in a tube of width delta.  The chart
    # modulation keeps the restriction to the surface analytic, which
    # fixed-panel quadrature resolves far better than sharp bumps; the tube
    # keeps the ambient support compact and masks the region where
    # nearest-point projection stops being single valued.
    span_u = M.b - M.a
    span_v = M.d - M.c
    delta = 0.8 * M.reach if np.isfinite(M.reach) else 0.5
    for i in range(n):
        c1 = rng.uniform(0.5, 1.5)
        c2 = rng.uniform(-1.0, 1.0)
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))
        th1 = rng.uniform(0.0, 2.0 * np.pi)
        th2 = rng.uniform(0.0, 2.0 * np.pi)

        def V(params, c1=c1, c2=c2, k1=k1, k2=k2, th1=th1, th2=th2):
            us, vs = params
            e1, e2 = M.tangent_frame(params)
            ang = 2.0 * np.pi * (vs - M.c) / span_v
            # modulation vanishing at the u-sides keeps X . nu = 0 there
            side = np.sin(np.pi * (us - M.a) / span_u) ** 2
            return side[:, None] * (c1 * np.cos(k1 * ang + th1)[:, None] * e1
                                    + c2 * np.cos(k2 * ang + th2)[:, None] * e2)

        out.append(pullback_field(M, V, delta, 0.0, f"tangent-wave{i}[{M.name}]"))
    return out


def _moving_bump(M, params, rho: float, name: str, at_end: bool
                 ) -> AmbientField:
    """A bump of radius rho that moves M: along the outward conormal at the
    end b of an open curve when at_end, else along the unit normal at the
    point params.  An interior normal bump leaves a geodesic's length
    stationary at first order, so open curves move an end instead."""
    if at_end:
        center, direction = M.chart(M.b)[0], M.conormal_extension(M.b)[0]
    else:
        center, direction = M.chart(params)[0], M.unit_normal(params)[0]
    return bump_field(center, rho, direction, name=name)


def nullity_negative_field(M) -> AmbientField:
    """Control field that must break the nullity suite: a _moving_bump, at
    the end of an open curve and inside any other manifold."""
    if isinstance(M, ParamCurve):
        rho, at_end = 0.2 * M.diameter, not M.closed
        params = M.a + 0.37 * (M.b - M.a)
    else:
        rho, at_end = 0.2 * M.grid_ball[1], False
        params = (0.5 * (M.a + M.b), M.c + 0.37 * (M.d - M.c))
    kind = "conormal-bump" if at_end else "normal-bump"
    return _moving_bump(M, params, rho, f"{kind}[{M.name}]", at_end)


# ---------------------------------------------------------------------------
# crack endpoint coefficients


@dataclass(frozen=True)
class CrackCoefficients:
    """Endpoint weights and interior density samples of a crack derivative,
    with the interior probe fields that took the samples."""

    alpha1: float
    alpha2: float
    h_samples: np.ndarray
    stations: np.ndarray
    probe_radius: float
    probes: tuple[AmbientField, ...]


def _tip_coefficients(J_crack: CrackFunctional, probe_radius: float
                      ) -> list[float]:
    """[alpha1, alpha2]: the derivative under a unit bump at each tip of the
    functional's crack along its outward conormal, over the probe's own
    trace value there."""
    curve = J_crack.crack
    alphas = []
    for t_end in (curve.a, curve.b):
        center, nu = curve.chart(t_end)[0], curve.conormal_extension(t_end)[0]
        X = bump_field(center, probe_radius, nu, name=f"tip-probe@{t_end:g}")
        trace = float(X.X(center[None, :])[0] @ nu)
        alphas.append(discrete_variation(J_crack, curve, X) / trace)
    return alphas


def extract_crack_coefficients(J_crack: CrackFunctional,
                               probe_radius: float | None = None
                               ) -> CrackCoefficients:
    """Probe the crack derivative with unit bumps on the functional's own
    crack curve, J_crack.crack.

    alpha_i = derivative under a bump at tip i directed along the outward
    conormal there, normalized by the probe's own trace value (which is 1
    for a unit bump); h_samples = derivatives under normal-directed bumps
    at CRACK_STATIONS equispaced interior stations, which it returns as
    `probes` so a caller reads their targets off the same fields.
    """
    curve = J_crack.crack
    if curve.closed:
        raise ProbeOverlap("crack endpoint probes need an open curve")
    if probe_radius is None:
        probe_radius = min(0.1 * length(curve), 0.5 * J_crack.margin)
    J_crack.require_probe(probe_radius)

    A, B = curve.chart(curve.a)[0], curve.chart(curve.b)[0]
    if np.linalg.norm(A - B) <= 2.0 * probe_radius:
        raise ProbeOverlap(
            f"endpoint probes of radius {probe_radius:g} overlap "
            f"(tip separation {np.linalg.norm(A - B):g})"
        )

    alpha1, alpha2 = _tip_coefficients(J_crack, probe_radius)

    stations = np.linspace(curve.a, curve.b, CRACK_STATIONS + 2)[1:-1]
    spts = curve.gamma(stations)
    dmin = min(float(np.linalg.norm(spts - A, axis=1).min()),
               float(np.linalg.norm(spts - B, axis=1).min()))
    if dmin <= probe_radius:
        raise ProbeOverlap(
            f"interior probes of radius {probe_radius:g} reach a crack tip "
            f"(closest station distance {dmin:g})"
        )
    probes = tuple(bump_field(c_j, probe_radius, curve.unit_normal(t_j)[0],
                              name=f"interior-probe@{t_j:g}")
                   for t_j, c_j in zip(stations, spts))
    h_vals = np.array([discrete_variation(J_crack, curve, X) for X in probes])
    return CrackCoefficients(alpha1=alpha1, alpha2=alpha2,
                             h_samples=h_vals, stations=stations,
                             probe_radius=float(probe_radius), probes=probes)


def crack_suite(J_crack: CrackFunctional) -> StructureSuiteResult:
    """Recorded crack-coefficient checks on the functional's own crack
    curve, J_crack.crack.

    Tips count as straight when |curvature| is at most 1e-9 at both ends.
    Straight tips with length as the inner functional: both tip coefficients
    are asserted to equal 1, the unit endpoint weights of the length
    variation.  Straight tips, any inner functional: the coefficients must
    be stable under probe halving (curved tips pollute that test at second
    order in the radius, so only the values are recorded there).  Length as
    the inner functional: each interior h-sample against the closed form
    J_crack.analytic_derivative on its probe, which reads the curvature
    density alone (extract_crack_coefficients keeps every probe clear of
    both tips).  Measured values and bounds are Python floats.
    """
    cases: list[SuiteCase] = []
    curve = J_crack.crack
    co = extract_crack_coefficients(J_crack)
    tag = f"{J_crack.name}/{curve.name}"
    is_length = J_crack.inner.name == "length"
    straight = np.abs(curvature(curve, np.array([curve.a, curve.b]))).max() <= 1e-9
    if is_length and straight:
        for nm, a in (("alpha1", co.alpha1), ("alpha2", co.alpha2)):
            err = abs(a - 1.0)
            cases.append(SuiteCase(f"{nm} = 1 [{tag}]", err, 1e-5, err <= 1e-5))
    if straight:
        # the tips alone: every overlap check passed at the full radius
        half = _tip_coefficients(J_crack, 0.5 * co.probe_radius)
        for nm, a, b in zip(("alpha1", "alpha2"), (co.alpha1, co.alpha2), half):
            d = abs(a - b)
            bound = 1e-5 * (1.0 + abs(a))
            cases.append(SuiteCase(
                f"{nm} stable under probe halving [{tag}]", d, bound, d <= bound))
    else:
        cases.append(SuiteCase(
            f"tip values recorded: alpha1={co.alpha1:.6g}, "
            f"alpha2={co.alpha2:.6g} (curved tips) [{tag}]", 0.0, 0.0, True))
    if is_length:
        for t_j, h_j, X in zip(co.stations, co.h_samples.tolist(), co.probes):
            err = abs(h_j - J_crack.analytic_derivative(curve, X))
            bound = 1e-5 * (1.0 + abs(h_j))
            cases.append(SuiteCase(
                f"h-sample at t={t_j:.4g} matches curvature density [{tag}]",
                err, bound, err <= bound))
    return StructureSuiteResult("crack", cases)
