"""Flows of ambient fields and transported manifolds.

The flow map Phi_t solves x' = X(x) with a fixed-step RK4 integrator; the
space Jacobian dPhi_t is co-transported through the variational equation
(dPhi)' = dX(Phi) dPhi.  Both flows step one RK4 loop, so the points of the
joint flow are bit for bit those of the point flow.

A transported manifold is one body for curves and surfaces.  Its chart is
the point flow of the base chart; each first partial is the base partial
carried by the Jacobian flow of the base chart at the same parameters,

    (Phi_t o gamma)'(s) = dPhi_t(gamma(s)) gamma'(s),

and the partials at one parameter set share one Jacobian flow (gamma' on
a curve, phi_u and phi_v on a surface).  A curve's second derivative is a
5-point difference of its transported gamma' (wrapped across the seam of
a closed curve, shifted inside open ends); a surface gets none, since
area reads only the first partials.

Each RK4 flow opens one projection session (geometry.projection_session):
inside it, a nearest-point projection onto a hook-free curve starts Newton
from the feet of the previous stage's projection onto the same curve when
the points have moved little, instead of from the curve's grid.
invariance_residual projects its flowed samples in one more session, so
on a hook-free curve each of its projections after the first starts from
the feet before it.

The first RK4 stage of a flow, the field at its start points (with J = I
in a joint flow), is shared by consecutive flows of one field and kind
from the same points (_first_stage).  Every level of an FD schedule
flows the base nodes, so a schedule computes that stage once, at its
first level; invariance_residual computes it once for all the levels of
its Richardson table.  A served stage comes with the projection session
its computation left behind, so sharing changes no bit.

richardson_row is the one row update of both Richardson triangles: the
FD quotients' (derivative, leading order 1) and the invariance
residual's (RK4, leading order 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._stencil import sample_derivative
from .errors import InvariantViolation, NoConvergence, NonFinite
from .fields import AmbientField, last_call_memo
from .geometry import ParamCurve, projection_session

DEFAULT_MAX_STEP = 0.01
MAX_FLOW_STEPS = 10**6  # ~35 min on 2,560 nodes with Jacobian transport
# samples flowed by a tangent field may stray from M by at most
# INVARIANCE_BOUND; invariance_residual holds the RK4 error in the residual
# it measures to a 1e-5 share of that, so the residual speaks of the field
INVARIANCE_BOUND = 1e-7
INVARIANCE_BUDGET = 1e-5 * INVARIANCE_BOUND


def step_count(t: float) -> int:
    """Fewest RK4 steps of at most DEFAULT_MAX_STEP that reach time t."""
    return max(1, math.ceil(abs(t) / DEFAULT_MAX_STEP))


def richardson_row(row: list, value, p: int) -> list:
    """Row i of a Richardson triangle from row i - 1 (`row`, [] at i = 0)
    and the value at level i, whose step is half that of level i - 1:

        R[i][0] = value,
        R[i][j] = R[i][j-1] + (R[i][j-1] - R[i-1][j-1]) / (2^(p+j-1) - 1),

    which removes the h^p, h^(p+1), ... terms of a value with leading
    error order p (Hairer, Norsett & Wanner, Solving ODEs I, II.9).  The
    entries may be floats or arrays."""
    new = [value]
    for j, below in enumerate(row, start=1):
        new.append(new[-1] + (new[-1] - below) / (2.0 ** (p + j - 1) - 1.0))
    return new


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 flow to time t_final in n_steps steps, a positive
    integer; step_count(t_final) is the fewest steps of at most
    DEFAULT_MAX_STEP."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise InvariantViolation("n_steps must be a positive integer")


# (field, key, stage, session) of the last flow's first RK4 stage, replaced
# as one object; holding the field keeps its id from being reused
_first: list = [None]


def _first_stage(rhs, state: tuple, field, kind: str, session: dict) -> tuple:
    """rhs(*state) at the start of a flow, from a one-entry memo keyed on
    the field, the flow kind ("point" or "joint") and the start points'
    shape and bytes: the levels of an FD schedule flow the same points
    (from J = I in a joint flow) one after the other.  A miss drops the old
    entry before computing; _rk4 never writes into a stage.

    The flow's projection session is empty at its first stage, and the
    memo keeps what the stage put there: a hit restores it, so the second
    stage warm-starts from the same feet as when the first is computed."""
    x = state[0]
    key = (kind, x.shape, x.tobytes())
    entry = _first[0]
    if entry is None or entry[0] is not field or entry[1] != key:
        _first[0] = None
        entry = _first[0] = (field, key, rhs(*state), dict(session))
    else:
        session.update(entry[3])
    return entry[2]


def _rk4(rhs, state: tuple, cfg: FlowConfig, field, kind: str) -> tuple:
    """Classical RK4 on a tuple of arrays; rhs maps the arrays to their
    rates.  At t_final = 0 this returns copies without calling rhs.  The
    first stage comes from _first_stage.

    The steps run in one projection session, so a field that projects
    onto a hook-free curve warm-starts each stage's Newton search from the
    feet of the stage before (geometry.nearest_curve_param)."""
    h = cfg.t_final / cfg.n_steps
    if h == 0.0:
        return tuple(s.copy() for s in state)
    half, sixth = 0.5 * h, h / 6.0
    with projection_session() as session:
        for step in range(cfg.n_steps):
            k1 = (_first_stage(rhs, state, field, kind, session) if step == 0
                  else rhs(*state))
            k2 = rhs(*[s + half * k for s, k in zip(state, k1)])
            k3 = rhs(*[s + half * k for s, k in zip(state, k2)])
            k4 = rhs(*[s + h * k for s, k in zip(state, k3)])
            # s + sixth * (a + 2b + 2c + d), summed in place in that order
            # (the sums commute bit for bit)
            new = []
            for s, a, b, c, d in zip(state, k1, k2, k3, k4):
                acc = 2.0 * b
                acc += a
                acc += 2.0 * c
                acc += d
                acc *= sixth
                acc += s
                new.append(acc)
            state = new
            if not all(np.isfinite(s).all() for s in state):
                raise NonFinite(f"flow of '{field.name}' left the numeric range")
    return tuple(state)


def flow_point(field: AmbientField, x0, cfg: FlowConfig) -> np.ndarray:
    """Flow one point or a batch (n, d) of points to time t_final.

    At t_final = 0 the flow is the identity and the field is not called.
    """
    x = np.asarray(x0, dtype=float)
    X = field.X
    (out,) = _rk4(lambda xc: (X(xc),), (np.atleast_2d(x),), cfg, field, "point")
    return out[0] if x.ndim == 1 else out


def flow_with_jacobian(field: AmbientField, x0,
                       cfg: FlowConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_t(x0), dPhi_t(x0)) for a batch of points, via the joint RK4 on
    the variational system.  At t_final = 0 this is (x0, I) without a
    field call."""
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = x.shape
    X, dX = field.X, field.dX

    def rhs(xc, Jc):
        return X(xc), _jacobian_product(dX(xc), Jc)

    return _rk4(rhs, (x, np.broadcast_to(np.eye(d), (n, d, d)).copy()), cfg,
                field, "joint")


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


def second_derivative_step(field: AmbientField, curve: ParamCurve) -> float:
    """Step of the 5-point stencil that gives a curve transported by
    `field` its second derivative (see flow_manifold).

    Wide by default: fields with composed direction callables carry value
    jitter that the differencing amplifies by 1/h, and the curvature of
    anything built on that ddgamma keeps the noise visible.  A field of
    characteristic width rho caps the step instead: the stencil truncation
    grows like h^4 times a seventh derivative ~ rho^-7, so the widest safe
    step scales as rho^(7/4).
    """
    h2 = 1.6e-4 * (curve.b - curve.a)
    if field.scale is not None:
        h2 = min(h2, 2.3e-3 * field.scale ** 1.75)
    return h2


def curve_stencil(field: AmbientField, curve: ParamCurve, f, ts) -> np.ndarray:
    """d/dt at (n,) parameters ts of f, a callable on the curve's
    parameters: the 5-point stencil at second_derivative_step on [a, b],
    wrapped across the seam of a closed curve.  A flowed curve's ddgamma,
    and DV's gamma'' and eta'' (functionals), are this stencil."""
    return sample_derivative(f, (ts,), second_derivative_step(field, curve), 1,
                             curve.a, curve.b, periodic=curve.closed)


def flow_manifold(field: AmbientField, manifold, cfg: FlowConfig):
    """Manifold transported by the flow, same type as the input.

    One body for both kinds: the chart is flow_point of the base chart and
    each first partial is the base partial times one memoized Jacobian
    flow per parameter set.  A curve's ddgamma is curve_stencil of its
    transported dgamma; a surface has its chart and first partials only.
    Construction flows nothing and calls no field: the result runs no desk
    check (geometry: a flow keeps its base regular, closed and embedded),
    and each callable flows when it is called.
    """
    is_curve = isinstance(manifold, ParamCurve)
    chart, partials = (("gamma", ("dgamma",)) if is_curve
                       else ("phi", ("phi_u", "phi_v")))
    base = getattr(manifold, chart)

    # the callables take the chart's (n,) parameter arrays (see geometry).
    # flow_point and flow_with_jacobian are called through the module
    # globals, so a wrapper installed there sees every flow
    def chart_t(*params):
        return flow_point(field, base(*params), cfg)

    # the partials are nearly always asked for on the same nodes one after
    # the other; the last transported Jacobian serves them all
    jacobian = last_call_memo(
        lambda *params: flow_with_jacobian(field, base(*params), cfg)[1])

    def transported(first):
        def partial_t(*params):
            return np.einsum("nij,nj->ni", jacobian(*params), first(*params))
        return partial_t

    derivs = {name: transported(getattr(manifold, name)) for name in partials}
    if is_curve:
        derivs["ddgamma"] = partial(curve_stencil, field, manifold,
                                    derivs["dgamma"])

    return replace(
        manifold, **{chart: chart_t}, **derivs,
        name=f"{manifold.name}@{field.name}:{cfg.t_final:g}",
        base=manifold, foot=None)


def invariance_residual(field: AmbientField, manifold, t: float) -> float:
    """Max distance from samples flowed to time t back to the manifold: 200
    on a curve, a 15 x 15 grid on a surface, seams included.

    A tangent field keeps the manifold invariant, so the residual is the
    integrator error unless that error is budgeted.  A Richardson table on
    the residual vectors r = x - chart(foot(x)) (Foot.r) holds the error the
    residual reads to INVARIANCE_BUDGET = 1e-12 (Hairer, Norsett & Wanner,
    Solving ODEs I, II.9).  The samples flow with n0 = ceil(step_count(t)/2),
    2 n0 and 4 n0 steps, and each level is projected (r_n0, r_2n0, r_4n0).
    RK4's global error has an expansion in h^4, h^5, ... (II.8), so the
    table

        e1 = r_2n0 + (r_2n0 - r_n0) / 15,   e2 = r_4n0 + (r_4n0 - r_2n0) / 15,
        ext = e2 + (e2 - e1) / 31

    (richardson_row with p = 4) removes its h^4 and h^5 terms, and
    E = max|e2 - e1| / 31, the largest coordinate of the last correction,
    estimates the error of e2, and so bounds that of ext where the
    expansion holds.  If E <= 1e-12 the residual is the largest |ext| over
    the samples.  Otherwise one more level (8 n0, then 16 n0, ...) adds
    one row, with weights 1 / (2^(3+j) - 1), and E is again the last
    correction.  Before each
    further level the estimate's own order law, h^(levels + 2) (h^5 at
    three levels), predicts the steps that meet the budget; NoConvergence
    is raised without flowing when that prediction or the next level's
    steps exceed MAX_FLOW_STEPS.

    The coarsest level steps 2 DEFAULT_MAX_STEP (0.02 at t = 0.5).  It is
    only an input of the extrapolation, and no residual is read from it
    alone: it needs to lie where the expansion holds, which the h^4 ratio
    of its differences shows (below), and E bounds what is left.

    The residual reads an RK4 error e of a sample x through
    r(x + e) = r(x) + dr(x) e + O(|e|^2 / reach), so r_n inherits the
    expansion of e.  On M, dr(x) is the projection onto the normal space,
    so the phase error along M, most of e on a tangent probe, is not
    budgeted.  The table needs the linear term to dominate: |e| far below
    `reach`.  In the levels measured below |e| < 4e-7 wherever the reach
    is finite, and it is at least 0.25.

    The projections run in one projection session, so on a hook-free
    curve only the first (of the n0 level) seeds from the grid and the
    later ones start from the feet before them.

    Measured at t = 0.5 on the two tangent probes and the control of
    circle1, circle2, segment01, cylinder, ellipse21 and helix1: from one
    level to the next the residual differences fall 15.0- to 16.7-fold, the
    h^4 law (on segment01's tangent probes r is exactly 0); every tangent
    probe takes 25, 50 and 100 steps but tangent-bump0[ellipse21], which
    takes a fourth level of 200 (175 or 375 steps per probe, where step
    doubling with one more flow at the h^4 law's count took 150 to 413);
    and the |ext| lie at most 2.0e-14 from the distances of a 4,000-step
    flow (2.4e-13 on the controls).
    """
    if isinstance(manifold, ParamCurve):
        params = np.linspace(manifold.a, manifold.b, 200)
    else:
        U, V = np.meshgrid(np.linspace(manifold.a, manifold.b, 15),
                           np.linspace(manifold.c, manifold.d, 15), indexing="ij")
        params = (U.ravel(), V.ravel())
    pts = manifold.chart(params)
    steps = math.ceil(step_count(t) / 2)
    row = []
    with projection_session():
        while True:
            flowed = flow_point(field, pts, FlowConfig(t, steps))
            row = richardson_row(row, manifold.project(flowed).r, 4)
            if len(row) >= 3:
                est = float(np.abs(row[-1] - row[-2]).max())
                if est <= INVARIANCE_BUDGET:
                    return float(np.linalg.norm(row[-1], axis=1).max())
                need = steps * (est / INVARIANCE_BUDGET) ** (1.0 / (len(row) + 2))
                if not (need <= MAX_FLOW_STEPS and 2 * steps <= MAX_FLOW_STEPS):
                    raise NoConvergence(
                        f"flow of '{field.name}' to t = {t:g}: the Richardson "
                        f"table estimates an error of {est:.3e} in the residual "
                        f"at {steps} steps, so {need:.3e} steps would reach "
                        f"{INVARIANCE_BUDGET:g} and the next level takes "
                        f"{2 * steps}, against a cap of {MAX_FLOW_STEPS:.0e}")
            steps *= 2
