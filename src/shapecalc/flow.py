"""Flows of ambient fields and transported manifolds.

The flow map Phi_t solves x' = X(x) with a fixed-step RK4 integrator.  Three
flows step one RK4 loop, so their points are bit for bit those of the point
flow.  Each RK4 stage calls the field once: X in the point flow, and in
the other two the field's jet, X and dX from one pass (AmbientField), plus
d2X for a curve's second derivative:
- the point flow, x alone
- the joint flow, which co-transports the space Jacobian dPhi_t through the
  variational equation (dPhi)' = dX(Phi) dPhi
- the curve jet flow, which carries a curve's first and second derivatives
  through the second variational equation (Hairer, Norsett & Wanner,
  Solving ODEs I, I.14)

      x' = X(x),   v' = dX(x) v,   a' = dX(x) a + D^2X(x)[v, v].

A transported manifold's chart is the point flow of the base chart.  On a
curve, (x, v, a) start at (gamma, gamma', gamma'') and end at the flowed
chart and its two derivatives,

    (Phi_t o gamma)'  = dPhi_t(gamma) gamma',
    (Phi_t o gamma)'' = dPhi_t(gamma) gamma'' + D^2Phi_t(gamma)[gamma', gamma'],

where (x, v) alone give gamma' and (x, v, a) give gamma''.  Which rows a
flowed curve flows follows the order of its readers (flow_manifold): at
order 2 (bending energy) one (x, v, a) flow per node set serves gamma'
and gamma''; at order 1 (length) gamma' flows (x, v) alone, and gamma''
its own (x, v, a), so a reader of gamma' alone never pays for D^2X.  For
a field without d2X (AmbientField) the curve's second derivative is
instead a 5-point difference of its transported gamma' (wrapped across
the seam of a closed curve, shifted inside open ends).  A surface's first
partials are its base partials carried by the Jacobian flow, phi_u and
phi_v at one parameter set sharing one flow; it gets no second
derivative, since area reads only the first partials.

invariance_residual flows its samples with a stepper of its own, _rk6:
Butcher's seven-stage sixth-order Runge-Kutta method (J. C. Butcher, On
Runge-Kutta processes of high order, J. Austral. Math. Soc. 4, 1964;
Hairer, Norsett & Wanner, Solving ODEs I, II.5), whose coefficients are
the module constant RK6_TABLEAU.  Its flows run to t = 0.5 in a few steps
each, and order 6 reaches the invariance budget in fewer field
evaluations than RK4 does.  The FD flows stay RK4: at t <= 0.01 they take
one step, where a higher order saves no step.

Each flow, RK4 or RK6, opens one projection session
(geometry.projection_session): inside it, a nearest-point projection onto
a hook-free curve starts Newton from the feet of the previous stage's
projection onto the same curve when the points have moved little, instead
of from the curve's grid.  invariance_residual projects its flowed
samples in one more session, so on a hook-free curve each of its
projections after the first starts from the feet before it.

Every level of an FD schedule flows the same base nodes, so a schedule
shares two things across its levels, each from a one-entry memo:
- the base jets: gamma, gamma' and gamma'' of a curve, phi, phi_u and
  phi_v of a surface, read at a node set once for every level and served
  read-only (_base_value), until the quotients of the schedule are read
  (release_base_values)
- the first RK4 stage, the field at the start points (with J = I in a
  joint flow), shared by consecutive flows of one field and kind from the
  same start arrays (_first_stage): a schedule computes it once, at its
  first level, and invariance_residual once for all the levels of its
  Richardson table.  A served stage comes with the projection session its
  computation left behind, so sharing changes no bit.
What is left per level is its RK4 stages and its quadratures.

richardson_row is the one row update of both Richardson triangles: the
FD quotients' (derivative, leading order 1) and the invariance
residual's (RK6, leading order 6).
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
# INVARIANCE_BOUND; invariance_residual holds the error of its RK6 flows in
# the residual it measures to a 1e-5 share of that (the estimate of its
# Richardson table), so the residual speaks of the field
INVARIANCE_BOUND = 1e-7
INVARIANCE_BUDGET = 1e-5 * INVARIANCE_BOUND
# the residual differences of an h^6 error fall 2^6-fold per halving of the
# step; invariance_residual raises when two fall less than 2^5-fold while
# the later one is above the roundoff of a residual reading
ORDER_FALL = 2.0 ** 5
INVARIANCE_ROUNDOFF = 1e-13


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
    the field, the flow kind ("point", "joint" or "jet") and the shape and
    bytes of the start arrays: the levels of an FD schedule flow the same
    points (from J = I in a joint flow, from one chart's gamma' and gamma''
    in a jet flow) one after the other.  A jet flow keys on every start
    array, since two charts can share their node points and differ in
    speed.  A miss drops the old entry before computing; neither _rk4
    nor _rk6 writes into a stage.

    The flow's projection session is empty at its first stage, and the
    memo keeps what the stage put there: a hit restores it, so the second
    stage warm-starts from the same feet as when the first is computed."""
    # a joint flow starts from J = I, so its x alone tells its start
    start = state[:1] if kind == "joint" else state
    key = (kind, *((a.shape, a.tobytes()) for a in start))
    entry = _first[0]
    if entry is None or entry[0] is not field or entry[1] != key:
        _first[0] = None
        entry = _first[0] = (field, key, rhs(*state), dict(session))
    else:
        session.update(entry[3])
    return entry[2]


# (manifold, key, {name: value}) of the last parameter set a flowed
# manifold read its base at, replaced as one object; holding the manifold
# keeps its id from being reused
_base: list = [None]


def _base_value(manifold, name: str, params: tuple) -> np.ndarray:
    """The base manifold's callable `name` (gamma, dgamma, ddgamma; phi,
    phi_u, phi_v) at params, from a one-entry memo keyed on the manifold
    and the shape and bytes of the parameter arrays: every level of an FD
    schedule flows the same base jets from the same quadrature nodes.
    The entry holds each callable's value once read; a new parameter set
    or manifold drops it, and so does release_base_values.  A value
    is served as a read-only view, so a reader that writes into it raises
    (_rk4 and the flows build new arrays and never write into their
    start)."""
    key = tuple((p.shape, p.tobytes()) for p in params)
    entry = _base[0]
    if entry is None or entry[0] is not manifold or entry[1] != key:
        _base[0] = None
        entry = _base[0] = (manifold, key, {})
    values = entry[2]
    if name not in values:
        value = getattr(manifold, name)(*params).view()
        value.flags.writeable = False
        values[name] = value
    return values[name]


def release_base_values() -> None:
    """Drop the entry of _base_value's memo.  fd_quotients calls this once
    it has read every level of a schedule, so the base jets live for one
    pass over the levels and not into what runs after it (a closed form's
    kernel, a suite's discrete variations)."""
    _base[0] = None


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


# Butcher's seven-stage sixth-order Runge-Kutta method: the nodes c, the
# rows of A below the diagonal and the weights b (see _rk6)
RK6_TABLEAU = (
    (0.0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1.0),
    ((),
     (1 / 3,),
     (0.0, 2 / 3),
     (1 / 12, 1 / 3, -1 / 12),
     (-1 / 16, 9 / 8, -3 / 16, -3 / 8),
     (0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2),
     (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11)),
    (11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120),
)


def _rk6(field, x: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    """The (n, d) rows x flowed by x' = X(x) to time t in n_steps steps of
    the explicit Runge-Kutta method RK6_TABLEAU (an autonomous system, so
    the nodes c go unused), read from the module at each call.  The first
    stage comes from _first_stage as a point flow's, so the levels of
    invariance_residual compute it once; the steps run in one projection
    session, like _rk4's.  Raises NonFinite when a step leaves the numeric
    range."""
    _, A, b = RK6_TABLEAU
    X = field.X
    h = t / n_steps
    with projection_session() as session:
        for step in range(n_steps):
            k = [_first_stage(lambda xc: (X(xc),), (x,), field, "point",
                              session)[0] if step == 0 else X(x)]
            for row in A[1:]:
                k.append(X(x + h * sum(a * kj for a, kj in zip(row, k) if a)))
            x = x + h * sum(w * kj for w, kj in zip(b, k) if w)
            if not np.isfinite(x).all():
                raise NonFinite(f"flow of '{field.name}' left the numeric range")
    return x


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
    jet = field.jet

    def rhs(xc, Jc):
        Xc, D = jet(xc)
        return Xc, _jacobian_product(D, Jc)

    return _rk4(rhs, (x, np.broadcast_to(np.eye(d), (n, d, d)).copy()), cfg,
                field, "joint")


def flow_curve_jet(field: AmbientField, x0: np.ndarray, v0: np.ndarray,
                   a0: np.ndarray | None, cfg: FlowConfig) -> tuple:
    """(x, v, a) at t_final from (x0, v0, a0), (n, d) rows each: the RK4
    flow of the second variational equation

        x' = X(x),   v' = dX(x) v,   a' = dX(x) a + D^2X(x)[v, v],

    so that x = Phi_t(x0), v = dPhi_t(x0) v0 and a is the t-transport of
    the second derivative a0 of a curve through x0 with velocity v0.
    With a0 = None only (x, v) are flowed; a field without d2X needs it.
    Each stage takes X and dX from one jet call and applies the one dX to
    the v and a rows (_row_products).  At t_final = 0 this returns copies
    without a field call."""
    jet, d2X = field.jet, field.d2X

    def rhs(xc, vc, ac=None):
        Xc, D = jet(xc)
        if ac is None:
            return Xc, _row_products(D, vc)[0]
        Dv, Da = _row_products(D, vc, ac)
        Da += d2X(xc, vc)
        return Xc, Dv, Da

    state = (x0, v0) if a0 is None else (x0, v0, a0)
    return _rk4(rhs, state, cfg, field, "jet")


def _row_products(D: np.ndarray, *rows: np.ndarray):
    """D[n] @ r[n] for each (n, d) row set r, with the values of
    einsum("nij,nj->ni", D, r).

    In the plane each entry is two column products and one add, written
    into one (len(rows), n, 2) array: a sum of two terms has one order,
    and the accumulator starts from +0.0 as einsum's does, so two -0.0
    products read +0.0 (a segment's gamma'' rows are zeros).  In space
    this is einsum itself: its three-term sums are not left to right (on
    numpy 2.4 they read (p0 + p2) + p1), an order of its SIMD loops that
    no column sum should copy."""
    n, d, _ = D.shape
    if d != 2:
        return [np.einsum("nij,nj->ni", D, r) for r in rows]
    out = np.empty((len(rows), n, 2))
    for o, r in zip(out, rows):
        for i in range(2):
            acc = D[:, i, 0] * r[:, 0]
            acc += 0.0
            acc += D[:, i, 1] * r[:, 1]
            o[:, i] = acc
    return out


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
    """Step of the 5-point stencil of curve_stencil, which gives DV its
    gamma'' and eta'' (functionals), and a curve transported by a field
    without d2X its second derivative (see flow_manifold).

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
    wrapped across the seam of a closed curve.  DV's gamma'' and eta''
    (functionals), and the ddgamma of a curve flowed by a field without
    d2X, are this stencil."""
    return sample_derivative(f, (ts,), second_derivative_step(field, curve), 1,
                             curve.a, curve.b, periodic=curve.closed)


def flow_manifold(field: AmbientField, manifold, cfg: FlowConfig,
                  order: int = 1):
    """Manifold transported by the flow, same type as the input.

    The chart is flow_point of the base chart.  A curve's dgamma is the
    v of a memoized flow_curve_jet per parameter set, and its ddgamma the
    a of a memoized jet flow of (x, gamma', gamma''), or, for a field
    without d2X, curve_stencil of the transported dgamma.  `order` is the
    highest derivative of the chart its readers take
    (ShapeFunctional.order).  At order 2, under a field with d2X, one
    (x, gamma', gamma'') flow per parameter set serves both derivatives.
    Otherwise dgamma flows (x, gamma') alone, so that a reader of gamma'
    alone (length) pays no a rows, whose d2X call costs about as much as
    a dX.  The v of the two flows agree bit for bit, so the order decides
    which flows are shared and moves no value.  A surface's first
    partials are the base partials times one Jacobian flow per parameter
    set, at any order; the last pair is memoized, not the Jacobian.  The
    base chart and its derivatives are read through _base_value, so the
    levels of a schedule share them.
    Construction flows nothing and calls no field: the result runs
    no desk check (geometry: a flow keeps its base regular, closed and
    embedded), and each callable flows when it is called.
    """
    is_curve = isinstance(manifold, ParamCurve)
    chart = "gamma" if is_curve else "phi"

    def base(name, *params):
        return _base_value(manifold, name, params)

    # the callables take the chart's (n,) parameter arrays (see geometry).
    # flow_point, flow_curve_jet and flow_with_jacobian are called through
    # the module globals, so a wrapper installed there sees every flow
    def chart_t(*params):
        return flow_point(field, base(chart, *params), cfg)

    if is_curve:
        # each derivative is nearly always asked for on the same nodes
        # several times over, so the last flow of each is kept (without its
        # points: no reader of a flowed curve takes them)
        def jet(second: bool):
            return last_call_memo(lambda ts: flow_curve_jet(
                field, base("gamma", ts), base("dgamma", ts),
                base("ddgamma", ts) if second else None, cfg)[1:])

        full = None if field.d2X is None else jet(True)
        velocity = full if full is not None and order >= 2 else jet(False)

        def dgamma(ts):
            return velocity(ts)[0]

        if full is None:
            ddgamma = partial(curve_stencil, field, manifold, dgamma)
        else:
            def ddgamma(ts):
                return full(ts)[1]

        # jets=None: the base's chart jets would project through its chart
        derivs = {"dgamma": dgamma, "ddgamma": ddgamma, "jets": None}
    else:
        # phi_u and phi_v share one transported Jacobian per node set; the
        # last pair is kept, and the (n, 3, 3) Jacobian let go
        @last_call_memo
        def partials(*params):
            J = flow_with_jacobian(field, base("phi", *params), cfg)[1]
            return tuple(np.einsum("nij,nj->ni", J, base(name, *params))
                         for name in ("phi_u", "phi_v"))

        def transported(k):
            return lambda *params: partials(*params)[k]

        derivs = {"phi_u": transported(0), "phi_v": transported(1)}

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
    Solving ODEs I, II.9).  The samples flow by _rk6 (Butcher's sixth-order
    method, RK6_TABLEAU) with n0 = ceil(step_count(t)/20), 2 n0 and 4 n0
    steps, and each level is projected (r_n0, r_2n0, r_4n0).  RK6's global
    error has an expansion in h^6, h^7, ... (II.8), so the table

        e1 = r_2n0 + (r_2n0 - r_n0) / 63,   e2 = r_4n0 + (r_4n0 - r_2n0) / 63,
        ext = e2 + (e2 - e1) / 127

    (richardson_row with p = 6) removes its h^6 and h^7 terms, and
    E = max|e2 - e1| / 127, the largest coordinate of the last correction,
    estimates the error of e2, and so bounds that of ext where the
    expansion holds.  If E <= 1e-12 the residual is the largest |ext| over
    the samples.  Otherwise one more level (8 n0, then 16 n0, ...) adds
    one row, with weights 1 / (2^(5+j) - 1), and E is again the last
    correction.  Before each further level the estimate's own order law,
    h^(levels + 4) (h^7 at three levels), predicts the steps that meet the
    budget; NoConvergence is raised without flowing when that prediction
    or the next level's steps exceed MAX_FLOW_STEPS.  It is also raised
    when the flows do not follow the order the table assumes: before a
    further level, the last two differences of the first column,
    max|r_2n - r_n| and max|r_4n - r_2n|, must fall at least ORDER_FALL =
    2^5-fold (h^6 reads 64), unless the later one is below
    INVARIANCE_ROUNDOFF = 1e-13, where roundoff decides their ratio.  An
    RK6 stepper of lower order (one coefficient wrong) fails there after
    three levels instead of flowing ever finer ones.

    The coarsest level steps at most 20 DEFAULT_MAX_STEP (3 steps of 1/6
    at t = 0.5).  It is only an input of the extrapolation, and no residual
    is read from it alone: it needs to lie where the expansion holds,
    which the h^6 ratio of its differences shows (below), and E bounds
    what is left.  Two steps are too coarse: with n0 = 2, one of 84 probes
    (tangential_probe_fields, n = 3, seeds 0-3, on seven shapes) read
    1.19e-12 from an RK6 flow at four times its finest level's steps, over
    the budget.

    The residual reads an integrator error e of a sample x through
    r(x + e) = r(x) + dr(x) e + O(|e|^2 / reach), so r_n inherits the
    expansion of e.  On M, dr(x) is the projection onto the normal space,
    so the phase error along M, most of e on a tangent probe, is not
    budgeted.  The table needs the linear term to dominate: |e| far below
    `reach`.  In the levels measured below |e| < 4e-5 wherever the reach
    is finite, and it is at least 0.25.

    The projections run in one projection session, so on a hook-free
    curve only the first (of the n0 level) seeds from the grid and the
    later ones start from the feet before them.

    Measured at t = 0.5 on the two tangent probes of circle1, circle2,
    ellipse21, helix1, crack_arc and the cylinder: from one level to the
    next the residual differences fall 56- to 88-fold, the h^6 law, and
    are at least 4.2e-12 (on segment01's tangent probes r is exactly 0).  Every tangent probe takes
    3, 6 and 12 steps but the first of circle1 and both of ellipse21,
    which take a fourth level of 24 (21 or 45 steps per probe).  With the
    first stage shared by the levels, the bundled runs' probes take 747
    field evaluations in paper-structure (circle1 and the cylinder; 1,863
    with the RK4 table) and 624 in general-curves (ellipse21; 1,554), and
    the |ext| lie at most 5.8e-13 from the distances of RK6 flows at four
    times the finest level's steps.
    """
    if isinstance(manifold, ParamCurve):
        params = np.linspace(manifold.a, manifold.b, 200)
    else:
        U, V = np.meshgrid(np.linspace(manifold.a, manifold.b, 15),
                           np.linspace(manifold.c, manifold.d, 15), indexing="ij")
        params = (U.ravel(), V.ravel())
    pts = manifold.chart(params)
    steps = math.ceil(step_count(t) / 20)
    row, diffs = [], []
    with projection_session():
        while True:
            r = manifold.project(_rk6(field, pts, t, steps)).r
            if row:
                # the first column's difference to the level before
                diffs.append(float(np.abs(r - row[0]).max()))
            row = richardson_row(row, r, 6)
            if len(row) >= 3:
                est = float(np.abs(row[-1] - row[-2]).max())
                if est <= INVARIANCE_BUDGET:
                    return float(np.linalg.norm(row[-1], axis=1).max())
                need = steps * (est / INVARIANCE_BUDGET) ** (1.0 / (len(row) + 4))
                if not (need <= MAX_FLOW_STEPS and 2 * steps <= MAX_FLOW_STEPS):
                    raise NoConvergence(
                        f"flow of '{field.name}' to t = {t:g}: the Richardson "
                        f"table estimates an error of {est:.3e} in the residual "
                        f"at {steps} steps, so {need:.3e} steps would reach "
                        f"{INVARIANCE_BUDGET:g} and the next level takes "
                        f"{2 * steps}, against a cap of {MAX_FLOW_STEPS:.0e}")
                if (diffs[-1] > INVARIANCE_ROUNDOFF
                        and diffs[-2] < ORDER_FALL * diffs[-1]):
                    raise NoConvergence(
                        f"flow of '{field.name}' to t = {t:g}: the residual "
                        f"differences of the levels of {steps // 4}, "
                        f"{steps // 2} and {steps} steps fell "
                        f"{diffs[-2] / diffs[-1]:.3g}-fold, less than the "
                        f"{ORDER_FALL:g}-fold the h^6 law of the Richardson "
                        f"table needs, so its estimate {est:.3e} bounds "
                        f"nothing")
            steps *= 2
