"""Shape derivatives of a functional's quadrature: a one-sided
finite-difference oracle, and the discrete first variation it converges to.

The derivative of J at M along X is the one-sided limit of
q(t) = (J(Phi_t(M)) - J(M)) / t as t decreases to 0.  The oracle evaluates
q on a halving schedule t_i = t0 / 2^i and extrapolates with the Richardson
triangle

    R[i][0] = q(t_i),   R[i][j] = R[i][j-1] + (R[i][j-1] - R[i-1][j-1]) / (2^j - 1),

which removes the t, t^2, ... terms of a smooth q (flow.richardson_row
with leading order p = 1).  The baseline J(M) is evaluated through the
t = 0 flow (an exact identity) so that any systematic discretization
inside the flowed-manifold representation is shared by every term of the
quotient and cancels.

The flowed manifolds at t = 0, t0, t0/2, ... depend on (M, X, cfg), not on
J: `flow_schedule` builds these levels + 1 manifolds once and keeps them in
a one-entry memo keyed on the identity of X and M (which it holds, so no
other object can take their ids), on cfg and on its order
(flow.flow_manifold), so functionals asked about one (M, X) one after the
other read the same flowed manifolds.  A schedule serves any order up to
its own, and every order gives the same quotients: `cli` builds an
(M, X) group's schedule at the highest ShapeFunctional.order among its
functionals, so length reads gamma' from the one jet flow per level that
bending energy needs anyway.  Every level
flows the same base nodes, so two things are the same for every t and
computed once per schedule: the base jets at the nodes (gamma, gamma',
gamma'' of a curve, phi, phi_u, phi_v of a surface; flow._base_value)
and the first RK4 stage, X at those nodes (and dX applied to the chart's
jets, or to J = I on a surface; flow._first_stage).  The flow computes
both at the first level and serves them, bit for bit, to the next ones,
so a level pays for its RK4 stages and its quadratures only.  Once the
levels are read, fd_quotients lets the base jets go
(flow.release_base_values).

The oracle is entirely independent of the closed-form derivatives in
`functionals`: only J.evaluate and the flow are used.

`discrete_variation` reads J.discrete_derivative instead, the flow-free
limit this triangle extrapolates toward (the complex step in `functionals`).
The nullity, normal-dependence and crack suites read it; locality and
`compare` keep the oracle, for the reasons given in `validation`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolation, NoConvergence, NonFinite
from .fields import AmbientField
from .flow import (DEFAULT_MAX_STEP, MAX_FLOW_STEPS, FlowConfig,
                   flow_manifold, release_base_values, richardson_row,
                   step_count)

REL_TOL = 1e-5
ABS_TOL = 1e-8


@dataclass(frozen=True)
class FDConfig:
    """Halving schedule t_i = t0/2^i, i = 0..levels-1, each flowed in RK4
    steps of at most flow.DEFAULT_MAX_STEP, as invariance flows are."""

    t0: float = 1e-2
    levels: int = 5

    def __post_init__(self):
        if not self.t0 > 0:
            raise InvariantViolation("t0 must be positive")
        if self.levels < 2:
            raise InvariantViolation("need at least 2 levels")
        if self.levels > 1024:  # 2.0**1024 overflows
            raise InvariantViolation(
                f"levels = {self.levels} overflows the Richardson weights 2^j - 1")
        if not self.t0 / 2.0 ** (self.levels - 1) > 0:
            raise InvariantViolation(
                f"t0 = {self.t0:g} and levels = {self.levels}: the finest time "
                "t0/2^(levels-1) is not a positive float")
        if not self.t0 / DEFAULT_MAX_STEP <= MAX_FLOW_STEPS:
            raise InvariantViolation(
                f"t0 = {self.t0:g}: the coarsest flow needs more than "
                f"{MAX_FLOW_STEPS:.0e} RK4 steps of {DEFAULT_MAX_STEP:g}")


@dataclass(frozen=True)
class FDTrace:
    """Quotient series and extrapolation diagonal for one derivative."""

    ts: np.ndarray
    quotients: np.ndarray
    extrapolants: np.ndarray
    value: float
    error_estimate: float


# X, M, cfg, order and the manifolds of the last schedule built
_schedule: list = [None] * 5


def flow_schedule(X: AmbientField, M, cfg: FDConfig, order: int = 1) -> list:
    """Phi_t(M) at t = 0 and at t = t0/2^i, i = 0..levels-1, flowed at
    `order` (flow.flow_manifold); a schedule of a higher order serves."""
    if not (_schedule[0] is X and _schedule[1] is M and _schedule[2] == cfg
            and _schedule[3] >= order):
        ts = [0.0, *(cfg.t0 / 2.0 ** np.arange(cfg.levels)).tolist()]
        _schedule[:] = X, M, cfg, order, [
            flow_manifold(X, M, FlowConfig(t, step_count(t)), order)
            for t in ts]
    return _schedule[4]


def fd_quotients(J, M, X: AmbientField, cfg: FDConfig,
                 order: int = 1) -> FDTrace:
    """Difference quotients plus Richardson diagonal for dJ(M)(X), on a
    schedule of `order`.  The quotients are the same at any order; a
    caller that runs functionals of order 2 (ShapeFunctional.order) on
    one (M, X) passes 2, so that they read gamma' and gamma'' from one
    flow per level."""
    ts = cfg.t0 / 2.0 ** np.arange(cfg.levels)
    base, *flowed = flow_schedule(X, M, cfg, order)
    J0 = float(J.evaluate(base))
    if not np.isfinite(J0):
        raise NonFinite(f"functional '{J.name}' is not finite on the base manifold")
    q = np.empty(cfg.levels)
    for i, (t, Mt) in enumerate(zip(ts, flowed)):
        Jt = float(J.evaluate(Mt))
        if not np.isfinite(Jt):
            raise NonFinite(f"functional '{J.name}' not finite at flow time {t:g}")
        q[i] = (Jt - J0) / t
    # every level is read: the base jets they shared are let go
    release_base_values()

    row, diag = [], []
    for qi in q:
        row = richardson_row(row, qi, 1)
        diag.append(row[-1])
    extr = np.asarray(diag)

    value = float(extr[-1])
    diffs = np.abs(np.diff(extr))
    # quotient roundoff is ~eps*|J|/t and Richardson amplifies it; keep the
    # estimate honest when the diagonal bottoms out at that noise level
    floor = 64.0 * np.finfo(float).eps * (1.0 + abs(J0) + abs(value)) / ts[-1]
    err = float(max(diffs[-1] if diffs.size else 0.0, floor))

    if diffs.size >= 3:
        tail = diffs[-3:]
        if (tail[0] < tail[1] < tail[2]
                and tail[2] > 1e-6 * (1.0 + abs(value))):
            raise NoConvergence(
                f"extrapolants for '{J.name}' diverge: last differences "
                f"{tail[0]:.3e}, {tail[1]:.3e}, {tail[2]:.3e}"
            )
    return FDTrace(ts=ts, quotients=q, extrapolants=extr, value=value,
                   error_estimate=err)


def discrete_variation(J, M, X: AmbientField) -> float:
    """J's discrete first variation dJ_h(M)(X); NonFinite when it is not
    finite."""
    value = float(J.discrete_derivative(M, X))
    if not np.isfinite(value):
        raise NonFinite(
            f"discrete first variation of '{J.name}' on '{M.name}' along "
            f"'{X.name}' is not finite")
    return value


@dataclass(frozen=True)
class DerivativeReport:
    """Side-by-side FD vs closed-form derivative, with verdict.

    rel_diff = abs_diff / max(|analytic|, |fd|); verdict is "pass" iff
    rel_diff <= rel_tol or abs_diff <= abs_tol.
    """

    functional: str
    manifold: str
    field: str
    fd_value: float
    fd_error_estimate: float
    analytic_value: float
    abs_diff: float
    rel_diff: float
    verdict: str
    trace: Optional[FDTrace] = None


def compare(J, M, X: AmbientField, cfg: FDConfig,
            rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL,
            order: int = 1) -> DerivativeReport:
    """Run the FD oracle (at the schedule `order`, see fd_quotients)
    against J.analytic_derivative and record the verdict."""
    if J.analytic_derivative is None:
        raise InvariantViolation(f"functional '{J.name}' has no closed form")
    tr = fd_quotients(J, M, X, cfg, order)
    analytic = float(J.analytic_derivative(M, X))
    abs_diff = abs(analytic - tr.value)
    denom = max(abs(analytic), abs(tr.value))
    rel_diff = abs_diff / denom if denom > 0.0 else 0.0
    verdict = "pass" if (rel_diff <= rel_tol or abs_diff <= abs_tol) else "fail"
    return DerivativeReport(
        functional=J.name, manifold=M.name, field=X.name,
        fd_value=tr.value, fd_error_estimate=tr.error_estimate,
        analytic_value=analytic, abs_diff=abs_diff, rel_diff=rel_diff,
        verdict=verdict, trace=tr,
    )
