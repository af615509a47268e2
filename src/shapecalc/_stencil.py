"""Five-point finite-difference stencils on a bounded or periodic interval.

Interior points get the symmetric 4th-order stencil (equivalent to a central
difference plus one Richardson step); points near an interval end switch to
shifted one-sided stencils so no node ever leaves the domain.  On periodic
domains the stencil arms wrap instead.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

_OFFSETS = np.arange(5, dtype=float)


def fd_weights(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from nodes xs."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs) - 1
    c = np.zeros((n + 1, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n + 1):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


# weight tables at unit step; row s = stencil shifted s nodes to the left
_W = {
    m: np.array([fd_weights(0.0, _OFFSETS - s, m) for s in range(5)])
    for m in (1, 2)
}


def sample_derivative(
    f: Callable[..., np.ndarray],
    params: tuple[np.ndarray, ...],
    h: float,
    m: int,
    lo: float,
    hi: float,
    periodic: bool = False,
    along: int = -1,
) -> np.ndarray:
    """m-th derivative (m = 1 or 2) of f along its argument params[along].

    params holds f's (n,) argument arrays.  The one differentiated runs
    over the five stencil nodes of each point, and every other is held at
    its value there, repeated here over the nodes.  f maps flat (k,)
    argument arrays to values (k, ...); the result keeps f's trailing
    shape.  Requires hi - lo >= 4h.

    Zero-weight nodes are not evaluated: the centre of the symmetric
    m = 1 stencil weighs exactly 0.0, so f sees 4 nodes there and 5 on the
    shifted end stencils and at m = 2.  Skipped slots hold 0.0, so the
    result is the all-node weighted sum bit for bit (up to the sign of a
    sum of zeros).
    """
    along %= len(params)
    t = params[along]
    n = len(t)
    span = hi - lo
    if span < 4.0 * h:
        raise ValueError("stencil step too large for the parameter interval")
    if periodic:
        # canonicalize t == hi to lo so both seam ends use identical nodes
        rel = t - lo
        rel = np.where(rel >= span, rel - span, rel)
        nodes = lo + np.mod(rel[:, None] + h * (_OFFSETS - 2.0), span)
        w = np.broadcast_to(_W[m][2], (n, 5))
    else:
        left = np.floor((t - lo) / h + 1e-9).astype(int)
        right = np.floor((hi - t) / h + 1e-9).astype(int)
        s = np.clip(np.full(n, 2), np.maximum(4 - right, 0), np.minimum(left, 4))
        nodes = np.clip(t[:, None] + h * (_OFFSETS - s[:, None]), lo, hi)
        w = _W[m][s]
    keep = w != 0.0
    got = f(*(nodes[keep] if k == along else np.repeat(x, 5)[keep.ravel()]
              for k, x in enumerate(params)))
    vals = np.zeros(keep.shape + got.shape[1:])
    vals[keep] = got
    w = w.reshape((n, 5) + (1,) * (vals.ndim - 2))
    return (w * vals).sum(axis=1) / h**m
