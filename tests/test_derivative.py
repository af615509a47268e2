"""Finite-difference shape derivatives: quotients, Richardson, diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from shapecalc import derivative
from shapecalc.catalog import build_field, build_shape
from shapecalc.derivative import (FDConfig, compare, discrete_variation,
                                  fd_quotients)
from shapecalc.errors import InvariantViolation, NoConvergence, NonFinite
from shapecalc.fields import sum_field
from shapecalc.functionals import (ShapeFunctional, analytic_dlength,
                                   elastic_functional, length,
                                   length_functional)

TWO_PI = 2.0 * np.pi


def test_trace_layout(circle1, radial2, fd5):
    tr = fd_quotients(length_functional_plain(), circle1, radial2, cfg=fd5)
    np.testing.assert_allclose(tr.ts, 1e-2 / 2.0 ** np.arange(5), rtol=1e-15)
    assert tr.quotients.shape == (5,)
    assert tr.extrapolants.shape == (5,)
    assert tr.value == tr.extrapolants[-1]
    assert tr.error_estimate > 0.0


def length_functional_plain():
    return replace(length_functional(), analytic_derivative=None)


def test_fd_matches_growth_rate(circle1, radial2, fd5):
    tr = fd_quotients(length_functional_plain(), circle1, radial2, cfg=fd5)
    val, err = tr.value, tr.error_estimate
    assert val == pytest.approx(TWO_PI, rel=1e-8)
    assert abs(val - analytic_dlength(circle1, radial2)) <= 10 * err


def test_richardson_beats_raw_quotients(circle1, identity2, fd5):
    # flowing along X(x) = x grows lengths like e^t, so the raw quotients
    # carry a full Taylor tail for the extrapolation to remove
    tr = fd_quotients(length_functional_plain(), circle1, identity2, cfg=fd5)
    exact = analytic_dlength(circle1, identity2)
    assert abs(tr.value - exact) < abs(tr.quotients[-1] - exact)
    assert abs(tr.value - exact) < 1e-3 * abs(tr.quotients[0] - exact)


def test_derivative_scales_linearly(circle1, radial2, fd5):
    doubled = sum_field([radial2, radial2], name="radial*2")
    v1 = fd_quotients(length_functional_plain(), circle1, radial2, cfg=fd5).value
    v2 = fd_quotients(length_functional_plain(), circle1, doubled, cfg=fd5).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-6)


def test_compare_verdict_and_fields(circle1, radial2, fd5):
    rep = compare(length_functional(), circle1, radial2, cfg=fd5)
    assert rep.verdict == "pass"
    assert rep.functional == "length"
    assert rep.manifold == "circle1"
    assert rep.field == "radial"
    assert rep.rel_diff <= 1e-6
    assert rep.abs_diff == pytest.approx(
        abs(rep.fd_value - rep.analytic_value), rel=1e-12, abs=1e-300
    )
    assert rep.trace is not None


def test_compare_detects_corrupted_closed_form(circle1, radial2, fd5):
    skewed = replace(
        length_functional(),
        analytic_derivative=lambda M, X: analytic_dlength(M, X) + 1e-3)
    rep = compare(skewed, circle1, radial2, cfg=fd5)
    assert rep.verdict == "fail"
    assert rep.abs_diff == pytest.approx(1e-3, rel=1e-3)


def test_compare_needs_closed_form(circle1, radial2, fd5):
    bare = length_functional_plain()
    with pytest.raises(InvariantViolation):
        compare(bare, circle1, radial2, cfg=fd5)


def test_square_root_kink_is_flagged(circle1, radial2, fd5):
    # J = sqrt(|L - 2 pi|) has an infinite one-sided derivative at the
    # circle, so the quotient tail must be reported as divergent
    kink = ShapeFunctional(
        name="kink",
        evaluate=lambda M: float(np.sqrt(abs(length(M) - TWO_PI))),
        discrete_derivative=lambda M, X: np.inf,
    )
    with pytest.raises(NoConvergence):
        fd_quotients(kink, circle1, radial2, cfg=fd5)


def test_non_finite_values_raise(circle1, radial2, fd5):
    nan = ShapeFunctional(name="nan", evaluate=lambda M: np.nan,
                          discrete_derivative=lambda M, X: np.nan)
    with pytest.raises(NonFinite,
                       match="functional 'nan' is not finite on the base manifold"):
        fd_quotients(nan, circle1, radial2, fd5)
    # finite on the t = 0 flow only
    late = ShapeFunctional(
        name="late",
        evaluate=lambda M: length(M) if M.name.endswith(":0") else np.inf,
        discrete_derivative=length_functional().discrete_derivative)
    with pytest.raises(NonFinite,
                       match=f"functional 'late' not finite at flow time {fd5.t0:g}"):
        fd_quotients(late, circle1, radial2, fd5)
    with pytest.raises(NonFinite,
                       match=f"discrete first variation of 'nan' on 'circle1' "
                             f"along '{radial2.name}' is not finite"):
        discrete_variation(nan, circle1, radial2)


def test_fd_config_validation():
    with pytest.raises(InvariantViolation):
        FDConfig(t0=-1.0)
    with pytest.raises(InvariantViolation):
        FDConfig(levels=1)


@pytest.mark.parametrize("kwargs, ok", [
    ({"levels": 1024}, True),          # largest weight 2^1023 - 1
    ({"levels": 1025}, False),         # 2^1024 overflows
    ({"t0": 1e-300, "levels": 60}, True),
    ({"t0": 1e-300, "levels": 90}, False),   # finest time underflows to 0
    ({"t0": 1e300}, False),             # step count overflows
], ids=["levels-1024", "levels-1025", "tiny-t0-60", "tiny-t0-90", "huge-t0"])
def test_fd_schedule_must_be_computable(kwargs, ok):
    if ok:
        FDConfig(**kwargs)
    else:
        with pytest.raises(InvariantViolation):
            FDConfig(**kwargs)


def test_error_estimate_has_floor(segment01, e1_field, fd5):
    # translating a segment never changes its length; the estimate must
    # still be positive so downstream ratios stay defined
    tr = fd_quotients(length_functional_plain(), segment01, e1_field, cfg=fd5)
    val, err = tr.value, tr.error_estimate
    assert val == pytest.approx(0.0, abs=1e-12)
    assert err > 0.0


# ---------------------------------------------------------------------------
# one flow schedule per (M, X, FDConfig)

FD3 = FDConfig(t0=1e-2, levels=3)


def _fresh_pair():
    # new objects miss the schedule memo, which is keyed on identity
    return (build_shape({"kind": "circle", "radius": 1.0, "name": "circle1"}),
            build_field({"kind": "radial", "name": "radial"}, 2))


@pytest.fixture
def flowed(monkeypatch):
    """Arguments of every flow_manifold call the FD oracle makes."""
    calls = []
    real = derivative.flow_manifold

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(derivative, "flow_manifold", counted)
    return calls


def _same_trace(a, b) -> bool:
    return (all(np.array_equal(getattr(a, k), getattr(b, k))
                for k in ("ts", "quotients", "extrapolants"))
            and (a.value, a.error_estimate) == (b.value, b.error_estimate))


def test_functionals_on_one_pair_share_one_schedule(flowed):
    M, X = _fresh_pair()
    Js = (length_functional(), elastic_functional())
    shared = [fd_quotients(J, M, X, cfg=FD3) for J in Js]
    assert len(flowed) == FD3.levels + 1
    for J, tr in zip(Js, shared):
        assert _same_trace(tr, fd_quotients(J, *_fresh_pair(), cfg=FD3))
    assert len(flowed) == 3 * (FD3.levels + 1)


def test_schedule_is_never_served_to_another_cfg_or_pair(flowed):
    M, X = _fresh_pair()
    J = length_functional()
    fd_quotients(J, M, X, cfg=FD3)
    other_M, other_X = _fresh_pair()      # same kinds and names
    for M_, X_, cfg in ((M, X, FDConfig(t0=5e-3, levels=3)),
                        (M, other_X, FD3), (other_M, X, FD3), (M, X, FD3)):
        before = len(flowed)
        tr = fd_quotients(J, M_, X_, cfg=cfg)
        assert len(flowed) == before + cfg.levels + 1
        assert all(c[0] is X_ and c[1] is M_ for c in flowed[before:])
        assert _same_trace(tr, fd_quotients(J, *_fresh_pair(), cfg=cfg))
