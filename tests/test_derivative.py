"""Finite-difference shape derivatives: quotients, Richardson, diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from collections import Counter

from shapecalc import derivative
from shapecalc import flow as flow_mod
from shapecalc.catalog import build_field, build_shape
from shapecalc.derivative import (FDConfig, compare, discrete_variation,
                                  fd_quotients)
from shapecalc.errors import InvariantViolation, NoConvergence, NonFinite
from shapecalc.fields import sum_field
from shapecalc.flow import FlowConfig, flow_curve_jet, flow_manifold
from shapecalc.functionals import (ShapeFunctional, analytic_dlength,
                                   area_functional, elastic_functional, length,
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


# -- the order of a schedule ----------------------------------------------------

PLANAR_FIELDS = [{"kind": "radial", "name": "radial"},
                 {"kind": "rotation", "name": "rotation"},
                 {"kind": "constant", "vector": [1.0, 0.0], "name": "e1"},
                 {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                  "name": "identity"},
                 {"kind": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]],
                  "name": "shear"}]


@pytest.mark.parametrize("shape", ["circle1", "segment01"])
@pytest.mark.parametrize("fdesc", PLANAR_FIELDS, ids=lambda d: d["name"])
def test_schedule_order_moves_no_quotient(shape, fdesc, flowed, request):
    # an order-2 schedule reads gamma' and gamma'' from one jet flow per
    # level, an order-1 schedule flows them apart: the same bits
    M = request.getfixturevalue(shape)
    X = build_field(fdesc, 2)
    Js = (length_functional(), elastic_functional())
    by_order = {}
    for order in (1, 2):
        by_order[order] = [fd_quotients(J, M, X, cfg=FD3, order=order)
                           for J in Js]
    # one schedule per order: each serves length and elastic, and the
    # order-1 schedule is not served to order 2
    n = FD3.levels + 1
    assert [c[3] for c in flowed] == [1] * n + [2] * n
    for a, b in zip(by_order[1], by_order[2]):
        assert _same_trace(a, b)
    # a schedule of order 2 serves order 1
    before = len(flowed)
    assert _same_trace(fd_quotients(Js[0], M, X, cfg=FD3, order=1),
                       by_order[1][0])
    assert len(flowed) == before


# -- one base read per schedule -------------------------------------------------


def _spied(M, names):
    """A copy of M whose callables `names` log (name, parameter bytes) per
    call, and the log, emptied after the copy's desk checks."""
    calls = []

    def spy(name):
        real = getattr(M, name)

        def call(*params):
            calls.append((name, b"".join(p.tobytes() for p in params)))
            return real(*params)
        return call

    spied = replace(M, **{n: spy(n) for n in names}, name=f"{M.name}-spied")
    calls.clear()
    return spied, calls


def _unshared(manifold, name, params):
    return getattr(manifold, name)(*params)


@pytest.mark.parametrize("shape, fdesc, J, names", [
    ("circle1", {"kind": "radial", "name": "radial"}, elastic_functional(),
     ("gamma", "dgamma", "ddgamma")),
    ("cylinder", {"kind": "constant", "vector": [0.0, 0.0, 1.0], "name": "e3"},
     area_functional(), ("phi", "phi_u", "phi_v"))])
def test_a_schedule_reads_its_base_once(shape, fdesc, J, names, request,
                                        monkeypatch):
    # every level of an order-2 curve schedule and of an area schedule flows
    # the same base jets from the same nodes: each base callable is called
    # once per node set, where an unshared read calls it at all levels + 1
    M = request.getfixturevalue(shape)
    traces = {}
    for shared in (True, False):
        if not shared:
            monkeypatch.setattr(flow_mod, "_base_value", _unshared)
        spied, calls = _spied(M, names)
        X = build_field(fdesc, M.dim)
        traces[shared] = fd_quotients(J, spied, X, cfg=FD3, order=J.order)
        # the levels are read, and the base jets let go
        assert flow_mod._base[0] is None
        counts = Counter(calls)
        assert {name for name, _ in counts} == set(names)
        assert set(counts.values()) == {1 if shared else FD3.levels + 1}
    assert _same_trace(traces[True], traces[False])


def test_the_base_memo_serves_each_node_set_and_manifold_its_own_values(
        circle1, circle2, radial2):
    # two node sets of one length on one curve, then the first again, and
    # one node set on two curves: each read is that of a fresh flow
    cfg = FlowConfig(1e-2, 1)
    first = np.linspace(0.0, 1.0, 40)
    reads = [(circle1, first), (circle1, first + 0.5), (circle1, first),
             (circle2, first), (circle1, first)]
    flowed = {M.name: flow_manifold(radial2, M, cfg, order=2)
              for M in (circle1, circle2)}
    for M, nodes in reads:
        want = flow_curve_jet(radial2, M.gamma(nodes), M.dgamma(nodes),
                              M.ddgamma(nodes), cfg)
        Mt = flowed[M.name]
        np.testing.assert_array_equal(Mt.dgamma(nodes), want[1])
        np.testing.assert_array_equal(Mt.ddgamma(nodes), want[2])
        np.testing.assert_array_equal(Mt.gamma(nodes), want[0])


def test_a_served_base_value_is_read_only(circle1):
    nodes = np.linspace(0.0, 1.0, 8)
    value = flow_mod._base_value(circle1, "gamma", (nodes,))
    np.testing.assert_array_equal(value, circle1.gamma(nodes))
    assert flow_mod._base_value(circle1, "gamma", (nodes,)) is value
    with pytest.raises(ValueError, match="read-only"):
        value[0, 0] = 1.0
