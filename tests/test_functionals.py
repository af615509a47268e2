"""Shape functionals and their closed-form first variations."""

import numpy as np
import pytest

from shapecalc import functionals
from shapecalc.errors import CrackNotInterior, InvariantViolation
from shapecalc.fields import Ball
from shapecalc.functionals import (
    CURVE_PANELS,
    analytic_darea,
    analytic_delastic,
    analytic_dlength,
    area_functional,
    bending_energy,
    crack_functional,
    elastic_functional,
    length,
    length_functional,
    surface_area,
)
from shapecalc.geometry import ParamCurve, integrate_curve

TWO_PI = 2.0 * np.pi
# the discrete first variations: complex steps of the functionals' own sums
DV_LENGTH = length_functional().discrete_derivative
DV_ELASTIC = elastic_functional().discrete_derivative
# perimeter of the 2:1 ellipse, 8 E(3/4) in complete elliptic integrals
ELLIPSE_21_PERIMETER = 9.688448220547675


def test_exact_lengths(circle1, circle2, segment01, helix1, ellipse21):
    assert length(circle1) == pytest.approx(TWO_PI, rel=1e-12)
    assert length(circle2) == pytest.approx(2 * TWO_PI, rel=1e-12)
    assert length(segment01) == pytest.approx(1.0, rel=1e-12)
    assert length(helix1) == pytest.approx(TWO_PI * np.sqrt(2.0), rel=1e-12)
    assert length(ellipse21) == pytest.approx(ELLIPSE_21_PERIMETER, rel=1e-10)


def test_quadrature_panels_converged(ellipse21):
    # length's CURVE_PANELS against four times as many
    fine = integrate_curve(ellipse21, np.ones_like, panels=4 * CURVE_PANELS)
    assert length(ellipse21) == pytest.approx(fine, rel=1e-12)


def test_elastic_energy_circle(circle1, circle2):
    # integral of kappa^2 over the curve: 2*pi/r
    assert bending_energy(circle1) == pytest.approx(TWO_PI, rel=1e-12)
    assert bending_energy(circle2) == pytest.approx(np.pi, rel=1e-12)
    assert elastic_functional().evaluate(circle2) == pytest.approx(
        bending_energy(circle2), rel=1e-13)


def test_elastic_energy_straight_is_zero(segment01):
    assert bending_energy(segment01) == pytest.approx(0.0, abs=1e-15)


def test_surface_area_cylinder(cylinder):
    assert surface_area(cylinder) == pytest.approx(4 * np.pi, rel=1e-10)


def test_functional_wrappers_evaluate(circle1, cylinder):
    assert length_functional().evaluate(circle1) == pytest.approx(TWO_PI, rel=1e-12)
    assert elastic_functional().evaluate(circle1) == pytest.approx(TWO_PI, rel=1e-12)
    assert area_functional().evaluate(cylinder) == pytest.approx(4 * np.pi, rel=1e-10)


def test_dlength_circle_radial(circle1, radial2):
    # growing the radius at unit rate adds 2*pi of length per unit time
    got = analytic_dlength(circle1, radial2)
    assert got == pytest.approx(TWO_PI, rel=1e-6)


def test_dlength_forms_agree(ellipse21, rotation2, shear2):
    for X in (rotation2, shear2):
        hadamard = analytic_dlength(ellipse21, X)
        assert hadamard == pytest.approx(DV_LENGTH(ellipse21, X), rel=1e-8,
                                         abs=1e-10)


def test_dlength_straight_space_segment(linear_field, e3_field):
    # no Frenet normal exists anywhere on it; the curvature vector is 0
    from shapecalc.catalog import build_shape
    from shapecalc.fields import bump_field

    seg = build_shape({"kind": "segment", "p0": [-1.0, 0.0, 0.0],
                       "p1": [1.0, 0.0, 0.0], "name": "segment3"})
    bump = bump_field([0.2, 0.1, 0.0], 0.5, [0.3, -1.0, 0.4])
    for X in (linear_field(3), e3_field, bump):
        assert analytic_dlength(seg, X) == pytest.approx(
            DV_LENGTH(seg, X), rel=1e-10, abs=1e-12)
    # X(x) = A x stretches the segment along e1 at rate 2 A_00
    assert analytic_dlength(seg, linear_field(3)) == pytest.approx(0.6, rel=1e-12)


def test_dlength_segment_translation_and_stretch(segment01, e1_field, identity2):
    assert analytic_dlength(segment01, e1_field) == pytest.approx(0.0, abs=1e-12)
    # X(x) = x stretches every length at unit rate
    assert analytic_dlength(segment01, identity2) == pytest.approx(1.0, rel=1e-10)


def test_dlength_rigid_motions_are_null(circle1, circle2, rotation2, e1_field):
    for M in (circle1, circle2):
        assert analytic_dlength(M, rotation2) == pytest.approx(0.0, abs=1e-10)
        assert analytic_dlength(M, e1_field) == pytest.approx(0.0, abs=1e-10)


def test_delastic_circle(circle2, radial2, rotation2):
    # E(r) = 2*pi/r, so dE under unit radial growth is -2*pi/r^2
    got = analytic_delastic(circle2, radial2)
    assert got == pytest.approx(-np.pi / 2, rel=1e-6)
    assert analytic_delastic(circle2, rotation2) == pytest.approx(0.0, abs=1e-10)


def test_darea_cylinder(cylinder, radial3, e3_field, stretch_z):
    assert analytic_darea(cylinder, radial3) == pytest.approx(4 * np.pi, rel=1e-8)
    assert analytic_darea(cylinder, e3_field) == pytest.approx(0.0, abs=1e-10)
    assert analytic_darea(cylinder, stretch_z) == pytest.approx(4 * np.pi, rel=1e-8)


def test_crack_functional_basics(crack_segment):
    region = Ball(np.zeros(2), 3.0)
    J = crack_functional(region, crack_segment)
    assert J.name == "crack[length@crack_straight]"
    assert J.margin == pytest.approx(2.0)
    assert J.evaluate(crack_segment) == pytest.approx(2.0, rel=1e-12)


def test_crack_functional_custom_inner(crack_arc):
    region = Ball(np.zeros(2), 4.0)
    J = crack_functional(region, crack_arc, inner=elastic_functional())
    # arc of radius 2 spanning the angle window: kappa^2 * length
    span = (TWO_PI - 0.5) - (np.pi + 0.5)
    assert J.evaluate(crack_arc) == pytest.approx(0.25 * 2.0 * span, rel=1e-10)


def test_crack_must_sit_inside_region(crack_segment):
    with pytest.raises(CrackNotInterior):
        crack_functional(Ball(np.zeros(2), 0.9), crack_segment)
    # touching the rim is not strictly interior either
    with pytest.raises(CrackNotInterior):
        crack_functional(Ball(np.zeros(2), 1.0), crack_segment)


def test_delastic_rejects_a_space_curve(helix1, e3_field):
    with pytest.raises(InvariantViolation, match="implemented for planar curves"):
        analytic_delastic(helix1, e3_field)


def test_elastic_on_a_fast_straight_chart(e1_field):
    fast = ParamCurve(
        dim=2,
        a=0.0,
        b=1.0,
        gamma=lambda t: np.stack([2 * t, np.zeros_like(t)], axis=-1),
        dgamma=lambda t: np.stack([2 * np.ones_like(t), np.zeros_like(t)], axis=-1),
        ddgamma=lambda t: np.zeros((len(np.atleast_1d(t)), 2)),
        closed=False,
        name="fast",
    )
    # speed 2 everywhere: the value and the closed form take any regular chart
    assert bending_energy(fast) == pytest.approx(0.0, abs=1e-15)
    assert analytic_delastic(fast, e1_field) == pytest.approx(0.0, abs=1e-12)


def _elliptic_arc() -> ParamCurve:
    """(2 cos t, sin t) on [0.3, 2]: speed 1.12 to 2, and kappa' != 0 at
    both ends, so every end term of the elastic closed form is nonzero."""
    return ParamCurve(
        dim=2, a=0.3, b=2.0,
        gamma=lambda t: np.stack([2.0 * np.cos(t), np.sin(t)], axis=-1),
        dgamma=lambda t: np.stack([-2.0 * np.sin(t), np.cos(t)], axis=-1),
        ddgamma=lambda t: np.stack([-2.0 * np.cos(t), -np.sin(t)], axis=-1),
        closed=False, name="elliptic-arc")


ELASTIC_FIELDS = ["radial2", "rotation2", "e1_field", "identity2", "shear2"]


@pytest.mark.parametrize("field", ELASTIC_FIELDS)
@pytest.mark.parametrize("shape", ["ellipse21", "elliptic-arc"])
def test_delastic_off_arc_length_matches_dv(shape, field, request):
    # the closed form takes arc-length derivatives by the chain rule and
    # integrates against ds, so no chart needs unit speed; 1e-8 is the
    # comparison abs_tol (measured: at most 4.93e-9)
    M = _elliptic_arc() if shape == "elliptic-arc" else request.getfixturevalue(shape)
    X = request.getfixturevalue(field)
    assert abs(analytic_delastic(M, X) - DV_ELASTIC(M, X)) <= 1e-8


def test_delastic_end_kappa_prime_term_is_read(monkeypatch, radial2, identity2):
    # with the -2 kappa' (X.N) end term patched to 0, the elliptic arc's
    # closed form leaves DV by 4.94 (radial) and 9.35 (identity)
    real = functionals.curve_curvature_derivs

    def no_kappa_prime(curve, t):
        k, k1, k2 = real(curve, t)
        return k, np.zeros_like(k1), k2

    monkeypatch.setattr(functionals, "curve_curvature_derivs", no_kappa_prime)
    arc = _elliptic_arc()
    for X in (radial2, identity2):
        assert abs(analytic_delastic(arc, X) - DV_ELASTIC(arc, X)) > 1.0
