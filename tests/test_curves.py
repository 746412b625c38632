import numpy as np
import pytest

from ctdhedge.curves import CurveDomainError, SpreadCurve, max_curve_breakpoints, max_curve_integral
from ctdhedge.spread_model import ModelValidationError


def test_grid_values_validation():
    with pytest.raises(ValueError):
        SpreadCurve([0.0, 1.0], [0.01])
    with pytest.raises(ValueError):
        SpreadCurve([1.0, 1.0], [0.01, 0.02])
    with pytest.raises(ValueError):
        SpreadCurve([0.0], [0.01])


def test_nodes_are_exact():
    curve = SpreadCurve([0.0, 3.6, 10.0], [0.014, 0.0133, 0.02])
    assert curve(3.6) == 0.0133
    assert curve(0.0) == 0.014
    assert curve(10.0) == 0.02
    assert curve(1.8) == pytest.approx(0.5 * (0.014 + 0.0133), abs=1e-18)


def test_domain_error():
    curve = SpreadCurve.constant(0.01, 0.0, 5.0)
    with pytest.raises(CurveDomainError):
        curve(5.1)
    with pytest.raises(CurveDomainError):
        curve.integral(-1.0, 2.0)


def test_invalid_input_is_a_model_validation_error():
    curve = SpreadCurve.constant(0.01, 0.0, 5.0)
    with pytest.raises(ModelValidationError, match=r"time 5.1 outside curve domain \[0, 5\]"):
        curve(5.1)
    with pytest.raises(ModelValidationError, match="integration bounds must satisfy a <= b"):
        curve.integral(2.0, 1.0)
    with pytest.raises(ModelValidationError, match="curve needs at least two nodes"):
        SpreadCurve([0.0], [0.01])


def test_left_derivative_at_kink():
    curve = SpreadCurve([0.0, 3.6, 10.0], [0.0, 3.6 * 0.002, 3.6 * 0.002 - 6.4 * 0.003])
    assert curve.derivative(3.6) == pytest.approx(0.002, rel=1e-12)
    assert curve.derivative(3.7) == pytest.approx(-0.003, rel=1e-12)
    # at the start the only available slope is the right one
    assert curve.derivative(0.0) == pytest.approx(0.002, rel=1e-12)


def test_integral_matches_closed_form():
    curve = SpreadCurve.linear(0.0, 10.0, 0.01, 0.03)
    assert curve.integral(0.0, 10.0) == pytest.approx(0.2, rel=1e-14)
    assert curve.integral(2.0, 4.5) == pytest.approx((0.014 + 0.019) / 2 * 2.5, rel=1e-13)
    assert curve.integral(3.0, 3.0) == 0.0


def test_shift_and_translate():
    curve = SpreadCurve.linear(0.0, 10.0, 0.01, 0.03)
    assert curve.shifted(0.001)(4.0) == pytest.approx(curve(4.0) + 0.001, rel=1e-14)
    moved = curve.translated(2.5)
    assert moved(2.5) == curve(0.0)
    assert moved.integral(2.5, 12.5) == pytest.approx(curve.integral(0.0, 10.0), rel=1e-14)


def test_max_integral_with_crossing():
    # two lines crossing at t = 3.6; exact integral is piecewise
    c1 = SpreadCurve.linear(0.0, 10.0, 0.004, 0.004 - 10 * 0.0005)
    c2 = SpreadCurve.constant(0.004 - 3.6 * 0.0005, 0.0, 10.0)
    zero = SpreadCurve.constant(0.0, 0.0, 10.0)
    got = max_curve_integral([zero, c1, c2], 0.0, 10.0)
    exact = c1.integral(0.0, 3.6) + c2.integral(3.6, 10.0)
    assert got == pytest.approx(exact, rel=1e-14)
    # brute-force Riemann comparison
    t = np.linspace(0.0, 10.0, 2_000_001)
    vals = np.maximum.reduce([np.zeros_like(t), c1(t), c2(t)])
    riemann = float(np.trapezoid(vals, t))
    assert got == pytest.approx(riemann, rel=1e-9)


def test_max_breakpoints_tie_goes_to_lowest_index():
    a = SpreadCurve.constant(0.01, 0.0, 5.0)
    b = SpreadCurve.constant(0.01, 0.0, 5.0)
    _, winners = max_curve_breakpoints([a, b], 0.0, 5.0)
    assert set(winners) == {0}


def test_negative_curves_lose_to_zero():
    zero = SpreadCurve.constant(0.0, 0.0, 8.0)
    neg = SpreadCurve.linear(0.0, 8.0, -0.01, -0.002)
    assert max_curve_integral([zero, neg], 0.0, 8.0) == 0.0
