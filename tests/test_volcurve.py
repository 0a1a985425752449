import numpy as np
import pytest

from mvmix import VolCurve


def test_constant_integrated_variance():
    assert VolCurve.constant(0.3).integral_sq(1.0) == pytest.approx(0.09, abs=1e-15)


def test_zero_time_integral_is_zero():
    assert VolCurve.constant(0.4).integral_sq(0.0) == 0.0


def test_piecewise_integral_sums_interval_areas():
    # 0.2 on [0, 0.5), 0.4 afterwards: 0.04*0.5 + 0.16*0.5 = 0.10
    curve = VolCurve((0.0, 0.5), (0.2, 0.4))
    assert curve.integral_sq(1.0) == pytest.approx(0.10, abs=1e-15)
    assert curve.integral_sq(0.5) == pytest.approx(0.02, abs=1e-15)
    assert curve.integral_sq(0.25) == pytest.approx(0.01, abs=1e-15)


def test_integral_monotone_in_time():
    curve = VolCurve((0.0, 0.3, 1.1), (0.5, 0.1, 0.2))
    grid = np.linspace(0.0, 3.0, 50)
    vals = [curve.integral_sq(t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cross_integral_merges_breakpoints():
    a = VolCurve((0.0, 0.5), (0.2, 0.4))
    b = VolCurve((0.0, 0.25), (0.1, 0.3))
    # [0,.25): .2*.1, [.25,.5): .2*.3, [.5,1): .4*.3
    expect = 0.25 * 0.02 + 0.25 * 0.06 + 0.5 * 0.12
    assert a.integral_with(b, 1.0) == pytest.approx(expect, abs=1e-15)
    assert a.integral_with(b, 1.0) == pytest.approx(b.integral_with(a, 1.0), abs=1e-16)


def test_value_is_right_continuous():
    curve = VolCurve((0.0, 1.0), (0.2, 0.5))
    assert curve.value(0.0) == 0.2
    assert curve.value(0.999) == 0.2
    assert curve.value(1.0) == 0.5
    assert curve.value(10.0) == 0.5


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        VolCurve.constant(0.2).integral_sq(-1.0)
    with pytest.raises(ValueError):
        VolCurve.constant(0.2).value(-0.1)


@pytest.mark.parametrize(
    "times,values",
    [
        ((0.5,), (0.2,)),  # first breakpoint not 0
        ((0.0, 0.0), (0.2, 0.3)),  # not strictly increasing
        ((0.0, np.nan), (0.2, 0.3)),  # non-finite breakpoint
        ((0.0,), (0.0,)),  # zero vol
        ((0.0,), (-0.1,)),  # negative vol
        ((0.0, 1.0), (0.2,)),  # length mismatch
    ],
)
def test_invalid_curves_rejected(times, values):
    with pytest.raises(ValueError):
        VolCurve(times, values)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_curve_rejects_a_time_that_is_not_finite(t):
    curve = VolCurve((0.0, 0.5), (0.2, 0.3))
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        curve.value(t)
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        curve.integral_with(curve, t)
