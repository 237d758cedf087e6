import numpy as np
import pytest
from hypothesis import given, strategies as st

from greymatch import TimeSeries, cusum, difference_cumulative, trapezoid_cumulative


def test_cusum_unit_spacing_running_sum():
    ts = TimeSeries([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.allclose(cusum(ts)[:, 0], [1.0, 3.0, 6.0])


def test_cusum_single_impulse():
    ts = TimeSeries(np.arange(5.0), [4.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(cusum(ts)[:, 0], [4.0] * 5)


def test_cusum_first_weight_is_one_on_any_grid():
    # spacings 0.5 but the first weight stays 1 by convention
    ts = TimeSeries([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
    assert np.allclose(cusum(ts)[:, 0], [2.0, 3.0, 4.0])


def test_inverse_cusum_direct():
    ts = TimeSeries([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    back = difference_cumulative(ts.times, cusum(ts))
    assert np.allclose(back, ts.values)


def test_inverse_cusum_constant_cumulative():
    x = difference_cumulative(np.arange(4.0), np.full((4, 1), 2.5))[:, 0]
    assert np.allclose(x, [2.5, 0.0, 0.0, 0.0])


def test_cusum_is_a_read_only_array():
    y = cusum(TimeSeries([1.0, 2.0, 3.0], [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))
    assert type(y) is np.ndarray and y.shape == (3, 2)
    with pytest.raises(ValueError):
        y[0, 0] = 0.0


def test_difference_cumulative_passes_nan_rows():
    y = np.array([[1.0], [3.0], [np.nan], [np.nan]])
    x = difference_cumulative(np.array([0.0, 0.5, 1.0, 1.5]), y)
    assert np.array_equal(x[:2, 0], [1.0, 4.0])
    assert np.all(np.isnan(x[2:]))


def test_round_trip_random_nonuniform():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(3, 40)
        d = rng.integers(1, 4)
        times = np.cumsum(rng.uniform(0.05, 1.5, size=n)) + rng.uniform(-3, 3)
        values = rng.normal(size=(n, d))
        ts = TimeSeries(times, values)
        back = difference_cumulative(ts.times, cusum(ts))
        assert np.allclose(back, ts.values, rtol=1e-12, atol=1e-12)


@given(st.data())
def test_round_trip_property(data):
    # x_k -> y_k = y_{k-1} + h_k x_k -> (y_k - y_{k-1}) / h_k rounds four times
    # in each sample; the sum's rounding scales with |y_k|, so the bound is
    # 4 eps (|x_k| + |y_k| / h_k), with h_1 = 1 and an exact first sample
    n = data.draw(st.integers(1, 30), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    start = data.draw(st.floats(-100.0, 100.0), label="start")
    gaps = data.draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1, max_size=n - 1),
                     label="gaps")
    value = st.floats(-1e3, 1e3, allow_subnormal=False)
    values = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                         min_size=n, max_size=n), label="values"))
    ts = TimeSeries(start + np.concatenate([[0.0], np.cumsum(gaps)]), values)
    y = cusum(ts)
    back = difference_cumulative(ts.times, y)
    h = np.concatenate([[1.0], np.diff(ts.times)])[:, None]
    bound = 4.0 * np.finfo(float).eps * (np.abs(values) + np.abs(y) / h)
    assert np.array_equal(back[0], values[0])
    assert np.all(np.abs(back - values) <= bound + np.finfo(float).tiny)


def test_trapezoid_constant_integrand():
    ts = TimeSeries(np.arange(3.0), [1.0, 1.0, 1.0])
    assert np.allclose(trapezoid_cumulative(ts)[:, 0], [0.0, 1.0, 2.0])


def test_trapezoid_hand_sums():
    ts = TimeSeries(np.arange(3.0), [0.0, 1.0, 2.0])
    assert np.allclose(trapezoid_cumulative(ts)[:, 0], [0.0, 0.5, 2.0])


def test_trapezoid_exact_for_linear():
    times = np.arange(0.0, 1.0 + 1e-12, 0.01)
    ts = TimeSeries(times, times.copy())
    xtil = trapezoid_cumulative(ts)[:, 0]
    assert abs(xtil[-1] - 0.5) < 1e-12


def test_trapezoid_second_order_convergence():
    def max_error(h):
        times = np.arange(0.0, 4.0 + 1e-12, h)
        ts = TimeSeries(times, np.sin(times))
        approx = trapezoid_cumulative(ts)[:, 0]
        exact = 1.0 - np.cos(times)
        return np.max(np.abs(approx - exact))

    coarse, fine = max_error(0.02), max_error(0.01)
    ratio = coarse / fine
    assert 3.5 <= ratio <= 4.5


def test_cusum_close_to_offset_integral():
    # first-order gap between the running sum and eta + integral
    h = 0.01
    times = np.arange(0.0, 4.0 + 1e-12, h)
    x = np.exp(times)
    ts = TimeSeries(times, x)
    running = cusum(ts)[:, 0]
    offset_integral = x[0] + trapezoid_cumulative(ts)[:, 0]
    assert np.max(np.abs(running - offset_integral)) <= 2.0 * x.max() * h
