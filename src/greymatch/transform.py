"""Cumulative-sum operator, its inverse, and the trapezoidal integral proxy."""

from __future__ import annotations

import numpy as np

from .core import ConfigError, TimeSeries


def _cusum_weights(times: np.ndarray) -> np.ndarray:
    # first weight is 1 by convention, regardless of where the grid starts
    h = np.empty(times.size)
    h[0] = 1.0
    h[1:] = np.diff(times)
    return h


def _finite(sums: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(sums)):
        raise ConfigError("the cumulative sums of the series overflow")
    return sums


def cusum(ts: TimeSeries) -> np.ndarray:
    """Read-only (n, d) running sums y(t_k) = sum_{i<=k} h_i x(t_i), h_1 = 1,
    h_k = t_k - t_{k-1}, on the grid ``ts.times``; ConfigError on overflow."""
    h = _cusum_weights(ts.times)
    with np.errstate(over="ignore"):
        sums = _finite(np.cumsum(h[:, None] * ts.values, axis=0))
    sums.setflags(write=False)
    return sums


def difference_cumulative(times: np.ndarray, cum_values: np.ndarray) -> np.ndarray:
    """Inverse of ``cusum``: x(t1) = y(t1), x(t_k) = (y(t_k) - y(t_{k-1})) / h_k.

    NaN rows of a blown-up trajectory pass through.
    """
    x = np.empty_like(cum_values)
    x[0] = cum_values[0]
    if times.size > 1:
        x[1:] = np.diff(cum_values, axis=0) / np.diff(times)[:, None]
    return x


def trapezoid_cumulative(ts: TimeSeries) -> np.ndarray:
    """Trapezoid-rule approximation of int_{t1}^{t_k} x dt, per column.

    Row 1 is the empty integral (zero); row k accumulates
    h_i (x(t_{i-1}) + x(t_i)) / 2 for i = 2..k.  Sums are plain sequential
    accumulations; for the sample counts this package targets (n <= 1e4) the
    round-off is far below the discretization error.  ConfigError on overflow.
    """
    x = ts.values
    out = np.zeros_like(x)
    if ts.n > 1:
        h = np.diff(ts.times)
        with np.errstate(over="ignore"):
            out[1:] = np.cumsum(0.5 * h[:, None] * (x[:-1] + x[1:]), axis=0)
    return _finite(out)
