"""Fixed-step integration of the unified model and its reduced augmented system,
and forecasting of any fit from it.

The integrator is a classical 4th-order Runge-Kutta scheme with a fixed number
of substeps per sampling interval; determinism matters more than adaptivity
here because the Monte Carlo harness must be exactly reproducible.  Divergence
is detected with an overflow guard and reported via a flag, never an
unhandled NaN.  It also integrates a batch of independent states in one pass,
flagging each row on its own; reduced power-family fits that share a grid are
forecast that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BlowUpError,
    ConfigError,
    DomainError,
    FitResult,
    Forecast,
    GREY_FORM,
    ModelSpec,
    ParameterSet,
    PowerUnivariate,
    REDUCED_FORM,
    _readonly,
)
from .transform import difference_cumulative

OVERFLOW_GUARD = 1e12

#: largest internal step (in sample-time units) used by the default policy
DEFAULT_MAX_STEP = 0.01

VectorField = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Trajectory:
    """States recorded at the sample times, with an explicit divergence flag.

    ``states`` is (n, m) for one integrated state and (n, B, m) for a batch
    of B.  When ``blown_up`` is true, ``blowup_index`` is the first sample
    index whose state could not be computed; that sample and all later ones
    are NaN.  For a batch, ``blown_up`` means that any row blew up,
    ``blowup_index`` is the earliest such index, and ``row_blowup_index``
    holds each row's own index (-1 for rows that ran to the end).
    """

    times: np.ndarray
    states: np.ndarray
    blown_up: bool = False
    blowup_index: Optional[int] = None
    row_blowup_index: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "states", _readonly(self.states))
        if self.row_blowup_index is not None:
            object.__setattr__(self, "row_blowup_index",
                               _readonly(self.row_blowup_index, dtype=int))


def default_substeps(times) -> int:
    """Substeps per interval so every internal step is <= min(h_k, DEFAULT_MAX_STEP)."""
    h = np.diff(np.asarray(times, dtype=float))
    if h.size == 0:
        return 1
    return max(1, int(math.ceil(float(h.max()) / DEFAULT_MAX_STEP - 1e-12)))


def _within_guard(state: np.ndarray) -> bool:
    # NaN and +-inf fail the comparison, so this also rejects non-finite states
    return bool(np.max(np.abs(state)) < OVERFLOW_GUARD)


def _drop_bad_rows(state: np.ndarray, first_bad: np.ndarray, k: int) -> bool:
    """Set the rows of ``state`` that fail the guard to NaN, record ``k`` as the
    first bad sample of those newly failed, and say whether any row still runs."""
    rows = np.atleast_2d(state)    # a view, so the NaNs land in ``state``
    bad = ~(np.max(np.abs(rows), axis=1) < OVERFLOW_GUARD)
    first_bad[bad & (first_bad < 0)] = k
    rows[bad] = np.nan
    return not bad.all()


def rk4_integrate(rhs: VectorField, initial, times, substeps: int = 1) -> Trajectory:
    """Integrate d(state)/dt = rhs(t, state) with classical RK4.

    Each interval between consecutive sample times is split into ``substeps``
    equal internal steps; only the sample times are recorded.  If any
    intermediate state is non-finite or exceeds the overflow guard the
    trajectory is flagged as blown up and the remaining rows stay NaN.

    ``initial`` is one state (m,) or a batch of B independent states (B, m);
    ``rhs`` is then called on the whole (B, m) batch and its row i must
    depend on row i alone.  Each row has its own guard: a row that fails it
    is NaN from that sample on while the other rows carry on, so every row
    equals the same row integrated alone.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    times = np.asarray(times, dtype=float)
    state = np.array(initial, dtype=float, ndmin=1)
    if state.ndim > 2:
        raise ValueError("initial must be one state (m,) or a batch of states (B, m)")
    out = np.full((times.size,) + state.shape, np.nan)
    first_bad = np.full(state.shape[0] if state.ndim == 2 else 1, -1)
    running = _within_guard(state) or _drop_bad_rows(state, first_bad, 0)
    out[0] = state
    sixth = 1.0 / 6.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, times.size):
            if not running:
                break
            dt = (times[k] - times[k - 1]) / substeps
            half = 0.5 * dt
            t = times[k - 1]
            for _ in range(substeps):
                k1 = rhs(t, state)
                k2 = rhs(t + half, state + half * k1)
                k3 = rhs(t + half, state + half * k2)
                k4 = rhs(t + dt, state + dt * k3)
                state = state + dt * sixth * (k1 + 2.0 * (k2 + k3) + k4)
                t += dt
                # one reduction per substep; rows are looked at only after a failure
                if not _within_guard(state) and not _drop_bad_rows(state, first_bad, k):
                    running = False
                    break
            out[k] = state
    bad = first_bad >= 0
    return Trajectory(times, out, blown_up=bool(bad.any()),
                      blowup_index=int(first_bad[bad].min()) if bad.any() else None,
                      row_blowup_index=first_bad if state.ndim == 2 else None)


def grey_rhs(spec: ModelSpec, params: ParameterSet) -> VectorField:
    """Vector field of the cumulative-state model dy/dt = theta_L y + theta_N N(y) + beta."""
    theta_L = params.theta_L
    theta_N = params.theta_N
    beta = params.beta_or_zero()
    basis = spec.basis
    if basis is None:
        return lambda t, y: theta_L @ y + beta

    def rhs(t, y):
        return theta_L @ y + theta_N @ basis.evaluate(y) + beta

    return rhs


def reduced_augmented_rhs(spec: ModelSpec, params: ParameterSet) -> VectorField:
    """Vector field of the reduced model as a first-order system on (x, y).

    The running integral y(t) = eta + int x is carried as extra state, so the
    chain-rule term d/dt N(y) = J_N(y) x uses the analytic basis Jacobian:

        dx/dt = theta_L x + theta_N J_N(y) x,   dy/dt = x.
    """
    if params.form != REDUCED_FORM:
        raise ValueError("expected reduced-form parameters")
    d = spec.dimension
    theta_L = params.theta_L
    theta_N = params.theta_N
    basis = spec.basis
    if basis is None:
        def rhs(t, u):
            x = u[:d]
            return np.concatenate([theta_L @ x, x])
        return rhs

    def rhs(t, u):
        x = u[:d]
        dx = theta_L @ x + theta_N @ (basis.jacobian(u[d:]) @ x)
        return np.concatenate([dx, x])

    return rhs


def reduced_initial_state(params: ParameterSet) -> np.ndarray:
    """Augmented initial state (x(t1), y(t1)) = (eta_x, eta) for the reduced system."""
    return np.concatenate([params.initial_state(), params.eta])


def solve_grey(spec: ModelSpec, params: ParameterSet, times,
               substeps: Optional[int] = None) -> Trajectory:
    """Cumulative-state trajectory of the grey model from eta."""
    if substeps is None:
        substeps = default_substeps(times)
    return rk4_integrate(grey_rhs(spec, params), params.eta, times, substeps)


def solve_reduced(spec: ModelSpec, params: ParameterSet, times,
                  substeps: Optional[int] = None) -> Trajectory:
    """Trajectory of the reduced augmented system; columns 0..d-1 hold x, d..2d-1 hold y."""
    if substeps is None:
        substeps = default_substeps(times)
    rhs = reduced_augmented_rhs(spec, params)
    return rk4_integrate(rhs, reduced_initial_state(params), times, substeps)


def extend_times(times: np.ndarray, horizon: int,
                 future_times=None) -> np.ndarray:
    """Append ``horizon`` future stamps, spaced by the mean spacing unless given."""
    times = np.asarray(times, dtype=float)
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if horizon == 0:
        return times.copy()
    if future_times is not None:
        future = np.asarray(future_times, dtype=float)
        if future.size != horizon:
            raise ConfigError(f"expected {horizon} future stamps, got {future.size}")
        grid = np.concatenate([times, future])
        if not np.all(np.diff(grid) > 0):
            raise ConfigError("future stamps must continue the grid strictly increasing")
        return grid
    mean_h = (times[-1] - times[0]) / (times.size - 1)
    return np.concatenate([times, times[-1] + mean_h * np.arange(1, horizon + 1)])


def _is_power_reduced(fit: FitResult) -> bool:
    return fit.params.form == REDUCED_FORM and isinstance(fit.spec.basis, PowerUnivariate)


def power_batch_rhs(fits: Sequence[FitResult]) -> Tuple[VectorField, np.ndarray]:
    """Vector field of B reduced power-family fits on a (B, 2) state of rows [x, y].

    Row i is the field of ``reduced_augmented_rhs`` for fit i,
    dx/dt = a x + b gamma y^(gamma - 1) x and dy/dt = x, evaluated with the
    same float operations in the same order, so each row is bitwise
    independent of the others.  The rows are evaluated one by one because
    the power must stay Python's ``float ** float`` (libm ``pow``, as in the
    scalar basis), which numpy's vectorised power does not always reproduce.

    A row whose y leaves y > 0 under a non-integer exponent, or whose power
    Python refuses (overflow, zero to a negative power), gets a NaN
    derivative instead of an error; the returned mask marks the former.
    """
    rows = []
    for fit in fits:
        a, b, g = fit.params.theta_L[0, 0], fit.params.theta_N[0, 0], float(fit.spec.basis.gamma)
        rows.append((float(a), float(b), g, g - 1.0, not g.is_integer()))
    left_domain = np.zeros(len(rows), dtype=bool)

    def rhs(t, u):
        du = []
        for i, ((x, y), (a, b, g, e, fractional)) in enumerate(zip(u.tolist(), rows)):
            if fractional and y <= 0.0:
                left_domain[i] = True
                jac = math.nan
            else:
                try:
                    jac = g * y ** e
                except (OverflowError, ZeroDivisionError):
                    jac = math.nan
            du += (a * x + b * (jac * x), x)
        return np.array(du).reshape(-1, 2)

    return rhs, left_domain


def forecast_power_fits(fits: Sequence[FitResult], horizon: int,
                        future_times=None) -> Tuple[List[Forecast], np.ndarray]:
    """Forecast reduced power-family fits on one shared grid in one batched RK4 pass.

    Returns one forecast per fit, each bitwise the one the fit gets alone,
    and a mask of the fits whose trajectory left the basis' domain; those
    are flagged as blown up instead of raising, so the others carry on.
    """
    if not fits:
        return [], np.zeros(0, dtype=bool)
    for fit in fits:
        if not _is_power_reduced(fit):
            raise ConfigError("the batched forecast takes reduced power-family fits only")
        if not np.array_equal(fit.times, fits[0].times):
            raise ConfigError("the batched forecast needs fits on one shared grid")
    grid = extend_times(fits[0].times, horizon, future_times)
    rhs, left_domain = power_batch_rhs(fits)
    initial = [(fit.params.initial_state()[0], fit.params.eta[0]) for fit in fits]
    traj = rk4_integrate(rhs, initial, grid, default_substeps(grid))
    forecasts = [Forecast(grid, traj.states[:, i, :1], horizon, blown_up=k >= 0,
                          blowup_index=k if k >= 0 else None)
                 for i, k in enumerate(traj.row_blowup_index.tolist())]
    return forecasts, left_domain


def forecast_fit(fit: FitResult, horizon: int, future_times=None) -> Forecast:
    """Integrate a fit over its grid extended by ``horizon`` stamps.

    Grey-form fits integrate the cumulative model and difference back to the
    original scale; reduced-form fits integrate the augmented system and read
    the original state off directly, power-family ones as a batch of one
    (``forecast_power_fits``).
    """
    if _is_power_reduced(fit):
        (forecast,), left_domain = forecast_power_fits([fit], horizon, future_times)
        if left_domain[0]:
            left_at = forecast.times[forecast.blowup_index]
            raise DomainError(f"power basis with gamma={fit.spec.basis.gamma} requires a "
                              f"positive argument; the trajectory left y > 0 by t={left_at:g}")
        return forecast
    grid = extend_times(fit.times, horizon, future_times)
    if fit.params.form == GREY_FORM:
        traj = solve_grey(fit.spec, fit.params, grid)
        x = difference_cumulative(grid, traj.states)
    else:
        traj = solve_reduced(fit.spec, fit.params, grid)
        x = traj.states[:, :fit.spec.dimension]
    return Forecast(grid, x, horizon, blown_up=traj.blown_up,
                    blowup_index=traj.blowup_index)


# ---------------------------------------------------------------------------
# Closed-form logistic oracles
# ---------------------------------------------------------------------------

def _verhulst_denominator(a: float, b: float, eta: float, t, t1: float):
    decay = np.exp(-a * (np.asarray(t, dtype=float) - t1))
    return -b / a + decay * (1.0 / eta + b / a), decay


def verhulst_closed_form_y(a: float, b: float, eta: float, t, t1: float = 0.0):
    """Closed-form cumulative state of dy/dt = a y + b y^2, y(t1) = eta."""
    if a == 0.0 or eta == 0.0:
        raise ValueError("closed form requires a != 0 and eta != 0")
    denom, _ = _verhulst_denominator(a, b, eta, t, t1)
    if np.any(np.abs(denom) < 1e-12):
        raise BlowUpError("logistic closed form is singular at the requested time")
    return 1.0 / denom


def verhulst_closed_form_x(a: float, b: float, eta: float, t, t1: float = 0.0):
    """Time derivative of the closed-form logistic, i.e. the original-state solution.

    Equals a * exp(-a (t - t1)) (b/a + 1/eta) / denom^2, which is exactly
    d/dt of the cumulative closed form (verified against central differences
    in the test suite).
    """
    if a == 0.0 or eta == 0.0:
        raise ValueError("closed form requires a != 0 and eta != 0")
    denom, decay = _verhulst_denominator(a, b, eta, t, t1)
    if np.any(np.abs(denom) < 1e-12):
        raise BlowUpError("logistic closed form is singular at the requested time")
    return a * decay * (b / a + 1.0 / eta) / denom ** 2
