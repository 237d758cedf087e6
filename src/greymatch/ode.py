"""Fixed-step integration of the unified model, and forecasting of any fit from it.

Both forms integrate one field, the cumulative model
dy/dt = theta_L y + theta_N N(y) + beta.  A reduced-form fit is that model
with beta = eta_x - theta_L eta - theta_N N(eta), and its original state is
the model's rate, x = dy/dt, read off the same field at each sample.

The integrator is a classical 4th-order Runge-Kutta scheme with a fixed number
of substeps per sampling interval; determinism matters more than adaptivity
here because the Monte Carlo harness must be exactly reproducible.  Divergence
is detected with an overflow guard and reported via a flag, never an
unhandled NaN.  It also integrates a batch of independent states in one pass,
flagging each row on its own.  The model field is written over such a batch
of fits that share a spec, bar a power basis' exponent, which that basis
holds per row, with explicit sums and no matrix products, so a fit forecast
alone is the one-row case of a batch and equals its row there bit for bit.
A single fit's forecast is that one-row case, and on a (1, d) array its time
is nearly all numpy's per-call cost.  So the field of one fit carries a twin
on Python floats, with the same products and left-to-right sums, which RK4
and the rate read-off run on, bit for bit.  A power basis' twin still calls
numpy's ``power``: Python's ``**`` (libm's ``pow``) differs from it in the
last bit for some arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, mul
from typing import Callable, List, Optional, Sequence

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
    PolynomialUnivariate,
    PowerUnivariate,
    QuadraticMultivariate,
    _readonly,
    reduced_to_grey,
)
from .transform import difference_cumulative

OVERFLOW_GUARD = 1e12
#: a state whose sum of squares is below this has every entry below the guard;
#: NaN, inf and any entry at or above the guard fail it
GUARD_SQ = 0.5 * OVERFLOW_GUARD ** 2

#: largest internal step (in sample-time units) used by the default policy.  It
#: is the largest power of two whose worst relative error, |x - r| / |r| in the
#: max norm at each sample against 64x more substeps, is <= 1e-7 on the eight
#: yearly fits forecast 7 steps ahead (<= 1.7e-10 at 32 substeps), the Verhulst
#: truth on its size-sweep grids (h = 0.4, 0.2, 0.08, 0.04: 2.3e-8, 1.7e-8,
#: 1.3e-8, 4.1e-9) and the two-species truth at h = 0.01 (9.4e-9, 1 substep);
#: 2^-4 gives 2.8e-7 on Verhulst h = 0.4.  The two-species size-sweep grids
#: (h = 0.25, 0.1, 0.05) miss the target at this step: 8.7e-7, 3.7e-7, 3.7e-7.
#: A power of two keeps every internal time exact on integer-spaced grids.
DEFAULT_MAX_STEP = 2.0 ** -5

#: most substeps the default policy takes per interval; every bundled grid
#: needs at most 32, and a spacing past 2^11 sample-time units (Unix-second
#: stamps, say) asks for more, so such a grid has to be rescaled first
MAX_SUBSTEPS = 2 ** 16

VectorField = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Trajectory:
    """States recorded at the sample times, with an explicit divergence flag.

    ``states`` is (n, m) for one integrated state and (n, B, m) for a batch
    of B.  ``row_blowup_index`` holds, for the one state or each of the B
    rows, the first sample index whose state could not be computed (-1 for
    a row that ran to the end); that sample and all later ones of the row
    are NaN.  ``blown_up`` says whether any row blew up, and
    ``blowup_index`` is the earliest such index (None when none did).
    """

    times: np.ndarray
    states: np.ndarray
    row_blowup_index: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "states", _readonly(self.states))
        object.__setattr__(self, "row_blowup_index",
                           _readonly(self.row_blowup_index, dtype=int))

    @property
    def blown_up(self) -> bool:
        return bool((self.row_blowup_index >= 0).any())

    @property
    def blowup_index(self) -> Optional[int]:
        flagged = self.row_blowup_index[self.row_blowup_index >= 0]
        return int(flagged.min()) if flagged.size else None


def default_substeps(times) -> int:
    """Substeps per interval so every internal step is <= min(h_k, DEFAULT_MAX_STEP)."""
    h = np.diff(np.asarray(times, dtype=float))
    if h.size == 0:
        return 1
    count = float(h.max()) / DEFAULT_MAX_STEP - 1e-12
    if not math.isfinite(count):
        raise ConfigError("the spacing of the time grid overflows the substep count")
    if count > MAX_SUBSTEPS:
        raise ConfigError(f"a spacing of {float(h.max()):g} needs more than {MAX_SUBSTEPS} "
                          "RK4 substeps per interval; rescale the time axis")
    return max(1, int(math.ceil(count)))


def _drop_bad_rows(state: np.ndarray, first_bad: np.ndarray, k: int):
    """Set the rows of ``state`` that fail the guard to NaN, record ``k`` as the
    first bad sample of those newly failed, and return an index of the rows
    still running: all of ``state`` while none has failed, None once all have."""
    rows = np.atleast_2d(state)    # a view, so the NaNs land in ``state``
    # NaN and +-inf fail the comparison, so non-finite rows are bad too
    bad = ~(np.max(np.abs(rows), axis=1) < OVERFLOW_GUARD)
    first_bad[bad & (first_bad < 0)] = k
    rows[bad] = np.nan
    if bad.all():
        return None
    return np.flatnonzero(~bad) if bad.any() else slice(None)


def rk4_integrate(rhs: VectorField, initial, times,
                  substeps: Optional[int] = None) -> Trajectory:
    """Integrate d(state)/dt = rhs(t, state) with classical RK4.

    Each interval between consecutive sample times is split into ``substeps``
    equal internal steps, ``default_substeps(times)`` unless given; only the
    sample times are recorded.  If any intermediate state is non-finite or
    exceeds the overflow guard the trajectory is flagged as blown up and the
    remaining rows stay NaN.

    ``initial`` is one state (m,) or a batch of B independent states (B, m);
    ``rhs`` is then called on the whole (B, m) batch and its row i must
    depend on row i alone.  Each row has its own guard: a row that fails it
    is NaN from that sample on while the other rows carry on, so every row
    equals the same row integrated alone.  One state under a field that
    carries ``row``, its twin on floats (``grey_rhs``), runs on floats.
    """
    times = np.asarray(times, dtype=float)
    if substeps is None:
        substeps = default_substeps(times)
    elif substeps < 1:
        raise ValueError("substeps must be >= 1")
    state = np.array(initial, dtype=float, ndmin=1)
    if state.ndim > 2:
        raise ValueError("initial must be one state (m,) or a batch of states (B, m)")
    out = np.full((times.size,) + state.shape, np.nan)
    first_bad = np.full(state.shape[0] if state.ndim == 2 else 1, -1)
    row = getattr(rhs, "row", None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if row is not None and first_bad.size == 1:
            _rk4_row(row, state.ravel().tolist(), times.tolist(), substeps,
                     out.reshape(times.size, -1), first_bad)
        else:
            _rk4_rows(rhs, state, times, substeps, out, first_bad)
    out.setflags(write=False)    # a fresh array Trajectory can keep without a copy
    return Trajectory(times, out, first_bad)


def _rk4_rows(rhs: VectorField, state: np.ndarray, times: np.ndarray, substeps: int,
              out: np.ndarray, first_bad: np.ndarray) -> None:
    """``rk4_integrate`` of a (B, m) batch, or of one (m,) state, on arrays."""
    live = _drop_bad_rows(state, first_bad, 0)
    out[0] = state
    sixth = 1.0 / 6.0
    for k in range(1, times.size):
        if live is None:
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
            # one dot product over the live rows per substep; rows are looked
            # at one by one only after it fails
            running = state[live]
            if not np.vdot(running, running) < GUARD_SQ:
                live = _drop_bad_rows(state, first_bad, k)
                if live is None:
                    break
        out[k] = state


def _rk4_row(row, y: List[float], times: List[float], substeps: int,
             out: np.ndarray, first_bad: np.ndarray) -> None:
    """``rk4_integrate`` of one state on floats under its field's twin ``row``,
    into the (n, m) ``out``: the array loop's operations in its order, and the
    guard's exact test on every entry after each substep, which the array
    loop's dot product only schedules, so the states and flag are its bits."""
    sixth = 1.0 / 6.0
    for k in range(len(times)):
        if k:
            dt = (times[k] - times[k - 1]) / substeps
            half, step = 0.5 * dt, dt * sixth
            t = times[k - 1]
            for _ in range(substeps):
                k1 = row(t, y)
                k2 = row(t + half, [v + half * g for v, g in zip(y, k1)])
                k3 = row(t + half, [v + half * g for v, g in zip(y, k2)])
                k4 = row(t + dt, [v + dt * g for v, g in zip(y, k3)])
                y = [v + step * (a + 2.0 * (b + c) + e)
                     for v, a, b, c, e in zip(y, k1, k2, k3, k4)]
                t += dt
                if not all([abs(v) < OVERFLOW_GUARD for v in y]):
                    break
        # NaN and +-inf fail the comparison too
        if not all([abs(v) < OVERFLOW_GUARD for v in y]):
            first_bad[0] = k
            return
        out[k] = y


def _batch(params) -> List[ParameterSet]:
    return [params] if isinstance(params, ParameterSet) else list(params)


def _coefficients(batch: Sequence[ParameterSet]) -> np.ndarray:
    """The columns of [theta_L | theta_N] of B parameter sets as one (C, B, d) array:
    [c, i] is column c of set i."""
    coef = np.stack([np.hstack([p.theta_L, p.theta_N]) for p in batch])
    return np.ascontiguousarray(coef.transpose(2, 0, 1))


def grey_rhs(spec: ModelSpec, params) -> VectorField:
    """Vector field of the cumulative-state model dy/dt = theta_L y + theta_N N(y) + beta.

    ``params`` is one parameter set or a sequence of B sets sharing ``spec``;
    the field maps a (B, d) batch of states, row i under set i, to its
    (B, d) derivatives.  Each is an explicit sum over the d + p columns, then
    beta, added strictly left to right in a form the spec fixes here: term by
    term for a scalar state with at most one basis column, else one broadcast
    product that ``accumulate`` sums (a ``sum`` would add some terms pairwise).
    Neither is a matrix product, whose rounding depends on the shapes, so row
    i reads row i of the states alone.

    The field of one set also carries ``row``, its twin on Python floats:
    ``row(t, y)`` maps a state's d floats to its derivative's with the same
    products and sums in the same order, so it returns the field's bits.
    """
    batch = _batch(params)
    coef = _coefficients(batch)
    beta = np.stack([p.beta_or_zero() for p in batch])
    basis = spec.basis
    if isinstance(basis, PowerUnivariate) and np.ndim(basis.gamma) == 0 and len(batch) > 1:
        # the exponent column of every call, built once
        basis = PowerUnivariate((basis.gamma,) * len(batch))
    if spec.dimension == 1 and spec.p <= 1:
        c = list(coef)    # (B, 1) views of the columns, split once
        if basis is None:
            field = lambda t, y: c[0] * y + beta
        else:
            evaluate = basis.evaluate
            field = lambda t, y: c[0] * y + c[1] * evaluate(y) + beta
    elif basis is None:
        field = lambda t, y: np.add.accumulate(coef * y.T[:, :, None], axis=0)[-1] + beta
    else:
        def field(t, y):
            columns = np.concatenate((y, basis.evaluate(y)), axis=1).T[:, :, None]    # (C, B, 1)
            return np.add.accumulate(coef * columns, axis=0)[-1] + beta
    if len(batch) == 1:
        field.row = _row_field(coef[:, 0].T.tolist(), beta[0].tolist(), basis)
    return field


def _row_monomials(basis):
    """N from a state's d floats to its p floats, by the products that
    ``basis.evaluate`` makes; a basis not named here runs its own
    ``evaluate`` on a one-row array."""
    if isinstance(basis, PowerUnivariate):
        power = basis.row_power()
        return lambda y: [power(y[0])]
    if isinstance(basis, QuadraticMultivariate):
        pairs = basis.pairs
        return lambda y: [y[i] * y[j] for i, j in pairs]
    if isinstance(basis, PolynomialUnivariate):
        def powers(y):
            v = y[0]
            power = v * v
            out = [power]
            for _ in range(3, basis.max_degree + 1):
                power = power * v
                out.append(power)
            return out

        return powers
    return lambda y: basis.evaluate(np.array([y])).tolist()[0]


def _row_field(coef: List[List[float]], beta: List[float], basis):
    """The one-row twin of ``grey_rhs``: output j is
    coef[j][0] z_0 + coef[j][1] z_1 + ... + beta[j], added left to right."""
    monomials = None if basis is None else _row_monomials(basis)
    if len(beta) == 1 and len(coef[0]) == 2:    # IGVM, INGM, INGBM: one sum, unrolled
        (c0, c1), (b,) = coef[0], beta
        return lambda t, y: [c0 * y[0] + c1 * monomials(y)[0] + b]

    def row(t, y):
        columns = y if monomials is None else y + monomials(y)
        return [reduce(add, map(mul, c, columns)) + b for c, b in zip(coef, beta)]

    return row


def _one_row(traj: Trajectory) -> Trajectory:
    return Trajectory(traj.times, traj.states[:, 0], traj.row_blowup_index)


def solve_grey(spec: ModelSpec, params, times,
               substeps: Optional[int] = None) -> Trajectory:
    """Cumulative-state trajectory of the grey model from eta.

    ``params`` is one parameter set, giving an (n, d) trajectory (a batch of
    one row), or a sequence of B sets sharing ``spec``, giving an (n, B, d)
    trajectory whose row i equals set i solved alone.
    """
    batch = _batch(params)
    traj = rk4_integrate(grey_rhs(spec, batch), [p.eta for p in batch], times, substeps)
    return _one_row(traj) if isinstance(params, ParameterSet) else traj


def _with_rates(rhs: VectorField, traj: Trajectory) -> Trajectory:
    """The ``[x | y]`` trajectory of a cumulative (n, B, d) one, whose rates
    x(t_k) = rhs(t_k, y(t_k)) are read off the field that integrated y.

    Each row keeps RK4's guard on the whole ``[x | y]`` row: a row whose x
    fails it is flagged at that sample and is NaN from there on.
    """
    n, rows, d = traj.states.shape
    out = np.empty((n, rows, 2 * d))
    out[:, :, d:] = traj.states
    row = getattr(rhs, "row", None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if row is not None and rows == 1:
            out[:, 0, :d] = [row(t, y) for t, y in zip(traj.times.tolist(),
                                                       traj.states[:, 0].tolist())]
        else:
            for k in range(n):
                out[k, :, :d] = rhs(traj.times[k], traj.states[k])
    # NaN and +-inf fail the comparison, so the rows NaN after RK4's own flag do too
    bad = ~(np.max(np.abs(out), axis=2) < OVERFLOW_GUARD)
    first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), -1)
    out[np.logical_or.accumulate(bad, axis=0)] = np.nan    # a bad sample and all later ones
    out.setflags(write=False)    # a fresh array Trajectory can keep without a copy
    return Trajectory(traj.times, out, first_bad)


def solve_reduced(spec: ModelSpec, params, times,
                  substeps: Optional[int] = None) -> Trajectory:
    """Trajectory of the reduced model; columns 0..d-1 hold x, d..2d-1 hold y.

    The reduced model is the cumulative one read at its rate: each set is
    converted by ``reduced_to_grey`` (beta = eta_x - theta_L eta -
    theta_N N(eta)), y' = f(y) is integrated from y(t1) = eta, and
    x(t_k) = f(y(t_k)) is read off the same field at each sample.
    ``params`` is one reduced-form set or a sequence of B sets sharing
    ``spec``, as in ``solve_grey``.
    """
    batch = [reduced_to_grey(p, spec) for p in _batch(params)]
    rhs = grey_rhs(spec, batch)
    traj = _with_rates(rhs, rk4_integrate(rhs, [p.eta for p in batch], times, substeps))
    return _one_row(traj) if isinstance(params, ParameterSet) else traj


def extend_times(times: np.ndarray, horizon: int,
                 future_times=None) -> np.ndarray:
    """Append ``horizon`` future stamps, spaced by the mean spacing unless given."""
    times = np.asarray(times, dtype=float)
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if horizon == 0:
        return times.copy()
    if future_times is None:
        mean_h = (times[-1] - times[0]) / (times.size - 1)
        with np.errstate(over="ignore"):
            future_times = times[-1] + mean_h * np.arange(1, horizon + 1)
    future = np.asarray(future_times, dtype=float)
    if future.size != horizon:
        raise ConfigError(f"expected {horizon} future stamps, got {future.size}")
    grid = np.concatenate([times, future])
    if not np.all(np.isfinite(grid)):
        raise ConfigError("the extended time grid overflows")
    if not np.all(np.diff(grid) > 0):
        raise ConfigError("future stamps must continue the grid strictly increasing")
    return grid


def _route(fit: FitResult):
    """The fit's spec, with a power basis' exponent left out, and its form."""
    if isinstance(fit.spec.basis, PowerUnivariate):
        return replace(fit.spec, basis=PowerUnivariate(())), fit.params.form
    return fit.spec, fit.params.form


def forecast_fits(fits: Sequence[FitResult], horizon: int,
                  future_times=None) -> List[Optional[Forecast]]:
    """Forecast fits of one route on their shared grid, extended by ``horizon``
    stamps, in one RK4 pass.

    A route is one spec, with a power basis' exponent left out, and one form;
    fits of mixed routes or grids are a ``ConfigError``.  Each reduced fit is
    converted with its own spec (``reduced_to_grey``), and one ``grey_rhs``
    integrates the batch, its power basis holding each row's exponent.  Each
    forecast is bitwise the one its fit gets alone, so the result depends
    neither on the batch's size nor on its other members.

    Returns the forecasts in input order.  A fit whose trajectory left its
    basis' domain gets None; a fit that blew up keeps its flagged forecast.
    Neither raises, so the other rows carry on.
    """
    if not fits:
        return []
    route = _route(fits[0])
    for fit in fits:
        if not np.array_equal(fit.times, fits[0].times):
            raise ConfigError("the batched forecast needs fits on one shared grid")
        if _route(fit) != route:
            raise ConfigError("the batched forecast needs fits of one route: one spec, "
                              "bar a power basis' exponent, and one form")
    grid = extend_times(fits[0].times, horizon, future_times)
    spec, grey = route[0], route[1] == GREY_FORM
    if isinstance(spec.basis, PowerUnivariate):
        spec = replace(spec, basis=PowerUnivariate(tuple(fit.spec.basis.gamma for fit in fits)))
    try:
        batch = [fit.params if grey else reduced_to_grey(fit.params, fit.spec) for fit in fits]
        rhs = grey_rhs(spec, batch)
        traj = rk4_integrate(rhs, [p.eta for p in batch], grid)
        if not grey:
            traj = _with_rates(rhs, traj)
    except DomainError:
        # a basis raises for the whole batch; each row alone shows which left its domain
        if len(fits) == 1:
            return [None]
        return [forecast_fits([fit], horizon, future_times)[0] for fit in fits]
    forecasts = []
    for i, k in enumerate(traj.row_blowup_index.tolist()):
        states = traj.states[:, i]
        x = difference_cumulative(grid, states) if grey else states[:, :spec.dimension]
        forecasts.append(Forecast(grid, x, k if k >= 0 else None))
    return forecasts


def forecast_fit(fit: FitResult, horizon: int, future_times=None) -> Forecast:
    """Integrate a fit over its grid extended by ``horizon`` stamps.

    Both forms integrate the cumulative model: grey-form fits difference it
    back to the original scale, and reduced-form fits read the original state
    off its field (``solve_reduced``).  This is the one-fit case of
    ``forecast_fits``, and it returns a whole forecast: a trajectory that
    leaves the basis' domain raises ``DomainError``, and one that blows up
    raises ``BlowUpError``.
    """
    (forecast,) = forecast_fits([fit], horizon, future_times)
    if forecast is None:
        raise DomainError(f"the trajectory left the domain of the basis {fit.spec.basis}")
    if forecast.blown_up:
        raise BlowUpError(f"the trajectory blew up by t={forecast.times[forecast.blowup_index]:g}"
                          f" (sample {forecast.blowup_index})")
    return forecast

