"""Fixed-step integration of the unified model and its reduced augmented system,
and forecasting of any fit from it.

The integrator is a classical 4th-order Runge-Kutta scheme with a fixed number
of substeps per sampling interval; determinism matters more than adaptivity
here because the Monte Carlo harness must be exactly reproducible.  Divergence
is detected with an overflow guard and reported via a flag, never an
unhandled NaN.  It also integrates a batch of independent states in one pass,
flagging each row on its own.  The model fields are written over such a batch
of fits that share a spec, with explicit sums and no matrix products, so a
fit forecast alone is the one-row case of a batch and equals its row there
bit for bit.
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
#: a state whose sum of squares is below this has every entry below the guard;
#: NaN, inf and any entry at or above the guard fail it
GUARD_SQ = 0.5 * OVERFLOW_GUARD ** 2

#: largest internal step (in sample-time units) used by the default policy.  It
#: is the largest power of two whose worst relative error, |x - r| / |r| in the
#: max norm at each sample against 64x more substeps, is <= 1e-7 on the eight
#: yearly fits forecast 7 steps ahead (<= 1.7e-10 at 32 substeps), the Verhulst
#: truth on its size-sweep grids (h = 0.4, 0.2, 0.08, 0.04: 1.0e-8, 7.7e-9,
#: 5.9e-9, 1.8e-9) and the two-species truth at h = 0.01 (2.8e-8, 1 substep);
#: 2^-4 gives 1.25e-7 on Verhulst h = 0.4.  The two-species size-sweep grids
#: (h = 0.25, 0.1, 0.05) miss the target at this step: 8.4e-6, 2.7e-6, 2.7e-6.
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


def _drop_bad_rows(state: np.ndarray, first_bad: np.ndarray, k: int) -> bool:
    """Set the rows of ``state`` that fail the guard to NaN, record ``k`` as the
    first bad sample of those newly failed, and say whether any row still runs."""
    rows = np.atleast_2d(state)    # a view, so the NaNs land in ``state``
    # NaN and +-inf fail the comparison, so non-finite rows are bad too
    bad = ~(np.max(np.abs(rows), axis=1) < OVERFLOW_GUARD)
    first_bad[bad & (first_bad < 0)] = k
    rows[bad] = np.nan
    return not bad.all()


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
    equals the same row integrated alone.
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
    running = _drop_bad_rows(state, first_bad, 0)
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
                # one dot product per substep; rows are looked at only after it fails
                if not np.vdot(state, state) < GUARD_SQ \
                        and not _drop_bad_rows(state, first_bad, k):
                    running = False
                    break
            out[k] = state
    out.setflags(write=False)    # a fresh array Trajectory can keep without a copy
    return Trajectory(times, out, first_bad)


def _batch(params) -> List[ParameterSet]:
    return [params] if isinstance(params, ParameterSet) else list(params)


def _coefficients(batch: Sequence[ParameterSet]) -> np.ndarray:
    """The columns of [theta_L | theta_N] of B parameter sets as one (C, B, d) array:
    [c, i] is column c of set i."""
    coef = np.stack([np.hstack([p.theta_L, p.theta_N]) for p in batch])
    return np.ascontiguousarray(coef.transpose(2, 0, 1))


def _combine(coef: np.ndarray, *blocks: np.ndarray) -> np.ndarray:
    """sum_c coef[c] * z_c over the columns z_c of the (B, .) blocks, summed in order.

    An explicit elementwise sum rather than a matrix product, whose rounding
    depends on the shapes involved: row i reads row i of the blocks alone.
    Blocks of one column each (the scalar models) are summed term by term,
    which is the cheaper route for so few terms; wider ones as one broadcast
    product whose terms ``accumulate`` adds strictly left to right (a
    ``sum`` would add some of them pairwise).
    """
    if len(coef) == len(blocks):    # one column per block
        out = coef[0] * blocks[0]
        for c in range(1, len(blocks)):
            out = out + coef[c] * blocks[c]
        return out
    columns = np.concatenate(blocks, axis=1).T[:, :, None]    # (C, B, 1)
    return np.add.accumulate(coef * columns, axis=0)[-1]


def grey_rhs(spec: ModelSpec, params) -> VectorField:
    """Vector field of the cumulative-state model dy/dt = theta_L y + theta_N N(y) + beta.

    ``params`` is one parameter set or a sequence of B sets sharing ``spec``;
    the field maps a (B, d) batch of states, row i under set i, to its
    (B, d) derivatives, each an explicit sum over the d + p columns.
    """
    batch = _batch(params)
    coef = _coefficients(batch)
    beta = np.stack([p.beta_or_zero() for p in batch])
    basis = spec.basis
    if basis is None:
        return lambda t, y: _combine(coef, y) + beta

    def rhs(t, y):
        return _combine(coef, y, basis.evaluate(y)) + beta

    return rhs


def reduced_augmented_rhs(spec: ModelSpec, params) -> VectorField:
    """Vector field of the reduced model as a first-order system on (x, y).

    The running integral y(t) = eta + int x is carried as extra state, so the
    chain-rule term d/dt N(y) = J_N(y) x uses the analytic basis Jacobian:

        dx/dt = theta_L x + theta_N J_N(y) x,   dy/dt = x.

    ``params`` is one reduced-form parameter set or a sequence of B sets
    sharing ``spec``; the field maps a (B, 2d) batch of rows [x, y] to their
    derivatives, with J_N(y) x and dx/dt as explicit sums.
    """
    batch = _batch(params)
    if any(p.form != REDUCED_FORM for p in batch):
        raise ValueError("expected reduced-form parameters")
    d = spec.dimension
    coef = _coefficients(batch)
    basis = spec.basis
    if basis is None:
        def rhs(t, u):
            x = u[:, :d]
            return np.concatenate([_combine(coef, x), x], axis=1)
        return rhs

    def rhs(t, u):
        x = u[:, :d]
        jac = basis.jacobian(u[:, d:])
        if d == 1:
            jx = jac[:, :, 0] * x
        else:    # the d products of each row, added in order over the last axis
            jx = np.add.accumulate(jac * x[:, None, :], axis=2)[:, :, -1]
        return np.concatenate([_combine(coef, x, jx), x], axis=1)

    return rhs


def reduced_initial_state(params: ParameterSet) -> np.ndarray:
    """Augmented initial state (x(t1), y(t1)) = (eta_x, eta) for the reduced system."""
    return np.concatenate([params.initial_state(), params.eta])


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


def solve_reduced(spec: ModelSpec, params, times,
                  substeps: Optional[int] = None) -> Trajectory:
    """Trajectory of the reduced augmented system; columns 0..d-1 hold x,
    d..2d-1 hold y.  ``params`` is one reduced-form set or a sequence of B
    sets sharing ``spec``, as in ``solve_grey``."""
    batch = _batch(params)
    traj = rk4_integrate(reduced_augmented_rhs(spec, batch),
                         [reduced_initial_state(p) for p in batch], times, substeps)
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


def _route(fit: FitResult):
    """"power" for a reduced power-family fit, otherwise the fit's spec and form."""
    if fit.params.form == REDUCED_FORM and isinstance(fit.spec.basis, PowerUnivariate):
        return "power"
    return fit.spec, fit.params.form


def forecast_fits(fits: Sequence[FitResult], horizon: int,
                  future_times=None) -> List[Optional[Forecast]]:
    """Forecast fits of one route on their shared grid, extended by ``horizon``
    stamps, in one RK4 pass.

    A route is either one spec and one form (through ``solve_grey`` or
    ``solve_reduced``) or reduced power-family fits of any exponents (through
    ``power_batch_rhs``); fits of mixed routes or grids are a ``ConfigError``.
    Each forecast is bitwise the one its fit gets alone, so the result depends
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
            raise ConfigError("the batched forecast needs fits of one route: one spec "
                              "and one form, or reduced power-family fits")
    grid = extend_times(fits[0].times, horizon, future_times)
    spec, params = fits[0].spec, [fit.params for fit in fits]
    grey = params[0].form == GREY_FORM
    left_domain = [False] * len(fits)
    try:
        if route == "power":
            rhs, left_domain = power_batch_rhs(fits)
            traj = rk4_integrate(rhs, [reduced_initial_state(p) for p in params], grid)
        else:
            traj = (solve_grey if grey else solve_reduced)(spec, params, grid)
    except DomainError:
        # a basis raises for the whole batch; each row alone shows which left its domain
        if len(fits) == 1:
            return [None]
        return [forecast_fits([fit], horizon, future_times)[0] for fit in fits]
    forecasts: List[Optional[Forecast]] = []
    for i, (k, left) in enumerate(zip(traj.row_blowup_index.tolist(), left_domain)):
        states = traj.states[:, i]
        x = difference_cumulative(grid, states) if grey else states[:, :spec.dimension]
        forecasts.append(None if left else Forecast(grid, x, k if k >= 0 else None))
    return forecasts


def forecast_fit(fit: FitResult, horizon: int, future_times=None) -> Forecast:
    """Integrate a fit over its grid extended by ``horizon`` stamps.

    Grey-form fits integrate the cumulative model and difference back to the
    original scale; reduced-form fits integrate the augmented system and read
    the original state off directly.  This is the one-fit case of
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
