"""Classical two-step estimation on the cumulative series.

Pipeline: cumulative sums, midpoint-discretized design matrix, least squares
for the structural parameters, then a separate initial-value selection.
Forecasting integrates the cumulative model and differences back
(``ode.forecast_fit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from .core import (
    ConfigError,
    FitResult,
    GREY_FORM,
    METHOD_GREY_TWOSTEP,
    ModelSpec,
    OptimizerError,
    ParameterSet,
    RootSearchError,
    SingularDesignError,
    TimeSeries,
)
from .ode import solve_grey
from .transform import CusumSeries, cusum

FIX_FIRST = "fix_first"
FIX_LAST = "fix_last"
RESIDUAL_CORRECTION = "residual_correction"
INITIAL_STRATEGIES = (FIX_FIRST, FIX_LAST, RESIDUAL_CORRECTION)

#: smallest singular value, relative to the largest, of a nonsingular design
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GreyFitConfig:
    """Options of the two-step pipeline.

    ``background_coefficient`` blends consecutive cumulative values into the
    background value z(t_k) = lam * y(t_{k-1}) + (1 - lam) * y(t_k); 0.5 is
    the conventional midpoint.  ``initial_values`` overrides the selection
    strategy with fixed values (used e.g. to seed the solver with the true
    initial condition in simulation studies).
    """

    background_coefficient: float = 0.5
    initial_value_strategy: str = FIX_FIRST
    initial_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.background_coefficient <= 1.0:
            raise ConfigError("background_coefficient must lie in [0, 1]")
        if self.initial_value_strategy not in INITIAL_STRATEGIES:
            raise ConfigError(
                f"unknown initial_value_strategy {self.initial_value_strategy!r}; "
                f"expected one of {INITIAL_STRATEGIES}"
            )


def build_design_grey(ycum: CusumSeries, ts: TimeSeries, spec: ModelSpec,
                      background_coefficient: float = 0.5) -> Tuple[np.ndarray, np.ndarray]:
    """Design and target matrices of the midpoint-discretized cumulative model.

    The state proxy is the background value z(t_k): row k-1 of the design is
    ``spec.design`` at z(t_k), and the matching target row is the observation
    x(t_k), for k = 2..n.
    """
    lam = background_coefficient
    y = ycum.cum_values
    z = lam * y[:-1] + (1.0 - lam) * y[1:]
    return spec.design(z), ts.values[1:]


def least_squares_solve(design: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, float]:
    """Minimum-residual solve of design @ coef = targets via orthogonal factorization.

    One factorization yields both the solution and the singular values.
    Raises SingularDesignError when the smallest singular value falls below
    ``RANK_TOLERANCE`` times the largest, reporting the condition estimate.
    """
    coef, _, _, s = np.linalg.lstsq(np.asarray(design, dtype=float),
                                    np.asarray(targets, dtype=float), rcond=None)
    if s.size == 0 or s[0] == 0.0 or s[-1] / s[0] < RANK_TOLERANCE:
        condition = float("inf") if s.size == 0 or s[-1] == 0.0 else float(s[0] / s[-1])
        raise SingularDesignError(
            f"design matrix is numerically singular (condition ~ {condition:.3g})",
            condition=condition,
        )
    return coef, float(s[0] / s[-1])


def _last_point_bracket(column: np.ndarray) -> Tuple[float, float]:
    lo, hi = float(column.min()), float(column.max())
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(hi))
    return lo - 0.5 * span, hi + 0.5 * span


def select_initial(strategy: str, ycum: CusumSeries, spec: ModelSpec,
                   theta_L: np.ndarray, theta_N: np.ndarray,
                   beta: Optional[np.ndarray] = None) -> np.ndarray:
    """Pick the initial value of the cumulative model given structural estimates.

    Strategies: fix the first cumulative sample, match the last cumulative
    sample by root search, or minimize the summed squared trajectory residual
    with a derivative-free simplex search seeded at the first sample.
    """
    y = ycum.cum_values
    if strategy == FIX_FIRST:
        return y[0].copy()

    def trajectory(eta):
        params = ParameterSet(theta_L, theta_N, eta, beta=beta, form=GREY_FORM)
        return solve_grey(spec, params, ycum.times)

    if strategy == FIX_LAST:
        target = y[-1]
        eta = y[0].astype(float).copy()

        def component_mismatch(value, i):
            eta[i] = value
            traj = trajectory(eta)
            if traj.blown_up:
                # use the last finite state as a signed surrogate so the
                # bracket stays usable when an endpoint trajectory diverges
                last = max(traj.blowup_index - 1, 0)
                surrogate = traj.states[last, i] - target[i]
                return 1e30 if surrogate >= 0.0 else -1e30
            return traj.states[-1, i] - target[i]

        sweeps = 1 if spec.dimension == 1 else 50
        for _ in range(sweeps):
            previous = eta.copy()
            for i in range(spec.dimension):
                lo, hi = _last_point_bracket(y[:, i])
                f_lo = component_mismatch(lo, i)
                f_hi = component_mismatch(hi, i)
                if f_lo == 0.0 or f_hi == 0.0:
                    eta[i] = lo if f_lo == 0.0 else hi
                    continue
                if np.sign(f_lo) == np.sign(f_hi):
                    raise RootSearchError(
                        f"no sign change for component {i} in bracket [{lo:.6g}, {hi:.6g}]"
                    )
                eta[i] = optimize.brentq(component_mismatch, lo, hi, args=(i,), xtol=1e-12)
            if np.max(np.abs(eta - previous)) < 1e-10:
                break
        return eta

    if strategy == RESIDUAL_CORRECTION:
        def objective(eta):
            traj = trajectory(eta)
            if traj.blown_up:
                return 1e300
            return float(np.sum((traj.states - y) ** 2))

        result = optimize.minimize(
            objective, y[0], method="Nelder-Mead",
            options={"maxiter": 500, "fatol": 1e-10, "xatol": 1e-8},
        )
        if not result.success:
            raise OptimizerError(f"residual-correction search did not converge: {result.message}")
        return np.atleast_1d(result.x)

    raise ConfigError(f"unknown initial_value_strategy {strategy!r}")


def masked_row_solve(design: np.ndarray, targets: np.ndarray,
                     free: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Least squares with structurally zero coefficients dropped.

    ``free`` is the (d, n_columns) mask of free coefficients per output.
    Multi-target least squares decouples per output, so each output is
    regressed on the design columns its row of ``free`` selects and masked
    coefficients stay exactly zero.  A fully free design is one solve for all
    outputs.  Otherwise each output is solved on its own, even where two rows
    of ``free`` agree: LAPACK rounds a multi-target solve differently from
    single-target ones.  Returns the (n_columns, d) coefficients, the
    residuals and the largest condition estimate.
    """
    d = targets.shape[1]
    coef = np.zeros((design.shape[1], d))
    residuals = np.empty_like(targets)
    condition = 0.0
    for outputs in [list(range(d))] if free.all() else [[i] for i in range(d)]:
        columns = free[outputs[0]]
        if not columns.any():
            raise ConfigError(f"output {outputs[0]} has no free coefficients")
        sub = design[:, columns]
        coef_o, cond_o = least_squares_solve(sub, targets[:, outputs])
        coef[np.ix_(columns, outputs)] = coef_o
        residuals[:, outputs] = targets[:, outputs] - sub @ coef_o
        condition = max(condition, cond_o)
    return coef, residuals, condition


def fit_grey(ts: TimeSeries, spec: ModelSpec,
             config: Optional[GreyFitConfig] = None) -> FitResult:
    """Two-step fit: least squares on the cumulative design, then initial value."""
    if config is None:
        config = GreyFitConfig()
    spec.check_series(ts)
    ycum = cusum(ts)
    design, targets = build_design_grey(ycum, ts, spec, config.background_coefficient)
    coef, residuals, condition = masked_row_solve(design, targets, spec.free_mask())
    theta_L, theta_N, beta = spec.unpack(coef)
    if config.initial_values is not None:
        eta = np.atleast_1d(np.asarray(config.initial_values, dtype=float))
    else:
        eta = select_initial(config.initial_value_strategy, ycum, spec,
                             theta_L, theta_N, beta)
    params = ParameterSet(theta_L, theta_N, eta, beta=beta, form=GREY_FORM)
    return FitResult(spec, params, METHOD_GREY_TWOSTEP, residuals, condition, ts.times)

