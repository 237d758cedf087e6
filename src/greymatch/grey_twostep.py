"""Classical two-step estimation on the cumulative series.

Pipeline: cumulative sums, midpoint-discretized design matrix, least squares
for the structural parameters, then a separate initial-value selection.
Forecasting integrates the cumulative model and differences back
(``ode.forecast_fit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

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
from .transform import cusum

FIX_FIRST = "fix_first"
FIX_LAST = "fix_last"
RESIDUAL_CORRECTION = "residual_correction"
INITIAL_STRATEGIES = (FIX_FIRST, FIX_LAST, RESIDUAL_CORRECTION)

#: smallest singular value, relative to the largest, of a nonsingular design
RANK_TOLERANCE = 1e-10

#: cells per pass of the initial-value K-section search (K + 1 candidates)
SECTIONS = 64
#: absolute width at which the last-point search stops (brentq's ``xtol``), and
#: the relative last-point mismatch a d > 1 root may leave
ROOT_XTOL = 1e-12
#: cell width at which the residual search stops (Nelder-Mead's ``xatol``)
MIN_XATOL = 1e-8
#: bracket widenings and window moves a minimum search may make
MAX_WIDENINGS = 20


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


def build_design_grey(y: np.ndarray, ts: TimeSeries, spec: ModelSpec,
                      lam: float = 0.5) -> Tuple[np.ndarray, np.ndarray]:
    """Design and target matrices of the midpoint-discretized cumulative model.

    ``y`` is ``cusum(ts)``.  The state proxy is the background value
    z(t_k) = lam * y(t_{k-1}) + (1 - lam) * y(t_k): row k-1 of the design is
    ``spec.design`` at z(t_k), and the matching target row is the observation
    x(t_k), for k = 2..n.
    """
    z = lam * y[:-1] + (1.0 - lam) * y[1:]
    return spec.design(z), ts.values[1:]


def least_squares_solve(design: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, float]:
    """Minimum-norm least-squares solve of design @ coef = targets.

    The package's one factorization: a single SVD yields both the solution
    and the condition estimate, the ratio of the extreme singular values
    (inf for a zero one).  A rank-deficient design is solved, not refused.
    Raises ConfigError when the design is not finite, that is, overflowed.
    """
    design = np.asarray(design, dtype=float)
    if not np.all(np.isfinite(design)):
        raise ConfigError("the regression design overflows; rescale the series")
    coef, _, _, s = np.linalg.lstsq(design, np.asarray(targets, dtype=float), rcond=None)
    return coef, float(s[0] / s[-1]) if s.size and s[-1] > 0.0 else float("inf")


def _last_point_bracket(column: np.ndarray) -> Tuple[float, float]:
    lo, hi = float(column.min()), float(column.max())
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(hi))
    return lo - 0.5 * span, hi + 0.5 * span


def _section_root(mismatch: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                  component: int) -> float:
    """Root of ``mismatch`` on [lo, hi] by K-section on grids of SECTIONS + 1 points.

    ``mismatch`` maps a grid to its values in one pass.  A grid point with
    value zero is returned; otherwise each pass keeps the first cell with a
    sign change, until the cell is at most ``ROOT_XTOL`` plus four ulps of its
    ends wide (brentq's stopping rule) or no longer shrinks, and the cell end
    nearer zero is returned.
    """
    grid = np.linspace(lo, hi, SECTIONS + 1)
    f = mismatch(grid)
    if np.sign(f[0]) * np.sign(f[-1]) > 0.0:
        raise RootSearchError(
            f"no sign change for component {component} in bracket [{lo:.6g}, {hi:.6g}]"
        )
    while True:
        zero = np.flatnonzero(f == 0.0)
        if zero.size:
            return float(grid[zero[0]])
        j = int(np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0])
        a, b = grid[j], grid[j + 1]
        if (b - a <= ROOT_XTOL + 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
                or (a, b) == (grid[0], grid[-1])):
            return float(a if abs(f[j]) <= abs(f[j + 1]) else b)
        grid = np.linspace(a, b, SECTIONS + 1)
        f = mismatch(grid)


def _section_minimum(objective: Callable[[np.ndarray], np.ndarray], lo, hi,
                     floor: float = -np.inf, xtol: float = MIN_XATOL) -> Tuple[np.ndarray, float]:
    """Minimizer of ``objective`` on the box [lo, hi] by joint K-section passes.

    A pass evaluates a grid of K + 1 points per axis, window ends included,
    with K = round(SECTIONS ** (1 / d)): ``objective`` maps the (N, d)
    candidates of a pass to their N values in one call.  Each axis then
    keeps the two cells around the smallest value.  A smallest value on an
    end of the bracket instead widens the bracket past that end by its width,
    never below ``floor``; one on another window edge moves the window to
    centre on it at twice its width, and the other axes' windows recentre on
    it at their width (a pattern-search move).  The search stops when no
    axis moves and every axis' cell is at most ``xtol * K / SECTIONS`` wide
    or no longer shrinks, and returns the candidate with the smallest value
    seen and that value.  A pass that would make move ``MAX_WIDENINGS + 1``,
    or widen past ``floor``, raises OptimizerError: the minimum is not inside.
    """
    lo, hi = np.array([lo, hi], dtype=float).reshape(2, -1)
    d = lo.size
    cells = round(SECTIONS ** (1.0 / d))
    a, b = lo.copy(), hi.copy()
    moves, best, best_value = 0, None, np.inf
    while True:
        axes = [np.linspace(a[i], b[i], cells + 1) for i in range(d)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        values = objective(points)
        flat = int(np.argmin(values))
        if values.flat[flat] < best_value:
            best, best_value = points[flat].copy(), float(values.flat[flat])
        index = np.unravel_index(flat, (cells + 1,) * d)
        moved, done = any(j in (0, cells) for j in index), True
        for i, j in enumerate(index):
            grid, edge = axes[i], j in (0, cells)
            if edge and (moves == MAX_WIDENINGS or grid[j] <= floor):
                where = "bracket end" if grid[j] in (lo[i], hi[i]) else "window edge"
                raise OptimizerError(
                    f"minimum lies on the {where} {grid[j]:.6g} of component {i} "
                    f"after {moves} moves of its bracket [{lo[i]:.6g}, {hi[i]:.6g}]"
                )
            if edge and grid[j] == lo[i]:
                lo[i] = max(lo[i] - (hi[i] - lo[i]), floor)
                a[i], b[i] = lo[i], grid[1]
            elif edge and grid[j] == hi[i]:
                hi[i] = hi[i] + (hi[i] - lo[i])
                a[i], b[i] = grid[-2], hi[i]
            elif moved:
                # centre the window on the best value, at twice its width on its edge
                half = (b[i] - a[i]) * (1.0 if edge else 0.5)
                a[i], b[i] = max(grid[j] - half, lo[i]), min(grid[j] + half, hi[i])
            else:
                done &= bool(grid[1] - grid[0] <= xtol * cells / SECTIONS
                             or (grid[j - 1], grid[j + 1]) == (a[i], b[i]))
                a[i], b[i] = grid[j - 1], grid[j + 1]
        if moved:
            moves += 1
        elif done:
            return best, best_value


def _summed_squares(states: np.ndarray, blowup_index: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Summed squared residual against y of each row of batched (n, B, d) states;
    1e300 for a row that blew up.  Each row is summed as the (n, d) residual
    of a one-row trajectory would be."""
    residual = np.ascontiguousarray(np.moveaxis(states, 1, 0)) - y
    values = np.sum((residual ** 2).reshape(residual.shape[0], -1), axis=1)
    values[blowup_index >= 0] = 1e300
    return values


def select_initial(strategy: str, times: np.ndarray, y: np.ndarray, spec: ModelSpec,
                   theta_L: np.ndarray, theta_N: np.ndarray,
                   beta: Optional[np.ndarray] = None) -> np.ndarray:
    """Pick the initial value of the cumulative model given structural estimates.

    ``y`` holds the (n, d) cumulative samples on the grid ``times``.
    Strategies: fix the first cumulative sample; match the last cumulative
    sample; or minimize the summed squared trajectory residual.  The searches
    start on the box of ``_last_point_bracket`` per component.  ``fix_last``
    with d = 1 is a K-section root search (``_section_root``).  Every other
    search is one joint K-section minimization over all components
    (``_section_minimum``): of the residual, or for ``fix_last`` of the
    summed squared last-point mismatch, whose minimum is a root only if its
    norm is at most ``ROOT_XTOL`` times the smallest last sample, so that
    every component matches within ``ROOT_XTOL`` relative.  Every pass
    integrates its candidates in one batched ``solve_grey`` call.
    """
    if strategy == FIX_FIRST:
        return y[0].copy()
    if strategy not in INITIAL_STRATEGIES:
        raise ConfigError(f"unknown initial_value_strategy {strategy!r}")

    def trajectories(etas):
        batch = [ParameterSet(theta_L, theta_N, row, beta=beta, form=GREY_FORM)
                 for row in etas]
        return solve_grey(spec, batch, times)

    lo, hi = np.array([_last_point_bracket(column) for column in y.T]).T
    if strategy == FIX_LAST and spec.dimension == 1:
        def mismatch(values):
            traj = trajectories(values[:, None])
            f = traj.states[-1, :, 0] - y[-1, 0]
            rows = np.flatnonzero(traj.row_blowup_index >= 0)
            # use the last finite state as a signed surrogate so the
            # bracket stays usable when a candidate's trajectory diverges
            last = np.maximum(traj.row_blowup_index[rows] - 1, 0)
            f[rows] = np.where(traj.states[last, rows, 0] - y[-1, 0] >= 0.0, 1e30, -1e30)
            return f

        return np.array([_section_root(mismatch, lo[0], hi[0], 0)])

    # fix_last scores the last sample only
    samples = slice(-1, None) if strategy == FIX_LAST else slice(None)

    def objective(etas):
        traj = trajectories(etas)
        return _summed_squares(traj.states[samples], traj.row_blowup_index, y[samples])

    # a basis defined for y > 0 only keeps every candidate inside its domain
    positive = spec.basis is not None and spec.basis.positive_only
    floor = np.finfo(float).tiny if positive else -np.inf
    lo = np.maximum(lo, floor)
    if strategy == RESIDUAL_CORRECTION:
        return _section_minimum(objective, lo, hi, floor)[0]
    try:
        eta, value = _section_minimum(objective, lo, hi, floor, ROOT_XTOL)
    except OptimizerError as exc:
        raise RootSearchError(f"no last-point root: {exc}") from None
    if not np.sqrt(value) <= ROOT_XTOL * np.min(np.abs(y[-1])):
        raise RootSearchError(f"no last-point root: the best eta misses the last "
                              f"samples by {np.sqrt(value):.3g} in norm")
    return eta


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
    residuals and the largest condition estimate; SingularDesignError past
    ``RANK_TOLERANCE``, where the coefficients are not identifiable.
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
        if cond_o > 1.0 / RANK_TOLERANCE:
            raise SingularDesignError(
                f"design matrix is numerically singular (condition ~ {cond_o:.3g})",
                condition=cond_o,
            )
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
    y = cusum(ts)
    design, targets = build_design_grey(y, ts, spec, config.background_coefficient)
    coef, residuals, condition = masked_row_solve(design, targets, spec.free_mask())
    theta_L, theta_N, beta = spec.unpack(coef)
    if config.initial_values is not None:
        eta = np.atleast_1d(np.asarray(config.initial_values, dtype=float))
    else:
        eta = select_initial(config.initial_value_strategy, ts.times, y, spec,
                             theta_L, theta_N, beta)
    params = ParameterSet(theta_L, theta_N, eta, beta=beta, form=GREY_FORM)
    return FitResult(spec, params, METHOD_GREY_TWOSTEP, residuals, condition, ts.times)

