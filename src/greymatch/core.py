"""Shared domain types: time series, nonlinear bases, model specs and parameter sets.

Everything here is immutable after construction (frozen dataclasses holding
read-only arrays), so instances can be shared freely across threads and
Monte Carlo workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

GREY_FORM = "grey"
REDUCED_FORM = "reduced"

METHOD_GREY_TWOSTEP = "grey_twostep"
METHOD_INTEGRAL_MATCHING = "integral_matching"
METHOD_INTEGRAL_MATCHING_POWER = "integral_matching_power"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GreyModelError(Exception):
    """Base class for all modelling errors raised by this package.

    Each error class names the ``status`` of a Monte Carlo replication that
    raises it and the ``exit_code`` of a command that ends in it.
    """

    status, exit_code = "error", 6


class DomainError(GreyModelError):
    """A nonlinear basis was evaluated outside its mathematical domain."""

    status, exit_code = "domain_error", 5


class SingularDesignError(GreyModelError):
    """The regression design matrix is (numerically) rank deficient."""

    status, exit_code = "singular_design", 3

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class BlowUpError(GreyModelError):
    """A trajectory or closed-form evaluation diverged in finite time."""

    status, exit_code = "blow_up", 4


class RootSearchError(GreyModelError):
    """Initial-value root search failed (no sign change within the bracket)."""

    status, exit_code = "initial_value_error", 6


class OptimizerError(GreyModelError):
    """Initial-value optimisation did not converge."""

    status, exit_code = "initial_value_error", 6


class ConfigError(GreyModelError):
    """Invalid configuration (inconsistent options, too few samples, ...)."""

    status, exit_code = "error", 6


def _readonly(a, dtype=float) -> np.ndarray:
    """A read-only array of ``a``: ``a`` itself when it already owns its data and
    is read-only (as ``rk4_integrate`` leaves its states), a copy otherwise."""
    if isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable \
            and a.dtype == dtype:
        return a
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """A sampled multivariate trajectory.

    ``times`` holds strictly increasing stamps (arbitrary units) and
    ``values`` is an (n, d) matrix whose row k is the observation at
    ``times[k]``.  One-dimensional ``values`` are promoted to a single
    column.  Fitting routines impose their own (stricter) length
    requirements; the type itself only needs one sample.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times)
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2:
            raise ValueError("times must be 1-d and values 2-d")
        if times.size != values.shape[0]:
            raise ValueError("times and values disagree on sample count")
        if times.size < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("times and values must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def d(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# Nonlinear bases
# ---------------------------------------------------------------------------

class NonlinearBasis:
    """A vector of nonlinear monomials N(y): R^d -> R^p.

    The polynomial kinds also give their analytic Jacobian, which the
    one-step estimator's change of basis reads at the initial value; the
    power kind has none.  Both methods take a batch of B states as a (B, d)
    array.  They are built from elementwise operations only: integer powers
    by repeated multiplication, the power kind's by numpy ``power`` over a
    full exponent column, with no matrix product and no scattered
    accumulation, so row i of the result depends on state i alone, bit for
    bit, whatever the other rows are.  A monomial that overflows is inf or
    NaN; callers hold the ``np.errstate`` that keeps that quiet, as RK4,
    ``ModelSpec.design`` and ``evaluate_basis`` do.
    """

    dimension: int
    size: int

    @property
    def positive_only(self) -> bool:
        """Whether N(y) is defined only for positive states."""
        return False

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """The (B, p) values N(y) of a (B, d) batch of states."""
        raise NotImplementedError

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """The (B, p, d) Jacobians dN/dy of a (B, d) batch of states."""
        raise NotImplementedError


def _stack_columns(columns) -> np.ndarray:
    return columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)


@dataclass(frozen=True)
class PolynomialUnivariate(NonlinearBasis):
    """N(y) = [y^2, y^3, ..., y^max_degree] for a scalar state (p = max_degree - 1)."""

    max_degree: int

    def __post_init__(self):
        if self.max_degree < 2:
            raise ValueError("max_degree must be >= 2")

    @property
    def dimension(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return self.max_degree - 1

    def evaluate(self, y):
        power = y * y
        columns = [power]
        for _ in range(3, self.max_degree + 1):
            power = power * y
            columns.append(power)
        return _stack_columns(columns)

    def jacobian(self, y):
        # d/dy y^e = e y^(e - 1)
        power = y
        columns = [2.0 * y]
        for e in range(3, self.max_degree + 1):
            power = power * y
            columns.append(e * power)
        return _stack_columns(columns)[:, :, None]


@dataclass(frozen=True)
class PowerUnivariate(NonlinearBasis):
    """N(y) = [y^gamma] for a scalar state; y must be positive unless gamma is integer.

    ``gamma`` is one exponent for every state, or a tuple of one per row of
    the batches it evaluates, as the field of a batch of fits of several
    exponents has.  The power is numpy's, over a full exponent column: a
    scalar exponent broadcast over a batch takes numpy's shortcuts for some
    exponents (2, 0.5, -1, ...), whose bits differ from the same row alone.
    An overflow or a zero to a negative power is inf, which a trajectory
    flags; callers hold the ``np.errstate`` that keeps it quiet.
    """

    gamma: Union[float, Tuple[float, ...]]

    def __post_init__(self):
        gammas = np.array(self.gamma, dtype=float, ndmin=1)
        # a state is outside the domain where it is <= its row's floor: 0 under
        # a fractional exponent, NaN (which nothing is below) under an integer one
        floor = [np.nan if g.is_integer() else 0.0 for g in gammas.tolist()]
        object.__setattr__(self, "_exponents", gammas[:, None])
        object.__setattr__(self, "_floor", np.array(floor)[:, None])

    @property
    def dimension(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return 1

    @property
    def positive_only(self) -> bool:
        return not np.isnan(self._floor).all()

    def evaluate(self, y):
        exponents, floor = self._exponents, self._floor
        if exponents.shape[0] == 1 < y.shape[0]:    # one exponent for every row
            exponents, floor = np.full(y.shape, exponents[0, 0]), floor[0, 0]
        outside = y <= floor
        if np.count_nonzero(outside):    # cheaper than ``any`` on a few rows
            i = int(outside.argmax())
            raise _outside_domain(float(exponents[i, 0]), float(y[i, 0]))
        return np.power(y, exponents)

    def row_power(self):
        """N of one float state under one exponent, as ``evaluate`` gives it for
        one row: numpy's ``power`` on a (1, 1) array, since Python's ``**``
        (libm's ``pow``) differs from it in the last bit for some arguments."""
        exponents = self._exponents
        (gamma,), (floor,) = exponents[:, 0].tolist(), self._floor[:, 0].tolist()

        def power(v):
            if v <= floor:
                raise _outside_domain(gamma, v)
            return np.power(np.array([[v]]), exponents).item()

        return power


def _outside_domain(gamma: float, y: float) -> DomainError:
    return DomainError(f"power basis with gamma={gamma} requires a positive argument, got {y}")


@dataclass(frozen=True)
class QuadraticMultivariate(NonlinearBasis):
    """All p = d(d+1)/2 quadratic monomials y_i * y_j, i <= j.

    The ordering is lexicographic in (i, j): for d = 2 the basis reads
    [y1^2, y1*y2, y2^2].  This fixed layout is what makes the change-of-basis
    matrices used by the one-step estimator unambiguous.
    """

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("quadratic multivariate basis requires d >= 2")
        pairs = [(i, j) for i in range(self.d) for j in range(i, self.d)]
        ii = np.array([i for i, _ in pairs])
        jj = np.array([j for _, j in pairs])
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "_ii", ii)
        object.__setattr__(self, "_jj", jj)

    @property
    def dimension(self) -> int:
        return self.d

    @property
    def size(self) -> int:
        return self.d * (self.d + 1) // 2

    def evaluate(self, y):
        return y.take(self._ii, axis=1) * y.take(self._jj, axis=1)

    def jacobian(self, y):
        jac = np.zeros((y.shape[0], self.size, self.d))
        rows = np.arange(self.size)
        # each (row, column) pair appears once per assignment; for i == j the
        # second one adds to the first, giving the 2*y_i diagonal entry
        jac[:, rows, self._ii] = y.take(self._jj, axis=1)
        jac[:, rows, self._jj] += y.take(self._ii, axis=1)
        return jac


def evaluate_basis(basis: Optional[NonlinearBasis], y) -> np.ndarray:
    """Evaluate N at one state (d,) or a batch of states (B, d), checking the states.

    Returns (p,) or (B, p) in the basis' fixed monomial order (p = 0 for basis=None).
    """
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    if basis is None:
        return np.zeros((rows.shape[0], 0)) if y.ndim == 2 else np.zeros(0)
    if rows.ndim != 2 or rows.shape[1] != basis.dimension:
        raise ValueError(f"state has shape {y.shape}, basis expects {basis.dimension} values")
    if not np.all(np.isfinite(rows)):
        raise ValueError("state must be finite")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = basis.evaluate(rows)
    return values if y.ndim == 2 else values[0]


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

def _as_mask_tuple(mask, shape, name):
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return tuple(tuple(bool(v) for v in row) for row in arr)


@dataclass(frozen=True)
class ModelSpec:
    """Structural shape of a model in the unified first-order family.

    dy/dt = theta_L y + theta_N N(y) + beta

    ``basis`` may be None for the purely linear family (p = 0).
    ``include_linear=False`` drops the theta_L y term, which is how the
    no-linear-term power family (e.g. the INGM yearly model) is expressed.

    ``theta_L_mask`` / ``theta_N_mask`` mark coefficients as free (True) or
    structurally zero (False); None leaves every coefficient free.  This is
    how structured members of the family, such as the two-species interaction
    model with diagonal linear block and cross terms only, are expressed for
    estimation.  Simulation ignores masks (the parameter values carry the
    zeros themselves).
    """

    dimension: int
    basis: Optional[NonlinearBasis]
    include_constant: bool = False
    include_linear: bool = True
    theta_L_mask: Optional[tuple] = None
    theta_N_mask: Optional[tuple] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.basis is not None and self.basis.dimension != self.dimension:
            raise ValueError(
                f"basis dimension {self.basis.dimension} != spec dimension {self.dimension}"
            )
        d = self.dimension
        if self.theta_L_mask is not None:
            object.__setattr__(self, "theta_L_mask",
                               _as_mask_tuple(self.theta_L_mask, (d, d), "theta_L_mask"))
        if self.theta_N_mask is not None:
            object.__setattr__(self, "theta_N_mask",
                               _as_mask_tuple(self.theta_N_mask, (d, self.p), "theta_N_mask"))

    @property
    def p(self) -> int:
        return 0 if self.basis is None else self.basis.size

    def linear_mask(self) -> np.ndarray:
        """(d, d) free-coefficient mask for the linear block."""
        if self.theta_L_mask is None:
            return np.ones((self.dimension, self.dimension), dtype=bool)
        return np.array(self.theta_L_mask, dtype=bool)

    def nonlinear_mask(self) -> np.ndarray:
        """(d, p) free-coefficient mask for the nonlinear block."""
        if self.theta_N_mask is None:
            return np.ones((self.dimension, self.p), dtype=bool)
        return np.array(self.theta_N_mask, dtype=bool)

    def _columns(self, linear, nonlinear, constant) -> np.ndarray:
        # the regression column order: linear | nonlinear | constant
        blocks = [linear] if self.include_linear else []
        blocks.append(nonlinear)
        if self.include_constant:
            blocks.append(constant)
        return np.hstack(blocks)

    def free_mask(self) -> np.ndarray:
        """(d, n_columns) free-coefficient mask in the design's column order."""
        return self._columns(self.linear_mask(), self.nonlinear_mask(),
                             np.ones((self.dimension, 1), dtype=bool))

    def design(self, states: np.ndarray, nonlinear: Optional[np.ndarray] = None) -> np.ndarray:
        """Regression design with rows [states[k], N(states[k]), 1], as flagged by the spec.

        Both estimators regress x(t_k) on it and differ only in the state
        proxy; ``nonlinear`` replaces N(states) when the caller has its own.
        Monomials that overflow are left as inf or NaN, without a warning.
        """
        if nonlinear is None:
            nonlinear = evaluate_basis(self.basis, states)
        return self._columns(states, nonlinear, np.ones((states.shape[0], 1)))

    def unpack(self, coef: np.ndarray):
        """Split (n_columns, d) design coefficients into theta_L, theta_N and the constant.

        A dropped linear block reads as zeros and a missing constant column as None.
        """
        d, p = self.dimension, self.p
        lin = d if self.include_linear else 0
        theta_L = coef[:d].T if self.include_linear else np.zeros((d, d))
        theta_N = coef[lin:lin + p].T
        constant = coef[lin + p] if self.include_constant else None
        return theta_L, theta_N, constant

    def check_series(self, ts: TimeSeries) -> None:
        """Raise ConfigError unless ``ts`` has d columns and at least d + p + 2 samples."""
        if ts.d != self.dimension:
            raise ConfigError(f"series has {ts.d} variables, spec expects {self.dimension}")
        need = self.dimension + self.p + 2
        if ts.n < need:
            raise ConfigError(f"need at least {need} samples, got {ts.n}")


def verhulst_spec() -> ModelSpec:
    """Scalar logistic family dy/dt = a*y + b*y^2."""
    return ModelSpec(1, PolynomialUnivariate(2))


def polynomial_spec(max_degree: int, include_constant: bool = False) -> ModelSpec:
    """Scalar polynomial family dy/dt = a*y + sum_m b_m y^(m+1) (+ beta)."""
    return ModelSpec(1, PolynomialUnivariate(max_degree), include_constant)


def power_spec(gamma: float, include_constant: bool = False,
               include_linear: bool = True) -> ModelSpec:
    """Scalar power family dy/dt = a*y + b*y^gamma (+ beta)."""
    return ModelSpec(1, PowerUnivariate(gamma), include_constant, include_linear)


def quadratic_spec(d: int) -> ModelSpec:
    """d-dimensional family with all quadratic interaction terms."""
    return ModelSpec(d, QuadraticMultivariate(d))


def lotka_volterra_spec() -> ModelSpec:
    """Structured two-species interaction model.

    dy1/dt = a1 y1 + c1 y1 y2,  dy2/dt = a2 y2 + c2 y1 y2: the linear block is
    diagonal and only the cross term of the quadratic basis is free.
    """
    basis = QuadraticMultivariate(2)
    cross = basis.pairs.index((0, 1))
    theta_N_mask = np.zeros((2, basis.size), dtype=bool)
    theta_N_mask[:, cross] = True
    return ModelSpec(2, basis, theta_L_mask=np.eye(2, dtype=bool),
                     theta_N_mask=theta_N_mask)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterSet:
    """Structural parameters plus initial value, in grey or reduced form.

    Grey form: ``eta`` is the initial value of the cumulative state y(t1) and
    ``beta`` the constant term (None means zero).

    Reduced form: ``eta`` is the shared offset of the running integral
    (y(t) = eta + int x) and, by the shared-initial-value convention used for
    estimation, also the default initial state.  ``eta_x`` overrides the
    initial state when the reduced form stems from a grey model whose constant
    term makes the two differ; None means eta.
    """

    theta_L: np.ndarray
    theta_N: np.ndarray
    eta: np.ndarray
    beta: Optional[np.ndarray] = None
    eta_x: Optional[np.ndarray] = None
    form: str = GREY_FORM

    def __post_init__(self):
        theta_L = _readonly(np.atleast_2d(self.theta_L))
        theta_N = _readonly(np.atleast_2d(self.theta_N))
        eta = _readonly(np.atleast_1d(self.eta))
        d = eta.size
        if theta_L.shape != (d, d):
            raise ValueError(f"theta_L must be ({d}, {d}), got {theta_L.shape}")
        if theta_N.shape[0] != d:
            raise ValueError(f"theta_N must have {d} rows, got {theta_N.shape}")
        if self.form not in (GREY_FORM, REDUCED_FORM):
            raise ValueError(f"unknown form {self.form!r}")
        beta = self.beta
        if beta is not None:
            beta = _readonly(np.atleast_1d(beta))
            if beta.shape != (d,):
                raise ValueError("beta must be a d-vector")
        eta_x = self.eta_x
        if eta_x is not None:
            eta_x = _readonly(np.atleast_1d(eta_x))
            if eta_x.shape != (d,):
                raise ValueError("eta_x must be a d-vector")
        for name, arr in (("theta_L", theta_L), ("theta_N", theta_N), ("eta", eta),
                          ("beta", beta), ("eta_x", eta_x)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "theta_L", theta_L)
        object.__setattr__(self, "theta_N", theta_N)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta_x", eta_x)

    @property
    def d(self) -> int:
        return self.eta.size

    @property
    def p(self) -> int:
        return self.theta_N.shape[1]

    def beta_or_zero(self) -> np.ndarray:
        return np.zeros(self.d) if self.beta is None else self.beta

    def initial_state(self) -> np.ndarray:
        """Initial value of the original (non-cumulative) state."""
        if self.form != REDUCED_FORM:
            raise ValueError("initial_state is defined for the reduced form")
        return self.eta if self.eta_x is None else self.eta_x


def grey_to_reduced(params: ParameterSet, spec: ModelSpec) -> ParameterSet:
    """Convert grey-form parameters to the equivalent reduced form.

    The integral offset stays at the grey initial value eta, while the state
    initial value eta_x = theta_L eta + theta_N N(eta) + beta is carried
    explicitly so the conversion round-trips exactly.
    """
    if params.form != GREY_FORM:
        raise ValueError("expected grey-form parameters")
    n_eta = evaluate_basis(spec.basis, params.eta)
    eta_x = params.theta_L @ params.eta + params.theta_N @ n_eta + params.beta_or_zero()
    return ParameterSet(params.theta_L, params.theta_N, params.eta,
                        eta_x=eta_x, form=REDUCED_FORM)


def reduced_to_grey(params: ParameterSet, spec: ModelSpec) -> ParameterSet:
    """Convert reduced-form parameters back to grey form.

    The constant term absorbs the difference between the state initial value
    and what the structural terms produce at eta:
    beta = eta_x - theta_L eta - theta_N N(eta).
    """
    if params.form != REDUCED_FORM:
        raise ValueError("expected reduced-form parameters")
    n_eta = evaluate_basis(spec.basis, params.eta)
    beta = params.initial_state() - params.theta_L @ params.eta - params.theta_N @ n_eta
    return ParameterSet(params.theta_L, params.theta_N, params.eta,
                        beta=beta, form=GREY_FORM)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """An estimated model: parameters, residuals and solver diagnostics."""

    spec: ModelSpec
    params: ParameterSet
    method: str
    residual_matrix: np.ndarray        # (n-1, d)
    condition_estimate: float
    times: np.ndarray                  # training grid, kept for forecasting

    def __post_init__(self):
        object.__setattr__(self, "residual_matrix", _readonly(self.residual_matrix))
        object.__setattr__(self, "times", _readonly(self.times))


@dataclass(frozen=True)
class Forecast:
    """Fitted plus forecast values of the original series on an extended grid.

    ``blowup_index`` is the first sample index whose value could not be
    computed (that row and all later ones are NaN), or None when the
    trajectory ran to the end.
    """

    times: np.ndarray                  # (n + r,)
    fitted_and_forecast: np.ndarray    # (n + r, d)
    blowup_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "fitted_and_forecast", _readonly(self.fitted_and_forecast))

    @property
    def blown_up(self) -> bool:
        return self.blowup_index is not None
