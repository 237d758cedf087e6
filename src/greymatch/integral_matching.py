"""One-step estimation on the original series via a running-integral proxy.

The trapezoidal cumulative integral stands in for the running integral of the
state, a binomial / quadratic-expansion change of basis turns the resulting
regression into a linear one whose intercept *is* the initial value, and a
single least-squares solve recovers structural parameters and initial value
simultaneously.  Power-law bases, where the expansion does not apply, fall
back to substituting the first observation inside the nonlinearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    ConfigError,
    FitResult,
    Forecast,
    GreyModelError,
    METHOD_INTEGRAL_MATCHING,
    METHOD_INTEGRAL_MATCHING_POWER,
    ModelSpec,
    ParameterSet,
    PolynomialUnivariate,
    PowerUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    TimeSeries,
    _readonly,
    power_spec,
)
from .grey_twostep import least_squares_solve, masked_row_solve
from .metrics import mape, rmse, train_test_split
from .ode import forecast_fits
from .transform import trapezoid_cumulative

FAMILY_INGM = "ingm"      # power term only, no linear term
FAMILY_INGBM = "ingbm"    # linear plus power term

#: most exponent candidates one search fits, 50 times the paper's 0.01 grid on
#: [0, 2]; at the cap a sewage search took 1.9-2.6 s and a 65 MiB peak (2 cores)
MAX_GAMMA_CANDIDATES = 10_001


def power_family_spec(family: str, gamma: float) -> ModelSpec:
    """Spec of a named power family at exponent ``gamma``.

    INGM is dy/dt = b y^gamma + beta (no linear term, with a constant) and
    INGBM is dy/dt = a y + b y^gamma.
    """
    if family not in (FAMILY_INGM, FAMILY_INGBM):
        raise ConfigError(f"unknown power family {family!r}")
    ingm = family == FAMILY_INGM
    return power_spec(gamma, include_constant=ingm, include_linear=not ingm)


@dataclass(frozen=True)
class TransformedParameters:
    """Coefficients of the pseudo-linear regression; the intercept equals eta."""

    vartheta_L: np.ndarray    # (d, d)
    vartheta_N: np.ndarray    # (d, p)
    intercept: np.ndarray     # (d,)

    def __post_init__(self):
        object.__setattr__(self, "vartheta_L", _readonly(np.atleast_2d(self.vartheta_L)))
        object.__setattr__(self, "vartheta_N", _readonly(np.atleast_2d(self.vartheta_N)))
        object.__setattr__(self, "intercept", _readonly(np.atleast_1d(self.intercept)))


def _matching_layout(spec: ModelSpec) -> ModelSpec:
    # the intercept column estimates eta, and the transformed linear block
    # mixes all components through it, so both are always fully free
    return replace(spec, include_constant=True, theta_L_mask=None)


def build_design_matching(ts: TimeSeries, spec: ModelSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Design [x~(t_k), N(x~(t_k)), 1] and targets x(t_k) for k = 2..n.

    The state proxy is the trapezoid integral x~(t_k), laid out by
    ``spec.design`` with the intercept column always present.
    """
    return _matching_layout(spec).design(trapezoid_cumulative(ts)[1:]), ts.values[1:]


def polynomial_shift_coefficients(eta: float, p: int) -> np.ndarray:
    """Binomial mixing matrix of the scalar polynomial family.

    For N(v) = [v^2, ..., v^(p+1)] the expansion of N(eta + v) - N(eta) is
    J_N(eta) v plus this lower-triangular, unit-diagonal matrix, with entries
    C(m+1, j+1) eta^(m-j), times N(v).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    varphi = np.zeros((p, p))
    for m in range(1, p + 1):
        for j in range(1, m + 1):
            varphi[m - 1, j - 1] = math.comb(m + 1, j + 1) * eta ** (m - j)
    return varphi


def _shift_pair(spec: ModelSpec, eta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(psi, varphi) with N(eta + v) - N(eta) = psi @ v + varphi @ N(v) for the
    spec's basis kind, so that vartheta_L = theta_L + theta_N psi and
    vartheta_N = theta_N varphi; empty blocks without a basis.  psi is the
    basis Jacobian J_N(eta)."""
    basis = spec.basis
    if basis is None:
        return np.zeros((0, spec.dimension)), np.eye(0)
    if isinstance(basis, PolynomialUnivariate):
        varphi = polynomial_shift_coefficients(float(eta[0]), spec.p)
    elif isinstance(basis, QuadraticMultivariate):
        varphi = np.eye(basis.size)    # quadratic monomials: the second-order term is N(v)
    else:
        raise ConfigError("change of basis applies to polynomial and quadratic bases only")
    return basis.jacobian(eta[None])[0], varphi


def transform_parameters(params: ParameterSet, spec: ModelSpec) -> TransformedParameters:
    """Forward change of basis: reduced-form parameters to regression coefficients."""
    if params.form != REDUCED_FORM:
        raise ValueError("expected reduced-form parameters")
    psi, varphi = _shift_pair(spec, params.eta)
    return TransformedParameters(params.theta_L + params.theta_N @ psi,
                                 params.theta_N @ varphi, params.eta)


def recover_parameters(pi: TransformedParameters, spec: ModelSpec) -> ParameterSet:
    """Invert the change of basis: regression coefficients to reduced-form parameters."""
    psi, varphi = _shift_pair(spec, pi.intercept)
    # varphi is unit lower-triangular: the solve is exact for the identity and p = 1
    theta_N = np.linalg.solve(varphi.T, pi.vartheta_N.T).T
    return ParameterSet(pi.vartheta_L - theta_N @ psi, theta_N, pi.intercept,
                        form=REDUCED_FORM)


def fit_matching(ts: TimeSeries, spec: ModelSpec) -> FitResult:
    """One-step fit of structural parameters and initial value.

    Polynomial and quadratic bases go through the exact change of basis;
    a power basis is routed to the first-observation fallback.

    Nonlinear-block masks are honored exactly for the quadratic basis (its
    nonlinear coefficients are untouched by the change of basis).  Masks on
    the linear block cannot be imposed here: the transformed linear
    coefficients mix all components through the initial value, so that block
    is always estimated in full and a structurally diagonal theta_L is only
    recovered up to noise.
    """
    if isinstance(spec.basis, PowerUnivariate):
        return fit_matching_power(ts, spec)
    if not spec.include_linear:
        raise ConfigError("dropping the linear term is supported for the power family only")
    spec.check_series(ts)
    if spec.theta_N_mask is not None and not isinstance(spec.basis, QuadraticMultivariate):
        raise ConfigError(
            "nonlinear-block masks require the quadratic basis here; the "
            "polynomial change of basis mixes nonlinear coefficients"
        )
    layout = _matching_layout(spec)
    design, targets = build_design_matching(ts, spec)
    coef, residuals, condition = masked_row_solve(design, targets, layout.free_mask())
    pi = TransformedParameters(*layout.unpack(coef))
    params = recover_parameters(pi, spec)
    return FitResult(spec, params, METHOD_INTEGRAL_MATCHING, residuals, condition, ts.times)


def fit_matching_power(ts: TimeSeries, spec: ModelSpec) -> FitResult:
    """Power-family fit with the first observation substituted inside N(.).

    Regresses x(t_k) on [x~(t_k), N(x(t1) + x~(t_k)) - N(x(t1)), 1] (dropping
    the linear column for the no-linear-term family).  The solve is a
    minimum-norm least squares: at gamma = 1 the power column duplicates the
    linear one and at gamma = 0 it vanishes, in which case the minimum-norm
    solution splits or zeroes the coefficients instead of failing.
    """
    if not isinstance(spec.basis, PowerUnivariate):
        raise ConfigError("the power fallback needs a power-basis spec")
    spec.check_series(ts)
    x1 = ts.values[:1]
    xtil = trapezoid_cumulative(ts)[1:]
    layout = _matching_layout(spec)
    with np.errstate(all="ignore"):
        # the basis raises DomainError outside its domain; a power that
        # overflows is inf, which least_squares_solve reports
        design = layout.design(xtil, spec.basis.evaluate(x1 + xtil) - spec.basis.evaluate(x1))
    targets = ts.values[1:]
    coef, condition = least_squares_solve(design, targets)
    theta_L, theta_N, eta = layout.unpack(coef)
    params = ParameterSet(theta_L, theta_N, eta, form=REDUCED_FORM)
    residuals = targets - design @ coef
    return FitResult(spec, params, METHOD_INTEGRAL_MATCHING_POWER, residuals,
                     condition, ts.times)


def gamma_line_search(ts: TimeSeries, family: str = FAMILY_INGBM,
                      search_range: Tuple[float, float] = (0.0, 2.0),
                      step: float = 0.01,
                      split: Optional[int] = None) -> Tuple[float, FitResult, Forecast]:
    """Grid search over the power exponent, scored by forecasting error.

    With ``split`` given, each candidate is fitted on the first ``split``
    samples and scored by the MAPE of its fitted-plus-forecast trajectory over
    the whole series (the held-out stamps entered as true forecasts); without
    a split the in-sample RMSE is used.  Every fitted candidate is integrated
    in one batched pass (``forecast_fits``), each row bitwise its own
    ``forecast_fit``.  Candidates whose fit fails, whose trajectory leaves
    the basis' domain (no forecast) or blows up are skipped; exact ties go to
    the smaller exponent.

    Returns the winning exponent, its (training-segment) fit, and its forecast
    from that pass: the fitted values plus the held-out stamps with a split,
    the fitted values alone without one.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    # a bound that is not finite makes (hi - lo) / step inf or NaN; the small
    # slack keeps hi itself when (hi - lo) / step rounds just below an integer
    if not (hi > lo and 0.0 < step < math.inf
            and (hi - lo) / step + 1e-9 < MAX_GAMMA_CANDIDATES):
        raise ConfigError("need a finite increasing search range and a finite positive step "
                          f"giving at most {MAX_GAMMA_CANDIDATES} candidates")
    if split is None:
        fit_series, horizon, future, score_of = ts, 0, None, rmse
    else:
        if not 1 < split < ts.n:
            raise ConfigError(f"split must lie strictly inside (1, {ts.n})")
        if ts.n - split < 4:
            raise ConfigError("split must leave at least 4 test points")
        if np.any(ts.values == 0.0):
            raise ConfigError("the series has a zero observation, where the MAPE "
                              "score is undefined")
        fit_series, test = train_test_split(ts, split)
        horizon, future, score_of = test.n, test.times, mape
    # the loop skips failing candidates, so reject an unknown family or an
    # unusable series here, where the error can still say what is wrong
    power_family_spec(family, lo).check_series(fit_series)
    fits = []
    for i in range(math.floor((hi - lo) / step + 1e-9) + 1):
        try:
            fits.append(fit_matching_power(fit_series, power_family_spec(family, lo + i * step)))
        except GreyModelError:
            continue
    best: Optional[Tuple[float, FitResult, Forecast]] = None
    for fit, forecast in zip(fits, forecast_fits(fits, horizon, future_times=future)):
        if forecast is None or forecast.blown_up:
            continue
        score = score_of(forecast.fitted_and_forecast[:, 0], ts.values[:, 0])
        if np.isfinite(score) and (best is None or score < best[0]):
            best = (score, fit, forecast)
    if best is None:
        raise GreyModelError("every exponent candidate failed to fit or forecast")
    return best[1].spec.basis.gamma, best[1], best[2]
