import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from greymatch import (
    ConfigError,
    DomainError,
    GreyModelError,
    ModelSpec,
    ParameterSet,
    PolynomialUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    TimeSeries,
    TransformedParameters,
    build_design_matching,
    evaluate_basis,
    fit_matching,
    fit_matching_power,
    forecast_fit,
    gamma_line_search,
    polynomial_shift_coefficients,
    lotka_volterra_spec,
    polynomial_spec,
    power_spec,
    quadratic_spec,
    recover_parameters,
    solve_reduced,
    transform_parameters,
    verhulst_spec,
)
from greymatch import integral_matching
from greymatch.datasets import TRAIN_SIZE, sewage_discharge, water_use
from greymatch.integral_matching import power_family_spec
from greymatch.metrics import train_test_split


def clean_series(spec, truth, h=0.01, T=4.0):
    times = np.arange(0.0, T + 1e-9, h)
    traj = solve_reduced(spec, truth, times)
    assert not traj.blown_up
    return TimeSeries(times, traj.states[:, :spec.dimension])


class TestDesign:
    def test_hand_built_verhulst(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        design, targets = build_design_matching(ts, verhulst_spec())
        assert np.allclose(design, [[1.0, 1.0, 1.0], [2.0, 4.0, 1.0]])
        assert np.allclose(targets[:, 0], [1.0, 1.0])

    def test_intercept_column_is_ones(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(np.arange(9.0), rng.uniform(1.0, 2.0, size=9))
        design, _ = build_design_matching(ts, verhulst_spec())
        assert np.allclose(design[:, -1], 1.0)

    def test_targets_match_two_step_pipeline(self):
        from greymatch import build_design_grey, cusum

        rng = np.random.default_rng(1)
        ts = TimeSeries(np.arange(9.0), rng.uniform(1.0, 2.0, size=9))
        _, targets_grey = build_design_grey(cusum(ts), ts, verhulst_spec(), 0.5)
        _, targets_matching = build_design_matching(ts, verhulst_spec())
        assert np.allclose(targets_grey, targets_matching)


class TestChangeOfBasis:
    def test_phi_varphi_p1(self):
        phi = PolynomialUnivariate(2).jacobian(np.array([[0.7]]))[0, :, 0]
        varphi = polynomial_shift_coefficients(0.7, 1)
        assert np.allclose(phi, [1.4])
        assert np.allclose(varphi, [[1.0]])

    def test_phi_varphi_p2_unit_eta(self):
        phi = PolynomialUnivariate(3).jacobian(np.array([[1.0]]))[0, :, 0]
        varphi = polynomial_shift_coefficients(1.0, 2)
        assert np.allclose(phi, [2.0, 3.0])
        assert np.allclose(varphi, [[1.0, 0.0], [3.0, 1.0]])

    def test_phi_varphi_degenerate_at_zero(self):
        phi = PolynomialUnivariate(4).jacobian(np.array([[0.0]]))[0, :, 0]
        varphi = polynomial_shift_coefficients(0.0, 3)
        assert np.allclose(phi, 0.0)
        assert np.allclose(varphi, np.eye(3))

    def test_varphi_unit_lower_triangular(self):
        varphi = polynomial_shift_coefficients(-1.3, 5)
        assert np.allclose(np.diag(varphi), 1.0)
        assert np.allclose(varphi, np.tril(varphi))

    def test_psi_hand_case(self):
        psi = QuadraticMultivariate(2).jacobian(np.array([[1.0, 3.0]]))[0]
        assert np.allclose(psi, [[2.0, 0.0], [3.0, 1.0], [0.0, 6.0]])

    def test_psi_zero_eta(self):
        assert np.allclose(QuadraticMultivariate(3).jacobian(np.zeros((1, 3))), 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_psi_shift_identity(self, d):
        rng = np.random.default_rng(d)
        basis = QuadraticMultivariate(d)
        for _ in range(100):
            eta = rng.uniform(-2.0, 2.0, size=d)
            v = rng.uniform(-2.0, 2.0, size=d)
            lhs = evaluate_basis(basis, eta + v) - evaluate_basis(basis, eta)
            rhs = basis.jacobian(eta[None])[0] @ v + evaluate_basis(basis, v)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_polynomial_expansion_identity(self, p):
        rng = np.random.default_rng(p)
        basis = PolynomialUnivariate(p + 1)
        for _ in range(100):
            theta_L, eta, v = rng.uniform(-2.0, 2.0, size=3)
            theta_N = rng.uniform(-2.0, 2.0, size=(1, p))
            lhs = (theta_L * v
                   + theta_N @ (evaluate_basis(basis, [eta + v])
                                - evaluate_basis(basis, [eta]))
                   + eta)
            phi = basis.jacobian(np.array([[eta]]))[0, :, 0]
            varphi = polynomial_shift_coefficients(eta, p)
            rhs = ((theta_L + theta_N @ phi) * v
                   + (theta_N @ varphi) @ evaluate_basis(basis, [v])
                   + eta)
            assert abs(lhs[0] - rhs[0]) < 1e-12


class TestRecovery:
    def test_verhulst_relations(self):
        spec = verhulst_spec()
        pi = TransformedParameters([[2.0]], [[-0.5]], [0.4])
        params = recover_parameters(pi, spec)
        assert np.allclose(params.theta_N, [[-0.5]])
        assert np.allclose(params.eta, [0.4])
        # a = vartheta_L - 2 b eta
        assert np.allclose(params.theta_L, [[2.0 - 2.0 * (-0.5) * 0.4]])

    def test_zero_nonlinear_block(self):
        spec = polynomial_spec(3)
        pi = TransformedParameters([[1.7]], np.zeros((1, 2)), [0.9])
        params = recover_parameters(pi, spec)
        assert np.allclose(params.theta_L, [[1.7]])

    @pytest.mark.parametrize("max_degree", [2, 3, 4, 5])
    def test_round_trip_polynomial(self, max_degree):
        rng = np.random.default_rng(max_degree)
        spec = polynomial_spec(max_degree)
        for _ in range(50):
            params = ParameterSet(rng.normal(size=(1, 1)),
                                  rng.normal(size=(1, spec.p)),
                                  rng.normal(size=1), form=REDUCED_FORM)
            back = recover_parameters(transform_parameters(params, spec), spec)
            assert np.allclose(back.theta_L, params.theta_L, atol=1e-10)
            assert np.allclose(back.theta_N, params.theta_N, atol=1e-10)
            assert np.allclose(back.eta, params.eta, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip_quadratic(self, d):
        rng = np.random.default_rng(10 + d)
        spec = quadratic_spec(d)
        for _ in range(50):
            params = ParameterSet(rng.normal(size=(d, d)),
                                  rng.normal(size=(d, spec.p)),
                                  rng.normal(size=d), form=REDUCED_FORM)
            back = recover_parameters(transform_parameters(params, spec), spec)
            assert np.allclose(back.theta_L, params.theta_L, atol=1e-10)
            assert np.allclose(back.theta_N, params.theta_N, atol=1e-10)


#: every basis kind of the change-of-basis table: polynomial, quadratic and no basis
SHIFT_SPECS = ([polynomial_spec(k) for k in range(2, 7)]
               + [quadratic_spec(d) for d in range(2, 5)]
               + [ModelSpec(d, None) for d in range(1, 4)])


@st.composite
def reduced_parameters(draw):
    spec = draw(st.sampled_from(SHIFT_SPECS))
    d, p = spec.dimension, spec.p

    def block(shape):
        return draw(arrays(float, shape, elements=st.floats(-2.0, 2.0)))

    return spec, ParameterSet(block((d, d)), block((d, p)), block(d), form=REDUCED_FORM)


class TestChangeOfBasisTable:
    #: absolute round-trip error allowed for parameters in [-2, 2]; the degree-6
    #: table's entries reach a few hundred, and 1e5 random draws erred by 8e-13
    ROUND_TRIP_ATOL = 1e-9

    @given(reduced_parameters())
    def test_round_trip(self, case):
        spec, params = case
        pi = transform_parameters(params, spec)
        back = recover_parameters(pi, spec)
        assert np.array_equal(pi.intercept, params.eta) and np.array_equal(back.eta, params.eta)
        for name in ("theta_L", "theta_N"):
            np.testing.assert_allclose(getattr(back, name), getattr(params, name),
                                       rtol=0.0, atol=self.ROUND_TRIP_ATOL)

    @pytest.mark.parametrize("spec", [power_spec(1.5), power_spec(2.0, include_constant=True),
                                      power_family_spec("ingm", 0.63)])
    def test_power_basis_has_none(self, spec):
        with pytest.raises(ConfigError):
            transform_parameters(ParameterSet([[0.1]], [[0.2]], [1.0], form=REDUCED_FORM), spec)
        with pytest.raises(ConfigError):
            recover_parameters(TransformedParameters([[0.1]], [[0.2]], [1.0]), spec)


class TestFitMatching:
    def test_noise_free_verhulst(self):
        spec = verhulst_spec()
        truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
        fit = fit_matching(clean_series(spec, truth), spec)
        assert abs(fit.params.theta_L[0, 0] - 1.2) / 1.2 < 0.005
        assert abs(fit.params.theta_N[0, 0] + 0.5) / 0.5 < 0.005
        assert abs(fit.params.eta[0] - 0.4) / 0.4 < 0.005
        assert fit.method == "integral_matching"

    def test_residual_second_order_in_h(self):
        spec = verhulst_spec()
        truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)

        def residual_norm(h):
            fit = fit_matching(clean_series(spec, truth, h=h), spec)
            return np.sqrt(np.mean(fit.residual_matrix ** 2))

        assert residual_norm(0.02) / residual_norm(0.01) >= 3.0

    def test_noise_free_lotka_volterra(self):
        spec = lotka_volterra_spec()
        theta_L = [[1.2, 0.0], [0.0, -1.0]]
        theta_N = [[0.0, -0.3, 0.0], [0.0, 0.4, 0.0]]
        truth = ParameterSet(theta_L, theta_N, [5.0, 2.0 / 3.0], form=REDUCED_FORM)
        ts = clean_series(spec, truth, h=0.01, T=5.0)
        fit = fit_matching(ts, spec)
        cross = spec.basis.pairs.index((0, 1))
        estimates = np.array([fit.params.theta_L[0, 0], -fit.params.theta_N[0, cross],
                              fit.params.theta_L[1, 1], -fit.params.theta_N[1, cross],
                              fit.params.eta[0], fit.params.eta[1]])
        truth_vec = np.array([1.2, 0.3, -1.0, -0.4, 5.0, 2.0 / 3.0])
        assert np.max(np.abs(estimates - truth_vec) / np.abs(truth_vec)) < 0.01

    def test_masked_fit_keeps_structural_zeros(self):
        spec = lotka_volterra_spec()
        theta_L = [[1.2, 0.0], [0.0, -1.0]]
        theta_N = [[0.0, -0.3, 0.0], [0.0, 0.4, 0.0]]
        truth = ParameterSet(theta_L, theta_N, [5.0, 2.0 / 3.0], form=REDUCED_FORM)
        ts = clean_series(spec, truth, h=0.01, T=5.0)
        fit = fit_matching(ts, spec)
        mask = spec.nonlinear_mask()
        assert np.all(fit.params.theta_N[~mask] == 0.0)

    def test_masks_rejected_for_polynomial(self):
        spec = ModelSpec(1, PolynomialUnivariate(3), theta_N_mask=[[True, False]])
        ts = TimeSeries(np.arange(9.0), np.arange(1.0, 10.0))
        with pytest.raises(ConfigError):
            fit_matching(ts, spec)

    def test_intercept_equals_centered_regression(self):
        rng = np.random.default_rng(4)
        ts = TimeSeries(np.arange(20.0), rng.uniform(1.0, 2.0, size=20))
        spec = verhulst_spec()
        fit = fit_matching(ts, spec)
        design, targets = build_design_matching(ts, spec)
        centered_cols = design[:, :-1] - design[:, :-1].mean(axis=0)
        centered_targets = targets - targets.mean(axis=0)
        slope, *_ = np.linalg.lstsq(centered_cols, centered_targets, rcond=None)
        assert abs(slope[0, 0] - transform_parameters(fit.params, spec).vartheta_L[0, 0]) < 1e-8
        assert abs(slope[1, 0] - transform_parameters(fit.params, spec).vartheta_N[0, 0]) < 1e-8


class TestPowerFallback:
    def test_gamma2_close_to_exact_on_clean_data(self):
        spec = verhulst_spec()
        truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
        ts = clean_series(spec, truth, h=0.01)
        exact = fit_matching(ts, spec)
        fallback = fit_matching_power(ts, power_spec(2.0))
        assert abs(fallback.params.theta_L[0, 0] - exact.params.theta_L[0, 0]) \
            / abs(exact.params.theta_L[0, 0]) < 0.02
        assert abs(fallback.params.theta_N[0, 0] - exact.params.theta_N[0, 0]) \
            / abs(exact.params.theta_N[0, 0]) < 0.02
        assert fallback.method == "integral_matching_power"

    def test_gamma1_collapses_to_exponential(self):
        rate = 0.3
        times = np.arange(0.0, 3.0 + 1e-9, 0.05)
        ts = TimeSeries(times, 2.0 * np.exp(rate * times))
        fit = fit_matching_power(ts, power_spec(1.0))
        # duplicated columns: only a + b is identified, minimum norm splits it
        a, b = fit.params.theta_L[0, 0], fit.params.theta_N[0, 0]
        assert abs((a + b) - rate) < 0.01
        assert abs(a - b) < 1e-10

    def test_gamma0_zeroes_power_column(self):
        times = np.arange(0.0, 3.0 + 1e-9, 0.05)
        ts = TimeSeries(times, 2.0 * np.exp(0.3 * times))
        fit = fit_matching_power(ts, power_spec(0.0))
        assert fit.params.theta_N[0, 0] == 0.0

    def test_domain_error_on_nonpositive(self):
        ts = TimeSeries(np.arange(5.0), [-1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(DomainError):
            fit_matching_power(ts, power_spec(0.5))

    def test_rejects_non_power_spec(self):
        ts = TimeSeries(np.arange(5.0), [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ConfigError):
            fit_matching_power(ts, verhulst_spec())

    def test_power_spec_routes_through_fit_matching(self):
        times = np.arange(0.0, 3.0 + 1e-9, 0.1)
        ts = TimeSeries(times, 2.0 * np.exp(0.3 * times))
        fit = fit_matching(ts, power_spec(1.5))
        assert fit.method == "integral_matching_power"
        assert fit.spec.basis.gamma == 1.5


def count_power_fits(monkeypatch):
    """Count the fit_matching_power calls the exponent search makes."""
    calls = []

    def counting(ts, spec):
        calls.append(spec.basis.gamma)
        return fit_matching_power(ts, spec)

    monkeypatch.setattr(integral_matching, "fit_matching_power", counting)
    return calls


def serial_search(ts, family, lo, hi, step, split):
    """Reference exponent search: fit, forecast and score one candidate at a time.

    Returns the winning exponent, its fit and its own ``forecast_fit``.
    """
    train, test = train_test_split(ts, split)
    best = None
    for i in range(int(round((hi - lo) / step)) + 1):
        gamma = lo + i * step
        try:
            fit = fit_matching_power(train, power_family_spec(family, gamma))
            forecast = forecast_fit(fit, test.n, future_times=test.times)
        except GreyModelError:    # a blown-up forecast raises BlowUpError
            continue
        score = integral_matching.mape(forecast.fitted_and_forecast[:, 0], ts.values[:, 0])
        if np.isfinite(score) and (best is None or score < best[0]):
            best = (score, gamma, fit, forecast)
    return best[1:]


def assert_same_fit(a, b):
    assert a.spec == b.spec and a.method == b.method
    for name in ("theta_L", "theta_N", "eta"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert np.array_equal(a.residual_matrix, b.residual_matrix)
    assert a.condition_estimate == b.condition_estimate
    assert np.array_equal(a.times, b.times)


def assert_same_forecast(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.fitted_and_forecast, b.fitted_and_forecast)
    assert a.blown_up == b.blown_up and a.blowup_index == b.blowup_index


class TestGammaSearch:
    def test_grid_count_and_winner(self, monkeypatch):
        calls = count_power_fits(monkeypatch)
        ts = sewage_discharge()
        gamma, _, _ = gamma_line_search(ts, "ingbm", (0.9, 1.1), 0.01,
                                        split=TRAIN_SIZE)
        assert len(calls) == 21
        assert calls[0] == 0.9 and abs(calls[-1] - 1.1) < 1e-12
        assert abs(gamma - 1.0) < 1e-9

    def test_full_grid_has_201_candidates(self, monkeypatch):
        calls = count_power_fits(monkeypatch)
        gamma_line_search(sewage_discharge(), "ingbm", (0.0, 2.0), 0.01, split=TRAIN_SIZE)
        assert len(calls) == 201
        assert np.allclose(np.diff(calls), 0.01)

    @pytest.mark.parametrize("search_range, step, fitted", [
        ((0.0, 0.78), 0.3, [0.0, 0.3, 0.6]),
        ((0.0, 3.5), 1.0, [0.0, 1.0, 2.0, 3.0]),
        ((0.6, 1.0), 0.05, [0.6 + 0.05 * i for i in range(9)]),
    ], ids=["short_last_step", "half_step_left", "hi_on_the_grid"])
    def test_candidates_stop_at_the_range_end(self, monkeypatch, search_range, step, fitted):
        calls = count_power_fits(monkeypatch)
        gamma_line_search(sewage_discharge(), "ingbm", search_range, step, split=TRAIN_SIZE)
        assert calls == pytest.approx(fitted, abs=1e-12)

    @pytest.mark.parametrize("family", ["ingm", "ingbm"])
    @pytest.mark.parametrize("dataset", [sewage_discharge, water_use],
                             ids=["sewage", "water"])
    def test_matches_serial_reference(self, dataset, family):
        ts = dataset()
        gamma, fit, forecast = gamma_line_search(ts, family, (0.0, 2.0), 0.05,
                                                 split=TRAIN_SIZE)
        ref_gamma, ref_fit, ref_forecast = serial_search(ts, family, 0.0, 2.0, 0.05,
                                                         TRAIN_SIZE)
        assert gamma == ref_gamma
        assert_same_fit(fit, ref_fit)
        assert_same_forecast(forecast, ref_forecast)

    def test_ties_go_to_the_smaller_exponent(self, monkeypatch):
        monkeypatch.setattr(integral_matching, "mape", lambda fitted, actual: 1.0)
        ts = sewage_discharge()
        gamma, fit, _ = gamma_line_search(ts, "ingbm", (0.5, 1.5), 0.25, split=TRAIN_SIZE)
        ref_gamma, ref_fit, _ = serial_search(ts, "ingbm", 0.5, 1.5, 0.25, TRAIN_SIZE)
        assert gamma == ref_gamma == 0.5
        assert_same_fit(fit, ref_fit)

    def test_zero_observation_with_split_is_a_config_error(self):
        ts = sewage_discharge()
        values = ts.values.copy()
        values[12, 0] = 0.0
        with pytest.raises(ConfigError, match="zero observation"):
            gamma_line_search(TimeSeries(ts.times, values), "ingbm", (0.5, 1.5), 0.25,
                              split=TRAIN_SIZE)

    def test_in_sample_scoring_without_split(self):
        times = np.arange(0.0, 3.0 + 1e-9, 0.1)
        ts = TimeSeries(times, 2.0 * np.exp(0.3 * times))
        gamma, fit, forecast = gamma_line_search(ts, "ingbm", (0.5, 1.5), 0.25)
        assert not forecast_fit(fit, 0).blown_up
        assert_same_forecast(forecast, forecast_fit(fit, 0))

    def test_validation(self):
        ts = sewage_discharge()
        with pytest.raises(ConfigError):
            gamma_line_search(ts, "nope")
        with pytest.raises(ConfigError):
            gamma_line_search(ts, "ingbm", (1.0, 0.0), 0.01)
        with pytest.raises(ConfigError):
            gamma_line_search(ts, "ingbm", split=13)  # only 2 test points

    @pytest.mark.parametrize("search_range, step, message", [
        ((0.0, 2.0), np.nan, "finite"),
        ((0.0, 2.0), np.inf, "finite"),
        ((np.nan, 2.0), 0.5, "finite"),
        ((0.0, np.inf), 0.5, "finite"),
        ((-np.inf, 2.0), 0.5, "finite"),
        ((0.0, 2.0), 1e-300, "candidates"),
        ((0.0, 2.0), 1e-12, "candidates"),
    ], ids=["step_nan", "step_inf", "lo_nan", "hi_inf", "lo_inf", "step_tiny",
            "step_unfinishable"])
    def test_unusable_grid_is_a_config_error(self, search_range, step, message):
        # refused before any fit: a grid past MAX_GAMMA_CANDIDATES would not finish
        with pytest.raises(ConfigError, match=message):
            gamma_line_search(sewage_discharge(), "ingbm", search_range, step,
                              split=TRAIN_SIZE)

    def test_grid_is_capped_at_a_candidate_count(self, monkeypatch):
        monkeypatch.setattr(integral_matching, "MAX_GAMMA_CANDIDATES", 5)
        calls = count_power_fits(monkeypatch)
        gamma_line_search(sewage_discharge(), "ingbm", (0.0, 2.0), 0.5, split=TRAIN_SIZE)
        assert len(calls) == 5
        with pytest.raises(ConfigError, match="at most 5 candidates"):
            gamma_line_search(sewage_discharge(), "ingbm", (0.0, 2.0), 0.4, split=TRAIN_SIZE)

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], np.ones((6, 2))],
                             ids=["too_short", "two_columns"])
    def test_unusable_series_is_a_config_error(self, values):
        ts = TimeSeries(np.arange(float(len(values))), values)
        with pytest.raises(ConfigError, match="samples|variables"):
            gamma_line_search(ts, "ingbm", (0.5, 1.5), 0.5)


class TestForecastMatching:
    def test_zero_horizon_fitted_series(self):
        spec = verhulst_spec()
        truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
        ts = clean_series(spec, truth, h=0.05)
        fit = fit_matching(ts, spec)
        forecast = forecast_fit(fit, 0)
        assert forecast.times.size == ts.n
        assert np.max(np.abs(forecast.fitted_and_forecast - ts.values)) < 1e-3
        # the first fitted value is the estimated initial value
        assert np.allclose(forecast.fitted_and_forecast[0], fit.params.eta)

    def test_future_grid_mean_spacing(self):
        spec = verhulst_spec()
        truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
        ts = clean_series(spec, truth, h=0.05)
        fit = fit_matching(ts, spec)
        forecast = forecast_fit(fit, 4)
        assert forecast.times.size == ts.n + 4
        assert np.allclose(np.diff(forecast.times), 0.05)
