import numpy as np
import pytest
from hypothesis import given, strategies as st

from greymatch import (
    ConfigError,
    DomainError,
    GREY_FORM,
    ModelSpec,
    ParameterSet,
    PolynomialUnivariate,
    PowerUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    TimeSeries,
    evaluate_basis,
    fit_grey,
    fit_matching,
    fit_matching_power,
    grey_to_reduced,
    lotka_volterra_spec,
    polynomial_spec,
    power_spec,
    reduced_to_grey,
    verhulst_spec,
)


class TestTimeSeries:
    def test_basic_shape(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]])
        assert ts.n == 3 and ts.d == 1

    def test_one_dimensional_values_promoted(self):
        ts = TimeSeries([0, 1, 2], [1, 2, 3])
        assert ts.values.shape == (3, 1)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1, 1], [1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1, 2], [1, np.nan, 3])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1], [1, 2, 3])

    def test_values_read_only(self):
        ts = TimeSeries([0, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            ts.values[0, 0] = 99.0


class TestBases:
    def test_polynomial_direct(self):
        assert np.allclose(evaluate_basis(PolynomialUnivariate(3), [2.0]), [4.0, 8.0])

    def test_quadratic_direct(self):
        assert np.allclose(evaluate_basis(QuadraticMultivariate(2), [1.0, 3.0]),
                           [1.0, 3.0, 9.0])

    def test_power_scalar(self):
        # independent oracle: exp/log composition
        import math
        expected = math.exp(0.63 * math.log(1001.65))
        got = evaluate_basis(PowerUnivariate(0.63), [1001.65])
        assert got.shape == (1,)
        assert abs(got[0] - expected) < 1e-9 * expected

    def test_power_domain_error(self):
        # the batch and the one-state form refuse a state with one message
        for y in (-1.0, 0.0):
            text = rf"^power basis with gamma=0.5 requires a positive argument, got {y}$"
            with pytest.raises(DomainError, match=text):
                evaluate_basis(PowerUnivariate(0.5), [y])
            with pytest.raises(DomainError, match=text):
                PowerUnivariate(0.5).row([y])
        # integer exponents accept any sign
        assert np.allclose(evaluate_basis(PowerUnivariate(2.0), [-3.0]), [9.0])
        assert PowerUnivariate(2.0).row([-3.0]) == [9.0]
        assert PowerUnivariate(-1.0).row([-2.0]) == [-0.5]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_quadratic_size_and_order(self, d):
        basis = QuadraticMultivariate(d)
        assert basis.size == d * (d + 1) // 2
        y = np.arange(1.0, d + 1.0)
        values = evaluate_basis(basis, y)
        expected = [y[i] * y[j] for i in range(d) for j in range(i, d)]
        assert np.allclose(values, expected)

    def test_empty_basis(self):
        assert evaluate_basis(None, [1.0]).size == 0

    def test_state_is_checked(self):
        with pytest.raises(ValueError, match=r"^state has shape \(3,\), basis expects 2 values$"):
            evaluate_basis(QuadraticMultivariate(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^state has shape \(2, 1\), basis expects 2"):
            evaluate_basis(QuadraticMultivariate(2), [[1.0], [2.0]])
        for state in ([np.nan], [[2.0], [np.inf]]):
            with pytest.raises(ValueError, match="^state must be finite$"):
                evaluate_basis(PolynomialUnivariate(3), state)

    @pytest.mark.parametrize("basis,point", [
        (PolynomialUnivariate(4), [0.7]),
        (QuadraticMultivariate(2), [2.1, -0.6]),
        (QuadraticMultivariate(3), [0.4, -1.2, 2.0]),
    ])
    def test_jacobian_matches_finite_differences(self, basis, point):
        # a batch of three states around the point
        y = np.outer([1.0, 0.5, 1.7], point)
        jac = basis.jacobian(y)
        assert jac.shape == (y.shape[0], basis.size, basis.dimension)
        eps = 1e-7
        for j in range(y.shape[1]):
            bumped = y.copy()
            bumped[:, j] += eps
            col = (evaluate_basis(basis, bumped) - evaluate_basis(basis, y)) / eps
            assert np.allclose(jac[:, :, j], col, atol=1e-5)

    @given(data=st.data())
    def test_batch_rows_equal_one_row_calls(self, data):
        basis = data.draw(st.sampled_from([
            PolynomialUnivariate(2), PolynomialUnivariate(5), PowerUnivariate(0.63),
            PowerUnivariate(2.0), PowerUnivariate(0.5), PowerUnivariate(-1.0),
            QuadraticMultivariate(2), QuadraticMultivariate(3)]))
        low = 1e-3 if isinstance(basis, PowerUnivariate) else -1e3
        y = np.array(data.draw(st.lists(
            st.lists(st.floats(low, 1e3), min_size=basis.dimension,
                     max_size=basis.dimension), min_size=1, max_size=8)))
        values = basis.evaluate(y)
        assert values.shape == (y.shape[0], basis.size)
        for i in range(y.shape[0]):
            assert np.array_equal(values[i], basis.evaluate(y[i:i + 1])[0])
            assert np.array_equal(values[i], evaluate_basis(basis, y[i]))
            # the one-state form on floats gives the same bits
            assert np.array(basis.row(y[i].tolist())).tobytes() == values[i].tobytes()
        if isinstance(basis, PowerUnivariate):    # the power basis has no Jacobian
            return
        jac = basis.jacobian(y)
        assert jac.shape == (y.shape[0], basis.size, basis.dimension)
        for i in range(y.shape[0]):
            assert np.array_equal(jac[i], basis.jacobian(y[i:i + 1])[0])

    def test_integer_powers_are_repeated_products(self):
        y = np.array([[1.1], [-0.3]])
        values = PolynomialUnivariate(4).evaluate(y)
        jac = PolynomialUnivariate(4).jacobian(y)
        for row, v in enumerate(y[:, 0]):
            assert list(values[row]) == [v * v, v * v * v, v * v * v * v]
            assert list(jac[row, :, 0]) == [2.0 * v, 3 * (v * v), 4 * (v * v * v)]

    def test_power_overflow_is_inf(self):
        # overflow and zero to a negative power are inf, which RK4 flags; the other
        # rows keep their exact values.  RK4 holds the errstate, as here
        y = np.array([[1e200], [2.0], [0.0]])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cubes = PowerUnivariate(3.0).evaluate(y)
            reciprocals = PowerUnivariate(-1.0).evaluate(y)
        assert list(cubes[:, 0]) == [np.inf, 8.0, 0.0]
        assert list(reciprocals[:, 0]) == [1e-200, 0.5, np.inf]

    def test_power_rows_take_their_own_exponents(self):
        # each row is the same row under a one-exponent basis, and only the rows
        # of fractional exponents are held to the domain
        gammas = (2.0, 0.5, -1.0, 0.63, 3.0)
        y = np.array([[-349.8738278690784], [2.0], [0.3], [1001.65], [-1.5]])
        values = PowerUnivariate(gammas).evaluate(y)
        for i, gamma in enumerate(gammas):
            assert values[i, 0] == PowerUnivariate(gamma).evaluate(y[i:i + 1])[0, 0]
        assert PowerUnivariate(gammas).positive_only
        assert not PowerUnivariate((2.0, 3.0)).positive_only
        with pytest.raises(DomainError, match=r"^power basis with gamma=0.5 requires a "
                                              r"positive argument, got -2.0$"):
            PowerUnivariate(gammas).evaluate(-np.abs(y))
        with pytest.raises(DomainError, match=r"^power basis with gamma=0.63 requires a "
                                              r"positive argument, got -1001.65$"):
            PowerUnivariate(0.63).row([-1001.65])

    def test_power_domain_checked_before_the_power(self):
        # the row that would overflow does not hide the row outside the domain
        with pytest.raises(DomainError):
            PowerUnivariate(2.5).evaluate(np.array([[1e200], [-1.0]]))

    def test_power_batch_raises_for_any_row_out_of_domain(self):
        with pytest.raises(DomainError):
            PowerUnivariate(0.5).evaluate(np.array([[1.0], [-1.0]]))
        with pytest.raises(DomainError):
            PowerUnivariate(0.5).evaluate(np.array([[0.0], [4.0]]))


class TestModelSpec:
    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            ModelSpec(2, PolynomialUnivariate(2))

    def test_lv_spec_masks(self):
        spec = lotka_volterra_spec()
        assert np.array_equal(spec.linear_mask(), np.eye(2, dtype=bool))
        assert np.array_equal(spec.nonlinear_mask(),
                              [[False, True, False], [False, True, False]])

    def test_free_mask_follows_design_columns(self):
        # columns: y1, y2 | y1^2, y1*y2, y2^2
        assert np.array_equal(lotka_volterra_spec().free_mask(),
                              [[True, False, False, True, False],
                               [False, True, False, True, False]])
        assert np.array_equal(ModelSpec(1, None, include_constant=True).free_mask(),
                              [[True, True]])
        no_linear = ModelSpec(1, PowerUnivariate(0.5), include_linear=False)
        assert np.array_equal(no_linear.free_mask(), [[True]])

    @pytest.mark.parametrize("fit,spec", [
        (fit_grey, verhulst_spec()),
        (fit_matching, verhulst_spec()),
        (fit_matching_power, power_spec(0.5)),
    ], ids=["grey", "matching", "matching_power"])
    def test_fits_check_the_series(self, fit, spec):
        times = np.arange(float(spec.dimension + spec.p + 2))
        values = 1.0 + times
        fit(TimeSeries(times, values), spec)
        with pytest.raises(ConfigError):
            fit(TimeSeries(times[:-1], values[:-1]), spec)
        with pytest.raises(ConfigError):
            fit(TimeSeries(times, np.column_stack([values, values])), spec)

    def test_mask_shape_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(2, QuadraticMultivariate(2), theta_L_mask=[[True, False]])


class TestParameterSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["beta", "eta_x"])
    def test_rejects_non_finite_vectors(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ParameterSet([[1.0]], [[1.0]], [1.0], form=REDUCED_FORM, **{field: [bad]})


class TestFormConversions:
    def test_verhulst_initial_state(self):
        spec = verhulst_spec()
        grey = ParameterSet([[1.2]], [[-0.5]], [0.4], beta=[0.0], form=GREY_FORM)
        reduced = grey_to_reduced(grey, spec)
        assert reduced.form == REDUCED_FORM
        # implied state start: eta_x = a eta + b eta^2 = 0.48 - 0.08
        assert np.allclose(reduced.initial_state(), [0.4])

    def test_linear_case(self):
        spec = ModelSpec(1, None)
        grey = ParameterSet([[0.7]], np.zeros((1, 0)), [2.0], form=GREY_FORM)
        reduced = grey_to_reduced(grey, spec)
        assert np.allclose(reduced.initial_state(), [1.4])

    def test_constant_only_to_grey(self):
        spec = ModelSpec(1, None, include_constant=True)
        reduced = ParameterSet([[0.0]], np.zeros((1, 0)), [3.0], form=REDUCED_FORM)
        grey = reduced_to_grey(reduced, spec)
        assert np.allclose(grey.beta, [3.0])

    def test_verhulst_reconstruction_beta(self):
        spec = verhulst_spec()
        reduced = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
        grey = reduced_to_grey(reduced, spec)
        # beta = eta - a eta - b eta^2 = 0.4 - 0.48 + 0.08
        assert abs(grey.beta[0]) < 1e-15

    def test_grey_reduced_round_trip_random(self):
        rng = np.random.default_rng(7)
        spec = polynomial_spec(4, include_constant=True)
        for _ in range(50):
            grey = ParameterSet(rng.normal(size=(1, 1)), rng.normal(size=(1, 3)),
                                rng.uniform(0.2, 2.0, size=1),
                                beta=rng.normal(size=1), form=GREY_FORM)
            back = reduced_to_grey(grey_to_reduced(grey, spec), spec)
            assert np.allclose(back.theta_L, grey.theta_L, rtol=1e-12)
            assert np.allclose(back.theta_N, grey.theta_N, rtol=1e-12)
            assert np.allclose(back.eta, grey.eta, rtol=1e-12)
            assert np.allclose(back.beta, grey.beta, rtol=1e-12, atol=1e-12)

    def test_reduced_round_trip_random_quadratic(self):
        rng = np.random.default_rng(8)
        d = 3
        spec = ModelSpec(d, QuadraticMultivariate(d))
        p = spec.p
        for _ in range(50):
            reduced = ParameterSet(rng.normal(size=(d, d)), rng.normal(size=(d, p)),
                                   rng.normal(size=d), form=REDUCED_FORM)
            back = grey_to_reduced(reduced_to_grey(reduced, spec), spec)
            assert np.allclose(back.eta, reduced.eta, rtol=1e-12)
            assert np.allclose(back.initial_state(), reduced.initial_state(),
                               rtol=1e-12, atol=1e-12)

    def test_form_checks(self):
        spec = verhulst_spec()
        reduced = ParameterSet([[1.0]], [[1.0]], [1.0], form=REDUCED_FORM)
        with pytest.raises(ValueError):
            grey_to_reduced(reduced, spec)
        grey = ParameterSet([[1.0]], [[1.0]], [1.0], form=GREY_FORM)
        with pytest.raises(ValueError):
            reduced_to_grey(grey, spec)
