import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from greymatch import (
    BlowUpError,
    ConfigError,
    DomainError,
    FIX_FIRST,
    FIX_LAST,
    FitResult,
    GREY_FORM,
    GreyFitConfig,
    METHOD_GREY_TWOSTEP,
    METHOD_INTEGRAL_MATCHING,
    METHOD_INTEGRAL_MATCHING_POWER,
    ModelSpec,
    ParameterSet,
    PowerUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    TimeSeries,
    fit_grey,
    fit_matching,
    fit_matching_power,
    forecast_fit,
    forecast_fits,
    grey_rhs,
    grey_to_reduced,
    lotka_volterra_spec,
    lv_noise_sweep,
    polynomial_spec,
    power_spec,
    quadratic_spec,
    reduced_to_grey,
    rk4_integrate,
    solve_grey,
    solve_reduced,
    trapezoid_cumulative,
    verhulst_n_sweep,
    verhulst_spec,
)
from greymatch import ode
from greymatch.datasets import TRAIN_SIZE, sewage_discharge, water_use
from greymatch.integral_matching import power_family_spec
from greymatch.metrics import train_test_split
from greymatch.ode import default_substeps, extend_times
from greymatch.transform import difference_cumulative

from closed_forms import bernoulli_closed_form, gm11_closed_form
from row_twin import count_row_calls, counted

A, B, ETA = 1.2, -0.5, 0.4


def verhulst_reduced_truth():
    return ParameterSet([[A]], [[B]], [ETA], form=REDUCED_FORM)


class TestRK4:
    def test_zero_field_constant(self):
        traj = rk4_integrate(lambda t, y: np.zeros_like(y), [1.5], np.arange(5.0), 1)
        assert not traj.blown_up
        assert np.allclose(traj.states, 1.5)

    def test_exponential(self):
        times = np.linspace(0.0, 1.0, 11)
        traj = rk4_integrate(lambda t, y: y, [1.0], times, substeps=10)
        assert abs(traj.states[-1, 0] - np.e) < 1e-8

    def test_default_substeps_policy(self):
        assert default_substeps([0.0, 1.0, 2.0]) == 32
        assert default_substeps(np.arange(0.0, 4.0, 0.01)) == 1
        assert default_substeps([0.0, 0.04, 0.08]) == 2
        assert default_substeps([0.0, 2048.0]) == ode.MAX_SUBSTEPS
        for spacing in (2049.0, 3.2e7, 1e300):
            with pytest.raises(ConfigError, match="rescale the time axis"):
                default_substeps([0.0, spacing])

    def test_omitted_substeps_take_the_default_policy(self):
        # unit spacing: the policy takes 32 substeps per interval, not 1
        times = np.arange(5.0)
        field = lambda t, y: 1.2 * y - 0.5 * y * y
        traj = rk4_integrate(field, [0.4], times)
        policy = rk4_integrate(field, [0.4], times, default_substeps(times))
        assert default_substeps(times) == 32
        assert np.array_equal(traj.states, policy.states)
        assert not np.array_equal(traj.states, rk4_integrate(field, [0.4], times, 1).states)

    def test_one_state_has_one_row_index(self):
        times = np.linspace(0.0, 2.0, 21)
        for field, index in ((lambda t, y: y ** 2, 11), (lambda t, y: -y, -1)):
            traj = rk4_integrate(field, [1.0], times, 50)
            assert traj.row_blowup_index.shape == (1,)
            assert traj.row_blowup_index[0] == index
            assert traj.blown_up == (index >= 0)
            assert traj.blowup_index == (index if index >= 0 else None)

    def test_verhulst_vs_closed_form(self):
        times = np.linspace(0.0, 4.0, 401)
        spec = verhulst_spec()
        grey = ParameterSet([[A]], [[B]], [ETA], form=GREY_FORM)
        traj = solve_grey(spec, grey, times, substeps=10)
        expected, _ = bernoulli_closed_form(A, B, 2.0, ETA, times)
        assert np.max(np.abs(traj.states[:, 0] - expected)) <= 1e-8

    def test_fourth_order_convergence(self):
        spec = verhulst_spec()
        grey = ParameterSet([[A]], [[B]], [ETA], form=GREY_FORM)
        times = np.linspace(0.0, 4.0, 5)

        def max_error(substeps):
            traj = solve_grey(spec, grey, times, substeps=substeps)
            return np.max(np.abs(traj.states[:, 0]
                                 - bernoulli_closed_form(A, B, 2.0, ETA, times)[0]))

        assert max_error(4) / max_error(8) >= 12.0

    def test_blow_up_flagged_not_raised(self):
        times = np.linspace(0.0, 2.0, 21)
        traj = rk4_integrate(lambda t, y: y ** 2, [1.0], times, substeps=50)
        assert traj.blown_up
        assert traj.blowup_index is not None
        # 1/(1-t) diverges at t=1
        assert times[traj.blowup_index] >= 0.9
        assert np.all(np.isnan(traj.states[traj.blowup_index:]))
        assert np.all(np.isfinite(traj.states[:traj.blowup_index]))

    def test_non_finite_initial_state(self):
        for start in (np.inf, -np.inf, np.nan):
            traj = rk4_integrate(lambda t, y: y, [start], np.arange(3.0), 1)
            assert traj.blown_up and traj.blowup_index == 0
            assert np.all(np.isnan(traj.states))
        # a right-hand side that turns NaN after t = 1 is flagged at that interval
        traj = rk4_integrate(lambda t, y: y * np.nan if t > 1.0 else y,
                             [1.0], np.arange(4.0), 2)
        assert traj.blown_up and traj.blowup_index == 2
        assert np.all(np.isfinite(traj.states[:2])) and np.all(np.isnan(traj.states[2:]))
        # in a batch, a non-finite start flags that row only
        traj = rk4_integrate(lambda t, y: y, [[1.0], [np.nan]], np.arange(3.0), 1)
        assert traj.blown_up and traj.blowup_index == 0
        assert list(traj.row_blowup_index) == [-1, 0]
        assert np.all(np.isfinite(traj.states[:, 0])) and np.all(np.isnan(traj.states[:, 1]))

    def test_guard_prefilter_flags_the_same_rows(self):
        # dy/dt = a y per row: y crosses 1e12 inside interval 3, y overflows to inf in
        # the first substep, y is NaN from the start, two rows sit at 9e11, one decays
        a = np.array([np.log(1e12) / 2.5, 1e308, 1.0, 0.0, 0.0, -0.5])[:, None]
        y0 = np.array([1.0, 1.0, np.nan, 9e11, 9e11, 1.0])[:, None]
        times = np.arange(5.0)

        def field(rates):
            return lambda t, y: rates * y

        def check(rows):
            batch = rk4_integrate(field(a[rows]), y0[rows], times, 4)
            for j, i in enumerate(rows):
                # alone, the row runs on floats under its field's twin
                one, calls = field(a[i]), []
                rate = float(a[i, 0])
                one.row = counted(lambda t, y: [rate * y[0]], calls)
                alone = rk4_integrate(one, y0[i], times, 4)
                assert calls or np.isnan(y0[i, 0])
                assert np.array_equal(batch.states[:, j], alone.states, equal_nan=True)
                assert batch.row_blowup_index[j] == row_index(alone)
            flagged = [k for k in batch.row_blowup_index if k >= 0]
            assert batch.blowup_index == (min(flagged) if flagged else None)
            return batch

        assert list(check([0, 1, 2, 3, 4, 5]).row_blowup_index) == [3, 1, 0, -1, -1, -1]
        # the rows at 9e11 fail the sum-of-squares prefilter but not the guard
        at_9e11 = check([3, 4, 5])
        assert not at_9e11.blown_up
        last = at_9e11.states[-1]
        assert not np.vdot(last, last) < ode.GUARD_SQ
        assert np.max(np.abs(last)) < ode.OVERFLOW_GUARD

    def test_failed_rows_leave_the_prefilter(self, monkeypatch):
        # once a row has failed, the dot product covers the live rows alone, so the
        # rows are looked at one by one only at the start and where one fails
        drop, calls = ode._drop_bad_rows, []

        def counted(state, first_bad, k):
            calls.append(k)
            return drop(state, first_bad, k)

        monkeypatch.setattr(ode, "_drop_bad_rows", counted)
        rates = np.array([[40.0], [-0.5]])    # row 0 passes 1e12 inside the first interval
        batch = rk4_integrate(lambda t, y: rates * y, [[1.0], [1.0]], np.arange(6.0), 8)
        assert calls == [0, 1]
        assert list(batch.row_blowup_index) == [1, -1]
        alone = rk4_integrate(lambda t, y: rates[1] * y, [1.0], np.arange(6.0), 8)
        assert np.array_equal(batch.states[:, 1], alone.states)


def sequential_combination(coef, blocks):
    """sum_c coef[c] * z_c, one column z_c at a time, strictly left to right."""
    columns = [block[:, k:k + 1] for block in blocks for k in range(block.shape[1])]
    out = coef[0] * columns[0]
    for c in range(1, len(columns)):
        out = out + coef[c] * columns[c]
    return out


class TestCombine:
    """``grey_rhs`` sums its columns strictly left to right, row by row, in the
    form its spec fixes: term by term for a scalar state with at most one
    basis column, by ``accumulate`` over wider blocks.  The field of one set
    and its twin on floats return the same bits."""

    @staticmethod
    def assert_summed_in_order(spec, batch, y):
        field = grey_rhs(spec, batch)(0.0, y)
        coef = np.stack([np.hstack([p.theta_L, p.theta_N]) for p in batch]).transpose(2, 0, 1)
        blocks = [y] if spec.basis is None else [y, spec.basis.evaluate(y)]
        beta = np.stack([p.beta_or_zero() for p in batch])
        assert np.array_equal(field, sequential_combination(coef, blocks) + beta)
        for i, params in enumerate(batch):
            one = grey_rhs(spec, params)
            assert np.array_equal(one(0.0, y[i:i + 1]), field[i:i + 1])
            assert np.array(one.row(0.0, y[i].tolist())).tobytes() == field[i].tobytes()
        return field

    @given(rows=st.integers(1, 70),
           spec=st.sampled_from(
               [ModelSpec(1, None)]
               + [power_spec(gamma) for gamma in (0.5, 0.63, 2.0, -1.0)]
               + [polynomial_spec(degree) for degree in range(2, 6)]
               + [ModelSpec(d, basis) for d in (2, 3) for basis in (None, QuadraticMultivariate(d))]),
           constant=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_sums_in_order_and_row_by_row(self, rows, spec, constant, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            # signs and magnitudes over many binades, so the order of the sum shows
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)

        d = spec.dimension
        spec = ModelSpec(d, spec.basis, include_constant=constant)
        batch = [ParameterSet(draw(d, d), draw(d, spec.p), np.ones(d),
                              beta=draw(d) if constant else None, form=GREY_FORM)
                 for _ in range(rows)]
        y = draw(rows, d)
        self.assert_summed_in_order(spec, batch,
                                    np.abs(y) if isinstance(spec.basis, PowerUnivariate) else y)

    def test_eight_columns_of_one_row(self):
        # a contiguous ``np.add.reduce`` adds these pairwise: ((1 + 0) + (u + u)) = 1 + 2u,
        # where the sum in order rounds 1 + u back to 1 twice (u = 2^-53)
        u = 2.0 ** -53
        y = np.array([[1.0, 0.0, u, u, 0.0, 0.0, 0.0, 0.0]])
        params = ParameterSet(np.ones((8, 8)), np.zeros((8, 0)), np.ones(8), form=GREY_FORM)
        field = self.assert_summed_in_order(ModelSpec(8, None), [params], y)
        assert np.all(field == 1.0)


ERROR_TARGET = 1e-7
REFERENCE_FACTOR = 64


def worst_relative_error(x, ref):
    """max_k |x_k - r_k|_inf / |r_k|_inf over the samples k; the state norm keeps
    the two-species truth, whose components cross zero, well posed."""
    return float(np.max(np.max(np.abs(x - ref), axis=1) / np.max(np.abs(ref), axis=1)))


def truth_error(config, samples=None):
    """Error of a scenario truth's default-policy path on the scenario's grid
    (its first ``samples`` stamps) against 64x more substeps."""
    grid = config.times()[:samples]
    substeps = default_substeps(grid)
    x, ref = (solve_reduced(config.spec, config.truth, grid, m).states[:, :config.spec.dimension]
              for m in (substeps, REFERENCE_FACTOR * substeps))
    return worst_relative_error(x, ref)


class TestDefaultStepErrorTarget:
    """The default step is the largest power of two within the error target."""

    def test_yearly_forecasts(self, monkeypatch):
        # IGVM by matching, grey under fix_first and fix_last, and INGBM at the
        # exponent the benchmark search selects, each forecast 7 years ahead
        # one batch per route
        routes = {"matching": [], "grey": [], "ingbm": []}
        for dataset, gamma in ((sewage_discharge, 1.0), (water_use, 0.63)):
            train, _ = train_test_split(dataset(), TRAIN_SIZE)
            routes["matching"].append(fit_matching(train, verhulst_spec()))
            for strategy in (FIX_FIRST, FIX_LAST):
                config = GreyFitConfig(initial_value_strategy=strategy)
                routes["grey"].append(fit_grey(train, verhulst_spec(), config))
            routes["ingbm"].append(fit_matching_power(train, power_family_spec("ingbm", gamma)))
        assert default_substeps(extend_times(routes["grey"][0].times, 7)) == 32
        forecasts = {route: forecast_fits(fits, 7) for route, fits in routes.items()}
        monkeypatch.setattr(ode, "DEFAULT_MAX_STEP", ode.DEFAULT_MAX_STEP / REFERENCE_FACTOR)
        for route, fits in routes.items():
            for fit, forecast, reference in zip(fits, forecasts[route], forecast_fits(fits, 7)):
                error = worst_relative_error(forecast.fitted_and_forecast,
                                             reference.fitted_and_forecast)
                assert error <= ERROR_TARGET, (fit.method, fit.params.form, error)

    @pytest.mark.parametrize("config", verhulst_n_sweep(1), ids=lambda c: c.scenario_id)
    def test_verhulst_size_sweep_truth(self, config):
        assert truth_error(config) <= ERROR_TARGET

    def test_lotka_volterra_truth(self):
        config = lv_noise_sweep(1)[0]
        assert config.h == 0.01 and default_substeps(config.times()) == 1
        # the first two time units hold the cycle's fastest swing and the
        # worst error of all 501 samples
        assert truth_error(config, samples=201) <= ERROR_TARGET

    def test_next_power_of_two_misses_the_target(self, monkeypatch):
        config = verhulst_n_sweep(1)[0]
        assert config.h == 0.4
        monkeypatch.setattr(ode, "DEFAULT_MAX_STEP", 2.0 * ode.DEFAULT_MAX_STEP)
        assert truth_error(config) > ERROR_TARGET


class TestVectorFields:
    def test_grey_rhs_verhulst(self):
        spec = verhulst_spec()
        grey = ParameterSet([[A]], [[B]], [ETA], form=GREY_FORM)
        rhs = grey_rhs(spec, grey)
        y = np.array([[0.7]])
        assert np.allclose(rhs(0.0, y), A * 0.7 + B * 0.49)

    def test_grey_rhs_constant_only(self):
        spec = ModelSpec(1, None, include_constant=True)
        grey = ParameterSet([[0.0]], np.zeros((1, 0)), [1.0], beta=[2.5], form=GREY_FORM)
        assert np.allclose(grey_rhs(spec, grey)(0.0, np.array([[9.0]])), [2.5])

    def test_grey_rhs_lotka_volterra(self):
        spec = lotka_volterra_spec()
        theta_L = [[1.2, 0.0], [0.0, -1.0]]
        theta_N = [[0.0, -0.3, 0.0], [0.0, 0.4, 0.0]]
        grey = ParameterSet(theta_L, theta_N, [5.0, 2.0 / 3.0], form=GREY_FORM)
        rhs = grey_rhs(spec, grey)
        y = np.array([[2.0, 3.0]])
        expected = [1.2 * 2.0 - 0.3 * 6.0, -3.0 + 0.4 * 6.0]
        assert np.allclose(rhs(0.0, y), expected)

    def test_reduced_rhs_linear_block_only(self):
        spec = ModelSpec(1, None)
        params = ParameterSet([[0.8]], np.zeros((1, 0)), [1.0], form=REDUCED_FORM)
        times = np.linspace(0.0, 1.0, 11)
        traj = solve_reduced(spec, params, times, substeps=10)
        assert abs(traj.states[-1, 0] - np.exp(0.8)) < 1e-8

    def test_reduced_y_component_is_offset_integral(self):
        spec = verhulst_spec()
        times = np.linspace(0.0, 4.0, 201)
        traj = solve_reduced(spec, verhulst_reduced_truth(), times, substeps=5)
        x_ts = TimeSeries(times, traj.states[:, :1])
        reconstructed = ETA + trapezoid_cumulative(x_ts)[:, 0]
        assert np.max(np.abs(traj.states[:, 1] - reconstructed)) < 1e-3


def lotka_volterra_reduced(eta, eta_x):
    return ParameterSet([[1.2, 0.0], [0.0, -1.0]], [[0.0, -0.3, 0.0], [0.0, 0.4, 0.0]],
                        eta, eta_x=eta_x, form=REDUCED_FORM)


class TestRatesReadOff:
    """The reduced trajectory integrates the cumulative model and reads x off its field."""

    @pytest.mark.parametrize("spec,sets", [
        (verhulst_spec(), [verhulst_reduced_truth(),
                           ParameterSet([[0.5]], [[-0.2]], [1.0], eta_x=[0.7],
                                        form=REDUCED_FORM)]),
        (lotka_volterra_spec(), [lotka_volterra_reduced([5.0, 0.7], [4.0, 1.5]),
                                 lotka_volterra_reduced([2.0, 1.0], None)]),
    ], ids=["verhulst", "lotka-volterra"])
    def test_x_is_the_cumulative_field_at_y(self, spec, sets):
        d = spec.dimension
        times = np.linspace(0.0, 2.0, 9)
        for params in (sets[0], sets):    # one row, then a batch
            batch = [params] if isinstance(params, ParameterSet) else params
            rhs = grey_rhs(spec, [reduced_to_grey(p, spec) for p in batch])
            with count_row_calls() as calls:
                states = solve_reduced(spec, params, times, substeps=4).states
            # the one row is integrated and read off on floats: 4 substeps of
            # 4 stages per interval, then one rate per sample
            assert len(calls) == (16 * (times.size - 1) + times.size if len(batch) == 1 else 0)
            states = states.reshape(times.size, len(batch), 2 * d)
            assert np.all(np.isfinite(states))
            for k in range(times.size):
                assert np.array_equal(states[k, :, :d], rhs(times[k], states[k, :, d:]))

    def test_row_whose_x_fails_the_guard_is_flagged_at_sample_0(self):
        spec = verhulst_spec()
        times = np.linspace(0.0, 1.0, 6)
        sets = [verhulst_reduced_truth(),
                ParameterSet([[A]], [[B]], [ETA], eta_x=[2e12], form=REDUCED_FORM),
                ParameterSet([[0.5]], [[-0.2]], [1.0], form=REDUCED_FORM)]
        traj = solve_reduced(spec, sets, times, substeps=4)
        assert traj.row_blowup_index.tolist() == [-1, 0, -1]
        assert np.all(np.isnan(traj.states[:, 1]))
        for i in (0, 1, 2):
            with count_row_calls() as calls:
                alone = solve_reduced(spec, sets[i], times, substeps=4)
            assert calls
            assert np.array_equal(traj.states[:, i], alone.states, equal_nan=True)
            assert alone.row_blowup_index.tolist() == [traj.row_blowup_index[i]]
            assert np.all(np.isfinite(alone.states)) == (i != 1)
        # the power route reads its rates under the same guard
        fits = [power_fit(1.0, 0.5, 0.5, 1.0, 2e12, times),
                power_fit(1.0, 0.5, 0.5, 1.0, 1.0, times)]
        flagged, runs = forecast_fits(fits, 1)
        assert flagged.blowup_index == 0 and np.all(np.isnan(flagged.fitted_and_forecast))
        assert not runs.blown_up
        assert_same_forecast(runs, forecast_fit(fits[1], 1))

    @given(a=st.floats(0.2, 2.0), capacity=st.floats(1.0, 10.0), start=st.floats(0.05, 0.9))
    def test_x_matches_the_logistic_closed_form(self, a, capacity, start):
        # dy/dt = a y + b y^2 from eta, with x(t1) = a eta + b eta^2 so that beta = 0
        spec = verhulst_spec()
        b, eta = -a / capacity, start * capacity
        truth = grey_to_reduced(ParameterSet([[a]], [[b]], [eta], form=GREY_FORM), spec)
        times = np.linspace(0.0, 6.0, 31)
        x = solve_reduced(spec, truth, times).states[:, 0]
        _, exact = bernoulli_closed_form(a, b, 2.0, eta, times)
        # x decays to 0 near the carrying capacity, so the error is measured
        # against the largest |x| rather than sample by sample
        assert np.max(np.abs(x - exact)) <= ERROR_TARGET * np.max(np.abs(exact))


growth_rates = st.floats(-0.3, -1e-3) | st.floats(1e-3, 0.3)


class TestSpecialCaseClosedForms:
    """GM(1,1) and the Bernoulli equation (INGBM) have elementary closed forms.
    At the default step every route holds the error target against them on
    the yearly grid extended by 7 stamps, t = 1..22.  The truths start at
    x(t_1) = r eta; a Bernoulli truth's reduced set from ``grey_to_reduced``
    converts back to beta = 0 bar rounding.  The default step is sized for truths that grow by at most
    one e-fold per unit time (x / y <= 1); a Bernoulli truth near its pole
    grows faster and misses the target (2.4e-7 at a = 0.125, gamma = 1.125,
    eta = 1, r = 0.375), which a step chosen per fit would mend."""

    GRID = np.arange(1.0, 23.0)
    TRAIN = 15

    def assert_within_target(self, spec, grey, y, x):
        assume(np.all(y > 0) and np.all(x > 0))
        assume(np.max(y) < ode.OVERFLOW_GUARD and np.max(x) < ode.OVERFLOW_GUARD)
        assume(np.max(x / y) <= 1.0)
        grid, y, x = self.GRID, y[:, None], x[:, None]
        assert worst_relative_error(solve_grey(spec, grey, grid).states, y) <= ERROR_TARGET
        reduced = grey_to_reduced(grey, spec)
        states = solve_reduced(spec, reduced, grid).states
        assert worst_relative_error(states[:, :1], x) <= ERROR_TARGET
        assert worst_relative_error(states[:, 1:], y) <= ERROR_TARGET
        residuals = np.zeros((self.TRAIN - 1, 1))
        for params, method, exact in ((reduced, METHOD_INTEGRAL_MATCHING, x),
                                      (grey, METHOD_GREY_TWOSTEP, difference_cumulative(grid, y))):
            fit = FitResult(spec, params, method, residuals, 1.0, grid[:self.TRAIN])
            forecast = forecast_fit(fit, grid.size - self.TRAIN)
            assert worst_relative_error(forecast.fitted_and_forecast, exact) <= ERROR_TARGET

    @settings(max_examples=25)
    @given(a=growth_rates, eta=st.floats(1.0, 100.0), r=st.floats(0.01, 1.0))
    def test_gm11(self, a, eta, r):
        beta = (r - a) * eta
        grey = ParameterSet([[a]], np.zeros((1, 0)), [eta], beta=[beta], form=GREY_FORM)
        self.assert_within_target(ModelSpec(1, None, include_constant=True), grey,
                                  *gm11_closed_form(a, beta, eta, self.GRID))

    @settings(max_examples=25)
    @given(a=growth_rates, gamma=st.floats(0.1, 0.9) | st.floats(1.1, 2.0),
           eta=st.floats(1.0, 100.0), r=st.floats(0.01, 1.0))
    def test_bernoulli(self, a, gamma, eta, r):
        b = (r - a) * eta / eta ** gamma
        grey = ParameterSet([[a]], [[b]], [eta], form=GREY_FORM)
        self.assert_within_target(power_spec(gamma), grey,
                                  *bernoulli_closed_form(a, b, gamma, eta, self.GRID))


class TestEquivalence:
    def test_verhulst_grey_vs_reduced(self):
        spec = verhulst_spec()
        reduced = verhulst_reduced_truth()
        grey = ParameterSet([[A]], [[B]], [ETA], beta=[0.0], form=GREY_FORM)
        times = np.linspace(0.0, 4.0, 401)
        y_grey = solve_grey(spec, grey, times, substeps=10).states[:, 0]
        y_reduced = solve_reduced(spec, reduced, times, substeps=10).states[:, 1]
        assert np.max(np.abs(y_grey - y_reduced)) <= 1e-6

    def test_lotka_volterra_grey_vs_reduced(self):
        spec = lotka_volterra_spec()
        theta_L = [[1.2, 0.0], [0.0, -1.0]]
        theta_N = [[0.0, -0.3, 0.0], [0.0, 0.4, 0.0]]
        reduced = ParameterSet(theta_L, theta_N, [5.0, 2.0 / 3.0], form=REDUCED_FORM)
        grey = ParameterSet(theta_L, theta_N, [5.0, 2.0 / 3.0], beta=[0.0, 0.0],
                            form=GREY_FORM)
        times = np.linspace(0.0, 4.0, 401)
        y_grey = solve_grey(spec, grey, times, substeps=10).states
        y_reduced = solve_reduced(spec, reduced, times, substeps=10).states[:, 2:]
        assert np.max(np.abs(y_grey - y_reduced)) <= 1e-6

    def test_inverse_cusum_of_grey_matches_reduced_state(self):
        from greymatch import difference_cumulative

        spec = verhulst_spec()
        grey = ParameterSet([[A]], [[B]], [ETA], form=GREY_FORM)
        h = 0.01
        times = np.arange(0.0, 4.0 + 1e-12, h)
        y = solve_grey(spec, grey, times, substeps=5).states
        x_from_grey = difference_cumulative(times, y)[:, 0]
        x_reduced = solve_reduced(spec, verhulst_reduced_truth(), times,
                                  substeps=5).states[:, 0]
        # backward differencing is first-order accurate
        slope = np.max(np.abs(np.gradient(x_reduced, times)))
        assert np.max(np.abs(x_from_grey[1:] - x_reduced[1:])) <= slope * h

    def test_form_conversion_preserves_trajectories(self):
        rng = np.random.default_rng(3)
        spec = verhulst_spec()
        times = np.linspace(0.0, 2.0, 101)
        for _ in range(5):
            grey = ParameterSet(rng.uniform(0.5, 1.5, (1, 1)),
                                rng.uniform(-0.9, -0.3, (1, 1)),
                                rng.uniform(0.2, 0.8, 1),
                                beta=rng.uniform(-0.1, 0.1, 1), form=GREY_FORM)
            reduced = grey_to_reduced(grey, spec)
            y_grey = solve_grey(spec, grey, times, substeps=5).states[:, 0]
            y_reduced = solve_reduced(spec, reduced, times, substeps=5).states[:, 1]
            assert np.max(np.abs(y_grey - y_reduced)) <= 1e-6


def pair_field(a, b, c):
    """Row-wise field on rows [x, y]: dx = a x + b x y, dy = x + c sqrt(y).

    x can overflow the guard and y can go negative, where sqrt turns the row
    NaN; the arithmetic is elementwise, so a batch and a single row agree.
    The field of one row carries its twin on floats, as ``grey_rhs`` does.
    """
    def rhs(t, u):
        x, y = u[..., 0], u[..., 1]
        return np.stack([a * x + b * x * y, x + c * np.sqrt(y)], axis=-1)

    if np.ndim(a) == 0:
        a, b, c = float(a), float(b), float(c)
        rhs.row = lambda t, u: [a * u[0] + b * u[0] * u[1],
                                u[0] + c * (math.sqrt(u[1]) if u[1] >= 0.0 else math.nan)]
    return rhs


def power_fit(a, b, gamma, eta, eta_x, times):
    params = ParameterSet([[a]], [[b]], [eta], eta_x=[eta_x], form=REDUCED_FORM)
    return FitResult(power_spec(gamma), params, METHOD_INTEGRAL_MATCHING_POWER,
                     np.zeros((times.size - 1, 1)), 1.0, times)


def row_index(traj_or_forecast):
    return traj_or_forecast.blowup_index if traj_or_forecast.blown_up else -1


pair_rows = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-2.0, 2.0),
                      st.floats(-3.0, 3.0), st.floats(-1.0, 3.0))
power_rows = st.tuples(st.floats(-80.0, 80.0), st.floats(-5.0, 5.0),
                       st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0)),
                       st.floats(-0.5, 3.0), st.floats(-3.0, 3.0))


def shared_spec_fit(kind, coefs, start, times):
    """A polynomial grey, masked-quadratic LV grey or LV reduced fit from drawn numbers."""
    c = list(coefs)
    if kind == "poly-grey":
        params = ParameterSet([[c[0]]], [c[1:3]], [start[0]], beta=[c[3]], form=GREY_FORM)
        spec, method = polynomial_spec(3, include_constant=True), METHOD_GREY_TWOSTEP
    else:
        spec = lotka_volterra_spec()
        theta_L = [[c[0], 0.0], [0.0, c[1]]]
        theta_N = [[0.0, c[2], 0.0], [0.0, c[3], 0.0]]
        if kind == "lv-grey":
            params = ParameterSet(theta_L, theta_N, start[:2], beta=start[2:], form=GREY_FORM)
            method = METHOD_GREY_TWOSTEP
        else:
            params = ParameterSet(theta_L, theta_N, start[:2], eta_x=start[2:],
                                  form=REDUCED_FORM)
            method = METHOD_INTEGRAL_MATCHING
    return FitResult(spec, params, method, np.zeros((times.size - 1, spec.dimension)),
                     1.0, times)


shared_spec_rows = st.tuples(st.sampled_from(["poly-grey", "lv-grey", "lv-reduced"]),
                             st.tuples(*[st.floats(-6.0, 6.0)] * 4),
                             st.tuples(*[st.floats(-4.0, 4.0)] * 4))


def assert_same_forecast(batched, alone):
    assert np.array_equal(batched.times, alone.times)
    assert np.array_equal(batched.fitted_and_forecast, alone.fitted_and_forecast,
                          equal_nan=True)
    assert batched.blown_up == alone.blown_up
    assert batched.blowup_index == alone.blowup_index


def assert_row_is_its_fit_alone(forecast, fit, horizon):
    """A batch's row equals the fit forecast alone, which ``forecast_fit`` returns
    whole or refuses with ``BlowUpError`` where the row blew up."""
    with count_row_calls() as calls:
        (alone,) = forecast_fits([fit], horizon)
    assert calls, "the fit alone did not take the one-row route"
    assert_same_forecast(forecast, alone)
    if forecast.blown_up:
        with pytest.raises(BlowUpError):
            forecast_fit(fit, horizon)
    else:
        assert_same_forecast(forecast, forecast_fit(fit, horizon))


def grey_power_fit(beta, times):
    """A grey fit of dy/dt = y + 0.5 sqrt(y) + beta; beta = -40 drives y below 0."""
    params = ParameterSet([[1.0]], [[0.5]], [1.0], beta=[beta], form=GREY_FORM)
    return FitResult(power_spec(0.5, include_constant=True), params, METHOD_GREY_TWOSTEP,
                     np.zeros((times.size - 1, 1)), 1.0, times)


#: a spec for each form of the one-row field
ROW_ROUTES = {
    "linear": ModelSpec(1, None),
    "linear-constant": ModelSpec(1, None, include_constant=True),
    "poly-3": polynomial_spec(3, include_constant=True),    # the accumulate sum
    "power-integer": power_spec(2.0),
    "power-fractional": power_spec(0.5, include_constant=True),
    "quadratic-d2": quadratic_spec(2),
    "quadratic-d3": quadratic_spec(3),
    "lotka-volterra": lotka_volterra_spec(),
}


class TestBatched:
    @pytest.mark.parametrize("form", [GREY_FORM, REDUCED_FORM])
    @pytest.mark.parametrize("name", list(ROW_ROUTES))
    def test_one_row_route_equals_its_batch_row(self, name, form):
        spec = ROW_ROUTES[name]
        d, times, rng = spec.dimension, 0.1 * np.arange(8.0), np.random.default_rng(11)
        method = METHOD_GREY_TWOSTEP if form == GREY_FORM else METHOD_INTEGRAL_MATCHING

        def fit(theta_L, theta_N, beta):
            params = ParameterSet(theta_L, theta_N, rng.uniform(1.0, 2.0, d), form=GREY_FORM,
                                  beta=beta if spec.include_constant else None)
            if form == REDUCED_FORM:
                params = grey_to_reduced(params, spec)
            return FitResult(spec, params, method, np.zeros((times.size - 1, d)), 1.0, times)

        def drawn():
            # from y >= 1 with beta >= 0, y stays above 0 over the grid
            return fit(rng.uniform(-0.5, 0.5, (d, d)) * spec.linear_mask(),
                       rng.uniform(-0.5, 0.5, (d, spec.p)) * spec.nonlinear_mask(),
                       rng.uniform(0.0, 1.0, d))

        # two rows that run and one that blows up, as one batch on the array route
        batch = [drawn(), drawn(), fit(60.0 * np.eye(d), np.zeros((d, spec.p)), np.ones(d))]
        forecasts = forecast_fits(batch, 2)
        assert [f.blown_up for f in forecasts] == [False, False, True]
        for fit_, forecast in zip(batch, forecasts):
            assert_row_is_its_fit_alone(forecast, fit_, 2)
        # y = eta - 40 t leaves a fractional power's domain inside the first interval
        falling = fit(np.zeros((d, d)), np.zeros((d, spec.p)), np.full(d, -40.0))
        with count_row_calls() as calls:
            (alone,) = forecast_fits([falling], 2)
        assert calls
        if name == "power-fractional":
            assert alone is None
            with pytest.raises(DomainError):
                forecast_fit(falling, 2)
        else:
            assert alone is not None

    @given(rows=st.lists(pair_rows, min_size=1, max_size=6), n=st.integers(2, 8),
           substeps=st.integers(1, 4), data=st.data())
    def test_rk4_rows_equal_serial_runs(self, rows, n, substeps, data):
        rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))))]
        a, b, c, x0, y0 = (np.array(col) for col in zip(*rows))
        times = np.arange(float(n))
        batch = rk4_integrate(pair_field(a, b, c), np.column_stack([x0, y0]), times, substeps)
        indices = []
        for i in range(len(rows)):
            field, calls = pair_field(a[i], b[i], c[i]), []
            field.row = counted(field.row, calls)
            alone = rk4_integrate(field, [x0[i], y0[i]], times, substeps)
            assert calls
            assert np.array_equal(batch.states[:, i], alone.states, equal_nan=True)
            assert batch.row_blowup_index[i] == row_index(alone)
            indices.append(row_index(alone))
        flagged = [k for k in indices if k >= 0]
        assert batch.blown_up == bool(flagged)
        assert batch.blowup_index == (min(flagged) if flagged else None)

    @given(rows=st.lists(power_rows, min_size=1, max_size=6), n=st.integers(2, 8),
           horizon=st.integers(0, 3))
    def test_power_forecast_rows_equal_serial_runs(self, rows, n, horizon):
        times = 0.05 * np.arange(float(n))
        fits = [power_fit(*row, times) for row in rows]
        for fit, forecast in zip(fits, forecast_fits(fits, horizon)):
            with count_row_calls() as calls:
                (alone,) = forecast_fits([fit], horizon)
            # an eta outside the domain stops the fit before it is integrated
            assert calls or fit.params.eta[0] <= 0.0
            if forecast is None:
                assert alone is None
                with pytest.raises(DomainError):
                    forecast_fit(fit, horizon)
                continue
            assert np.array_equal(forecast.fitted_and_forecast, alone.fitted_and_forecast,
                                  equal_nan=True)
            assert row_index(forecast) == row_index(alone)
            if forecast.blown_up:
                with pytest.raises(BlowUpError):
                    forecast_fit(fit, horizon)
            else:
                single = forecast_fit(fit, horizon)
                assert np.array_equal(single.fitted_and_forecast, forecast.fitted_and_forecast)
                assert row_index(single) == row_index(forecast)

    def test_bad_rows_do_not_stop_the_batch(self):
        times = 0.05 * np.arange(11.0)
        fits = [power_fit(1.0, 0.5, 0.5, 1.0, 1.0, times),     # runs to the end
                power_fit(80.0, 5.0, 2.0, 1.0, 1.0, times),    # overflows the guard
                power_fit(1.0, 0.5, 0.5, 0.1, -3.0, times)]    # y drops below 0
        forecasts = forecast_fits(fits, 2)
        assert forecasts[2] is None
        assert [f.blown_up for f in forecasts[:2]] == [False, True]
        k = forecasts[1].blowup_index
        assert 0 < k < times.size
        assert np.all(np.isfinite(forecasts[1].fitted_and_forecast[:k]))
        assert np.all(np.isnan(forecasts[1].fitted_and_forecast[k:]))
        assert np.all(np.isfinite(forecasts[0].fitted_and_forecast))
        with pytest.raises(BlowUpError):
            forecast_fit(fits[1], 2)
        with pytest.raises(DomainError):
            forecast_fit(fits[2], 2)

    @pytest.mark.parametrize("family", ["ingm", "ingbm"])
    @pytest.mark.parametrize("dataset", [sewage_discharge, water_use],
                             ids=["sewage", "water"])
    def test_power_forecast_equals_augmented_jacobian_route(self, dataset, family):
        train, test = train_test_split(dataset(), TRAIN_SIZE)
        fits = [fit_matching_power(train, power_family_spec(family, 0.25 * i))
                for i in range(1, 9)]
        forecasts = forecast_fits(fits, test.n, test.times)
        assert all(forecast is not None for forecast in forecasts)
        grid = extend_times(train.times, test.n, test.times)
        for fit, forecast in zip(fits, forecasts):
            traj = solve_reduced(fit.spec, fit.params, grid)
            assert np.array_equal(forecast.fitted_and_forecast, traj.states[:, :1])
            assert forecast.blown_up == traj.blown_up

    @given(rows=st.lists(shared_spec_rows, min_size=1, max_size=7), n=st.integers(2, 6),
           horizon=st.integers(0, 2))
    def test_forecast_rows_equal_forecast_fit_alone(self, rows, n, horizon):
        times = 0.05 * np.arange(float(n))
        for route in ("poly-grey", "lv-grey", "lv-reduced"):
            fits = [shared_spec_fit(kind, coefs, start, times)
                    for kind, coefs, start in rows if kind == route]
            for fit, forecast in zip(fits, forecast_fits(fits, horizon)):
                assert_row_is_its_fit_alone(forecast, fit, horizon)

    def test_blown_up_rows_in_a_shared_spec_batch(self):
        times = 0.05 * np.arange(11.0)
        rows = [("poly-grey", (1.0, -0.5, 0.0, 0.1), (0.4,)),      # logistic, runs
                ("poly-grey", (0.0, 6.0, 6.0, 0.0), (4.0,)),       # finite-time pole
                ("lv-grey", (1.2, -1.0, -0.3, 0.4), (5.0, 0.7, 0.1, 0.0)),
                ("lv-grey", (6.0, 6.0, 6.0, 6.0), (4.0, 4.0, 1.0, 1.0)),
                ("lv-reduced", (1.2, -1.0, -0.3, 0.4), (5.0, 0.7, 4.0, 1.5)),
                ("lv-reduced", (6.0, 6.0, 6.0, 6.0), (4.0, 4.0, 4.0, 4.0))]
        fits = [shared_spec_fit(kind, coefs, start, times) for kind, coefs, start in rows]
        for route in range(0, len(fits), 2):    # each route's runner and blow-up
            batch = fits[route:route + 2]
            forecasts = forecast_fits(batch, 2)
            assert [f.blown_up for f in forecasts] == [False, True]
            # neither the batch's size nor its other members change a row
            for fit, forecast in zip(batch, forecasts):
                assert_row_is_its_fit_alone(forecast, fit, 2)
                if forecast.blown_up:
                    k = forecast.blowup_index
                    assert np.all(np.isnan(forecast.fitted_and_forecast[k:]))
            for forecast, other in zip(forecasts, forecast_fits(batch[::-1], 2)[::-1]):
                assert_same_forecast(forecast, other)

    def test_grey_row_leaving_the_domain_is_flagged(self):
        times = 0.05 * np.arange(11.0)
        fits = [grey_power_fit(beta, times) for beta in (0.0, -40.0, 0.1)]
        forecasts = forecast_fits(fits, 1)
        assert forecasts[1] is None
        for i in (0, 2):
            assert_same_forecast(forecasts[i], forecast_fit(fits[i], 1))
        with pytest.raises(DomainError):
            forecast_fit(fits[1], 1)

    def test_reduced_power_row_leaving_the_domain_is_none(self):
        times = 0.05 * np.arange(11.0)
        fits = [power_fit(1.0, 0.5, 0.5, 1.0, 1.0, times),
                power_fit(1.0, 0.5, 0.5, 0.1, -3.0, times),    # y drops below 0
                power_fit(1.0, 0.5, 1.5, 1.0, 1.0, times)]
        forecasts = forecast_fits(fits, 1)
        assert forecasts[1] is None
        assert forecast_fits([fits[1]], 1) == [None]
        for i in (0, 2):
            assert_same_forecast(forecasts[i], forecast_fit(fits[i], 1))

    def test_reduced_power_batch_is_one_pass_with_a_domain_per_row(self, monkeypatch):
        # y of the integer-exponent row goes negative, which its domain allows,
        # while the fractional rows stay positive: the batch needs no re-run
        times = 0.05 * np.arange(11.0)
        fits = [power_fit(1.0, 0.5, 2.0, 0.1, -3.0, times),
                power_fit(1.0, 0.5, 0.5, 1.0, 1.0, times),
                power_fit(-0.4, 0.3, 0.63, 2.0, 0.5, times),
                power_fit(1.0, 0.5, 1.5, 1.0, 1.0, times)]
        grid = extend_times(times, 2)
        assert solve_reduced(fits[0].spec, fits[0].params, grid).states[:, 1].min() < 0.0
        integrate, passes = ode.rk4_integrate, []

        def counted(*args):
            passes.append(len(args[1]))
            return integrate(*args)

        monkeypatch.setattr(ode, "rk4_integrate", counted)
        forecasts = forecast_fits(fits, 2)
        assert passes == [len(fits)]
        monkeypatch.undo()
        for fit, forecast in zip(fits, forecasts):
            assert not forecast.blown_up
            assert_row_is_its_fit_alone(forecast, fit, 2)

    @pytest.mark.parametrize("form", [GREY_FORM, REDUCED_FORM])
    def test_forecast_fit_raises_a_typed_error(self, form):
        times = 0.05 * np.arange(11.0)
        if form == GREY_FORM:
            blows_up = shared_spec_fit("poly-grey", (0.0, 6.0, 6.0, 0.0), (4.0,), times)
            leaves = grey_power_fit(-40.0, times)
        else:
            blows_up = power_fit(80.0, 5.0, 2.0, 1.0, 1.0, times)
            leaves = power_fit(1.0, 0.5, 0.5, 0.1, -3.0, times)
        assert blows_up.params.form == leaves.params.form == form
        with pytest.raises(BlowUpError):
            forecast_fit(blows_up, 2)
        with pytest.raises(DomainError):
            forecast_fit(leaves, 2)

    def test_fits_of_mixed_routes_are_refused(self):
        times = 0.05 * np.arange(6.0)
        lv = [shared_spec_fit(kind, (1.2, -1.0, -0.3, 0.4), (5.0, 0.7, 0.1, 0.0), times)
              for kind in ("lv-grey", "lv-reduced")]
        power = power_fit(1.0, 0.5, 0.5, 1.0, 1.0, times)
        for fits in (lv, [power, lv[1]], [power, grey_power_fit(0.0, times)]):
            with pytest.raises(ConfigError):
                forecast_fits(fits, 1)

    def test_fits_on_different_grids_are_refused(self):
        fits = [power_fit(1.0, 0.5, 0.5, 1.0, 1.0, 0.05 * np.arange(5.0)),
                power_fit(1.0, 0.5, 0.5, 1.0, 1.0, 0.05 * np.arange(6.0))]
        with pytest.raises(ConfigError):
            forecast_fits(fits, 1)
