import numpy as np
import pytest
from scipy import optimize

from greymatch import (
    ConfigError,
    DomainError,
    FIX_FIRST,
    FIX_LAST,
    GREY_FORM,
    GreyFitConfig,
    ModelSpec,
    OptimizerError,
    ParameterSet,
    RESIDUAL_CORRECTION,
    REDUCED_FORM,
    RootSearchError,
    SingularDesignError,
    TimeSeries,
    build_design_grey,
    cusum,
    extend_times,
    fit_grey,
    forecast_fit,
    least_squares_solve,
    lotka_volterra_spec,
    lotka_volterra_truth,
    power_spec,
    select_initial,
    solve_grey,
    solve_reduced,
    verhulst_spec,
)
from greymatch import grey_twostep
from greymatch.datasets import sewage_discharge, water_use
from greymatch.integral_matching import power_family_spec
from greymatch.grey_twostep import _last_point_bracket, masked_row_solve

from closed_forms import bernoulli_closed_form
from row_twin import count_row_calls

A, B_GREY, ETA = 1.2, -0.5, 0.4


def clean_verhulst(h=0.01, T=4.0):
    times = np.arange(0.0, T + 1e-9, h)
    truth = ParameterSet([[A]], [[B_GREY]], [ETA], form=REDUCED_FORM)
    traj = solve_reduced(verhulst_spec(), truth, times)
    return TimeSeries(times, traj.states[:, :1])


class TestDesign:
    def test_verhulst_hand_built(self):
        ts = TimeSeries([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        design, targets = build_design_grey(cusum(ts), ts, verhulst_spec(), 0.5)
        assert np.allclose(design, [[2.0, 4.0], [4.5, 20.25]])
        assert np.allclose(targets[:, 0], [2.0, 3.0])

    def test_constant_only_columns(self):
        spec = ModelSpec(1, None, include_constant=True)
        ts = TimeSeries(np.arange(4.0), [1.0, 2.0, 1.0, 2.0])
        design, _ = build_design_grey(cusum(ts), ts, spec, 0.5)
        assert design.shape == (3, 2)
        assert np.allclose(design[:, 1], 1.0)
        y = cusum(ts)[:, 0]
        assert np.allclose(design[:, 0], 0.5 * (y[:-1] + y[1:]))

    def test_targets_are_later_observations(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(np.arange(8.0), rng.uniform(1.0, 2.0, size=8))
        _, targets = build_design_grey(cusum(ts), ts, verhulst_spec(), 0.5)
        assert np.allclose(targets, ts.values[1:])

    def test_matches_direct_midpoint_transcription(self):
        rng = np.random.default_rng(1)
        ts = TimeSeries(np.arange(10.0), rng.uniform(0.5, 1.5, size=10))
        design, _ = build_design_grey(cusum(ts), ts, verhulst_spec(), 0.5)
        y = cusum(ts)[:, 0]
        rows = [[(y[k - 1] + y[k]) / 2.0, ((y[k - 1] + y[k]) / 2.0) ** 2]
                for k in range(1, 10)]
        assert np.allclose(design, rows)

    def test_background_coefficient_weighting(self):
        ts = TimeSeries([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        design, _ = build_design_grey(cusum(ts), ts, verhulst_spec(), 0.0)
        # lam = 0 keeps the right endpoint y(t_k)
        y = cusum(ts)[:, 0]
        assert np.allclose(design[:, 0], y[1:])


class TestLeastSquares:
    def test_square_exact(self):
        design = np.array([[2.0, 1.0], [1.0, 3.0]])
        coef, cond = least_squares_solve(design, np.array([[4.0], [7.0]]))
        assert np.allclose(design @ coef, [[4.0], [7.0]])
        assert cond >= 1.0

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(2)
        design = rng.normal(size=(20, 3))
        truth = rng.normal(size=(3, 2))
        coef, _ = least_squares_solve(design, design @ truth)
        assert np.allclose(coef, truth, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(30, 4))
        targets = rng.normal(size=(30, 2))
        coef, _ = least_squares_solve(design, targets)
        normal = np.linalg.solve(design.T @ design, design.T @ targets)
        assert np.allclose(coef, normal, atol=1e-8)

    def test_singular_is_solved_minimum_norm(self):
        # the helper refuses nothing; identifiability is its callers' rule
        column = np.arange(1.0, 6.0)
        design = np.column_stack([column, 2.0 * column])
        coef, cond = least_squares_solve(design, column[:, None])
        assert np.allclose(coef, [[0.2], [0.4]])
        assert cond > 1e10

    def test_zero_design_has_infinite_condition(self):
        coef, cond = least_squares_solve(np.zeros((4, 2)), np.ones((4, 1)))
        assert np.array_equal(coef, np.zeros((2, 1))) and cond == float("inf")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_design_is_an_overflow(self, bad):
        design = np.ones((5, 2))
        design[3, 1] = bad
        with pytest.raises(ConfigError, match="overflows"):
            least_squares_solve(design, np.ones((5, 1)))

    def test_condition_is_singular_value_ratio(self):
        design = np.random.default_rng(6).normal(size=(25, 4))
        _, cond = least_squares_solve(design, np.ones((25, 1)))
        assert abs(cond - np.linalg.cond(design)) < 1e-12 * cond


def lotka_volterra_cumulative_design():
    spec, truth = lotka_volterra_truth()
    times = np.arange(0.0, 5.0 + 1e-9, 0.05)
    ts = TimeSeries(times, solve_reduced(spec, truth, times).states[:, :2])
    design, targets = build_design_grey(cusum(ts), ts, spec, 0.5)
    return spec, ts, design, targets


class TestMaskedRowSolve:
    def test_all_free_is_one_full_solve(self):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(30, 5))
        targets = rng.normal(size=(30, 2))
        coef, residuals, cond = masked_row_solve(design, targets, np.ones((2, 5), dtype=bool))
        full, full_cond = least_squares_solve(design, targets)
        assert np.array_equal(coef, full)
        assert np.array_equal(residuals, targets - design @ full)
        assert cond == full_cond

    def test_each_masked_output_solves_its_own_columns(self):
        spec, _, design, targets = lotka_volterra_cumulative_design()
        free = spec.free_mask()
        coef, residuals, _ = masked_row_solve(design, targets, free)
        for i in range(spec.dimension):
            alone, *_ = np.linalg.lstsq(design[:, free[i]], targets[:, [i]], rcond=None)
            assert np.array_equal(coef[free[i], i], alone[:, 0])
            assert np.all(coef[~free[i], i] == 0.0)
            assert np.array_equal(residuals[:, [i]],
                                  targets[:, [i]] - design[:, free[i]] @ alone)

    def test_singular_raises_with_condition(self):
        column = np.arange(1.0, 6.0)
        design = np.column_stack([column, 2.0 * column])
        with pytest.raises(SingularDesignError, match="numerically singular") as err:
            masked_row_solve(design, column[:, None], np.ones((1, 2), dtype=bool))
        assert err.value.condition > 1e10

    def test_singular_masked_output_raises(self):
        # only the second output's free columns are collinear
        rng = np.random.default_rng(8)
        column = rng.normal(size=12)
        design = np.column_stack([rng.normal(size=12), column, 3.0 * column])
        free = np.array([[True, True, False], [False, True, True]])
        with pytest.raises(SingularDesignError) as err:
            masked_row_solve(design, rng.normal(size=(12, 2)), free)
        assert err.value.condition > 1e10

    def test_output_without_free_columns_rejected(self):
        free = np.array([[True, True], [False, False]])
        with pytest.raises(ConfigError):
            masked_row_solve(np.eye(3, 2), np.ones((3, 2)), free)


class TestSelectInitial:
    def test_fix_first(self):
        ts = TimeSeries(np.arange(5.0), [1.0, 2.0, 3.0, 4.0, 5.0])
        y = cusum(ts)
        eta = select_initial(FIX_FIRST, ts.times, y, verhulst_spec(),
                             np.array([[1.0]]), np.array([[0.0]]))
        assert np.allclose(eta, y[0])

    def test_fix_last_linear_closed_form(self):
        # dy/dt = a y has y(t_n) = eta exp(a (t_n - t_1))
        a = 0.5
        spec = ModelSpec(1, None)
        times = np.arange(0.0, 3.0 + 1e-9, 0.5)
        y = 0.8 * np.exp(a * times)
        eta = select_initial(FIX_LAST, times, y[:, None], spec, np.array([[a]]),
                             np.zeros((1, 0)))
        expected = y[-1] * np.exp(-a * (times[-1] - times[0]))
        assert abs(eta[0] - expected) < 1e-8

    def test_strategies_agree_on_clean_data(self):
        # exact cumulative data plus exact structural values: every strategy
        # must find the same initial value
        times = np.arange(0.0, 4.0 + 1e-9, 0.05)
        y, _ = bernoulli_closed_form(1.2, -0.5, 2.0, 0.4, times)
        spec = verhulst_spec()
        values = [select_initial(strategy, times, y[:, None], spec,
                                 np.array([[1.2]]), np.array([[-0.5]]))[0]
                  for strategy in (FIX_FIRST, FIX_LAST, RESIDUAL_CORRECTION)]
        assert max(values) - min(values) < 1e-6
        assert abs(values[0] - 0.4) < 1e-12


def yearly_structure(dataset, spec=None):
    """Grid, cumulative series, spec and structural estimates of a yearly grey fit
    (IGVM by default)."""
    spec = verhulst_spec() if spec is None else spec
    ts = dataset()
    fit = fit_grey(ts, spec)
    return ts.times, cusum(ts), spec, fit.params.theta_L, fit.params.theta_N


def one_row(times, spec, theta_L, theta_N, eta):
    return solve_grey(spec, ParameterSet(theta_L, theta_N, eta), times)


def summed_squares(times, y, spec, theta_L, theta_N, eta):
    traj = one_row(times, spec, theta_L, theta_N, eta)
    return 1e300 if traj.blown_up else float(np.sum((traj.states - y) ** 2))


def serial_fix_last(times, y, spec, theta_L, theta_N):
    """brentq per component and coordinate sweeps, one one-row solve per evaluation."""
    eta = y[0].astype(float).copy()

    def mismatch(value, i):
        eta[i] = value
        traj = one_row(times, spec, theta_L, theta_N, eta)
        if traj.blown_up:
            last = max(traj.blowup_index - 1, 0)
            return 1e30 if traj.states[last, i] - y[-1, i] >= 0.0 else -1e30
        return traj.states[-1, i] - y[-1, i]

    for _ in range(1 if spec.dimension == 1 else 50):
        previous = eta.copy()
        for i in range(spec.dimension):
            eta[i] = optimize.brentq(mismatch, *_last_point_bracket(y[:, i]), args=(i,),
                                     xtol=1e-12)
        if np.max(np.abs(eta - previous)) < 1e-10:
            break
    return eta


def serial_residual_correction(times, y, spec, theta_L, theta_N):
    """Nelder-Mead on the summed squared residual, seeded at the first sample."""
    result = optimize.minimize(
        lambda eta: summed_squares(times, y, spec, theta_L, theta_N, eta), y[0],
        method="Nelder-Mead", options={"maxiter": 500, "fatol": 1e-10, "xatol": 1e-8},
    )
    assert result.success
    return result.x


def count_solves(monkeypatch):
    """Record the batch size of each solve_grey call the search makes."""
    sizes = []
    original = grey_twostep.solve_grey

    def counting(spec, params, times, substeps=None):
        sizes.append(len(params))
        return original(spec, params, times, substeps)

    monkeypatch.setattr(grey_twostep, "solve_grey", counting)
    return sizes


def two_species_structure(T, noise):
    """Grid, cumulative series, spec and structural estimates of a two-species grey fit
    on a weakly coupled LV truth sampled at h = 0.1, with multiplicative noise."""
    spec = lotka_volterra_spec()
    truth = ParameterSet([[0.3, 0.0], [0.0, -0.2]], [[0.0, -0.1, 0.0], [0.0, 0.1, 0.0]],
                         [5.0, 3.0], form=REDUCED_FORM)
    times = np.arange(0.0, T + 1e-9, 0.1)
    states = solve_reduced(spec, truth, times).states[:, :2]
    states = states * (1.0 + noise * np.random.default_rng(3).standard_normal(states.shape))
    ts = TimeSeries(times, states)
    fit = fit_grey(ts, spec)
    return ts.times, cusum(ts), spec, fit.params.theta_L, fit.params.theta_N


#: candidates per pass of a two-component joint search: (K + 1) ** 2
JOINT_PASS = (round(grey_twostep.SECTIONS ** (1 / 2)) + 1) ** 2

YEARLY = pytest.mark.parametrize("dataset", [sewage_discharge, water_use],
                                 ids=["sewage", "water"])


class TestBatchedSearch:
    @YEARLY
    def test_fix_last_matches_brentq(self, monkeypatch, dataset):
        times, y, spec, theta_L, theta_N = yearly_structure(dataset)
        reference = serial_fix_last(times, y, spec, theta_L, theta_N)
        sizes = count_solves(monkeypatch)
        eta = select_initial(FIX_LAST, times, y, spec, theta_L, theta_N)
        assert 1 <= len(sizes) <= 12
        assert set(sizes) == {grey_twostep.SECTIONS + 1}
        assert abs(eta[0] - reference[0]) <= 1e-12 * abs(reference[0])

    @YEARLY
    def test_residual_correction_matches_nelder_mead(self, monkeypatch, dataset):
        times, y, spec, theta_L, theta_N = yearly_structure(dataset)
        reference = serial_residual_correction(times, y, spec, theta_L, theta_N)
        sizes = count_solves(monkeypatch)
        eta = select_initial(RESIDUAL_CORRECTION, times, y, spec, theta_L, theta_N)
        assert 1 <= len(sizes) <= 12
        assert abs(eta[0] - reference[0]) <= 1e-7 * abs(reference[0])
        assert (summed_squares(times, y, spec, theta_L, theta_N, eta)
                <= summed_squares(times, y, spec, theta_L, theta_N, reference))

    def test_fractional_power_residual_correction_matches_nelder_mead(self):
        # the bracket of the sewage cumulative series reaches below zero, outside
        # the domain of y^0.63: the residual search keeps to y > 0
        times, y, spec, theta_L, theta_N = yearly_structure(sewage_discharge,
                                                               power_family_spec("ingbm", 0.63))
        assert _last_point_bracket(y[:, 0])[0] < 0.0
        reference = serial_residual_correction(times, y, spec, theta_L, theta_N)
        eta = select_initial(RESIDUAL_CORRECTION, times, y, spec, theta_L, theta_N)
        assert abs(eta[0] - reference[0]) <= 1e-7 * abs(reference[0])
        assert (summed_squares(times, y, spec, theta_L, theta_N, eta)
                <= summed_squares(times, y, spec, theta_L, theta_N, reference))

    def test_two_species_fix_last_matches_serial_sweep(self, monkeypatch):
        times, y, spec, theta_L, theta_N = two_species_structure(0.6, 0.0)
        reference = serial_fix_last(times, y, spec, theta_L, theta_N)
        sizes = count_solves(monkeypatch)
        eta = select_initial(FIX_LAST, times, y, spec, theta_L, theta_N)
        assert set(sizes) == {JOINT_PASS}
        assert np.all(np.abs(eta - reference) <= 1e-12 * np.abs(reference))

    @pytest.mark.parametrize("T, noise", [(0.6, 0.0), (1.0, 0.04)], ids=["clean", "noisy"])
    def test_two_species_residual_correction_matches_nelder_mead(self, monkeypatch, T, noise):
        times, y, spec, theta_L, theta_N = two_species_structure(T, noise)
        reference = serial_residual_correction(times, y, spec, theta_L, theta_N)
        sizes = count_solves(monkeypatch)
        eta = select_initial(RESIDUAL_CORRECTION, times, y, spec, theta_L, theta_N)
        assert sizes and set(sizes) == {JOINT_PASS}
        assert np.all(np.abs(eta - reference) <= 1e-7 * np.abs(reference))
        assert (summed_squares(times, y, spec, theta_L, theta_N, eta)
                <= summed_squares(times, y, spec, theta_L, theta_N, reference))

    @pytest.mark.parametrize("T", [2.0, 3.0])
    def test_two_species_fix_last_matches_the_last_sample(self, T):
        # no component alone changes sign over its bracket on these fits, so a
        # search one component at a time finds no root; the joint search does
        times, y, spec, theta_L, theta_N = two_species_structure(T, 0.0)
        eta = select_initial(FIX_LAST, times, y, spec, theta_L, theta_N)
        last = one_row(times, spec, theta_L, theta_N, eta).states[-1]
        assert np.all(np.abs(last - y[-1]) <= 1e-12 * np.abs(y[-1]))

    def test_two_species_without_a_root_is_a_root_search_error(self, monkeypatch):
        times, y, spec, theta_L, theta_N = two_species_structure(0.6, 0.0)
        y = y.copy()
        y[-1, 1] *= 50
        sizes = count_solves(monkeypatch)
        with pytest.raises(RootSearchError, match="no last-point root"):
            select_initial(FIX_LAST, times, y, spec, theta_L, theta_N)
        assert len(sizes) <= 3 * grey_twostep.MAX_WIDENINGS

    def test_no_sign_change_is_a_root_search_error(self):
        # dy/dt = 5 y overshoots the last sample from every eta in [0.5, 2.5]
        times = np.linspace(0.0, 1.0, 5)
        y = np.linspace(1.0, 2.0, 5)[:, None]
        with pytest.raises(RootSearchError):
            select_initial(FIX_LAST, times, y, ModelSpec(1, None), np.array([[5.0]]),
                           np.zeros((1, 0)))

    def test_power_bracket_end_is_a_domain_error(self):
        # the bracket of the sewage cumulative series reaches below zero
        ts = sewage_discharge()
        y = cusum(ts)
        assert _last_point_bracket(y[:, 0])[0] < 0.0
        with pytest.raises(DomainError):
            select_initial(FIX_LAST, ts.times, y, power_spec(0.63), np.array([[0.2]]),
                           np.array([[0.1]]))

    def test_residual_minimum_beyond_bracket_end_is_found(self, monkeypatch):
        # dy/dt = 3 y: the best eta lies far below the bracket [0.8, 1.6]
        times = np.linspace(0.0, 1.0, 5)
        y = np.linspace(1.0, 1.4, 5)[:, None]
        spec, theta_L, theta_N = ModelSpec(1, None), np.array([[3.0]]), np.zeros((1, 0))
        reference = serial_residual_correction(times, y, spec, theta_L, theta_N)
        sizes = count_solves(monkeypatch)
        eta = select_initial(RESIDUAL_CORRECTION, times, y, spec, theta_L, theta_N)
        assert len(sizes) <= 12
        assert eta[0] < 0.8
        assert abs(eta[0] - reference[0]) <= 1e-7 * abs(reference[0])
        assert (summed_squares(times, y, spec, theta_L, theta_N, eta)
                <= summed_squares(times, y, spec, theta_L, theta_N, reference))

    def test_residual_minimum_on_domain_edge_is_an_optimizer_error(self):
        # dy/dt = 10 y^0.5 overshoots the samples from every eta > 0, the
        # least from the smallest: the minimum sits on the domain edge y = 0
        times = np.linspace(0.0, 1.0, 5)
        y = np.linspace(0.1, 0.2, 5)[:, None]
        with pytest.raises(OptimizerError, match="bracket end"):
            select_initial(RESIDUAL_CORRECTION, times, y, power_spec(0.5, include_linear=False),
                           np.zeros((1, 1)), np.array([[10.0]]))

    def test_minimum_past_every_widening_is_an_optimizer_error(self):
        with pytest.raises(OptimizerError, match="bracket end"):
            grey_twostep._section_minimum(lambda grid: -grid, 0.0, 1.0)

    def test_batched_solve_rows_equal_rows_alone(self):
        spec = verhulst_spec()
        times = np.linspace(0.0, 3.0, 13)
        # the last two rows blow up (b > 0 drives y to infinity in finite time)
        batch = [ParameterSet([[1.2]], [[b]], [eta])
                 for b, eta in ((-0.5, 0.4), (-0.5, 3.0), (0.0, 0.7), (0.5, 0.4), (0.5, 9.0))]
        traj = solve_grey(spec, batch, times)
        assert traj.states.shape == (times.size, len(batch), 1)
        assert traj.row_blowup_index.tolist()[:3] == [-1, -1, -1]
        assert np.all(traj.row_blowup_index[3:] > 0)
        for i, params in enumerate(batch):
            with count_row_calls() as calls:
                alone = solve_grey(spec, params, times)
            assert calls    # alone, the row runs on floats
            assert np.array_equal(traj.states[:, i], alone.states, equal_nan=True)
            index = traj.row_blowup_index[i]
            assert alone.blown_up == (index >= 0)
            assert alone.blowup_index == (index if index >= 0 else None)


class TestFitGrey:
    def test_noise_free_recovery(self):
        ts = clean_verhulst()
        fit = fit_grey(ts, verhulst_spec())
        a_hat = fit.params.theta_L[0, 0]
        b_hat = fit.params.theta_N[0, 0]
        assert abs(a_hat - A) / abs(A) < 0.01
        assert abs(b_hat - B_GREY) / abs(B_GREY) < 0.01
        assert fit.method == "grey_twostep"
        assert fit.residual_matrix.shape == (ts.n - 1, 1)

    def test_scale_property(self):
        ts = clean_verhulst(h=0.02)
        scale = 3.7
        scaled = TimeSeries(ts.times, ts.values * scale)
        fit1 = fit_grey(ts, verhulst_spec())
        fit2 = fit_grey(scaled, verhulst_spec())
        assert abs(fit2.params.theta_L[0, 0] - fit1.params.theta_L[0, 0]) < 1e-8
        assert abs(fit2.params.theta_N[0, 0] - fit1.params.theta_N[0, 0] / scale) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        ts = TimeSeries(np.arange(30.0), rng.uniform(1.0, 2.0, size=30))
        spec = verhulst_spec()
        fit = fit_grey(ts, spec)
        design, _ = build_design_grey(cusum(ts), ts, spec, 0.5)
        assert np.max(np.abs(design.T @ fit.residual_matrix)) < 1e-8

    def test_masked_fit_keeps_structural_zeros(self):
        spec, ts, _, _ = lotka_volterra_cumulative_design()
        fit = fit_grey(ts, spec)
        assert np.all(fit.params.theta_L[~spec.linear_mask()] == 0.0)
        assert np.all(fit.params.theta_N[~spec.nonlinear_mask()] == 0.0)
        assert np.all(fit.params.theta_L[spec.linear_mask()] != 0.0)
        assert np.all(fit.params.theta_N[spec.nonlinear_mask()] != 0.0)

    def test_too_few_samples(self):
        ts = TimeSeries(np.arange(3.0), [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            fit_grey(ts, verhulst_spec())

    def test_dimension_mismatch(self):
        ts = TimeSeries(np.arange(6.0), np.ones((6, 2)) + np.arange(6.0)[:, None])
        with pytest.raises(ConfigError):
            fit_grey(ts, verhulst_spec())

    def test_initial_value_override(self):
        ts = clean_verhulst(h=0.05)
        fit = fit_grey(ts, verhulst_spec(), GreyFitConfig(initial_values=(0.123,)))
        assert np.allclose(fit.params.eta, [0.123])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GreyFitConfig(background_coefficient=1.5)
        with pytest.raises(ConfigError):
            GreyFitConfig(initial_value_strategy="nope")


class TestForecastGrey:
    def test_zero_horizon_fitted_only(self):
        ts = clean_verhulst(h=0.05)
        fit = fit_grey(ts, verhulst_spec())
        forecast = forecast_fit(fit, 0)
        assert forecast.times.size == ts.n
        assert not forecast.blown_up
        # fix-first makes the first fitted value the first observation
        assert np.allclose(forecast.fitted_and_forecast[0], ts.values[0])
        assert np.max(np.abs(forecast.fitted_and_forecast - ts.values)) < 0.01

    def test_extends_grid_by_mean_spacing(self):
        ts = clean_verhulst(h=0.05)
        fit = fit_grey(ts, verhulst_spec())
        forecast = forecast_fit(fit, 3)
        assert forecast.times.size == ts.n + 3
        assert np.allclose(np.diff(forecast.times[-4:]), 0.05)

    def test_explicit_future_times(self):
        ts = clean_verhulst(h=0.05)
        fit = fit_grey(ts, verhulst_spec())
        future = ts.times[-1] + np.array([0.1, 0.3])
        forecast = forecast_fit(fit, 2, future_times=future)
        assert np.allclose(forecast.times[-2:], future)

    def test_extend_times_validation(self):
        with pytest.raises(ConfigError):
            extend_times(np.arange(3.0), 2, future_times=[1.0])
        with pytest.raises(ConfigError):
            extend_times(np.arange(3.0), 1, future_times=[1.5])
        with pytest.raises(ConfigError):
            extend_times(np.arange(3.0), -1)
