"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its key measurements (run ``pytest tests/test_acceptance.py -v -s``
to see them inline).  The Monte Carlo criteria (5 and 6) run 500 replications
and dominate the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from greymatch import (
    ParameterSet,
    PolynomialUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    ScenarioConfig,
    TimeSeries,
    cusum,
    difference_cumulative,
    evaluate_basis,
    fit_matching,
    polynomial_shift_coefficients,
    lotka_volterra_spec,
    lotka_volterra_truth,
    recover_parameters,
    run_monte_carlo,
    solve_grey,
    solve_reduced,
    transform_parameters,
    verhulst_n_sweep,
    verhulst_spec,
    verhulst_truth,
)
from greymatch.cli import main as cli_main
from greymatch.datasets import (
    REPORTED_FORECASTS,
    REPORTED_INGBM_PARAMETERS,
    REPORTED_MAPE,
    reproduce_benchmark,
)

from closed_forms import bernoulli_closed_form

GREY = "grey_twostep"
MATCHING = "integral_matching"


def report_pass(number, message):
    print(f"\nACCEPTANCE {number:2d}: PASS - {message}", flush=True)


def iqr(values):
    q1, q3 = np.percentile(values, [25.0, 75.0])
    return q3 - q1


def test_criterion_01_change_of_basis_identities():
    started = time.monotonic()
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for p in (1, 2, 3, 4):
        basis = PolynomialUnivariate(p + 1)
        for _ in range(1000):
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
            worst = max(worst, abs(float(lhs[0] - rhs[0])))
    for d in (2, 3, 4):
        basis = QuadraticMultivariate(d)
        p = basis.size
        for _ in range(1000):
            eta = rng.uniform(-2.0, 2.0, size=d)
            v = rng.uniform(-2.0, 2.0, size=d)
            theta_L = rng.uniform(-2.0, 2.0, size=(d, d))
            theta_N = rng.uniform(-2.0, 2.0, size=(d, p))
            lhs = (theta_L @ v
                   + theta_N @ (evaluate_basis(basis, eta + v)
                                - evaluate_basis(basis, eta))
                   + eta)
            rhs = ((theta_L + theta_N @ basis.jacobian(eta[None])[0]) @ v
                   + theta_N @ evaluate_basis(basis, v)
                   + eta)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - started
    assert worst <= 1e-12
    assert elapsed < 5.0
    report_pass(1, f"change-of-basis identities hold to {worst:.2e} "
                   f"over 7000 draws in {elapsed:.2f}s")


def test_criterion_02_grey_reduced_equivalence():
    started = time.monotonic()
    times = np.linspace(0.0, 4.0, 401)  # substeps 10 -> internal step 1e-3

    spec = verhulst_spec()
    grey = ParameterSet([[1.2]], [[-0.5]], [0.4], beta=[0.0], form="grey")
    reduced = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
    y_grey = solve_grey(spec, grey, times, substeps=10).states[:, 0]
    y_red = solve_reduced(spec, reduced, times, substeps=10).states[:, 1]
    gap_verhulst = float(np.max(np.abs(y_grey - y_red)))

    lspec, ltruth = lotka_volterra_truth()
    lgrey = ParameterSet(ltruth.theta_L, ltruth.theta_N, ltruth.eta,
                         beta=[0.0, 0.0], form="grey")
    y_grey2 = solve_grey(lspec, lgrey, times, substeps=10).states
    y_red2 = solve_reduced(lspec, ltruth, times, substeps=10).states[:, 2:]
    gap_lv = float(np.max(np.abs(y_grey2 - y_red2)))

    elapsed = time.monotonic() - started
    assert gap_verhulst <= 1e-6
    assert gap_lv <= 1e-6
    assert elapsed < 5.0
    report_pass(2, f"cumulative trajectories agree: logistic {gap_verhulst:.2e}, "
                   f"two-species {gap_lv:.2e} in {elapsed:.2f}s")


def test_criterion_03_closed_form_oracle():
    a, b, eta = 1.2, -0.5, 0.4
    times = np.linspace(0.0, 4.0, 401)
    spec = verhulst_spec()
    grey = ParameterSet([[a]], [[b]], [eta], form="grey")
    reduced = ParameterSet([[a]], [[b]], [eta], form=REDUCED_FORM)

    # the logistic is the Bernoulli equation at gamma = 2
    y, x = bernoulli_closed_form(a, b, 2.0, eta, times)
    y_err = np.max(np.abs(solve_grey(spec, grey, times, substeps=10).states[:, 0] - y))
    x_err = np.max(np.abs(solve_reduced(spec, reduced, times, substeps=10).states[:, 0] - x))
    assert y_err <= 1e-8 and x_err <= 1e-8

    # x is the derivative of y: central differences at 20 stamps, read off one
    # grid that starts at t1 = 0, where the oracle measures time from
    h, t = 1e-5, np.linspace(0.1, 3.9, 20)
    y, x = bernoulli_closed_form(a, b, 2.0, eta, np.concatenate(([0.0], t + h, t - h, t)))
    y_plus, y_minus, exact = y[1:21], y[21:41], x[41:]
    worst_rel = float(np.max(np.abs((y_plus - y_minus) / (2.0 * h) - exact) / np.abs(exact)))
    assert worst_rel <= 1e-6
    report_pass(3, f"integrator vs closed forms: y {y_err:.2e}, x {x_err:.2e}; "
                   f"derivative check {worst_rel:.2e}")


def test_criterion_04_noise_free_recovery_and_rate():
    spec = verhulst_spec()
    truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
    truth_vec = np.array([1.2, -0.5, 0.4])

    def max_rel_error(h):
        times = np.arange(0.0, 4.0 + 1e-9, h)
        traj = solve_reduced(spec, truth, times,
                             substeps=max(1, int(round(h / 0.001))))
        fit = fit_matching(TimeSeries(times, traj.states[:, :1]), spec)
        estimates = np.array([fit.params.theta_L[0, 0],
                              fit.params.theta_N[0, 0],
                              fit.params.eta[0]])
        return float(np.max(np.abs(estimates - truth_vec) / np.abs(truth_vec)))

    err_coarse = max_rel_error(0.01)
    err_fine = max_rel_error(0.005)
    assert err_coarse <= 0.005
    assert err_coarse / err_fine >= 3.0
    report_pass(4, f"clean recovery at h=0.01 within {err_coarse:.2e} rel; "
                   f"halving h shrinks the error {err_coarse / err_fine:.1f}x")


@pytest.fixture(scope="module")
def n_sweep_reports():
    configs = verhulst_n_sweep(replications=500)
    started = time.monotonic()
    reports = [run_monte_carlo(config) for config in configs]
    return reports, time.monotonic() - started


def test_criterion_05_verhulst_monte_carlo(n_sweep_reports):
    reports, elapsed = n_sweep_reports
    r101 = reports[-1]
    assert r101.scenario.n_samples == 101

    med_a = float(np.median(r101.values(MATCHING, "a")))
    med_b = float(np.median(r101.values(MATCHING, "b")))
    assert abs(med_a - 1.2) <= 0.05
    assert abs(med_b + 0.5) <= 0.025  # 0.05 on the reduced-form coefficient

    med_rmse_matching = float(np.median(r101.values(MATCHING, "rmse")))
    med_rmse_grey = float(np.median(r101.values(GREY, "rmse")))
    assert med_rmse_matching <= med_rmse_grey

    for estimator in (GREY, MATCHING):
        for name in ("a", "b"):
            spreads = [iqr(report.values(estimator, name)) for report in reports]
            assert all(spreads[i] > spreads[i + 1] for i in range(len(spreads) - 1)), \
                (estimator, name, spreads)

    assert elapsed < 120.0
    report_pass(5, f"500-rep sweep in {elapsed:.0f}s: matching medians "
                   f"a={med_a:.3f}, b={med_b:.3f}; median fit error "
                   f"{med_rmse_matching:.4f} <= {med_rmse_grey:.4f}; spreads shrink")


def test_criterion_06_two_species_monte_carlo():
    started = time.monotonic()
    lspec, ltruth = lotka_volterra_truth()
    truth_map = {"a1": 1.2, "b1": 0.3, "a2": -1.0, "b2": -0.4,
                 "eta1": 5.0, "eta2": 2.0 / 3.0}

    seeded = ScenarioConfig("lv-true-init", lspec, ltruth, T=5.0, h=0.01,
                            noise_level=0.04, replications=500, seed=20210403,
                            grey_initial_values=tuple(ltruth.eta))
    report_true = run_monte_carlo(seeded)

    for name, true_value in truth_map.items():
        median = float(np.median(report_true.values(MATCHING, name)))
        assert abs(median - true_value) / abs(true_value) <= 0.10, (name, median)

    # with true initial values both estimators complete on >= 95% of runs
    for estimator in (GREY, MATCHING):
        failures = report_true.failure_count(estimator)
        assert failures <= 0.05 * seeded.replications, (estimator, failures)

    noisy = ScenarioConfig("lv-noisy-init", lspec, ltruth, T=5.0, h=0.01,
                           noise_level=0.04, replications=500, seed=20210403,
                           estimators=(GREY,))
    report_noisy = run_monte_carlo(noisy)  # must not raise
    blow_ups = sum(1 for r in report_noisy.records if r.status == "blow_up")
    assert blow_ups >= 1

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report_pass(6, f"two-species 500-rep runs in {elapsed:.0f}s: matching medians "
                   f"within 10%, {blow_ups} blow-up markers from noisy seeds, "
                   f"none from true seeds")


@pytest.fixture(scope="module")
def yearly():
    return {name: reproduce_benchmark(name) for name in ("sewage", "water")}


def test_criterion_07_sewage_benchmark(yearly):
    models, _ = yearly["sewage"]
    gamma, fit, _, report = models["ingbm"]
    reported = REPORTED_MAPE["sewage"]["ingbm"]
    assert abs(gamma - 1.0) < 1e-9
    assert abs(report.mape_train - reported[0]) <= 0.5
    assert abs(report.mape_test - reported[1]) <= 0.5
    params = REPORTED_INGBM_PARAMETERS["sewage"]
    assert abs(fit.params.theta_L[0, 0] - params["a"]) / abs(params["a"]) <= 0.20
    assert abs(fit.params.theta_N[0, 0] - params["b"]) / abs(params["b"]) <= 0.20
    assert abs(fit.params.eta[0] - params["eta"]) / params["eta"] <= 0.20

    _, _, _, ingm_report = models["ingm"]
    assert abs(ingm_report.mape_test - REPORTED_MAPE["sewage"]["ingm"][1]) <= 0.5
    _, _, _, igvm_report = models["igvm"]
    assert abs(igvm_report.mape_test - REPORTED_MAPE["sewage"]["igvm"][1]) <= 1.0
    report_pass(7, f"sewage benchmark: exponent {gamma:.2f}, "
                   f"fit/forecast errors {report.mape_train:.2f}/{report.mape_test:.2f}%, "
                   f"parameters within 20%")


def test_criterion_08_water_benchmark(yearly):
    models, _ = yearly["water"]
    gamma, _, _, report = models["ingbm"]
    assert abs(gamma - 0.63) <= 0.05
    assert abs(report.mape_test - REPORTED_MAPE["water"]["ingbm"][1]) <= 0.5
    _, _, _, igvm_report = models["igvm"]
    assert abs(igvm_report.mape_train - REPORTED_MAPE["water"]["igvm"][0]) <= 0.3
    report_pass(8, f"water benchmark: exponent {gamma:.2f}, forecast error "
                   f"{report.mape_test:.2f}%, baseline fit error "
                   f"{igvm_report.mape_train:.2f}%")


def test_criterion_09_three_step_forecasts(yearly):
    for dataset, (_, projection) in yearly.items():
        assert projection.times.size == 15 + 3
        ours = projection.fitted_and_forecast[-3:, 0]
        for value, reported in zip(ours, REPORTED_FORECASTS[dataset]):
            assert abs(value - reported) / reported <= 0.01, (dataset, value, reported)
    report_pass(9, "2019-2021 projections match the reported values within 1%")


def test_criterion_10_round_trips():
    rng = np.random.default_rng(20240110)
    worst_series = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(1, 4))
        times = np.cumsum(rng.uniform(0.05, 2.0, size=n))
        values = rng.normal(size=(n, d)) + rng.uniform(1.0, 3.0)
        ts = TimeSeries(times, values)
        back = difference_cumulative(ts.times, cusum(ts))
        scale = np.max(np.abs(values))
        worst_series = max(worst_series,
                           float(np.max(np.abs(back - values))) / scale)
    assert worst_series <= 1e-12

    from greymatch import polynomial_spec, quadratic_spec

    worst_params = 0.0
    for max_degree in (2, 3, 4, 5):
        model = polynomial_spec(max_degree)
        for _ in range(50):
            params = ParameterSet(rng.normal(size=(1, 1)),
                                  rng.normal(size=(1, max_degree - 1)),
                                  rng.normal(size=1), form=REDUCED_FORM)
            back = recover_parameters(transform_parameters(params, model), model)
            worst_params = max(
                worst_params,
                float(np.max(np.abs(back.theta_L - params.theta_L))),
                float(np.max(np.abs(back.theta_N - params.theta_N))),
                float(np.max(np.abs(back.eta - params.eta))),
            )
    for d in (2, 3):
        model = quadratic_spec(d)
        for _ in range(50):
            params = ParameterSet(rng.normal(size=(d, d)),
                                  rng.normal(size=(d, model.p)),
                                  rng.normal(size=d), form=REDUCED_FORM)
            back = recover_parameters(transform_parameters(params, model), model)
            worst_params = max(
                worst_params,
                float(np.max(np.abs(back.theta_L - params.theta_L))),
                float(np.max(np.abs(back.theta_N - params.theta_N))),
            )
    assert worst_params <= 1e-10
    report_pass(10, f"round trips: series {worst_series:.2e} rel, "
                    f"parameter recovery {worst_params:.2e}")


def test_criterion_11_batch_determinism(tmp_path, monkeypatch):
    scenario = {"scenario_id": "determinism", "model": "verhulst", "T": 2.0,
                "h": 0.1, "noise_level": 0.10, "replications": 12, "seed": 77}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    digests = []
    for workers, out_name in (("1", "w1"), ("4", "w4"), ("1", "w1b")):
        out = tmp_path / out_name
        monkeypatch.setenv("GREYMATCH_MC_WORKERS", workers)
        assert cli_main(["mc", str(path), "--out-dir", str(out)]) == 0
        digests.append(((out / "report.csv").read_bytes(),
                        (out / "summary.csv").read_bytes()))
    assert digests[0] == digests[1] == digests[2]
    report_pass(11, "batch reports are byte-identical across reruns and "
                    "worker-parallelism settings")
