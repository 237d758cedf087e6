import concurrent.futures

import numpy as np
import pytest

from greymatch import (
    ConfigError,
    METHOD_GREY_TWOSTEP,
    METHOD_INTEGRAL_MATCHING,
    MonteCarloReport,
    Record,
    ScenarioConfig,
    add_noise,
    common_parameters,
    fit_matching,
    generate_clean,
    lotka_volterra_truth,
    lv_n_sweep,
    lv_noise_sweep,
    run_monte_carlo,
    summarize,
    verhulst_n_sweep,
    verhulst_noise_sweep,
    verhulst_truth,
    write_report_csv,
)
from greymatch import simulate

from closed_forms import bernoulli_closed_form


def small_config(**overrides):
    spec, truth = verhulst_truth()
    defaults = dict(scenario_id="small", spec=spec, truth=truth, T=4.0, h=0.1,
                    noise_level=0.10, replications=6, seed=99)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_sample_count_from_T_and_h(self):
        assert small_config(h=0.04).n_samples == 101
        assert small_config(h=0.40).n_samples == 11

    def test_explicit_n_override(self):
        config = small_config(h=0.01, n=501)
        assert config.n_samples == 501
        assert np.isclose(config.times()[-1], 5.0)

    def test_counts_past_the_largest_index_or_memory(self):
        for replications in (10 ** 308, int(np.iinfo(np.intp).max)):
            with pytest.raises(ConfigError, match="replications overflows"):
                small_config(replications=replications)
        # 1e15 samples: numpy refuses the 7 PiB allocation at once
        with pytest.raises(ConfigError, match="samples do not fit in memory"):
            small_config(T=1e12, h=0.001).times()

    def test_validation(self):
        spec, truth = verhulst_truth()
        with pytest.raises(ConfigError):
            small_config(noise_level=-0.1)
        with pytest.raises(ConfigError):
            small_config(replications=0)
        with pytest.raises(ConfigError):
            small_config(estimators=("nope",))
        with pytest.raises(ConfigError, match="at least one estimator"):
            small_config(estimators=())
        with pytest.raises(ConfigError, match="n must"):
            small_config(n=0)
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=-1)
        for scenario_id in ("a,b", "a\nb", "a\r\nb"):
            with pytest.raises(ConfigError, match="scenario_id"):
                small_config(scenario_id=scenario_id)
        grey_truth = None
        from greymatch import reduced_to_grey
        grey_truth = reduced_to_grey(truth, spec)
        with pytest.raises(ConfigError):
            small_config(truth=grey_truth)


class TestGeneration:
    def test_clean_matches_closed_form(self):
        config = small_config(h=0.04)
        clean = generate_clean(config)
        assert clean.n == 101
        _, expected = bernoulli_closed_form(1.2, -0.5, 2.0, 0.4, clean.times)
        assert np.max(np.abs(clean.values[:, 0] - expected)) <= 1e-8

    def test_zero_noise_identity(self):
        clean = generate_clean(small_config())
        assert add_noise(clean, 0.0, 1) is clean

    @pytest.mark.parametrize("truth", [verhulst_truth(1.2, -0.01, 4.0), lotka_volterra_truth()],
                             ids=["verhulst", "lv"])
    def test_overflowing_noise_is_a_config_error(self, truth):
        # finite, but the noise of a series whose variance exceeds 1.8 overflows
        config = small_config(spec=truth[0], truth=truth[1], T=2.0, noise_level=1e308,
                              replications=2)
        with pytest.raises(ConfigError, match="noise_level"):
            run_monte_carlo(config)

    def test_same_seed_bit_identical(self):
        clean = generate_clean(small_config())
        a = add_noise(clean, 0.10, (5, 3))
        b = add_noise(clean, 0.10, (5, 3))
        assert np.array_equal(a.values, b.values)
        c = add_noise(clean, 0.10, (5, 4))
        assert not np.array_equal(a.values, c.values)

    def test_noise_variance_close_to_target(self):
        config = small_config(h=0.01, n=501)
        clean = generate_clean(config)
        noisy = add_noise(clean, 0.10, 12345)
        injected = noisy.values - clean.values
        target = 0.10 * clean.values[:, 0].var()
        assert abs(injected.var() - target) / target < 0.15


class TestMonteCarlo:
    def test_determinism(self):
        config = small_config()
        r1 = run_monte_carlo(config)
        r2 = run_monte_carlo(config)
        assert r1.records == r2.records

    def test_parallel_schedule_identical(self):
        config = small_config()
        serial = run_monte_carlo(config, workers=1)
        parallel = run_monte_carlo(config, workers=2)
        assert serial.records == parallel.records

    def test_single_chunk_starts_no_process_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single chunk must run without a process pool")

        config = small_config()
        assert config.replications <= simulate.CHUNK_SIZE
        serial = run_monte_carlo(config)
        # ``run_monte_carlo`` imports the pool class only where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_monte_carlo(config, workers=4).records == serial.records

    @pytest.mark.parametrize("scenario", ["verhulst", "lv"])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, scenario):
        if scenario == "verhulst":
            config = small_config(replications=16)
        else:
            # noisy grey initial values, so that some grey rows blow up mid-chunk
            spec, truth = lotka_volterra_truth()
            config = ScenarioConfig("lv", spec, truth, T=5.0, h=0.05, noise_level=0.04,
                                    replications=16, seed=5)
        reference = run_monte_carlo(config)
        assert len({r.replication for r in reference.records}) == 16
        if scenario == "lv":
            assert any(r.status == "blow_up" for r in reference.records)
        for size, workers in ((1, 1), (7, 1), (7, 2), (simulate.CHUNK_SIZE, 2)):
            monkeypatch.setattr(simulate, "CHUNK_SIZE", size)
            report = run_monte_carlo(config, workers=workers)
            # repr compares failure markers too, whose NaN values never compare equal
            assert list(map(repr, report.records)) == list(map(repr, reference.records))

    def test_record_count_invariant(self):
        config = small_config()
        report = run_monte_carlo(config)
        # per replication and estimator: a, b, eta plus one rmse row
        ok = [r for r in report.records if r.status == "ok"]
        failures = [r for r in report.records if r.status != "ok"]
        assert len(ok) + 4 * len(failures) == config.replications * 2 * 4
        for failure in failures:
            assert failure.name == "failure"

    def test_common_parameters_lv_mapping(self):
        spec, truth = lotka_volterra_truth()
        config = ScenarioConfig("lv", spec, truth, T=5.0, h=0.05,
                                noise_level=0.0, replications=1, seed=0)
        clean = generate_clean(config)
        fit = fit_matching(clean, spec)
        names = [name for name, _ in common_parameters(fit)]
        assert names == ["a1", "b1", "a2", "b2", "eta1", "eta2"]
        values = dict(common_parameters(fit))
        assert abs(values["a1"] - 1.2) < 0.05
        assert abs(values["b1"] - 0.3) < 0.02

    def test_failures_recorded_not_raised(self):
        # constant series makes the cumulative design singular for matching
        spec, truth = verhulst_truth()
        config = ScenarioConfig("flat", spec,
                                truth, T=1.0, h=0.1, noise_level=0.0,
                                replications=2, seed=0)
        clean = generate_clean(config)
        # inject a degenerate scenario by zeroing the values via a stub record
        # (the public path: singular designs surface as failure markers)
        from greymatch.simulate import _run_estimator
        from greymatch import TimeSeries
        flat = TimeSeries(clean.times, np.zeros_like(clean.values))
        (records,) = _run_estimator(METHOD_INTEGRAL_MATCHING, [flat], config, [0])
        assert len(records) == 1
        assert records[0].status == "singular_design"
        assert records[0].name == "failure"

    @pytest.mark.parametrize("estimator", [METHOD_INTEGRAL_MATCHING, METHOD_GREY_TWOSTEP])
    def test_overflowing_design_recorded_as_error(self, estimator):
        from greymatch.simulate import _run_estimator
        from greymatch import TimeSeries
        config = small_config(replications=1)
        clean = generate_clean(config)
        huge = TimeSeries(clean.times, clean.values * 1e200)
        (records,) = _run_estimator(estimator, [huge], config, [0])
        assert [(r.name, r.status) for r in records] == [("failure", "error")]

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"),
                                     ValueError("beta must be finite")])
    def test_numerical_errors_recorded_not_raised(self, monkeypatch, exc):
        def failing_fit(*args, **kwargs):
            raise exc

        monkeypatch.setattr(simulate, "fit_matching", failing_fit)
        config = small_config(replications=3)
        report = run_monte_carlo(config)
        failures = [r for r in report.records if r.estimator == METHOD_INTEGRAL_MATCHING]
        assert [(r.replication, r.name, r.status) for r in failures] == \
            [(rep, "failure", "error") for rep in range(3)]
        assert any(r.estimator == METHOD_GREY_TWOSTEP and r.status == "ok"
                   for r in report.records)


class TestSummaries:
    def test_constant_estimates_equal_quantiles(self):
        records = tuple(Record("s", "grey_twostep", i, "a", 2.0, "ok") for i in range(5))
        config = small_config(estimators=("grey_twostep",))
        report = MonteCarloReport(config, records)
        rows = summarize(report)
        # only the grey estimator has records here; a single summary row
        assert len(rows) == 1
        row = rows[0]
        assert row.min == row.q1 == row.median == row.q3 == row.max == 2.0
        assert row.stddev == 0.0

    def test_median_interpolation(self):
        records = tuple(Record("s", "grey_twostep", i, "a", float(v), "ok")
                        for i, v in enumerate([5, 3, 1, 2, 4]))
        report = MonteCarloReport(small_config(estimators=("grey_twostep",)), records)
        assert summarize(report)[0].median == 3.0

    def test_failure_counts_in_summary(self):
        records = (
            Record("s", "grey_twostep", 0, "a", 1.0, "ok"),
            Record("s", "grey_twostep", 1, "failure", float("nan"), "blow_up"),
        )
        report = MonteCarloReport(small_config(estimators=("grey_twostep",)), records)
        rows = summarize(report)
        assert rows[0].failures == 1 and rows[0].count == 1

    def test_report_csv_format(self, tmp_path):
        config = small_config(replications=2)
        report = run_monte_carlo(config)
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,estimator,replication,name,value,status"
        assert len(lines) == 1 + len(report.records)
        assert all(line.count(",") == 5 for line in lines)


class TestBundledScenarios:
    def test_verhulst_n_sweep_sizes(self):
        sweep = verhulst_n_sweep(replications=5)
        assert [c.n_samples for c in sweep] == [11, 21, 51, 101]
        assert all(c.noise_level == 0.10 for c in sweep)

    def test_verhulst_noise_sweep(self):
        sweep = verhulst_noise_sweep(replications=5)
        assert [c.noise_level for c in sweep] == [0.10, 0.15, 0.20, 0.25]
        assert all(c.n_samples == 501 for c in sweep)

    def test_lv_sweeps(self):
        noise = lv_noise_sweep(replications=5)
        assert [c.noise_level for c in noise] == [0.04, 0.08, 0.12, 0.16]
        assert all(c.grey_initial_values == (5.0, 2.0 / 3.0) for c in noise)
        size = lv_n_sweep(replications=5)
        assert [c.n_samples for c in size] == [21, 51, 101, 501]
