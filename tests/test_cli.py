import copy
import functools
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from greymatch import (ParameterSet, REDUCED_FORM, lotka_volterra_spec, solve_reduced,
                       verhulst_spec)
from greymatch.cli import _load_scenarios, main, read_timeseries_csv
from greymatch.simulate import ScenarioConfig
from greymatch.datasets import REPORTED_FORECASTS, SEWAGE_VALUES

from row_twin import count_row_calls

SCENARIO = {"scenario_id": "tiny", "model": "verhulst", "T": 2.0, "h": 0.1,
            "noise_level": 0.10, "replications": 5, "seed": 7}

#: the smallest fit.json that ``forecast`` reads: a logistic integral-matching fit
FIT_DOC = {"spec": {"dimension": 1, "basis": {"kind": "polynomial", "max_degree": 2},
                    "include_constant": False, "include_linear": True,
                    "theta_L_mask": None, "theta_N_mask": None},
           "method_tag": "integral_matching",
           "reduced": {"theta_L": [[1.2]], "theta_N": [[-0.5]], "eta": [0.4], "eta_x": [0.4]},
           "times": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], "diagnostics": {"condition": 10.0}}
GREY_FIT_DOC = dict(FIT_DOC, method_tag="grey_twostep",
                    grey={"theta_L": [[1.2]], "theta_N": [[-0.5]], "beta": None, "eta": [0.4]})
DEGREE_5_SPEC = dict(FIT_DOC["spec"], basis={"kind": "polynomial", "max_degree": 5})


def write_csv(path, times, values):
    with open(path, "w") as handle:
        handle.write("t,x1\n")
        for t, v in zip(times, values):
            handle.write(f"{t},{v}\n")


def write_two_species_csv(path, times, states):
    with open(path, "w") as handle:
        handle.write("t,x1,x2\n")
        for t, (x1, x2) in zip(times, states):
            handle.write(f"{t},{x1},{x2}\n")


def two_species_states():
    """A weakly coupled LV truth sampled at h = 0.1 on [0, 0.6]."""
    truth = ParameterSet([[0.3, 0.0], [0.0, -0.2]], [[0.0, -0.1, 0.0], [0.0, 0.1, 0.0]],
                         [5.0, 3.0], form=REDUCED_FORM)
    times = np.arange(0.0, 0.6 + 1e-9, 0.1)
    return times, solve_reduced(lotka_volterra_spec(), truth, times).states[:, :2]


def run_capped(*argv, address_space=2 * 10 ** 9, seconds=60):
    """The command line in a fresh interpreter held to ``address_space`` bytes of
    memory and ``seconds`` of time, so a command that would fill memory fails fast."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "greymatch.cli", *argv], env=env, capture_output=True,
        text=True, timeout=seconds,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2))


@pytest.fixture()
def sewage_csv(tmp_path):
    path = tmp_path / "sewage.csv"
    write_csv(path, range(1, 16), SEWAGE_VALUES)
    return str(path)


@pytest.fixture()
def verhulst_csv(tmp_path):
    spec = verhulst_spec()
    truth = ParameterSet([[1.2]], [[-0.5]], [0.4], form=REDUCED_FORM)
    times = np.arange(0.0, 4.0 + 1e-9, 0.05)
    traj = solve_reduced(spec, truth, times)
    path = tmp_path / "verhulst.csv"
    write_csv(path, times, traj.states[:, 0])
    return str(path)


class TestReadCsv:
    def test_round_trip(self, sewage_csv):
        ts = read_timeseries_csv(sewage_csv)
        assert ts.n == 15 and ts.d == 1
        assert ts.values[0, 0] == 83.00

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,2\n2,\n")
        from greymatch.cli import ParseError
        with pytest.raises(ParseError):
            read_timeseriescsv = read_timeseries_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x1\n1,2\n")
        from greymatch.cli import ParseError
        with pytest.raises(ParseError):
            read_timeseries_csv(str(path))


class TestFitCommand:
    def test_matching_fit_recovers_truth(self, verhulst_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", verhulst_csv, "--model", "igvm",
                     "--method", "matching", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["schema_version"] == 1
        assert abs(doc["parameters"]["a"] - 1.2) < 0.012
        assert abs(doc["parameters"]["b_1"] + 0.5) < 0.005
        assert abs(doc["parameters"]["eta_1"] - 0.4) < 0.004
        assert doc["method_tag"] == "integral_matching"
        assert "transformed" in doc
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0] == "t,actual_x1,fitted_x1,ape_x1,segment"
        assert len(report_lines) == 82
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["input"]["sha256"]

    def test_manifest_records_the_numpy_build(self, verhulst_csv, tmp_path):
        # outputs repeat byte for byte on one numpy build and one CPU dispatch
        out = tmp_path / "out"
        assert main(["fit", verhulst_csv, "--model", "igvm", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["numpy"]["version"] == np.__version__
        assert manifest["numpy"]["simd"] == np.show_config(mode="dicts")["SIMD Extensions"]

    def test_grey_fit(self, verhulst_csv, tmp_path):
        out = tmp_path / "grey"
        code = main(["fit", verhulst_csv, "--model", "igvm", "--method", "grey",
                     "--init-strategy", "fix_first", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["method_tag"] == "grey_twostep"
        assert abs(doc["parameters"]["a"] - 1.2) < 0.05

    def test_split_and_gamma_search(self, sewage_csv, tmp_path):
        out = tmp_path / "search"
        code = main(["fit", sewage_csv, "--model", "ingbm", "--method", "matching",
                     "--gamma-search", "0.9,1.1,0.01", "--split", "11",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert abs(doc["gamma_search"]["gamma_star"] - 1.0) < 1e-9
        assert doc["diagnostics"]["mape_test"] is not None

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,one\n")
        assert main(["fit", str(path), "--model", "igvm",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_singular_design_exit_3(self, tmp_path):
        path = tmp_path / "zeros.csv"
        write_csv(path, range(6), [0.0] * 6)
        out = tmp_path / "o3"
        assert main(["fit", str(path), "--model", "igvm",
                     "--out-dir", str(out)]) == 3
        doc = json.loads((out / "fit.json").read_text())
        assert doc["error"]["exit_code"] == 3
        assert doc["error"]["category"] == "SingularDesignError"

    def test_blown_up_fitted_values_exit_4(self, tmp_path):
        # fitted on 12 years of super-exponential growth, the quadratic model
        # diverges before the 40 held-out years end
        times = np.arange(1.0, 53.0)
        path = tmp_path / "expl.csv"
        write_csv(path, times, 0.05 * np.exp(0.9 * times))
        out = tmp_path / "o4"
        assert main(["fit", str(path), "--model", "poly:2", "--split", "12",
                     "--out-dir", str(out)]) == 4
        doc = json.loads((out / "fit.json").read_text())
        assert doc["error"]["exit_code"] == 4
        assert doc["error"]["category"] == "BlowUpError"
        assert not (out / "report.csv").exists()

    def test_domain_error_exit_5(self, tmp_path):
        path = tmp_path / "neg.csv"
        write_csv(path, range(6), [-5.0, -4.0, -3.0, -2.0, -1.0, -0.5])
        assert main(["fit", str(path), "--model", "ingbm", "--gamma", "0.5",
                     "--out-dir", str(tmp_path / "o5")]) == 5

    def test_fractional_power_initial_value_searches(self, sewage_csv, tmp_path):
        # the last-point bracket of the cumulative sewage series reaches below zero:
        # fix_last leaves the domain of y^0.63 there, residual_correction keeps to y > 0
        argv = ["fit", sewage_csv, "--model", "ingbm", "--gamma", "0.63", "--method", "grey",
                "--init-strategy"]
        assert main(argv + ["fix_last", "--out-dir", str(tmp_path / "last")]) == 5
        out = tmp_path / "residual"
        assert main(argv + ["residual_correction", "--out-dir", str(out)]) == 0
        eta = json.loads((out / "fit.json").read_text())["parameters"]["eta_1"]
        # a Nelder-Mead search seeded at the first sample finds 105.91046313610872
        assert abs(eta - 105.91046313610872) <= 1e-7 * 105.91046313610872

    @pytest.mark.parametrize("strategy", ["fix_last", "residual_correction"])
    def test_two_species_initial_value_searches(self, tmp_path, strategy):
        path = tmp_path / "lv.csv"
        write_two_species_csv(path, *two_species_states())
        out = tmp_path / "fit"
        assert main(["fit", str(path), "--model", "lv", "--method", "grey",
                     "--init-strategy", strategy, "--out-dir", str(out)]) == 0
        grey = json.loads((out / "fit.json").read_text())["grey"]
        for name in ("theta_L", "theta_N", "eta"):
            assert np.all(np.isfinite(grey[name]))
        assert np.allclose(grey["eta"], [5.0, 3.0], rtol=1e-2)

    def test_two_species_without_a_root_exit_6(self, tmp_path):
        # the second species' last sample far above every trajectory's reach
        times, states = two_species_states()
        states = states.copy()
        states[-1, 1] *= 50
        path = tmp_path / "lv.csv"
        write_two_species_csv(path, times, states)
        out = tmp_path / "fit"
        assert main(["fit", str(path), "--model", "lv", "--method", "grey",
                     "--init-strategy", "fix_last", "--out-dir", str(out)]) == 6
        error = json.loads((out / "fit.json").read_text())["error"]
        assert (error["category"], error["exit_code"]) == ("RootSearchError", 6)

    @pytest.mark.parametrize("method", ["matching", "grey"])
    def test_overflowing_cumulative_sums_exit_6(self, tmp_path, capsys, method):
        # the trapezoid sums (matching) or the cumulative sums (grey) pass 1.8e308
        path = tmp_path / "late.csv"
        write_csv(path, list(range(1, 15)) + [1e308], SEWAGE_VALUES)
        out = tmp_path / "fit"
        assert main(["fit", str(path), "--model", "igvm", "--method", method,
                     "--out-dir", str(out)]) == 6
        assert "overflow" in capsys.readouterr().err
        assert json.loads((out / "fit.json").read_text())["error"]["category"] == "ConfigError"

    @pytest.mark.parametrize("scale, args", [
        (1e200, ["--model", "igvm"]),
        (1e200, ["--model", "igvm", "--method", "grey"]),
        (1e150, ["--model", "poly:3"]),
        (1e200, ["--model", "ingbm", "--gamma", "2"]),
    ])
    def test_overflowing_regression_exit_6(self, tmp_path, capsys, scale, args):
        # the sums of the scaled series stay finite, its squares or cubes do not
        path = tmp_path / "scaled.csv"
        write_csv(path, range(1, 16), [v * scale for v in SEWAGE_VALUES])
        out = tmp_path / "fit"
        assert main(["fit", str(path), *args, "--out-dir", str(out)]) == 6
        err = capsys.readouterr().err
        assert "design overflows" in err and "Traceback" not in err
        assert json.loads((out / "fit.json").read_text())["error"]["category"] == "ConfigError"

    def test_overflowing_power_in_the_residual_search_is_scored(self, sewage_csv, tmp_path,
                                                                 capsys):
        # residual-search candidates whose y ** 3 overflows are flagged rows, not errors
        out = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "ingm", "--gamma", "3", "--method", "grey",
                     "--init-strategy", "residual_correction", "--out-dir", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert "error" not in json.loads((out / "fit.json").read_text())

    def test_unix_second_stamps_exit_6(self, tmp_path, capsys):
        # the fit's own trajectory would take about 1e9 substeps per yearly interval
        path = tmp_path / "seconds.csv"
        write_csv(path, 1.0e9 + 31_557_600.0 * np.arange(15.0), SEWAGE_VALUES)
        out = tmp_path / "fit"
        assert main(["fit", str(path), "--model", "ingbm", "--gamma", "0.63",
                     "--out-dir", str(out)]) == 6
        assert "rescale the time axis" in capsys.readouterr().err
        assert json.loads((out / "fit.json").read_text())["error"]["category"] == "ConfigError"

    def test_domain_error_in_the_fitted_values_writes_error_fit_json(self, tmp_path):
        # the fit succeeds (x(t1) + x~ > 0 on the first 6 samples), its trajectory leaves y > 0
        path = tmp_path / "falling.csv"
        write_csv(path, range(1, 9), [5.0, 3.0, 1.0, -1.0, -3.0, -5.0, -7.0, -9.0])
        out = tmp_path / "o5"
        assert main(["fit", str(path), "--model", "ingbm", "--gamma", "0.5", "--split", "6",
                     "--out-dir", str(out)]) == 5
        assert json.loads((out / "fit.json").read_text())["error"]["exit_code"] == 5

    def test_flag_consistency_exit_6(self, sewage_csv, tmp_path):
        out = str(tmp_path / "o6")
        assert main(["fit", sewage_csv, "--model", "igvm", "--gamma", "0.5",
                     "--out-dir", out]) == 6
        assert main(["fit", sewage_csv, "--model", "ingbm",
                     "--out-dir", out]) == 6
        assert main(["fit", sewage_csv, "--model", "igvm", "--method", "matching",
                     "--init-strategy", "fix_last", "--out-dir", out]) == 6
        assert main(["fit", sewage_csv, "--model", "igvm", "--lambda", "0.3",
                     "--out-dir", out]) == 6

    @pytest.mark.parametrize("args, named", [
        (["--model", "poly:1"], "--model 'poly:1'"),
        (["--model", "poly:0"], "--model 'poly:0'"),
        (["--model", "ingbm", "--gamma", "nan"], "--gamma"),
        (["--model", "ingbm", "--gamma-search", "0,2,nan"], "finite"),
        (["--model", "ingbm", "--gamma-search", "0,inf,0.5"], "finite"),
        (["--model", "ingbm", "--gamma-search", "0,2,1e-300"], "candidates"),
        (["--model", "ingbm", "--gamma-search", "0,2,1e-12"], "at most 10001 candidates"),
    ], ids=["poly1", "poly0", "gamma_nan", "step_nan", "range_inf", "step_tiny",
            "step_unfinishable"])
    def test_unusable_degree_or_exponent_exit_6(self, sewage_csv, tmp_path, capsys,
                                                  args, named):
        out = tmp_path / "o6"
        assert main(["fit", sewage_csv, *args, "--out-dir", str(out)]) == 6
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        error = json.loads((out / "fit.json").read_text())["error"]
        assert error["category"] == "ConfigError" and named in error["message"]

    @pytest.mark.parametrize("method", ["grey", "matching"])
    def test_zero_observation_exit_6(self, tmp_path, capsys, method):
        path = tmp_path / "zero.csv"
        write_csv(path, range(1, 8), [0.0, 1.5, 2.1, 2.9, 3.6, 4.4, 5.0])
        out = tmp_path / "o6"
        assert main(["fit", str(path), "--model", "igvm", "--method", method,
                     "--out-dir", str(out)]) == 6
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((out / "fit.json").read_text())["error"]["exit_code"] == 6

    def test_zero_observation_in_gamma_search_exit_6(self, tmp_path, capsys):
        # MAPE-scored exponent search on a series with one zero observation
        path = tmp_path / "zero.csv"
        write_csv(path, range(1, 16), [0.0] + list(SEWAGE_VALUES[1:]))
        out = tmp_path / "o6"
        assert main(["fit", str(path), "--model", "ingbm", "--method", "matching",
                     "--gamma-search", "0,2,0.05", "--split", "11",
                     "--out-dir", str(out)]) == 6
        assert "Traceback" not in capsys.readouterr().err
        error = json.loads((out / "fit.json").read_text())["error"]
        assert error["category"] == "ConfigError" and error["exit_code"] == 6

    def test_zero_observation_rejected_before_the_fit(self, tmp_path, monkeypatch):
        import greymatch.cli as cli

        def no_search(*args, **kwargs):
            raise AssertionError("the exponent search ran on a rejected series")

        monkeypatch.setattr(cli, "gamma_line_search", no_search)
        path = tmp_path / "zero.csv"
        write_csv(path, range(1, 16), list(SEWAGE_VALUES[:7]) + [0.0] + list(SEWAGE_VALUES[8:]))
        out = tmp_path / "o6"
        assert main(["fit", str(path), "--model", "ingbm", "--gamma-search", "0,2,0.05",
                     "--out-dir", str(out)]) == 6
        assert "t=8" in json.loads((out / "fit.json").read_text())["error"]["message"]

    @pytest.mark.parametrize("model", ["ingm", "ingbm"])
    def test_gamma_and_gamma_search_write_one_spec(self, sewage_csv, tmp_path, model):
        search, single = tmp_path / "search", tmp_path / "single"
        assert main(["fit", sewage_csv, "--model", model, "--gamma-search", "0.5,0.6,0.1",
                     "--out-dir", str(search)]) == 0
        searched = json.loads((search / "fit.json").read_text())
        gamma = searched["gamma_search"]["gamma_star"]
        assert main(["fit", sewage_csv, "--model", model, "--gamma", repr(gamma),
                     "--out-dir", str(single)]) == 0
        fitted = json.loads((single / "fit.json").read_text())
        assert fitted["spec"] == searched["spec"]
        assert fitted["reduced"] == searched["reduced"]

    @pytest.mark.parametrize("method", ["grey", "matching"])
    @pytest.mark.parametrize("model", ["ingm", "ingbm"])
    def test_power_model_needs_gamma_exit_6(self, sewage_csv, tmp_path, model, method):
        assert main(["fit", sewage_csv, "--model", model, "--method", method,
                     "--out-dir", str(tmp_path / "o6")]) == 6


class TestForecastCommand:
    def test_round_trip(self, sewage_csv, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "ingbm", "--gamma-search",
                     "0.95,1.05,0.01", "--split", "11", "--out-dir", str(out)]) == 0
        fc_dir = tmp_path / "fc"
        assert main(["forecast", str(out / "fit.json"), "--horizon", "7",
                     "--out-dir", str(fc_dir)]) == 0
        lines = (fc_dir / "forecast.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 1 + 11 + 7
        last = float(lines[-1].split(",")[1])
        assert abs(last - 124.85) / 124.85 < 0.01

    def test_blow_up_exit_4_suppresses_output(self, tmp_path):
        # super-exponential input makes the fitted quadratic model diverge
        times = np.arange(1.0, 13.0)
        write_csv(tmp_path / "expl.csv", times, 0.05 * np.exp(0.9 * times))
        fit_dir = tmp_path / "fit"
        assert main(["fit", str(tmp_path / "expl.csv"), "--model", "poly:2",
                     "--out-dir", str(fit_dir)]) == 0
        fc_dir = tmp_path / "fc"
        assert main(["forecast", str(fit_dir / "fit.json"), "--horizon", "40",
                     "--out-dir", str(fc_dir)]) == 4
        assert not (fc_dir / "forecast.csv").exists()

    @pytest.mark.parametrize("horizon", ["1", "40"])
    def test_overflowing_time_grid_exit_6(self, sewage_csv, tmp_path, capsys, horizon):
        # one step of the grid overflows the substep count; 40 more stamps overflow the grid
        fit_dir = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "igvm", "--out-dir", str(fit_dir)]) == 0
        doc = json.loads((fit_dir / "fit.json").read_text())
        doc["times"][14] = 1e308
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        assert main(["forecast", str(path), "--horizon", horizon,
                     "--out-dir", str(tmp_path / "fc")]) == 6
        assert "overflows" in capsys.readouterr().err

    def test_huge_time_spacing_exit_6(self, sewage_csv, tmp_path, capsys):
        # a finite spacing of 1e300 asks for about 3e301 substeps per interval
        fit_dir = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "igvm", "--out-dir", str(fit_dir)]) == 0
        doc = json.loads((fit_dir / "fit.json").read_text())
        doc["times"][14] = 1e300
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        assert main(["forecast", str(path), "--horizon", "1",
                     "--out-dir", str(tmp_path / "fc")]) == 6
        assert "rescale the time axis" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["100000000000000000",
                                         "1000000000000000000000000000000"])
    def test_horizon_past_memory_exit_6(self, sewage_csv, tmp_path, capsys, horizon):
        # 0.8 EB of stamps, and a count past numpy's size limit: neither is allocated
        fit_dir = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "igvm", "--out-dir", str(fit_dir)]) == 0
        assert main(["forecast", str(fit_dir / "fit.json"), "--horizon", horizon,
                     "--out-dir", str(tmp_path / "fc")]) == 6
        assert f"{horizon} future stamps do not fit in memory" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension, named", [
        (10 ** 9, "'theta_L' must have shape (1000000000, 1000000000) under the spec"),
        (1, "basis dimension 1000000000 != spec dimension 1"),
    ], ids=["huge_dimension", "basis_of_another_dimension"])
    def test_huge_quadratic_basis_exit_2(self, sewage_csv, tmp_path, dimension, named):
        # the document's sizes are checked before a basis of a billion states
        # lists its pairs; a fresh interpreter under a memory cap runs it
        fit_dir = tmp_path / "fit"
        assert main(["fit", sewage_csv, "--model", "igvm", "--out-dir", str(fit_dir)]) == 0
        doc = json.loads((fit_dir / "fit.json").read_text())
        doc["spec"].update(basis={"kind": "quadratic", "d": 10 ** 9}, dimension=dimension)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        done = run_capped("forecast", str(path), "--horizon", "3",
                          "--out-dir", str(tmp_path / "fc"))
        assert done.returncode == 2, done.stderr
        assert f"malformed fit document: {named}" in done.stderr
        assert "Traceback" not in done.stderr

    def test_malformed_fit_json(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("{not json")
        assert main(["forecast", str(path), "--horizon", "1",
                     "--out-dir", str(tmp_path)]) == 2


class TestMcCommand:
    def scenario_file(self, tmp_path, **overrides):
        doc = dict(SCENARIO, **overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_runs_and_writes_outputs(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        out = tmp_path / "mc"
        assert main(["mc", scenario, "--out-dir", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "scenario_id,estimator,replication,name,value,status"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ("scenario_id,estimator,name,count,failures,"
                              "min,q1,median,q3,max,mean,stddev")

    def test_deterministic_across_workers(self, tmp_path, monkeypatch):
        scenario = self.scenario_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("GREYMATCH_MC_WORKERS", "1")
        assert main(["mc", scenario, "--out-dir", str(out1)]) == 0
        monkeypatch.setenv("GREYMATCH_MC_WORKERS", "2")
        assert main(["mc", scenario, "--out-dir", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_seed_changes_values_not_schema(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mc", self.scenario_file(tmp_path, seed=1),
                     "--out-dir", str(out1)]) == 0
        assert main(["mc", self.scenario_file(tmp_path, seed=2),
                     "--out-dir", str(out2)]) == 0
        r1 = (out1 / "report.csv").read_text().splitlines()
        r2 = (out2 / "report.csv").read_text().splitlines()
        assert len(r1) == len(r2)
        assert r1 != r2
        cols1 = [",".join(line.split(",")[:4]) for line in r1]
        cols2 = [",".join(line.split(",")[:4]) for line in r2]
        assert cols1 == cols2

    def test_bundled_scenario_with_override(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["mc", "verhulst-n-sweep", "--replications", "2",
                     "--out-dir", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        ids = {line.split(",")[0] for line in lines[1:]}
        assert ids == {"verhulst-n11", "verhulst-n21", "verhulst-n51", "verhulst-n101"}

    def test_replications_override_keeps_other_fields(self, tmp_path):
        scenario = self.scenario_file(tmp_path, model="lv", n=41, grey_initial="true",
                                      estimators=["grey_twostep"])
        (original,) = _load_scenarios(scenario, None)
        (overridden,) = _load_scenarios(scenario, 3)
        assert overridden.replications == 3

        def same(a, b):
            if is_dataclass(a):
                return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
            if isinstance(a, np.ndarray):
                return np.array_equal(a, b)
            return a == b

        for field in fields(ScenarioConfig):
            if field.name != "replications":
                assert same(getattr(original, field.name), getattr(overridden, field.name)), \
                    field.name

    def test_config_error_names_key(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path, extra_key=1)
        assert main(["mc", scenario, "--out-dir", str(tmp_path / "x")]) == 6
        assert "extra_key" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"model": "verhulst", "T": 2.0, "h": 0.1,
                                    "noise_level": 0.1, "seed": 1}))
        assert main(["mc", str(path), "--out-dir", str(tmp_path / "x")]) == 6
        assert "replications" in capsys.readouterr().err

    def test_lv_scenario_with_true_initials(self, tmp_path):
        doc = {"scenario_id": "lv-tiny", "model": "lv", "T": 5.0, "h": 0.05,
               "noise_level": 0.04, "replications": 2, "seed": 3,
               "grey_initial": "true"}
        path = tmp_path / "lv.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "lv-out"
        assert main(["mc", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        names = {line.split(",")[3] for line in lines[1:]}
        assert {"a1", "b1", "a2", "b2", "eta1", "eta2", "rmse"} <= names


class TestReproduceCommand:
    def test_table3(self, tmp_path):
        out = tmp_path / "t3"
        assert main(["reproduce", "--table", "3", "--out-dir", str(out)]) == 0
        lines = (out / "table3_comparison.csv").read_text().splitlines()
        assert lines[0].startswith("model,gamma_star,mape_train")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"igvm", "ingm", "ingbm"}
        # delta columns stay small for the sewage benchmark
        assert abs(float(rows["ingbm"][7])) < 0.5

    def test_forecasts(self, tmp_path):
        out = tmp_path / "fc"
        assert main(["reproduce", "--table", "forecasts", "--out-dir", str(out)]) == 0
        lines = (out / "forecast_comparison.csv").read_text().splitlines()
        assert lines[0] == "dataset,step,year,ours,reported,delta"
        assert len(lines) == 7
        for line in lines[1:]:
            dataset, step, year, ours, reported, delta = line.split(",")
            assert float(reported) == REPORTED_FORECASTS[dataset][int(step) - 1]
            assert float(delta) == float(ours) - float(reported)
            assert abs(float(delta)) / float(reported) < 0.01


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["fit", "forecast", "mc"])
    def test_undecodable_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe" + "t,x1\n1,2\n".encode("utf-16-le"))
        argv = {"fit": ["fit", str(path), "--model", "igvm"],
                "forecast": ["forecast", str(path), "--horizon", "1"],
                "mc": ["mc", str(path)]}[command]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, code, named", [
        ("forecast", 5, 2, "malformed fit document"),
        ("forecast", dict(FIT_DOC, diagnostics=5), 2, "malformed fit document"),
        ("forecast", dict(FIT_DOC, times=5), 2, "malformed fit document"),
        ("forecast", dict(FIT_DOC, times=["a", "b"]), 2, "malformed fit document"),
        ("forecast", dict(FIT_DOC, reduced=dict(FIT_DOC["reduced"], theta_N=[])), 2,
         "malformed fit document"),
        ("forecast", dict(FIT_DOC, reduced=dict(FIT_DOC["reduced"], theta_N=5)), 2,
         "malformed fit document"),
        ("forecast", dict(FIT_DOC, spec=DEGREE_5_SPEC), 2, "malformed fit document"),
        ("forecast", dict(GREY_FIT_DOC, grey=dict(GREY_FIT_DOC["grey"], theta_N=[])), 2,
         "malformed fit document"),
        ("forecast", dict(GREY_FIT_DOC, grey=dict(GREY_FIT_DOC["grey"], theta_N=5)), 2,
         "malformed fit document"),
        ("forecast", dict(GREY_FIT_DOC, spec=DEGREE_5_SPEC), 2, "malformed fit document"),
        ("mc", [5], 6, "[0]"),
        ("mc", dict(SCENARIO, truth=5), 6, "'truth'"),
        ("mc", dict(SCENARIO, estimators=5), 6, "'estimators'"),
        ("mc", dict(SCENARIO, estimators=[]), 6, "at least one estimator"),
        ("mc", dict(SCENARIO, n="x"), 6, "'n'"),
        ("mc", dict(SCENARIO, replications=2.9), 6, "'replications'"),
        ("mc", dict(SCENARIO, seed=7.5), 6, "'seed'"),
        ("mc", dict(SCENARIO, n=30.7), 6, "'n'"),
        ("mc", dict(SCENARIO, replications=True), 6, "'replications'"),
        ("mc", dict(SCENARIO, seed=False), 6, "'seed'"),
        ("mc", dict(SCENARIO, T=float("nan")), 6, "key 'T' must be finite"),
        ("mc", dict(SCENARIO, T="nan"), 6, "key 'T' must be finite"),
        ("mc", dict(SCENARIO, h=float("inf")), 6, "key 'h' must be finite"),
        ("mc", dict(SCENARIO, noise_level=float("nan")), 6, "key 'noise_level' must be finite"),
        ("mc", dict(SCENARIO, noise_level="inf"), 6, "key 'noise_level' must be finite"),
        ("mc", dict(SCENARIO, truth={"a": float("nan"), "b": -1.0, "eta": 0.4}), 6,
         "key 'a' must be finite"),
        ("mc", dict(SCENARIO, n=1e308), 6, "n overflows the sample count"),
        ("mc", dict(SCENARIO, T=1e308), 6, "T / h overflows the sample count"),
        ("mc", dict(SCENARIO, T=1e12, h=0.001), 6, "samples do not fit in memory"),
        # past numpy's size limit, which it refuses by ValueError, not MemoryError
        ("mc", dict(SCENARIO, n=2e18), 6, "2000000000000000000 samples do not fit in memory"),
        ("mc", {"model": "verhulst", "T": 4.0, "h": 0.04, "noise_level": 0.1, "replications": 3,
                "seed": 1, "truth": {"a": 1.2, "b": 3.0, "eta": 2.0}}, 6,
         "the true model blows up on the requested grid"),
        ("mc", dict(SCENARIO, T=True), 6, "key 'T' must be a number"),
        # finite, but the noise of a series whose variance exceeds 1.8 overflows
        ("mc", dict(SCENARIO, noise_level=1e308, truth={"a": 1.2, "b": -0.01, "eta": 4.0}), 6,
         "noise_level 1e+308"),
        ("mc", dict(SCENARIO, noise_level=1e308, model="lv"), 6, "noise_level 1e+308"),
        ("forecast", dict(FIT_DOC, spec=dict(DEGREE_5_SPEC, basis={"kind": "polynomial",
                                                                   "max_degree": 3.7}),
                          reduced=dict(FIT_DOC["reduced"], theta_N=[[-0.5, 0.0]])), 2,
         "malformed fit document: key 'spec.basis': key 'max_degree'"),
        ("forecast", dict(FIT_DOC, spec=dict(FIT_DOC["spec"], dimension=1.9)), 2,
         "malformed fit document: key 'spec': key 'dimension'"),
        ("forecast", dict(FIT_DOC, spec=dict(FIT_DOC["spec"], include_constant="no")), 2,
         "malformed fit document: key 'spec': key 'include_constant'"),
        ("forecast", dict(FIT_DOC, method_tag="integral_matching_v2"), 2,
         "malformed fit document: key 'method_tag'"),
        ("forecast", dict(FIT_DOC, spec=dict(FIT_DOC["spec"], basis={"kind": "power",
                                                                    "gamma": float("nan")})),
         2, "malformed fit document: key 'spec.basis': key 'gamma'"),
    ], ids=["fit_number", "diagnostics_number", "times_number", "times_strings",
            "reduced_theta_N_empty", "reduced_theta_N_scalar", "reduced_spec_degree_5",
            "grey_theta_N_empty", "grey_theta_N_scalar", "grey_spec_degree_5",
            "scenario_list_of_number", "truth_number", "estimators_number",
            "estimators_empty", "n_string",
            "replications_fraction", "seed_fraction", "n_fraction", "replications_bool",
            "seed_bool", "T_nan", "T_nan_string", "h_inf", "noise_level_nan",
            "noise_level_inf_string", "truth_nan", "n_overflows", "T_overflows",
            "samples_beyond_memory", "samples_beyond_array_size", "truth_blows_up", "T_bool",
            "noise_overflows", "lv_noise_overflows", "max_degree_fraction", "dimension_fraction",
            "include_constant_string", "method_tag_unknown", "gamma_nan"])
    def test_json_of_the_wrong_shape(self, tmp_path, capsys, command, doc, code, named):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--horizon", "1"] if command == "forecast" else [])
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == code
        assert named in capsys.readouterr().err

    def test_well_formed_counterparts_are_accepted(self, tmp_path):
        # the shapes above differ from these in one key only
        for i, doc in enumerate((FIT_DOC, GREY_FIT_DOC)):
            fit_path = tmp_path / f"fit{i}.json"
            fit_path.write_text(json.dumps(doc))
            assert main(["forecast", str(fit_path), "--horizon", "1",
                         "--out-dir", str(tmp_path / f"forecast{i}")]) == 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(SCENARIO, replications=3.0, seed=7.0, n=21.0)))
        (scenario,) = _load_scenarios(str(path), None)
        assert (scenario.replications, scenario.seed, scenario.n) == (3, 7, 21)
        assert type(scenario.replications) is int


#: ``fit`` flags of the real documents the forecast fuzzer edits, all on the sewage series
FUZZ_FITS = {"matching": ["--model", "igvm"],
             "grey": ["--model", "igvm", "--method", "grey"],
             "ingbm": ["--model", "ingbm", "--gamma", "0.63"]}
DELETE = "<delete the key>"
FUZZ_VALUES = (5, -1, 0, 1.5, "x", None, [], {}, [1.0], [[1.0]], True, 1e308, [[]], DELETE)


@functools.lru_cache(maxsize=None)
def fuzz_documents():
    """The fit.json of each ``FUZZ_FITS`` fit, made once; callers copy before editing."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "sewage.csv"
        write_csv(csv, range(1, 16), SEWAGE_VALUES)
        docs = {}
        for kind, flags in FUZZ_FITS.items():
            assert main(["fit", str(csv), *flags, "--out-dir", str(Path(tmp) / kind)]) == 0
            docs[kind] = json.loads((Path(tmp) / kind / "fit.json").read_text())
    return docs


def key_paths(node, prefix=()):
    """The path of every object key and list place in a JSON document."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


FUZZ_CASES = st.sampled_from(sorted(FUZZ_FITS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(list(key_paths(fuzz_documents()[kind])))))


class TestForecastFuzz:
    @settings(max_examples=120)
    @example(case=("matching", ("times", -1)), value=1e308)
    @example(case=("grey", ("times", -1)), value=1e308)
    @example(case=("ingbm", ("times", -1)), value=1e308)
    @given(case=FUZZ_CASES, value=st.sampled_from(FUZZ_VALUES))
    def test_every_one_key_edit_exits_with_a_code(self, case, value):
        kind, path = case
        doc = copy.deepcopy(fuzz_documents()[kind])
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value == DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp, count_row_calls() as calls:
            fit_path = Path(tmp) / "fit.json"
            fit_path.write_text(json.dumps(doc))
            code = main(["forecast", str(fit_path), "--horizon", "1", "--out-dir", tmp])
        assert code in (0, 2, 3, 4, 5, 6)
        # a forecast is one fit, which runs on floats
        assert calls or code != 0


class TestScenarioFuzz:
    @pytest.mark.parametrize("value", FUZZ_VALUES + (float("nan"), float("inf"), float("-inf")),
                             ids=repr)
    @pytest.mark.parametrize("key", sorted(SCENARIO))
    def test_every_one_key_edit_exits_with_a_code(self, tmp_path, key, value):
        doc = dict(SCENARIO)
        if value == DELETE:
            del doc[key]
        else:
            doc[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["mc", str(path), "--replications", "2", "--out-dir", str(tmp_path / "out")])
        assert code in (0, 2, 3, 4, 5, 6)
