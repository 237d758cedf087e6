"""Command-line surface: CSV fitting, forecasting, Monte Carlo batches,
and reproduction of the bundled yearly benchmarks.

Exit codes: 0 ok, 2 parse error, 3 singular design, 4 trajectory blow-up,
5 domain error, 6 configuration error; each error type names its own.
Every command writes a ``run_manifest.json`` next to its outputs recording
the resolved configuration, input digest, and tool version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    FitResult,
    GREY_FORM,
    GreyModelError,
    METHOD_GREY_TWOSTEP,
    METHOD_INTEGRAL_MATCHING,
    METHOD_INTEGRAL_MATCHING_POWER,
    ModelSpec,
    ParameterSet,
    PolynomialUnivariate,
    PowerUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    TimeSeries,
    grey_to_reduced,
    lotka_volterra_spec,
    polynomial_spec,
    reduced_to_grey,
    verhulst_spec,
)
from .datasets import (
    REPORTED_FORECASTS,
    REPORTED_INGBM_PARAMETERS,
    REPORTED_MAPE,
    reproduce_benchmark,
)
from .files import write_csv, write_json
from .grey_twostep import GreyFitConfig, INITIAL_STRATEGIES, fit_grey
from .integral_matching import (
    FAMILY_INGBM,
    FAMILY_INGM,
    fit_matching,
    gamma_line_search,
    power_family_spec,
    transform_parameters,
)
from .metrics import evaluation_report, train_test_split
from .ode import forecast_fit
from .simulate import (
    BUNDLED_SCENARIOS,
    KNOWN_ESTIMATORS,
    ScenarioConfig,
    lotka_volterra_truth,
    run_monte_carlo,
    summarize,
    verhulst_truth,
    write_report_csv,
    write_summary_csv,
)

WORKERS_ENV = "GREYMATCH_MC_WORKERS"

FIT_SCHEMA_VERSION = 1
#: the method tags a fit document may carry
METHOD_TAGS = (METHOD_GREY_TWOSTEP, METHOD_INTEGRAL_MATCHING, METHOD_INTEGRAL_MATCHING_POWER)

#: the types a key of a JSON input is read as, by the name its error gives them
KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}

#: each basis kind of a fit document: its class, and the field that sizes it with its type
BASIS_KINDS = {"polynomial": (PolynomialUnivariate, "max_degree", int),
               "power": (PowerUnivariate, "gamma", float),
               "quadratic": (QuadraticMultivariate, "d", int)}

#: each scenario model's truth constructor and the keys of its optional truth object
TRUTHS = {"verhulst": (verhulst_truth, ("a", "b", "eta")),
          "lv": (lotka_volterra_truth, ("a1", "b1", "a2", "b2", "eta1", "eta2"))}


class ParseError(GreyModelError):
    """Malformed input file (CSV, JSON)."""

    status, exit_code = "error", 2


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def read_timeseries_csv(path) -> TimeSeries:
    """Read a `t,x1[,x2,...]` CSV into a TimeSeries; missing values are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in lines[0].split(",")]
    if not header or header[0] != "t" or len(header) < 2:
        raise ParseError(f"{path}: header must be t,x1[,x2,...], got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        if any(f == "" for f in fields):
            raise ParseError(f"{path}:{lineno}: missing value")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    data = np.array(rows)
    try:
        return TimeSeries(data[:, 0], data[:, 1:])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_json(path):
    """Load a UTF-8 JSON file; an unreadable or malformed file is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _require_key(doc: dict, key: str, kind, context: str):
    """``doc[key]`` read as ``kind``; a ConfigError names the key of a bad value.

    A bool must be a JSON boolean, a float a finite number, and an int an
    integral one; int() would truncate 2.9, int() and float() read true as 1,
    and bool() reads "no" as true.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} is invalid: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ConfigError(f"{context}: missing key {key!r}")
    value = doc[key]
    boolean = isinstance(value, bool)
    integral = not boolean and (isinstance(value, int)
                                or isinstance(value, float) and value.is_integer())
    if kind is bool and not boolean or kind is float and boolean or kind is int and not integral:
        raise ConfigError(f"{context}: key {key!r} must be {KIND_NAMES[kind]}, got {value!r}")
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: key {key!r} is invalid: {exc}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{context}: key {key!r} must be finite, got {value!r}")
    return value


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict,
                   input_path: Optional[str], outputs: List[str],
                   started: float) -> None:
    manifest = {
        "schema_version": 1,
        "tool": "greymatch",
        "version": __version__,
        "command": command,
        "config": config,
        "input": None if input_path is None else {
            "path": str(input_path), "sha256": _sha256(input_path),
        },
        "outputs": outputs,
        "numpy": {"version": np.__version__,    # outputs repeat per build and CPU dispatch
                  "simd": np.show_config(mode="dicts")["SIMD Extensions"]},
        "wall_clock_seconds": round(time.monotonic() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out_dir / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# Model / parameter (de)serialization
# ---------------------------------------------------------------------------

def _spec_to_json(spec: ModelSpec) -> dict:
    basis = {"kind": "none"}
    if spec.basis is not None:
        kind = next(kind for kind, (cls, _, _) in BASIS_KINDS.items() if type(spec.basis) is cls)
        field = BASIS_KINDS[kind][1]
        basis = {"kind": kind, field: getattr(spec.basis, field)}
    return {
        "dimension": spec.dimension,
        "basis": basis,
        "include_constant": spec.include_constant,
        "include_linear": spec.include_linear,
        "theta_L_mask": None if spec.theta_L_mask is None
        else [list(row) for row in spec.theta_L_mask],
        "theta_N_mask": None if spec.theta_N_mask is None
        else [list(row) for row in spec.theta_N_mask],
    }


def _spec_from_json(doc: dict) -> ModelSpec:
    dimension = _require_key(doc, "dimension", int, "key 'spec'")
    kind = doc["basis"]["kind"]
    if kind == "none":
        basis = None
    elif kind in BASIS_KINDS:
        cls, field, field_type = BASIS_KINDS[kind]
        size = _require_key(doc["basis"], field, field_type, "key 'spec.basis'")
        # a quadratic basis lists its d(d+1)/2 pairs when built: ModelSpec's check comes first
        if cls is QuadraticMultivariate and size != dimension:
            raise ValueError(f"basis dimension {size} != spec dimension {dimension}")
        basis = cls(size)
    else:
        raise ParseError(f"unknown basis kind {kind!r}")
    return ModelSpec(dimension, basis,
                     _require_key(doc, "include_constant", bool, "key 'spec'"),
                     _require_key(doc, "include_linear", bool, "key 'spec'"),
                     doc.get("theta_L_mask"), doc.get("theta_N_mask"))


def grey_parameter_dict(params: ParameterSet, spec: ModelSpec) -> dict:
    """Flat grey-form parameter names: a, b_m, beta, eta_i (indexed when d > 1)."""
    d = spec.dimension
    # the row index is left out of every name but eta's when d = 1
    row = [""] if d == 1 else [f"_{i + 1}" for i in range(d)]
    out = {f"a{row[i]}{row[j]}": float(params.theta_L[i, j]) for i, j in np.ndindex(d, d)}
    out.update((f"b{row[i]}_{m + 1}", float(params.theta_N[i, m]))
               for i, m in np.ndindex(d, params.p))
    if params.beta is not None:
        out.update((f"beta{row[i]}", float(params.beta[i])) for i in range(d))
    out.update((f"eta_{i + 1}", float(params.eta[i])) for i in range(d))
    return out


def fit_to_json(fit: FitResult, method: str, split: Optional[int],
                diagnostics: dict, gamma_search: Optional[dict]) -> dict:
    if fit.params.form == GREY_FORM:
        grey = fit.params
        reduced = grey_to_reduced(grey, fit.spec)
    else:
        reduced = fit.params
        grey = reduced_to_grey(reduced, fit.spec)
    doc = {
        "schema_version": FIT_SCHEMA_VERSION,
        "method": method,
        "method_tag": fit.method,
        "spec": _spec_to_json(fit.spec),
        "times": [float(t) for t in fit.times],
        "split": split,
        "parameters": grey_parameter_dict(grey, fit.spec),
        "grey": {
            "theta_L": grey.theta_L.tolist(),
            "theta_N": grey.theta_N.tolist(),
            "beta": None if grey.beta is None else grey.beta.tolist(),
            "eta": grey.eta.tolist(),
        },
        "reduced": {
            "theta_L": reduced.theta_L.tolist(),
            "theta_N": reduced.theta_N.tolist(),
            "eta": reduced.eta.tolist(),
            "eta_x": None if reduced.eta_x is None else reduced.eta_x.tolist(),
        },
        "diagnostics": diagnostics,
    }
    if gamma_search is not None:
        doc["gamma_search"] = gamma_search
    if fit.method == METHOD_INTEGRAL_MATCHING:
        pi = transform_parameters(fit.params, fit.spec)
        doc["transformed"] = {
            "vartheta_L": pi.vartheta_L.tolist(),
            "vartheta_N": pi.vartheta_N.tolist(),
            "intercept": pi.intercept.tolist(),
        }
    return doc


def _fit_from_json(doc: dict):
    times = np.array(doc["times"], dtype=float)
    if times.ndim != 1 or times.size < 2 or not np.all(np.diff(times) > 0):
        raise ValueError("'times' must be a list of at least two increasing numbers")
    if not isinstance(doc["diagnostics"], dict):
        raise TypeError("'diagnostics' must be an object")
    if doc["method_tag"] not in METHOD_TAGS:
        raise ValueError(f"key 'method_tag' must be one of {', '.join(METHOD_TAGS)}, "
                         f"got {doc['method_tag']!r}")
    grey = doc["method_tag"] == METHOD_GREY_TWOSTEP
    block = doc["grey" if grey else "reduced"]
    offset = "beta" if grey else "eta_x"

    def check_shapes(*shapes):
        # ParameterSet broadcasts a scalar and knows nothing of the spec's basis size
        for name, shape in shapes:
            if np.shape(block[name]) != shape and not (name == offset and block[name] is None):
                raise ValueError(f"'{name}' must have shape {shape} under the spec, "
                                 f"got {np.shape(block[name])}")

    # the declared dimension is checked against the arrays before a basis of it is built
    d = _require_key(doc["spec"], "dimension", int, "key 'spec'")
    check_shapes(("theta_L", (d, d)), ("eta", (d,)), (offset, (d,)))
    spec = _spec_from_json(doc["spec"])
    check_shapes(("theta_N", (d, spec.p)))
    params = ParameterSet(block["theta_L"], block["theta_N"], block["eta"],
                          form=GREY_FORM if grey else REDUCED_FORM, **{offset: block[offset]})
    return FitResult(spec, params, doc["method_tag"], np.zeros((times.size - 1, d)),
                     float(doc["diagnostics"].get("condition", 0.0)), times)


# ---------------------------------------------------------------------------
# fit command
# ---------------------------------------------------------------------------

def _resolve_spec(model: str, gamma: Optional[float]) -> ModelSpec:
    if model == "igvm":
        return verhulst_spec()
    if model == "lv":
        return lotka_volterra_spec()
    if model.startswith("poly:"):
        try:
            degree = int(model.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad polynomial degree in --model {model!r}") from exc
        if degree < 2:
            raise ConfigError(f"--model {model!r} needs a degree of at least 2")
        return polynomial_spec(degree)
    if model in (FAMILY_INGM, FAMILY_INGBM):
        if not math.isfinite(gamma):
            raise ConfigError(f"--gamma must be a finite number, got {gamma}")
        return power_family_spec(model, gamma)
    raise ConfigError(f"unknown model {model!r}")


def _validate_fit_flags(args) -> None:
    power_model = args.model in ("ingm", "ingbm")
    if (args.gamma is not None or args.gamma_search is not None) and not power_model:
        raise ConfigError("--gamma/--gamma-search apply to the ingm and ingbm models only")
    if args.gamma is not None and args.gamma_search is not None:
        raise ConfigError("give either --gamma or --gamma-search, not both")
    if power_model and args.gamma is None and args.gamma_search is None:
        raise ConfigError(f"--model {args.model} needs --gamma or --gamma-search")
    if args.init_strategy is not None and args.method != "grey":
        raise ConfigError("--init-strategy applies to --method grey only")
    if args.lam is not None and args.method != "grey":
        raise ConfigError("--lambda applies to --method grey only")
    if args.gamma_search is not None and args.method == "grey":
        raise ConfigError("--gamma-search is defined for --method matching only")


def _parse_gamma_search(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--gamma-search expects a,b,step")
    try:
        lo, hi, step = (float(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"--gamma-search expects numbers: {exc}") from exc
    return lo, hi, step


def cmd_fit(args, out_dir: Path):
    _validate_fit_flags(args)
    ts = read_timeseries_csv(args.input)
    split = args.split
    if split is not None and not 1 < split < ts.n:
        raise ConfigError(f"--split must lie strictly between 1 and {ts.n}")
    train = ts if split is None else train_test_split(ts, split)[0]
    gamma_search_doc = None
    forecast = None
    zero_times = ts.times[np.any(ts.values == 0.0, axis=1)]
    zero_error = None if zero_times.size == 0 else ConfigError(
        f"observation at t={zero_times[0]:g} is zero; "
        "the percentage errors of the report are undefined there")
    try:
        # rejected before the fit, except an all-zero series: the fit rejects
        # that one itself (a singular design) and keeps its error and exit code
        if zero_error is not None and np.any(ts.values != 0.0):
            raise zero_error
        if args.method == "grey":
            spec = _resolve_spec(args.model, args.gamma)
            grey_config = GreyFitConfig(
                background_coefficient=(GreyFitConfig.background_coefficient
                                        if args.lam is None else args.lam),
                initial_value_strategy=args.init_strategy or "fix_first",
            )
            fit = fit_grey(train, spec, grey_config)
        elif args.gamma_search is not None:
            lo, hi, step = _parse_gamma_search(args.gamma_search)
            gamma_star, fit, forecast = gamma_line_search(ts, args.model, (lo, hi), step,
                                                          split=split)
            gamma_search_doc = {"range": [lo, hi], "step": step, "gamma_star": gamma_star}
        else:
            spec = _resolve_spec(args.model, args.gamma)
            fit = fit_matching(train, spec)
        if zero_error is not None:
            raise zero_error
        if forecast is None:
            horizon = 0 if split is None else ts.n - split
            future = None if split is None else ts.times[split:]
            forecast = forecast_fit(fit, horizon, future_times=future)
    except GreyModelError as exc:
        write_json(out_dir / "fit.json", {
            "schema_version": FIT_SCHEMA_VERSION,
            "error": {"category": type(exc).__name__, "exit_code": exc.exit_code,
                      "message": str(exc)},
        })
        raise

    predicted = forecast.fitted_and_forecast
    report = evaluation_report(ts, predicted, split)
    diagnostics = {
        "condition": fit.condition_estimate,
        "rmse_train": report.rmse,
        "mape_train": report.mape_train,
        "mape_test": report.mape_test,
        "n": ts.n,
        "n_train": report.n_train,
    }
    fit_path, report_path = out_dir / "fit.json", out_dir / "report.csv"
    write_json(fit_path, fit_to_json(fit, args.method, split, diagnostics, gamma_search_doc))
    # per sample: t, then actual, fitted and ape of each component, then the segment
    cells = np.stack([ts.values, predicted, report.ape_values], axis=2).reshape(ts.n, -1)
    write_csv(report_path,
              ["t"] + [f"{name}_x{i}" for i in range(1, ts.d + 1)
                       for name in ("actual", "fitted", "ape")] + ["segment"],
              ([t, *row, "train" if split is None or k < split else "test"]
               for k, (t, row) in enumerate(zip(ts.times, cells))))
    print(f"wrote {fit_path} and {report_path}")
    print(f"MAPE_train = {report.mape_train:.4f}%"
          + (f", MAPE_test = {report.mape_test:.4f}%" if report.mape_test is not None else ""))
    config = {k: getattr(args, k) for k in
              ("model", "method", "gamma", "gamma_search", "split", "lam", "init_strategy")}
    return config, args.input, [fit_path.name, report_path.name]


# ---------------------------------------------------------------------------
# forecast command
# ---------------------------------------------------------------------------

def cmd_forecast(args, out_dir: Path):
    doc = _read_json(args.fit)
    if isinstance(doc, dict) and "error" in doc:
        raise ConfigError(f"{args.fit} records a failed fit; nothing to forecast")
    try:
        fit = _fit_from_json(doc)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ParseError(f"{args.fit}: malformed fit document: {exc}") from exc

    forecast = forecast_fit(fit, args.horizon)
    path = out_dir / "forecast.csv"
    write_csv(path, ["t"] + [f"x{i}" for i in range(1, fit.spec.dimension + 1)],
              ([t, *row] for t, row in zip(forecast.times, forecast.fitted_and_forecast)))
    print(f"wrote {path}")
    return {"fit": args.fit, "horizon": args.horizon}, args.fit, [path.name]


# ---------------------------------------------------------------------------
# mc command
# ---------------------------------------------------------------------------

def _scenario_from_json(doc: dict, context: str) -> ScenarioConfig:
    known = {"scenario_id", "model", "T", "h", "n", "noise_level", "replications",
             "seed", "estimators", "grey_initial", "truth"}
    model = _require_key(doc, "model", str, context)
    for key in doc:
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")
    if model not in TRUTHS:
        raise ConfigError(f"{context}: key 'model' must be 'verhulst' or 'lv', got {model!r}")
    make_truth, names = TRUTHS[model]
    # an optional truth object overrides every default of the model's truth
    values = ({name: _require_key(doc["truth"], name, float, f"{context}: key 'truth'")
               for name in names} if "truth" in doc else {})
    spec, truth = make_truth(**values)
    estimators = (_require_key(doc, "estimators", tuple, context)
                  if "estimators" in doc else KNOWN_ESTIMATORS)
    grey_initial = doc.get("grey_initial", "first_point")
    if grey_initial not in ("first_point", "true"):
        raise ConfigError(f"{context}: key 'grey_initial' must be 'first_point' or 'true'")
    kinds = {"T": float, "h": float, "n": int, "noise_level": float, "replications": int,
             "seed": int}
    numbers = {key: _require_key(doc, key, kind, context) for key, kind in kinds.items()
               if key != "n" or doc.get("n") is not None}
    try:
        return ScenarioConfig(scenario_id=str(doc.get("scenario_id", model)), spec=spec,
                              truth=truth, estimators=estimators,
                              grey_initial_values=truth.eta if grey_initial == "true" else None,
                              **numbers)
    except GreyModelError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _load_scenarios(source: str, replications: Optional[int]) -> List[ScenarioConfig]:
    if source in BUNDLED_SCENARIOS:
        scenarios = BUNDLED_SCENARIOS[source]()
    else:
        doc = _read_json(source)
        if isinstance(doc, dict):
            doc = [doc]
        if not isinstance(doc, list):
            raise ConfigError(f"{source}: expected an object or a list of objects")
        scenarios = [_scenario_from_json(entry, f"{source}[{i}]")
                     for i, entry in enumerate(doc)]
    if replications is not None:
        scenarios = [replace(s, replications=replications) for s in scenarios]
    return scenarios


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1")
    return workers


def cmd_mc(args, out_dir: Path):
    scenarios = _load_scenarios(args.scenario, args.replications)
    workers = _worker_count()
    reports = []
    summary_rows = []
    for scenario in scenarios:
        report = run_monte_carlo(scenario, workers=workers)
        reports.append(report)
        summary_rows.extend(summarize(report))
        print(f"scenario {scenario.scenario_id}: {scenario.replications} replications done")
    report_path = out_dir / "report.csv"
    summary_path = out_dir / "summary.csv"
    write_report_csv(reports, report_path)
    write_summary_csv(summary_rows, summary_path)
    print(f"wrote {report_path} and {summary_path}")
    return ({"scenario": args.scenario, "replications": args.replications, "workers": workers},
            args.scenario if args.scenario not in BUNDLED_SCENARIOS else None,
            [report_path.name, summary_path.name])


# ---------------------------------------------------------------------------
# reproduce command
# ---------------------------------------------------------------------------

def _write_comparison(path, dataset: str, models) -> None:
    """Write and print each model's MAPEs beside the reported ones."""
    print(f"{dataset}: model    gamma*   MAPE_train (ours/reported)   MAPE_test (ours/reported)")
    rows = []
    for model, (gamma_star, _, _, report) in models.items():
        mtrain, mtest = report.mape_train, report.mape_test
        ref_train, ref_test = REPORTED_MAPE[dataset][model]
        rows.append([model, "" if gamma_star is None else round(gamma_star, 10),
                     mtrain, ref_train, mtrain - ref_train, mtest, ref_test, mtest - ref_test])
        gtxt = "   -" if gamma_star is None else f"{gamma_star:4.2f}"
        print(f"  {model:6s} {gtxt}     {mtrain:5.2f} / {ref_train:5.2f}  "
              f"(d={mtrain - ref_train:+.2f})      {mtest:5.2f} / {ref_test:5.2f}  "
              f"(d={mtest - ref_test:+.2f})")
    write_csv(path, ("model", "gamma_star", "mape_train", "mape_train_reported", "delta_train",
                     "mape_test", "mape_test_reported", "delta_test"), rows)


def cmd_reproduce(args, out_dir: Path):
    if args.table in ("3", "4"):
        dataset = "sewage" if args.table == "3" else "water"
        models, _ = reproduce_benchmark(dataset)
        path = out_dir / f"table{args.table}_comparison.csv"
        _write_comparison(path, dataset, models)
        _, best, _, _ = models[FAMILY_INGBM]
        reported = REPORTED_INGBM_PARAMETERS[dataset]
        print(f"  ingbm parameters (ours vs reported): "
              f"a={best.params.theta_L[0, 0]:.4f}/{reported['a']}, "
              f"b={best.params.theta_N[0, 0]:.4f}/{reported['b']}, "
              f"gamma={best.spec.basis.gamma:.2f}/{reported['gamma']}, "
              f"eta={best.params.eta[0]:.2f}/{reported['eta']}")
    else:
        path = out_dir / "forecast_comparison.csv"
        rows = []
        for dataset in ("sewage", "water"):
            _, projection = reproduce_benchmark(dataset)
            ours = projection.fitted_and_forecast[-3:, 0]
            reported = REPORTED_FORECASTS[dataset]
            print(f"{dataset}: 2019-2021 forecast "
                  f"ours={np.round(ours, 2).tolist()} reported={list(reported)}")
            rows += [(dataset, step, 2018 + step, value, ref, value - ref)
                     for step, (value, ref) in enumerate(zip(ours, reported), start=1)]
        write_csv(path, ("dataset", "step", "year", "ours", "reported", "delta"), rows)
    return {"table": args.table}, None, [path.name]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greymatch",
        description="Nonlinear grey system modelling: two-step and integral-matching "
                    "estimators, Monte Carlo benchmarks, and bundled yearly reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a t,x1[,x2,...] CSV")
    fit.add_argument("input", help="input CSV path")
    fit.add_argument("--model", required=True,
                     help="igvm | ingm | ingbm | poly:P | lv")
    fit.add_argument("--method", choices=("grey", "matching"), default="matching")
    fit.add_argument("--gamma", type=float, default=None,
                     help="fixed power exponent (ingm/ingbm)")
    fit.add_argument("--gamma-search", default=None, metavar="A,B,STEP",
                     help="grid-search the power exponent (matching only)")
    fit.add_argument("--split", type=int, default=None,
                     help="train on the first SPLIT samples, test on the rest")
    fit.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="background coefficient of the two-step design (--method grey; "
                          "default 0.5)")
    fit.add_argument("--init-strategy", choices=INITIAL_STRATEGIES, default=None,
                     help="initial-value strategy of the two-step pipeline")
    fit.add_argument("--out-dir", default=".")
    fit.set_defaults(func=cmd_fit)

    forecast = sub.add_parser("forecast", help="forecast from a fit.json")
    forecast.add_argument("fit", help="fit.json produced by the fit command")
    forecast.add_argument("--horizon", type=int, required=True)
    forecast.add_argument("--out-dir", default=".")
    forecast.set_defaults(func=cmd_forecast)

    mc = sub.add_parser("mc", help="run a Monte Carlo scenario file or bundled sweep")
    mc.add_argument("scenario",
                    help="scenario JSON path or one of: " + ", ".join(sorted(BUNDLED_SCENARIOS)))
    mc.add_argument("--replications", type=int, default=None,
                    help="override the replication count of every scenario")
    mc.add_argument("--out-dir", default=".")
    mc.set_defaults(func=cmd_mc)

    reproduce = sub.add_parser("reproduce",
                               help="refit the bundled yearly datasets and compare "
                                    "against the reported results")
    reproduce.add_argument("--table", choices=("3", "4", "forecasts"), required=True,
                           help="3 = sewage discharge, 4 = water use, "
                                "forecasts = 2019-2021 projections")
    reproduce.add_argument("--out-dir", default=".")
    reproduce.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run one command: its outputs and manifest go to ``--out-dir``; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        config, input_path, outputs = args.func(args, out_dir)
        write_manifest(out_dir, args.command, config, input_path, outputs, started)
    except GreyModelError as exc:
        print(f"greymatch: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
