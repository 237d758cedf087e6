"""Command-line surface: CSV fitting, forecasting, Monte Carlo batches,
and reproduction of the bundled yearly benchmarks.

Exit codes: 0 ok, 2 parse error, 3 singular design, 4 trajectory blow-up,
5 domain error, 6 configuration error.  Every command writes a
``run_manifest.json`` next to its outputs recording the resolved
configuration, input digest, and tool version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    BlowUpError,
    ConfigError,
    DomainError,
    FitResult,
    GREY_FORM,
    GreyModelError,
    METHOD_GREY_TWOSTEP,
    ModelSpec,
    ParameterSet,
    PolynomialUnivariate,
    PowerUnivariate,
    QuadraticMultivariate,
    REDUCED_FORM,
    SingularDesignError,
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

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_BLOWUP = 4
EXIT_DOMAIN = 5
EXIT_CONFIG = 6

WORKERS_ENV = "GREYMATCH_MC_WORKERS"

FIT_SCHEMA_VERSION = 1

#: each scenario model's truth constructor and the keys of its optional truth object
TRUTHS = {"verhulst": (verhulst_truth, ("a", "b", "eta")),
          "lv": (lotka_volterra_truth, ("a1", "b1", "a2", "b2", "eta1", "eta2"))}


class ParseError(GreyModelError):
    """Malformed input file (CSV, JSON)."""


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
        "wall_clock_seconds": round(time.monotonic() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "run_manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Model / parameter (de)serialization
# ---------------------------------------------------------------------------

def _spec_to_json(spec: ModelSpec) -> dict:
    basis = spec.basis
    if basis is None:
        kind = {"kind": "none"}
    elif isinstance(basis, PolynomialUnivariate):
        kind = {"kind": "polynomial", "max_degree": basis.max_degree}
    elif isinstance(basis, PowerUnivariate):
        kind = {"kind": "power", "gamma": basis.gamma}
    elif isinstance(basis, QuadraticMultivariate):
        kind = {"kind": "quadratic", "d": basis.d}
    else:
        raise ConfigError(f"cannot serialize basis {basis!r}")
    return {
        "dimension": spec.dimension,
        "basis": kind,
        "include_constant": spec.include_constant,
        "include_linear": spec.include_linear,
        "theta_L_mask": None if spec.theta_L_mask is None
        else [list(row) for row in spec.theta_L_mask],
        "theta_N_mask": None if spec.theta_N_mask is None
        else [list(row) for row in spec.theta_N_mask],
    }


def _spec_from_json(doc: dict) -> ModelSpec:
    kind = doc["basis"]["kind"]
    if kind == "none":
        basis = None
    elif kind == "polynomial":
        basis = PolynomialUnivariate(int(doc["basis"]["max_degree"]))
    elif kind == "power":
        basis = PowerUnivariate(float(doc["basis"]["gamma"]))
    elif kind == "quadratic":
        basis = QuadraticMultivariate(int(doc["basis"]["d"]))
    else:
        raise ParseError(f"unknown basis kind {kind!r}")
    return ModelSpec(int(doc["dimension"]), basis,
                     bool(doc["include_constant"]), bool(doc["include_linear"]),
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
    if fit.method != METHOD_GREY_TWOSTEP and fit.params.form == REDUCED_FORM \
            and not isinstance(fit.spec.basis, PowerUnivariate):
        pi = transform_parameters(fit.params, fit.spec)
        doc["transformed"] = {
            "vartheta_L": pi.vartheta_L.tolist(),
            "vartheta_N": pi.vartheta_N.tolist(),
            "intercept": pi.intercept.tolist(),
        }
    return doc


def _fit_from_json(doc: dict):
    spec = _spec_from_json(doc["spec"])
    times = np.array(doc["times"], dtype=float)
    if times.ndim != 1 or times.size < 2 or not np.all(np.diff(times) > 0):
        raise ValueError("'times' must be a list of at least two increasing numbers")
    if not isinstance(doc["diagnostics"], dict):
        raise TypeError("'diagnostics' must be an object")
    grey = doc["method_tag"] == METHOD_GREY_TWOSTEP
    block = doc["grey" if grey else "reduced"]
    offset = "beta" if grey else "eta_x"
    d = spec.dimension
    # ParameterSet broadcasts a scalar and knows nothing of the spec's basis size
    for name, shape in (("theta_L", (d, d)), ("theta_N", (d, spec.p)), ("eta", (d,)),
                        (offset, (d,))):
        if np.shape(block[name]) != shape and not (name == offset and block[name] is None):
            raise ValueError(f"'{name}' must have shape {shape} under the spec, "
                             f"got {np.shape(block[name])}")
    params = ParameterSet(block["theta_L"], block["theta_N"], block["eta"],
                          form=GREY_FORM if grey else REDUCED_FORM, **{offset: block[offset]})
    n = times.size
    return FitResult(spec, params, doc["method_tag"],
                     np.zeros((max(n - 1, 0), spec.dimension)),
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
        return polynomial_spec(degree)
    if model in (FAMILY_INGM, FAMILY_INGBM):
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


def cmd_fit(args) -> int:
    started = time.monotonic()
    _validate_fit_flags(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
                background_coefficient=args.lam,
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
        if forecast.blown_up:
            raise BlowUpError("fitted trajectory blew up while computing fitted values")
    except GreyModelError as exc:
        _write_error_fit_json(out_dir, exc)
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
    doc = fit_to_json(fit, args.method, split, diagnostics, gamma_search_doc)
    fit_path = out_dir / "fit.json"
    with open(fit_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")

    report_path = out_dir / "report.csv"
    _write_point_report(report_path, ts, predicted, report.ape_values, split)

    config = {k: getattr(args, k) for k in
              ("model", "method", "gamma", "gamma_search", "split", "lam", "init_strategy")}
    write_manifest(out_dir, "fit", config, args.input,
                   [fit_path.name, report_path.name], started)
    print(f"wrote {fit_path} and {report_path}")
    print(f"MAPE_train = {report.mape_train:.4f}%"
          + (f", MAPE_test = {report.mape_test:.4f}%" if report.mape_test is not None else ""))
    return EXIT_OK


def _write_point_report(path, ts: TimeSeries, predicted, ape_values, split) -> None:
    d = ts.d
    header = ["t"]
    for i in range(1, d + 1):
        header += [f"actual_x{i}", f"fitted_x{i}", f"ape_x{i}"]
    header.append("segment")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for k in range(ts.n):
            fields = [repr(float(ts.times[k]))]
            for i in range(d):
                fields += [repr(float(ts.values[k, i])),
                           repr(float(predicted[k, i])),
                           repr(float(ape_values[k, i]))]
            fields.append("train" if split is None or k < split else "test")
            handle.write(",".join(fields) + "\n")


def _write_error_fit_json(out_dir: Path, exc: GreyModelError) -> None:
    doc = {
        "schema_version": FIT_SCHEMA_VERSION,
        "error": {
            "category": type(exc).__name__,
            "exit_code": _exit_code_for(exc),
            "message": str(exc),
        },
    }
    with open(out_dir / "fit.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# forecast command
# ---------------------------------------------------------------------------

def cmd_forecast(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = _read_json(args.fit)
    if isinstance(doc, dict) and "error" in doc:
        raise ConfigError(f"{args.fit} records a failed fit; nothing to forecast")
    try:
        fit = _fit_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.fit}: malformed fit document: {exc}") from exc

    forecast = forecast_fit(fit, args.horizon)
    if forecast.blown_up:
        raise BlowUpError(
            f"forecast trajectory blew up at index {forecast.blowup_index}; output suppressed"
        )

    path = out_dir / "forecast.csv"
    d = fit.spec.dimension
    header = ["t"] + [f"x{i}" for i in range(1, d + 1)] + ["blown_up"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for k in range(forecast.times.size):
            fields = [repr(float(forecast.times[k]))]
            fields += [repr(float(v)) for v in forecast.fitted_and_forecast[k]]
            fields.append("false")
            handle.write(",".join(fields) + "\n")
    write_manifest(out_dir, "forecast", {"fit": args.fit, "horizon": args.horizon},
                   args.fit, [path.name], started)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc command
# ---------------------------------------------------------------------------

def _require_key(doc: dict, key: str, kind, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} is invalid: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ConfigError(f"{context}: missing key {key!r}")
    value = doc[key]
    # int() would truncate 2.9 and accept true; only an integral number is a count
    if kind is int and (isinstance(value, bool) or not isinstance(value, (int, float))
                        or not float(value).is_integer()):
        raise ConfigError(f"{context}: key {key!r} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: key {key!r} is invalid: {exc}") from exc


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
    for estimator in estimators:
        if estimator not in KNOWN_ESTIMATORS:
            raise ConfigError(f"{context}: key 'estimators' names unknown estimator {estimator!r}")
    grey_initial = doc.get("grey_initial", "first_point")
    if grey_initial == "first_point":
        initials = None
    elif grey_initial == "true":
        initials = tuple(float(v) for v in truth.eta)
    else:
        raise ConfigError(f"{context}: key 'grey_initial' must be 'first_point' or 'true'")
    try:
        return ScenarioConfig(
            scenario_id=str(doc.get("scenario_id", model)),
            spec=spec, truth=truth,
            T=_require_key(doc, "T", float, context),
            h=_require_key(doc, "h", float, context),
            n=_require_key(doc, "n", int, context) if doc.get("n") is not None else None,
            noise_level=_require_key(doc, "noise_level", float, context),
            replications=_require_key(doc, "replications", int, context),
            seed=_require_key(doc, "seed", int, context),
            estimators=estimators,
            grey_initial_values=initials,
        )
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


def cmd_mc(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    write_manifest(out_dir, "mc",
                   {"scenario": args.scenario, "replications": args.replications,
                    "workers": workers},
                   args.scenario if args.scenario not in BUNDLED_SCENARIOS else None,
                   [report_path.name, summary_path.name], started)
    print(f"wrote {report_path} and {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce command
# ---------------------------------------------------------------------------

def _write_comparison(path, dataset: str, models) -> None:
    """Write and print each model's MAPEs beside the reported ones."""
    print(f"{dataset}: model    gamma*   MAPE_train (ours/reported)   MAPE_test (ours/reported)")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("model,gamma_star,mape_train,mape_train_reported,delta_train,"
                     "mape_test,mape_test_reported,delta_test\n")
        for model, (gamma_star, _, _, report) in models.items():
            mtrain, mtest = report.mape_train, report.mape_test
            ref_train, ref_test = REPORTED_MAPE[dataset][model]
            fields = [model,
                      "" if gamma_star is None else repr(round(gamma_star, 10)),
                      repr(mtrain), repr(ref_train), repr(mtrain - ref_train),
                      repr(mtest), repr(ref_test), repr(mtest - ref_test)]
            handle.write(",".join(fields) + "\n")
            gtxt = "   -" if gamma_star is None else f"{gamma_star:4.2f}"
            print(f"  {model:6s} {gtxt}     {mtrain:5.2f} / {ref_train:5.2f}  "
                  f"(d={mtrain - ref_train:+.2f})      {mtest:5.2f} / {ref_test:5.2f}  "
                  f"(d={mtest - ref_test:+.2f})")


def cmd_reproduce(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if args.table in ("3", "4"):
        dataset = "sewage" if args.table == "3" else "water"
        models, _ = reproduce_benchmark(dataset)
        path = out_dir / f"table{args.table}_comparison.csv"
        _write_comparison(path, dataset, models)
        outputs.append(path.name)
        _, best, _, _ = models[FAMILY_INGBM]
        reported = REPORTED_INGBM_PARAMETERS[dataset]
        print(f"  ingbm parameters (ours vs reported): "
              f"a={best.params.theta_L[0, 0]:.4f}/{reported['a']}, "
              f"b={best.params.theta_N[0, 0]:.4f}/{reported['b']}, "
              f"gamma={best.spec.basis.gamma:.2f}/{reported['gamma']}, "
              f"eta={best.params.eta[0]:.2f}/{reported['eta']}")
    else:
        path = out_dir / "forecast_comparison.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("dataset,step,year,ours,reported,delta\n")
            for dataset in ("sewage", "water"):
                _, projection = reproduce_benchmark(dataset)
                ours = projection.fitted_and_forecast[-3:, 0]
                reported = REPORTED_FORECASTS[dataset]
                print(f"{dataset}: 2019-2021 forecast "
                      f"ours={np.round(ours, 2).tolist()} reported={list(reported)}")
                for step, (value, ref) in enumerate(zip(ours, reported), start=1):
                    year = 2018 + step
                    handle.write(f"{dataset},{step},{year},{float(value)!r},{ref!r},"
                                 f"{float(value - ref)!r}\n")
        outputs.append(path.name)
    write_manifest(out_dir, "reproduce", {"table": args.table}, None, outputs, started)
    return EXIT_OK


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
    fit.add_argument("--lambda", dest="lam", type=float, default=0.5,
                     help="background coefficient of the two-step design")
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


def _exit_code_for(exc: GreyModelError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, SingularDesignError):
        return EXIT_SINGULAR
    if isinstance(exc, BlowUpError):
        return EXIT_BLOWUP
    if isinstance(exc, DomainError):
        return EXIT_DOMAIN
    return EXIT_CONFIG


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GreyModelError as exc:
        print(f"greymatch: error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
