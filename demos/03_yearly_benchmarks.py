"""Refit the bundled yearly benchmarks and compare with the reported results.

Two annual series for the Yangtze River Delta (2004-2018): municipal sewage
discharge and total water use.  The first 11 years train the models, the last
4 assess forecasts, and the power exponent is grid-searched on [0, 2] in
steps of 0.01, scored by whole-series forecasting error.
"""

from greymatch.datasets import (
    REPORTED_FORECASTS,
    REPORTED_INGBM_PARAMETERS,
    REPORTED_MAPE,
    TRAIN_SIZE,
    YEARS,
    reproduce_benchmark,
)

for name in ("sewage", "water"):
    print(f"=== {name} ({YEARS[0]}-{YEARS[-1]}, train through {YEARS[TRAIN_SIZE - 1]}) ===")

    models, projection = reproduce_benchmark(name)
    for model, (gamma, _, _, report) in models.items():
        ref_train, ref_test = REPORTED_MAPE[name][model]
        gamma_text = "  - " if gamma is None else f"{gamma:4.2f}"
        print(f"  {model:6s} gamma*={gamma_text}  "
              f"fit {report.mape_train:5.2f}% (reported {ref_train:5.2f}%)  "
              f"forecast {report.mape_test:5.2f}% (reported {ref_test:5.2f}%)")

    _, best, _, _ = models["ingbm"]
    ref = REPORTED_INGBM_PARAMETERS[name]
    print(f"  best model parameters: a={best.params.theta_L[0, 0]:.4f} "
          f"(reported {ref['a']}), b={best.params.theta_N[0, 0]:.4f} "
          f"(reported {ref['b']}), eta={best.params.eta[0]:.2f} "
          f"(reported {ref['eta']})")

    ours = projection.fitted_and_forecast[-3:, 0]
    print("  2019-2021 projection: "
          + ", ".join(f"{v:.2f} (reported {r})"
                      for v, r in zip(ours, REPORTED_FORECASTS[name])))
    print()
