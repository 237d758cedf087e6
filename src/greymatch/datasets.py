"""Bundled yearly datasets, the reported benchmark results, and their protocol.

Two annual series for the Yangtze River Delta, 2004-2018 (15 points each):
municipal sewage discharge (1e8 m^3) and total water use (1e9 m^3).  Yearly
stamps are mapped to t = 1..15 with unit spacing.  The REPORTED_* constants
hold the published benchmark figures that ``reproduce_benchmark`` is compared
against.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .core import Forecast, TimeSeries, verhulst_spec
from .integral_matching import FAMILY_INGBM, FAMILY_INGM, fit_matching, gamma_line_search
from .metrics import evaluation_report, train_test_split
from .ode import forecast_fit

YEARS = tuple(range(2004, 2019))

#: 2004-2014 are the training years, 2015-2018 the held-out test years
TRAIN_SIZE = 11

SEWAGE_VALUES = (
    83.00, 85.58, 77.89, 80.45, 87.27, 88.11, 92.53, 95.08,
    97.88, 99.82, 102.24, 106.27, 110.02, 111.40, 116.05,
)

WATER_VALUES = (
    1061.25, 1058.94, 1115.09, 1121.56, 1161.07, 1164.05, 1174.64, 1173.80,
    1155.60, 1194.20, 1162.20, 1153.10, 1154.00, 1165.90, 1155.00,
)


def sewage_discharge() -> TimeSeries:
    """Municipal sewage discharge, 2004-2018, on the unit grid t = 1..15."""
    return TimeSeries(np.arange(1, 16, dtype=float), np.array(SEWAGE_VALUES))


def water_use() -> TimeSeries:
    """Total water use, 2004-2018, on the unit grid t = 1..15."""
    return TimeSeries(np.arange(1, 16, dtype=float), np.array(WATER_VALUES))


#: reported (MAPE_train %, MAPE_test %) per model family and dataset
REPORTED_MAPE = {
    "sewage": {"igvm": (2.57, 2.63), "ingm": (2.58, 0.56), "ingbm": (2.62, 0.87)},
    "water": {"igvm": (0.75, 4.03), "ingm": (1.24, 4.01), "ingbm": (0.91, 1.29)},
}

#: reported best-model parameter estimates (a, b, gamma, eta)
REPORTED_INGBM_PARAMETERS = {
    "sewage": {"a": 0.014, "b": 0.014, "gamma": 1.0, "eta": 77.33},
    "water": {"a": -0.06, "b": 2.89, "gamma": 0.63, "eta": 1001.65},
}

#: reported three-step-ahead forecasts for 2019-2021 (best model: INGBM)
REPORTED_FORECASTS = {
    "sewage": (118.01, 121.38, 124.85),
    "water": (1115.4, 1100.2, 1084.2),
}

DATASETS = {
    "sewage": sewage_discharge,
    "water": water_use,
}


def reproduce_benchmark(name: str) -> Tuple[Dict[str, tuple], Forecast]:
    """Run the published yearly benchmark protocol on dataset ``name``.

    Each model is fitted by integral matching on the first ``TRAIN_SIZE``
    years; INGM and INGBM at the exponent on [0, 2] in steps of 0.01 that
    minimizes the MAPE of the fitted-plus-forecast trajectory over the whole
    series (``gamma_line_search``).  Returns ``(gamma, fit, forecast, report)``
    keyed ``igvm``/``ingm``/``ingbm`` (gamma is None for IGVM; the forecast
    and report cover the training and held-out years), and the INGBM forecast
    through three more years (2019-2021).
    """
    ts = DATASETS[name]()
    train, test = train_test_split(ts, TRAIN_SIZE)
    fit = fit_matching(train, verhulst_spec())
    outcomes = {"igvm": (None, fit, forecast_fit(fit, test.n, future_times=test.times))}
    for family in (FAMILY_INGM, FAMILY_INGBM):
        outcomes[family] = gamma_line_search(ts, family, (0.0, 2.0), 0.01, split=TRAIN_SIZE)
    models = {model: (gamma, fit, forecast,
                      evaluation_report(ts, forecast.fitted_and_forecast, TRAIN_SIZE))
              for model, (gamma, fit, forecast) in outcomes.items()}
    _, ingbm, _ = outcomes[FAMILY_INGBM]
    return models, forecast_fit(ingbm, test.n + 3)
