"""Synthetic data generation, noise injection, and the Monte Carlo harness.

Replications are driven by per-replication random streams derived from
(seed, replication index), so serial and parallel schedules produce identical
reports.  Gaussian draws use an explicit Box-Muller transform on top of the
PCG64 bit stream to keep runs reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BlowUpError,
    ConfigError,
    DomainError,
    FitResult,
    GreyModelError,
    METHOD_GREY_TWOSTEP,
    METHOD_INTEGRAL_MATCHING,
    ModelSpec,
    ParameterSet,
    QuadraticMultivariate,
    REDUCED_FORM,
    RootSearchError,
    SingularDesignError,
    TimeSeries,
    lotka_volterra_spec,
    verhulst_spec,
)
from .files import write_csv
from .grey_twostep import GreyFitConfig, fit_grey
from .integral_matching import fit_matching
from .metrics import rmse
from .ode import forecast_fits, solve_reduced

KNOWN_ESTIMATORS = (METHOD_GREY_TWOSTEP, METHOD_INTEGRAL_MATCHING)

#: one name per record status; perfbench/run.py lists its traced failure
#: counters from these names, so STATUS_SINGULAR and STATUS_INITIAL stay
#: although nothing in the package reads them
STATUS_OK = "ok"
STATUS_BLOW_UP = BlowUpError.status
STATUS_SINGULAR = SingularDesignError.status
STATUS_DOMAIN = DomainError.status
STATUS_INITIAL = RootSearchError.status
STATUS_ERROR = GreyModelError.status

#: replications fitted and forecast together; a fixed size, so the cut into
#: chunks does not depend on the worker count (nor a report on the size)
CHUNK_SIZE = 250


# ---------------------------------------------------------------------------
# Configuration and report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario: a true model, a sampling grid, and noise.

    The grid is t = 0, h, 2h, ... with n = floor(T/h) + 1 samples unless ``n``
    is given explicitly (the noise sweep fixes n = 501 at h = 0.01, which runs
    the grid out to T = 5 while the size sweep stops at T = 4; both setups are
    kept exactly as stated rather than reconciled).

    ``grey_initial_values`` seeds the two-step solver with fixed initial
    values instead of the noisy first cumulative point; supplying the true
    initial condition is the documented workaround for the two-dimensional
    system, whose trajectories otherwise blow up from noisy seeds.
    """

    scenario_id: str
    spec: ModelSpec
    truth: ParameterSet
    T: float
    h: float
    noise_level: float
    replications: int
    seed: int
    n: Optional[int] = None
    estimators: Tuple[str, ...] = KNOWN_ESTIMATORS
    grey_initial_values: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.truth.form != REDUCED_FORM:
            raise ConfigError("scenario truth must be in reduced form")
        for name in ("T", "h", "noise_level"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.noise_level < 0.0:
            raise ConfigError("noise_level must be >= 0")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.h <= 0.0 or self.T <= 0.0:
            raise ConfigError("T and h must be positive")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        # no array holds more samples, nor a run more replications, than the largest index
        samples, name = (self.T / self.h, "T / h") if self.n is None else (self.n, "n")
        if samples >= np.iinfo(np.intp).max:
            raise ConfigError(f"{name} overflows the sample count")
        if self.replications >= np.iinfo(np.intp).max:
            raise ConfigError("replications overflows the replication count")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # the CSV writers join fields with commas and rows with newlines, unquoted
        if any(c in self.scenario_id for c in ",\r\n"):
            raise ConfigError(f"scenario_id {self.scenario_id!r} has a comma or line break")
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        for estimator in self.estimators:
            if estimator not in KNOWN_ESTIMATORS:
                raise ConfigError(f"unknown estimator {estimator!r}")
        if self.grey_initial_values is not None:
            object.__setattr__(self, "grey_initial_values",
                               tuple(float(v) for v in self.grey_initial_values))

    @property
    def n_samples(self) -> int:
        if self.n is not None:
            return self.n
        return int(math.floor(self.T / self.h + 1e-9)) + 1

    def times(self) -> np.ndarray:
        try:
            return np.arange(self.n_samples) * self.h
        except (MemoryError, ValueError):    # numpy refuses a size past its limit by ValueError
            raise ConfigError(f"{self.n_samples} samples do not fit in memory") from None


class Record(NamedTuple):
    """One long-format result row; its fields are the columns of ``report.csv``."""

    scenario_id: str
    estimator: str
    replication: int
    name: str
    value: float
    status: str


@dataclass(frozen=True)
class MonteCarloReport:
    """All records of one scenario plus the scenario itself."""

    scenario: ScenarioConfig
    records: Tuple[Record, ...]

    def values(self, estimator: str, name: str) -> np.ndarray:
        """Successful estimates of one quantity, in replication order."""
        return np.array([r.value for r in self.records
                         if r.estimator == estimator and r.name == name
                         and r.status == STATUS_OK])

    def failure_count(self, estimator: str) -> int:
        return sum(1 for r in self.records
                   if r.estimator == estimator and r.status != STATUS_OK)


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------

def _rng(seed_parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_parts)))


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Box-Muller gaussians from the uniform bit stream (platform-stable)."""
    count = int(np.prod(shape))
    half = (count + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
    return z.reshape(shape)


def generate_clean(config: ScenarioConfig) -> TimeSeries:
    """Noise-free trajectory of the true reduced model on the scenario grid."""
    times = config.times()
    traj = solve_reduced(config.spec, config.truth, times)
    if traj.blown_up:
        raise ConfigError("the true model blows up on the requested grid")
    return TimeSeries(times, traj.states[:, :config.spec.dimension])


def _noise_sigmas(clean: TimeSeries, noise_level: float) -> np.ndarray:
    # population variance of the clean signal, per component
    return np.sqrt(noise_level * clean.values.var(axis=0))


def add_noise(clean: TimeSeries, noise_level: float, seed) -> TimeSeries:
    """Add i.i.d. Gaussian noise with variance = noise_level * var(signal).

    ``noise_level`` is a fraction (0.10 for a 10% noise level); 0 returns the
    series unchanged.  The same seed reproduces the same draw bit for bit.
    """
    if noise_level == 0.0:
        return clean
    rng = _rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        noise = _standard_normal(rng, clean.values.shape) * _noise_sigmas(clean, noise_level)
        noisy = clean.values + noise
    try:
        return TimeSeries(clean.times, noisy)
    except ValueError:
        # the clean series is finite, so only the noise can fail TimeSeries's one check
        raise ConfigError(f"noise_level {noise_level:g} makes the noisy series "
                          "overflow") from None


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

def common_parameters(fit: FitResult) -> List[Tuple[str, float]]:
    """Map a fit onto the shared comparison parameterization.

    Scalar models report (a, b, eta) where b is the leading nonlinear
    coefficient in grey/unified form; two-dimensional quadratic models report
    the interaction system (a1, b1, a2, b2, eta1, eta2) with b_i the negated
    cross-term coefficients.
    """
    params = fit.params
    d = fit.spec.dimension
    if d == 1:
        out = [("a", float(params.theta_L[0, 0]))]
        if params.p > 0:
            out.append(("b", float(params.theta_N[0, 0])))
        out.append(("eta", float(params.eta[0])))
        return out
    if d == 2 and isinstance(fit.spec.basis, QuadraticMultivariate):
        cross = fit.spec.basis.pairs.index((0, 1))
        return [
            ("a1", float(params.theta_L[0, 0])),
            ("b1", float(-params.theta_N[0, cross])),
            ("a2", float(params.theta_L[1, 1])),
            ("b2", float(-params.theta_N[1, cross])),
            ("eta1", float(params.eta[0])),
            ("eta2", float(params.eta[1])),
        ]
    raise ConfigError("no common parameterization for this model family")


def _fit(estimator: str, noisy: TimeSeries, config: ScenarioConfig) -> FitResult:
    if estimator == METHOD_GREY_TWOSTEP:
        grey_config = GreyFitConfig(initial_values=config.grey_initial_values)
        return fit_grey(noisy, config.spec, grey_config)
    return fit_matching(noisy, config.spec)


def _run_estimator(estimator: str, series: Sequence[TimeSeries], config: ScenarioConfig,
                   reps: Sequence[int]) -> List[List[Record]]:
    """Fit every noisy series, forecast the fits in one batched pass, and return
    the records of each replication in order."""
    def record(i, name, value, status=STATUS_OK):
        return Record(config.scenario_id, estimator, reps[i], name, value, status)

    fits, records = {}, {}
    for i, noisy in enumerate(series):
        try:
            fits[i] = _fit(estimator, noisy, config)
        except (GreyModelError, np.linalg.LinAlgError, ValueError) as exc:
            # a numerical failure of one replication (a factorization that does
            # not converge, a non-finite estimate) is recorded, never raised
            records[i] = [record(i, "failure", float("nan"),
                                 getattr(exc, "status", STATUS_ERROR))]
    for (i, fit), fitted in zip(fits.items(), forecast_fits(list(fits.values()), 0)):
        if fitted is None or fitted.blown_up:
            status = STATUS_DOMAIN if fitted is None else STATUS_BLOW_UP
            records[i] = [record(i, "failure", float("nan"), status)]
            continue
        records[i] = [record(i, name, value) for name, value in common_parameters(fit)]
        records[i].append(record(i, "rmse", rmse(fitted.fitted_and_forecast, series[i].values)))
    return [records[i] for i in range(len(series))]


def _chunk_records(config: ScenarioConfig, clean: TimeSeries, reps: range) -> List[Record]:
    series = [add_noise(clean, config.noise_level, (config.seed, rep)) for rep in reps]
    per_estimator = [_run_estimator(estimator, series, config, reps)
                     for estimator in config.estimators]
    return [record for i in range(len(reps)) for records in per_estimator
            for record in records[i]]


def run_monte_carlo(config: ScenarioConfig, workers: int = 1) -> MonteCarloReport:
    """Run all replications of one scenario.

    Replications are cut by index into chunks of ``CHUNK_SIZE``; each chunk
    fits its replications per estimator and forecasts the fits in one
    batched pass, whose rows equal the fits forecast alone.  Per-replication
    failures (singular designs, trajectory blow-ups, ...) become
    failure-marker records; they never abort the batch.  ``workers`` > 1
    fans whole chunks out to processes without changing the result; a single
    chunk runs in this process.
    """
    clean = generate_clean(config)
    n = config.replications
    chunks = [range(start, min(start + CHUNK_SIZE, n)) for start in range(0, n, CHUNK_SIZE)]
    if workers > 1 and len(chunks) > 1:
        # imported here: ``multiprocessing`` costs every command's start-up otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(_chunk_records, [config] * len(chunks),
                                      [clean] * len(chunks), chunks))
    else:
        per_chunk = [_chunk_records(config, clean, chunk) for chunk in chunks]
    return MonteCarloReport(config, tuple(record for records in per_chunk for record in records))


# ---------------------------------------------------------------------------
# Summaries and CSV export
# ---------------------------------------------------------------------------

class SummaryRow(NamedTuple):
    """One quantile summary row; its fields are the columns of ``summary.csv``."""

    scenario_id: str
    estimator: str
    name: str
    count: int
    failures: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    stddev: float


def summarize(report: MonteCarloReport) -> List[SummaryRow]:
    """Quantile summary per (estimator, quantity) over successful replications."""
    if not report.records:
        raise ValueError("cannot summarize an empty report")
    rows: List[SummaryRow] = []
    for estimator in report.scenario.estimators:
        failures = report.failure_count(estimator)
        names = []
        for record in report.records:
            if (record.estimator == estimator and record.status == STATUS_OK
                    and record.name not in names):
                names.append(record.name)
        for name in names:
            values = report.values(estimator, name)
            q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
            stddev = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
            rows.append(SummaryRow(
                report.scenario.scenario_id, estimator, name,
                int(values.size), failures,
                float(values.min()), float(q1), float(med), float(q3),
                float(values.max()), float(values.mean()), stddev,
            ))
    return rows


def write_report_csv(reports: Iterable[MonteCarloReport], path) -> None:
    """Long-format CSV: each record as it is, under its field names."""
    write_csv(path, Record._fields, (record for report in reports for record in report.records))


def write_summary_csv(rows: Iterable[SummaryRow], path) -> None:
    write_csv(path, SummaryRow._fields, rows)


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------

def verhulst_truth(a: float = 1.2, b: float = -1.0,
                   eta: float = 0.4) -> Tuple[ModelSpec, ParameterSet]:
    """Scalar logistic truth: growth a, interaction b (theta_N = b / 2), start eta."""
    return verhulst_spec(), ParameterSet([[a]], [[b / 2.0]], [eta], form=REDUCED_FORM)


def lotka_volterra_truth(a1: float = 1.2, b1: float = 0.3, a2: float = -1.0,
                         b2: float = -0.4, eta1: float = 5.0,
                         eta2: float = 2.0 / 3.0) -> Tuple[ModelSpec, ParameterSet]:
    """Two-species truth: growths a_i, cross-term coefficients -b_i, start (eta1, eta2)."""
    theta_L = [[a1, 0.0], [0.0, a2]]
    theta_N = [[0.0, -b1, 0.0], [0.0, -b2, 0.0]]
    return lotka_volterra_spec(), ParameterSet(theta_L, theta_N, [eta1, eta2],
                                               form=REDUCED_FORM)


def verhulst_n_sweep(replications: int = 500, seed: int = 20210401) -> List[ScenarioConfig]:
    """Sample-size sweep at 10% noise: h in {0.40, 0.20, 0.08, 0.04} over [0, 4]."""
    spec, truth = verhulst_truth()
    configs = []
    for i, h in enumerate((0.40, 0.20, 0.08, 0.04)):
        n = int(math.floor(4.0 / h + 1e-9)) + 1
        configs.append(ScenarioConfig(
            scenario_id=f"verhulst-n{n}", spec=spec, truth=truth,
            T=4.0, h=h, noise_level=0.10,
            replications=replications, seed=seed + i,
        ))
    return configs


def verhulst_noise_sweep(replications: int = 500, seed: int = 20210402) -> List[ScenarioConfig]:
    """Noise sweep at n = 501 (h = 0.01): levels 10, 15, 20, 25 percent."""
    spec, truth = verhulst_truth()
    return [
        ScenarioConfig(
            scenario_id=f"verhulst-noise{int(level * 100)}", spec=spec, truth=truth,
            T=5.0, h=0.01, n=501, noise_level=level,
            replications=replications, seed=seed + i,
        )
        for i, level in enumerate((0.10, 0.15, 0.20, 0.25))
    ]


def lv_noise_sweep(replications: int = 500, seed: int = 20210403) -> List[ScenarioConfig]:
    """Two-species noise sweep at n = 501 (T = 5): levels 4, 8, 12, 16 percent.

    The two-step estimator is seeded with the true initial condition, because
    noisy seeds make its trajectories blow up.
    """
    spec, truth = lotka_volterra_truth()
    initials = tuple(truth.eta)
    return [
        ScenarioConfig(
            scenario_id=f"lv-noise{int(level * 100)}", spec=spec, truth=truth,
            T=5.0, h=0.01, noise_level=level,
            replications=replications, seed=seed + i,
            grey_initial_values=initials,
        )
        for i, level in enumerate((0.04, 0.08, 0.12, 0.16))
    ]


def lv_n_sweep(replications: int = 500, seed: int = 20210404) -> List[ScenarioConfig]:
    """Two-species size sweep at 4% noise: n in {21, 51, 101, 501} over [0, 5].

    The two-step estimator is seeded with the true initial condition, as in
    ``lv_noise_sweep``.
    """
    spec, truth = lotka_volterra_truth()
    initials = tuple(truth.eta)
    configs = []
    for i, n in enumerate((21, 51, 101, 501)):
        configs.append(ScenarioConfig(
            scenario_id=f"lv-n{n}", spec=spec, truth=truth,
            T=5.0, h=5.0 / (n - 1), noise_level=0.04,
            replications=replications, seed=seed + i,
            grey_initial_values=initials,
        ))
    return configs


BUNDLED_SCENARIOS = {
    "verhulst-n-sweep": verhulst_n_sweep,
    "verhulst-noise-sweep": verhulst_noise_sweep,
    "lv-noise-sweep": lv_noise_sweep,
    "lv-n-sweep": lv_n_sweep,
}
