"""Monte-Carlo generators and the two validation study harnesses.

Study 1 draws stratified tables from the negative-dependence model at a
reference configuration (N_A=50,000, N_B=20,000, alpha=0.05, p1=0.15,
p2A=0.05, p2B=0.15) and summarizes bias, CV, and interval coverage of the
naive and model-based estimators. Study 2 sweeps a grid that violates the
shared-p1 identification assumption and tracks bias/RMSE of the size
estimates. Every replicate of every study goes through one worker,
``_replicates``, which takes a block of replicates: it draws each two-stratum
table on a counter-based random stream keyed by the replicate (study 2: by
grid index and replicate), fits the block's draws in one batch (and the
full-mode fallbacks in a second one), and returns per replicate the survey
with the fit or the reason it failed. The studies are reductions over those
records, so summaries are independent of worker count and block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import numpy as np

from . import mle, model
from ._parallel import Streams, blocks, run_indexed
from .exceptions import DualdepError, FitError, InfeasibleConstraintsError, ValidationError
from .inference import (
    _drawn_survey, _fit_outcome, _size_intervals, normal_quantile, se_from_hessian,
)
from .mle import DEFAULT_SEED, FitOptions
from .tables import CellCounts, SurveyData, naive_estimate

__all__ = [
    "GeneratorConfig",
    "SimulationSummary",
    "Study1Result",
    "CoverageRow",
    "CoverageResult",
    "Study2Row",
    "Study2Result",
    "study1_config",
    "scenario_grid",
    "cell_probabilities_for",
    "draw_counts",
    "run_study1",
    "run_coverage",
    "run_study2",
]

DEPENDENCE_KINDS = ("negative", "positive", "independent")

_MAX_REDRAWS = 10_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Per-stratum generator settings for one simulated population.

    ``p1_a`` and ``p1_b`` may differ (that is the point of Study 2); the
    fitted model always assumes they are equal.
    """

    n_a: int
    n_b: int
    alpha: float
    p1_a: float
    p1_b: float
    p2_a: float
    p2_b: float
    dependence: str = "negative"
    replicates: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValidationError("stratum sizes must be >= 1")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.dependence not in DEPENDENCE_KINDS:
            raise ValidationError(
                f"dependence must be one of {DEPENDENCE_KINDS}, got {self.dependence!r}"
            )
        for name in ("alpha", "p1_a", "p1_b", "p2_a", "p2_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")


def study1_config(replicates: int = 500, seed: int = DEFAULT_SEED) -> GeneratorConfig:
    """The reference Study-1 configuration."""
    return GeneratorConfig(
        n_a=50_000, n_b=20_000, alpha=0.05,
        p1_a=0.15, p1_b=0.15, p2_a=0.05, p2_b=0.15,
        dependence="negative", replicates=replicates, seed=seed,
    )


def scenario_grid(start: float | str = 0.01, stop: float | str = 0.35,
                  step: float | str = 0.01) -> tuple[float, ...]:
    """Inclusive capture-probability grid start, start + step, ..., stop,
    default 0.01, 0.02, ..., 0.35, from numbers or decimal text read as the
    exact decimals they print as. Raises ValidationError unless the step is
    positive and divides stop - start (within 1e-9 steps) and every value
    is finite and strictly inside (0, 1)."""
    text = f"'{start}:{stop}:{step}'"
    try:
        start, stop, step = (Decimal(str(value)) for value in (start, stop, step))
    except InvalidOperation:
        raise ValidationError(f"grid values are not numbers: {text}") from None
    if not all(value.is_finite() for value in (start, stop, step)):
        raise ValidationError(f"grid values must be finite: {text}")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    quotient = (stop - start) / step
    n = int(quotient.to_integral_value(rounding=ROUND_HALF_EVEN))
    if n < 0 or abs(quotient - n) > Decimal("1e-9"):
        raise ValidationError(f"grid step does not divide the range: {text}")
    return _checked_grid(float(start + k * step) for k in range(n + 1))


def _checked_grid(values) -> tuple[float, ...]:
    """The grid as a tuple, checked to be non-empty and strictly inside (0, 1)."""
    values = tuple(values)
    if not values:
        raise ValidationError("grid must contain at least one value")
    if any(not 0.0 < v < 1.0 for v in values):
        raise ValidationError("grid values must lie strictly inside (0, 1)")
    return values


@dataclass(frozen=True)
class SimulationSummary:
    """Monte-Carlo summary of one estimated quantity.

    ``relative_bias_pct`` is (mean - truth) / mean in percent (the share of
    the estimate's expected value that is bias); ``cv_pct`` is SD/mean in
    percent; RMSE is against the truth, so rmse^2 = bias^2 + variance.
    """

    quantity: str
    truth: float
    n_used: int
    mean: float
    relative_bias_pct: float
    cv_pct: float
    rmse: float
    coverage: float | None = None


def _summarize(quantity: str, values: np.ndarray, truth: float) -> SimulationSummary:
    mean = float(np.mean(values))
    sd = float(np.std(values))
    return SimulationSummary(
        quantity=quantity,
        truth=truth,
        n_used=int(values.size),
        mean=mean,
        relative_bias_pct=(mean - truth) / mean * 100.0 if mean != 0.0 else float("nan"),
        cv_pct=sd / mean * 100.0 if mean != 0.0 else float("nan"),
        rmse=float(math.sqrt(np.mean((values - truth) ** 2))),
    )


@dataclass(frozen=True, eq=False)
class Study1Result:
    config: GeneratorConfig
    naive: tuple[SimulationSummary, ...]
    proposed: tuple[SimulationSummary, ...]
    redraws: int
    fit_failures: int
    reduced_fallbacks: int

    def all_summaries(self) -> list[tuple[str, SimulationSummary]]:
        return [("naive", s) for s in self.naive] + [("proposed", s) for s in self.proposed]


@dataclass(frozen=True)
class CoverageRow:
    quantity: str
    method: str
    mean_lower: float
    mean_upper: float
    coverage: float
    n_used: int


@dataclass(frozen=True, eq=False)
class CoverageResult:
    config: GeneratorConfig
    level: float
    rows: tuple[CoverageRow, ...]
    redraws: int
    failures: int
    reduced_fallbacks: int


@dataclass(frozen=True)
class Study2Row:
    grid_value: float
    estimator: str
    quantity: str
    truth: float
    mean: float
    bias: float
    relative_bias_pct: float
    rmse: float
    n_used: int


@dataclass(frozen=True, eq=False)
class Study2Result:
    scenario: int
    grid: tuple[float, ...]
    replicates: int
    rows: tuple[Study2Row, ...]
    fit_failures: int
    reduced_fallbacks: int

    def row(self, grid_value: float, estimator: str, quantity: str) -> Study2Row:
        for row in self.rows:
            if (
                row.grid_value == grid_value
                and row.estimator == estimator
                and row.quantity == quantity
            ):
                return row
        raise KeyError((grid_value, estimator, quantity))


# --- generation ---------------------------------------------------------------

def cell_probabilities_for(
    dependence: str, alpha: float, p1: float, p2: float
) -> tuple[float, float, float, float]:
    """Four-cell probabilities (p11, p10, p01, p00) for a dependence kind.

    Under positive dependence the dependent share copies its list-1 status
    into list 2, inflating joint capture and joint absence instead of
    suppressing them. ``independent`` ignores alpha.
    """
    if dependence == "negative":
        return model.cell_probabilities(alpha, p1, p2).as_tuple()
    if dependence == "independent":
        return model.cell_probabilities(0.0, p1, p2).as_tuple()
    if dependence == "positive":
        for name, value in (("alpha", alpha), ("p1", p1), ("p2", p2)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        one = 1.0 - alpha
        return (
            one * p1 * p2 + alpha * p1,
            one * p1 * (1.0 - p2),
            one * (1.0 - p1) * p2,
            one * (1.0 - p1) * (1.0 - p2) + alpha * (1.0 - p1),
        )
    raise ValidationError(f"unknown dependence kind {dependence!r}")


def _cell_array(dependence, alpha, p1, p2) -> np.ndarray:
    probs = np.clip(np.array(cell_probabilities_for(dependence, alpha, p1, p2)), 0.0, 1.0)
    return probs / probs.sum()


def draw_counts(
    n: int,
    alpha: float,
    p1: float,
    p2: float,
    dependence: str,
    rng: np.random.Generator,
) -> tuple[CellCounts, int]:
    """One multinomial table of size n; returns the observed cells and the
    latent x00. Raises ValidationError on the (tiny-n) event that every
    unit lands in the unobserved cell."""
    table = rng.multinomial(int(n), _cell_array(dependence, alpha, p1, p2))
    return CellCounts(int(table[0]), int(table[1]), int(table[2])), int(table[3])


def _draw_survey(config: GeneratorConfig, rng: np.random.Generator) -> tuple[SurveyData, int]:
    """Draw both strata, redrawing while either stratum has x11 = 0 (neither
    estimator is defined there); returns the survey and the redraw count."""
    probs_a = _cell_array(config.dependence, config.alpha, config.p1_a, config.p2_a)
    probs_b = _cell_array(config.dependence, config.alpha, config.p1_b, config.p2_b)
    for redraws in range(_MAX_REDRAWS):
        table_a = rng.multinomial(config.n_a, probs_a)
        table_b = rng.multinomial(config.n_b, probs_b)
        survey = _drawn_survey(table_a, table_b)
        if survey is not None:
            return survey, redraws
    raise ValidationError(
        f"could not draw a table with x11 >= 1 in both strata after {_MAX_REDRAWS} tries"
    )


def _fit_draws(surveys: list[SurveyData], options: FitOptions) -> list:
    """Fit simulated draws in one batch; refit in full mode, as a second
    batch, the draws whose reduced constraint box is empty (possible only
    when the generating process violates the shared-p1 assumption).
    Returns (FitResult or package error, fallback) per draw; ``fallback``
    is True whenever the outcome is a fit from the full-mode refit."""
    outcomes = mle.fit_many(surveys, options)
    fallback = [isinstance(o, InfeasibleConstraintsError) and options.mode != "full"
                for o in outcomes]
    if any(fallback):
        refits = iter(mle.fit_many([s for s, f in zip(surveys, fallback) if f],
                                   replace(options, mode="full")))
        outcomes = [next(refits) if f else o for o, f in zip(outcomes, fallback)]
    return [(o, f and not isinstance(o, DualdepError)) for o, f in zip(outcomes, fallback)]


# --- replicates ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Replicate:
    """One drawn and fitted replicate. ``fit`` is None when the fit raised a
    package error (NonConvergenceError when its best start stalled), and
    ``reason`` is that error's text."""

    survey: SurveyData
    fit: mle.FitResult | None
    reason: str
    redraws: int
    fallback: bool


def _replicates(task) -> list[_Replicate]:
    """Draw one survey per random stream key and fit the draws as one batch."""
    keys, config, options = task
    streams = Streams(config.seed)
    draws = [_draw_survey(config, streams.at(key)) for key in keys]
    return [
        _Replicate(survey, *_fit_outcome(outcome), redraws, fallback)
        for (survey, redraws), (outcome, fallback)
        in zip(draws, _fit_draws([survey for survey, _ in draws], options))
    ]


def _run_replicates(groups, options: FitOptions | None, threads: int) -> list[_Replicate]:
    """``_replicates`` with ``options`` (default ``FitOptions()``) over
    (config, stream keys) groups, each group in blocks of at most
    ``_parallel.BLOCK_COLUMNS`` solver columns (25 keys at the 12-start
    grid), spread over ``threads`` processes; records come back in group and
    key order."""
    options = options or FitOptions()
    tasks = [
        ([keys[i] for i in block], config, options)
        for config, keys in groups
        for block in blocks(len(keys), options.n_starts)
    ]
    return [record for part in run_indexed(_replicates, tasks, threads) for record in part]


# --- study 1 -------------------------------------------------------------------

def run_study1(
    config: GeneratorConfig | None = None,
    options: FitOptions | None = None,
    threads: int = 1,
) -> Study1Result:
    """Bias/CV summaries of the naive and model-based estimators under the
    generating model. Replicates whose fit fails are excluded from the
    model-based summaries and counted in ``fit_failures``."""
    config = config or study1_config()
    outcomes = _run_replicates([(config, range(config.replicates))], options, threads)

    fitted = [o.fit.params for o in outcomes if o.fit is not None]
    if not fitted:
        raise FitError(
            f"every one of the {config.replicates} replicate fits failed; "
            "the configuration is outside the estimator's working range"
        )
    fitted_m = np.array([p.as_tuple() for p in fitted], dtype=float)
    proposed_truths = (
        ("N_A", float(config.n_a)),
        ("N_B", float(config.n_b)),
        ("alpha", config.alpha),
        ("p1", config.p1_a),
        ("p2A", config.p2_a),
        ("p2B", config.p2_b),
    )
    return Study1Result(
        config=config,
        naive=(
            _summarize("N_A", np.array([naive_estimate(o.survey.stratum_a) for o in outcomes]),
                       float(config.n_a)),
            _summarize("N_B", np.array([naive_estimate(o.survey.stratum_b) for o in outcomes]),
                       float(config.n_b)),
        ),
        proposed=tuple(
            _summarize(name, fitted_m[:, col], truth)
            for col, (name, truth) in enumerate(proposed_truths)
        ),
        redraws=sum(o.redraws for o in outcomes),
        fit_failures=sum(o.fit is None for o in outcomes),
        reduced_fallbacks=sum(o.fallback for o in outcomes),
    )


# --- coverage ------------------------------------------------------------------

def _coverage_intervals(outcome: _Replicate, z: float, level: float):
    """Wald and multiplicative intervals for N_A and N_B from one replicate's
    information-matrix SEs, or None when the fit failed or either interval
    is undefined."""
    if outcome.fit is None:
        return None
    try:
        se = se_from_hessian(outcome.fit, outcome.survey).se
    except DualdepError:
        return None
    params, survey = outcome.fit.params, outcome.survey
    centers = {"N_A": params.n_a, "N_B": params.n_b}
    x0 = {"N_A": float(survey.stratum_a.total), "N_B": float(survey.stratum_b.total)}
    lognormal = _size_intervals(centers, x0, se, level)
    if None in lognormal.values():
        return None
    return {name: ((n_hat - z * se[name], n_hat + z * se[name]), lognormal[name])
            for name, n_hat in centers.items()}


def run_coverage(
    config: GeneratorConfig | None = None,
    options: FitOptions | None = None,
    level: float = 0.95,
    threads: int = 1,
) -> CoverageResult:
    """Empirical coverage of the symmetric (Wald) and multiplicative
    intervals for the stratum sizes, with per-replicate variances from the
    observed information."""
    z = normal_quantile(level)
    config = config or study1_config()
    outcomes = _run_replicates([(config, range(config.replicates))], options, threads)

    truth = {"N_A": float(config.n_a), "N_B": float(config.n_b)}
    intervals = [i for i in (_coverage_intervals(o, z, level) for o in outcomes) if i is not None]
    n = len(intervals)

    def mean(values) -> float:
        # summed in replicate order, so the means do not depend on blocks or workers
        return sum(values) / n if n else float("nan")

    rows = []
    for name in ("N_A", "N_B"):
        for col, method in enumerate(("standard", "lognormal")):
            bounds = [i[name][col] for i in intervals]
            rows.append(CoverageRow(
                quantity=name,
                method=method,
                mean_lower=mean(lo for lo, _ in bounds),
                mean_upper=mean(hi for _, hi in bounds),
                coverage=mean(lo <= truth[name] <= hi for lo, hi in bounds),
                n_used=n,
            ))
    return CoverageResult(
        config=config,
        level=level,
        rows=tuple(rows),
        redraws=sum(o.redraws for o in outcomes),
        failures=len(outcomes) - n,
        reduced_fallbacks=sum(o.fallback for o in outcomes),
    )


# --- study 2 -------------------------------------------------------------------

def _scenario_config(scenario: int, value: float, replicates: int, seed: int) -> GeneratorConfig:
    if scenario == 1:
        p1_a, p1_b, p2_a, p2_b = 0.15, value, 0.05, 0.15
    elif scenario == 2:
        p1_a, p1_b, p2_a, p2_b = value, 0.15, 0.05, 0.15
    elif scenario == 3:
        p1_a, p1_b, p2_a, p2_b = 0.15, value, 0.15, 0.15
    else:
        raise ValidationError(f"scenario must be 1, 2, or 3, got {scenario}")
    return GeneratorConfig(
        n_a=50_000, n_b=20_000, alpha=0.05,
        p1_a=p1_a, p1_b=p1_b, p2_a=p2_a, p2_b=p2_b,
        dependence="negative", replicates=replicates, seed=seed,
    )


def run_study2(
    scenario: int,
    grid: tuple[float, ...] | None = None,
    replicates: int = 500,
    seed: int = DEFAULT_SEED,
    options: FitOptions | None = None,
    threads: int = 1,
) -> Study2Result:
    """Bias/RMSE sweep of the size estimates while the shared-p1 assumption
    is violated along the grid.

    Scenario 1 varies the stratum-B list-1 probability, scenario 2 the
    stratum-A one, and scenario 3 varies stratum B with equal list-2
    probabilities. Draws for which the reduced constraint box is empty are
    refit in full mode and counted in ``reduced_fallbacks``.
    """
    grid = _checked_grid(grid) if grid is not None else scenario_grid()
    groups = [
        (_scenario_config(scenario, value, replicates, seed),
         [(gi << 32) | rep for rep in range(replicates)])
        for gi, value in enumerate(grid)
    ]
    outcomes = _run_replicates(groups, options, threads)

    truths = {"N_A": 50_000.0, "N_B": 20_000.0, "N_total": 70_000.0}
    nan = float("nan")
    rows = []
    for gi, value in enumerate(grid):
        point = outcomes[gi * replicates:(gi + 1) * replicates]
        proposed = [(o.fit.params.n_a, o.fit.params.n_b) for o in point if o.fit is not None]
        naive = [
            (naive_estimate(o.survey.stratum_a), naive_estimate(o.survey.stratum_b)) for o in point
        ]
        for estimator, pairs in (("proposed", proposed), ("naive", naive)):
            matrix = np.array(pairs, dtype=float).reshape(-1, 2)
            series = {
                "N_A": matrix[:, 0],
                "N_B": matrix[:, 1],
                "N_total": matrix[:, 0] + matrix[:, 1],
            }
            for quantity, values in series.items():
                truth = truths[quantity]
                mean = float(np.mean(values)) if values.size else nan
                rows.append(
                    Study2Row(
                        grid_value=value,
                        estimator=estimator,
                        quantity=quantity,
                        truth=truth,
                        mean=mean,
                        bias=mean - truth,
                        relative_bias_pct=(mean - truth) / truth * 100.0,
                        rmse=float(math.sqrt(np.mean((values - truth) ** 2))) if values.size else nan,
                        n_used=int(values.size),
                    )
                )
    return Study2Result(
        scenario=scenario,
        grid=grid,
        replicates=replicates,
        rows=tuple(rows),
        fit_failures=sum(o.fit is None for o in outcomes),
        reduced_fallbacks=sum(o.fallback for o in outcomes),
    )
