"""Uncertainty for fitted estimates: information-matrix and bootstrap SEs,
and the log-normal-style confidence interval for population sizes.

The bootstrap is "imputed": each replicate resamples a full multinomial
table of (rounded) fitted size per stratum, including the estimated
unobserved cell, then refits the model on the starred observed cells.
Replicates run in blocks whose refits are one batched solve
(``mle._fits``, read out as arrays with no FitResult per replicate), each
block within a budget of solver columns (``_parallel.blocks``). A block
computes the cell rates once and sets one generator to each replicate's
stream (``_parallel.Streams``). A replicate is drawn from the fitted model,
so each refit starts from the fitted parameters alone (a warm start, one
column).
The starting grid is the safety net: it refits every replicate when the fit
sits on a bound, where the likelihood can have several maxima, and it
refits a replicate whose warm refit failed or ended on a bound, in batches
within the same budget. Stratum variances add for the total because the
strata are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import _parallel, mle, model
from .exceptions import (
    BootstrapError,
    DualdepError,
    InformationMatrixError,
    ValidationError,
)
from .mle import DEFAULT_SEED, FitOptions, FitResult
from .model import ModelParams, PARAM_NAMES
from .tables import CellCounts, SurveyData, _unchecked_survey

__all__ = [
    "QUANTITIES",
    "quantities",
    "HessianSE",
    "BootstrapResult",
    "UncertaintyReport",
    "se_from_hessian",
    "bootstrap",
    "normal_quantile",
    "confidence_interval",
    "uncertainty_report",
]

QUANTITIES = ("N_A", "N_B", "N_total", "alpha", "p1", "p2A", "p2B")


def quantities(params: ModelParams) -> tuple[float, ...]:
    """The value of each of ``QUANTITIES`` at ``params``, in that order."""
    return tuple(_quantity_rows(params.as_array()[:, None])[0].tolist())


def _quantity_rows(theta: np.ndarray) -> np.ndarray:
    """``quantities`` of each column of parameters ``theta`` (6, T), one row
    per column: (T, 7)."""
    return np.vstack((theta[:2], theta[0] + theta[1], theta[2:])).T


_MAX_ATTEMPTS = 11  # first try plus ten retries with fresh draws
_FAILURE_CAP = 0.05


@dataclass(frozen=True, eq=False)
class HessianSE:
    """Standard errors from the observed information at the fitted point.

    Parameters on an active bound are excluded from the information matrix
    and reported with NaN, listed in ``flagged``. ``se_total`` adds the two
    size variances.
    """

    se: dict[str, float]
    se_total: float
    flagged: tuple[str, ...]
    free: tuple[str, ...]
    covariance: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Replicate estimates and their summary over successful refits."""

    estimates: dict[str, np.ndarray]
    mean: dict[str, float]
    se: dict[str, float]
    n_requested: int
    seed: int
    failures: tuple[tuple[int, str], ...]

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def n_used(self) -> int:
        return self.n_requested - self.n_failed


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Aggregated uncertainty for a fit, per requested method.

    ``ci`` maps method -> quantity -> (lower, upper) for the stratum sizes
    and the total; an entry is None when the interval is undefined (point
    estimate at the observed total).
    """

    methods: tuple[str, ...]
    level: float
    se_hessian: dict[str, float] | None
    hessian_flagged: tuple[str, ...]
    hessian_note: str | None
    se_bootstrap: dict[str, float] | None
    ci: dict[str, dict[str, tuple[float, float] | None]]
    n_replicates: int
    n_failed_replicates: int
    bootstrap_result: BootstrapResult | None = field(repr=False, default=None)


def se_from_hessian(fit: FitResult, data: SurveyData) -> HessianSE:
    """Invert the negative analytic Hessian at the fitted parameters.

    Uses the full six-parameter information even for reduced-mode fits
    (the eliminated coordinates are already restored in ``fit.params``).
    Raises InformationMatrixError when the information restricted to the
    free parameters is not positive definite; the bootstrap still works
    then.
    """
    if not fit.converged:
        raise ValidationError("fit did not converge; standard errors would be meaningless")
    hess = model.hessian(fit.params, data)
    free = [i for i, name in enumerate(PARAM_NAMES) if name not in fit.active_constraints]
    flagged = tuple(name for name in PARAM_NAMES if name in fit.active_constraints)
    if not free:
        raise InformationMatrixError("every parameter is on a constraint bound")
    info = -hess[np.ix_(free, free)]
    if not np.all(np.isfinite(info)):
        raise InformationMatrixError(
            "observed information has non-finite entries at the fitted point; use the bootstrap"
        )
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise InformationMatrixError(
            "observed information is singular or indefinite at the fitted point; "
            "use the bootstrap"
        ) from None
    cov = np.linalg.inv(info)
    se = {name: float("nan") for name in PARAM_NAMES}
    for pos, idx in enumerate(free):
        se[PARAM_NAMES[idx]] = math.sqrt(cov[pos, pos])
    var_total = se["N_A"] ** 2 + se["N_B"] ** 2
    return HessianSE(
        se=se,
        se_total=math.sqrt(var_total) if math.isfinite(var_total) else float("nan"),
        flagged=flagged,
        free=tuple(PARAM_NAMES[i] for i in free),
        covariance=cov,
    )


def _replicate_probs(counts: CellCounts, n_hat: float) -> np.ndarray:
    missed = max(n_hat - counts.total, 0.0)
    probs = np.array([counts.x11, counts.x10, counts.x01, missed], dtype=float) / n_hat
    return probs / probs.sum()


def _replicate_rates(data: SurveyData, fit: FitResult):
    """Per stratum, the rounded fitted size and the (x11, x10, x01,
    unobserved) cell rates that a bootstrap draw takes."""
    return ((round(fit.params.n_a), _replicate_probs(data.stratum_a, fit.params.n_a)),
            (round(fit.params.n_b), _replicate_probs(data.stratum_b, fit.params.n_b)))


def _tables(rng: np.random.Generator, rates) -> tuple[np.ndarray, np.ndarray]:
    """One multinomial table per stratum of ``rates`` (``_replicate_rates``)."""
    (size_a, probs_a), (size_b, probs_b) = rates
    return rng.multinomial(size_a, probs_a), rng.multinomial(size_b, probs_b)


def draw_replicate_tables(
    data: SurveyData, fit: FitResult, rng: np.random.Generator, rates=None
) -> tuple[np.ndarray, np.ndarray]:
    """One bootstrap draw per stratum: multinomial tables of the rounded
    fitted sizes over (x11, x10, x01, unobserved) cell rates. A caller that
    draws many passes the rates, computed once (``_replicate_rates``)."""
    return _tables(rng, rates if rates is not None else _replicate_rates(data, fit))


def _drawn_survey(table_a, table_b, label_a: str = "A", label_b: str = "B") -> SurveyData | None:
    """The survey of two drawn stratum tables (x11, x10, x01, unobserved), or
    None when either stratum has x11 = 0, where no estimator is defined.
    With x11 >= 1 in both strata the counts are always a valid survey, so
    it is built without re-running the checks."""
    if table_a[0] < 1 or table_b[0] < 1:
        return None
    return _unchecked_survey(table_a[:3].tolist(), table_b[:3].tolist(), label_a, label_b)


def _fit_outcome(outcome) -> tuple[FitResult | None, str]:
    """A ``mle.fit_many`` outcome as (fit, "") or, for a package error, (None,
    its text)."""
    if isinstance(outcome, DualdepError):
        return None, str(outcome)
    return outcome, ""


def _warm_start(fit: FitResult) -> np.ndarray | None:
    """The start of every warm refit around ``fit``: its parameters (6, 1),
    or None (refit from the starting grid) when it sits on a bound."""
    return None if fit.active_constraints else fit.params.as_array()[:, None]


def _refit(surveys, options: FitOptions, start):
    """The fits of a block's drawn tables as (parameters (6, T), errors),
    read out as arrays (``mle._fits``): each table climbs from ``start``
    (the parent fit's parameters), and the tables whose warm refit raised a
    package error or ended on a bound refit from the starting grid, in
    batches of at most ``_parallel.BLOCK_COLUMNS`` solver columns
    (``_parallel.blocks``). With ``start`` None, the grid refits every table
    in one batch (the block is already sized for the grid). ``errors`` holds
    per table None or its package error; a table's parameters are read only
    where it has none."""
    fits = mle._fits(surveys, options, start)
    theta, errors = fits.theta, fits.errors
    if start is not None:
        failed = np.array([error is not None for error in errors])
        again = np.flatnonzero(failed | fits.active.any(axis=0)).tolist()
        for block in _parallel.blocks(len(again), options.n_starts):
            chunk = again[block.start:block.stop]
            grid = mle._fits([surveys[k] for k in chunk], options)
            theta[:, chunk] = grid.theta
            for k, error in zip(chunk, grid.errors):
                errors[k] = error
    return theta, errors


def _replicate_stream(streams: _parallel.Streams, index: int, attempt: int, rates):
    """Replicate ``index``'s stream on the block's generator, where the draw
    of its ``attempt`` (0 for the first) starts: set to the stream's start,
    then past the draws of the earlier attempts, replayed with the same
    ``rates``."""
    rng = streams.at(index)
    for _ in range(attempt):
        _tables(rng, rates)
    return rng


def _bootstrap_block(task):
    """Run one block of replicates. The cell rates are computed once, and
    every replicate draws from its own stream (keyed by seed and replicate
    index), set up on the block's one generator (``_parallel.Streams``).
    The block's tables are refit in one batch (``_refit``) with the parent
    fit's options, warm from the parent fit unless the parent sits on a
    bound, and read out as arrays, with no FitResult per replicate. Only the
    replicates whose attempt failed draw again, continuing their own streams
    (``_replicate_stream``), for up to _MAX_ATTEMPTS attempts. Returns
    (index, the ``QUANTITIES`` of the refit or None, reason of the last
    failure) per replicate."""
    indices, seed, data, fit = task
    rates = _replicate_rates(data, fit)
    start = _warm_start(fit)
    streams = _parallel.Streams(seed)
    rows, reasons = [None] * len(indices), [""] * len(indices)
    pending = range(len(indices))
    for attempt in range(_MAX_ATTEMPTS):
        if not pending:
            break
        drawn, surveys = [], []
        for pos in pending:
            rng = _replicate_stream(streams, indices[pos], attempt, rates)
            survey = _drawn_survey(*draw_replicate_tables(data, fit, rng, rates),
                                   data.label_a, data.label_b)
            if survey is None:
                reasons[pos] = "drawn x11 was zero"
            else:
                drawn.append(pos)
                surveys.append(survey)
        if not surveys:  # every pending replicate drew x11 = 0: nothing to refit
            continue
        theta, errors = _refit(surveys, fit.options, start)
        for pos, row, error in zip(drawn, _quantity_rows(theta).tolist(), errors):
            if error is None:
                rows[pos], reasons[pos] = tuple(row), ""
            else:
                reasons[pos] = str(error)
        pending = [pos for pos in pending if rows[pos] is None]
    return list(zip(indices, rows, reasons))


def bootstrap(
    data: SurveyData,
    fit: FitResult,
    n_replicates: int = 500,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> BootstrapResult:
    """Imputed parametric bootstrap around a converged fit.

    Each replicate redraws both strata from the fitted cell rates and
    refits with the options of the original fit, ``fit.options``. A refit
    climbs from one start, the fitted parameters clipped into the drawn
    table's box. It climbs from the starting grid of ``fit.options.n_starts``
    points instead when ``fit`` has an active constraint, and in a second
    batch when its warm refit raised a package error (non-convergence
    among them) or ended on a bound; that costs no attempt and no draw. A
    replicate gets up to ten fresh redraws after a failed attempt (zero x11
    draw, or a package error from the refit); replicates that still fail
    are logged with the reason of their last
    attempt, and more than 5% failures aborts with BootstrapError.
    Replicates run in blocks of at most ``_parallel.BLOCK_COLUMNS`` solver
    columns (one per warm refit, ``fit.options.n_starts`` per grid refit),
    each block's refits as one batch, and the blocks are spread over
    ``threads`` processes (replicates that fit in one block run in this
    process). Replicate
    streams are keyed by (seed, replicate index), the seed modulo 2**64 (a
    negative seed wraps), and a refit does not depend on its batch, so
    results depend neither on ``threads`` nor on the block size.
    """
    if n_replicates < 1:
        raise ValidationError("B must be >= 1 for bootstrap")
    if not fit.converged:
        raise ValidationError("fit did not converge; bootstrap needs a converged fit")
    width = 1 if _warm_start(fit) is not None else fit.options.n_starts
    tasks = [(block, int(seed), data, fit)
             for block in _parallel.blocks(n_replicates, width, threads)]
    outcomes = [row for part in _parallel.run_indexed(_bootstrap_block, tasks, threads)
                for row in part]

    rows, failures = [], []
    for index, values, err in outcomes:
        if values is None:
            failures.append((index, err))
        else:
            rows.append(values)
    if len(failures) > _FAILURE_CAP * n_replicates:
        raise BootstrapError(
            f"{len(failures)} of {n_replicates} bootstrap replicates failed "
            f"(cap is {_FAILURE_CAP:.0%}); data may be near the constraint boundary"
        )
    matrix = np.array(rows, dtype=float)
    estimates = {name: matrix[:, col] for col, name in enumerate(QUANTITIES)}
    mean = {name: float(np.mean(vec)) for name, vec in estimates.items()}
    se = {
        name: float(math.sqrt(np.mean((vec - mean[name]) ** 2)))
        for name, vec in estimates.items()
    }
    return BootstrapResult(
        estimates=estimates,
        mean=mean,
        se=se,
        n_requested=n_replicates,
        seed=int(seed),
        failures=tuple(failures),
    )


def normal_quantile(level: float) -> float:
    """Two-sided standard-normal quantile for a confidence level in (0, 1).

    The 95% quantile is the conventional 1.96 exactly.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    return 1.96 if level == 0.95 else NormalDist().inv_cdf(0.5 + level / 2.0)


def confidence_interval(
    n_hat: float, x0: float, sigma2: float, level: float = 0.95
) -> tuple[float, float]:
    """Multiplicative interval for a population size above its observed floor.

    The excess n_hat - x0 is scaled by C = exp(z * sqrt(log(1 + sigma2 /
    (n_hat - x0)^2))), giving [x0 + (n_hat - x0)/C, x0 + (n_hat - x0)*C].
    z is ``normal_quantile(level)``. The lower endpoint can never fall below
    x0.
    """
    z = normal_quantile(level)
    if sigma2 < 0.0:
        raise ValidationError(f"sigma2 must be non-negative, got {sigma2}")
    if not n_hat > x0:
        raise ValidationError(
            f"point estimate {n_hat} must exceed the observed total {x0}"
        )
    excess = n_hat - x0
    c = math.exp(z * math.sqrt(math.log1p(sigma2 / excess**2)))
    return (x0 + excess / c, x0 + excess * c)


def uncertainty_report(
    data: SurveyData,
    fit: FitResult,
    methods: tuple[str, ...] = ("hessian", "bootstrap"),
    n_replicates: int = 500,
    seed: int = DEFAULT_SEED,
    level: float = 0.95,
    threads: int = 1,
) -> UncertaintyReport:
    """Run the requested uncertainty methods and build size intervals.

    Information-matrix intervals center on the maximum-likelihood point;
    bootstrap intervals center on the bootstrap mean (the convention used
    for reported tables). If the information matrix fails and the
    bootstrap was also requested, the report degrades gracefully with a
    note; if it was the only method, the error propagates.
    """
    for method in methods:
        if method not in ("hessian", "bootstrap"):
            raise ValidationError(f"unknown uncertainty method {method!r}")
    normal_quantile(level)  # reject a bad level before any method runs
    x0 = {
        "N_A": float(data.stratum_a.total),
        "N_B": float(data.stratum_b.total),
        "N_total": float(data.pooled().total),
    }

    se_hessian = None
    hessian_flagged: tuple[str, ...] = ()
    hessian_note = None
    ci: dict[str, dict[str, tuple[float, float] | None]] = {}

    if "hessian" in methods:
        try:
            hess_se = se_from_hessian(fit, data)
        except InformationMatrixError as exc:
            if "bootstrap" not in methods:
                raise
            hessian_note = str(exc)
        else:
            se_hessian = dict(hess_se.se)
            se_hessian["N_total"] = hess_se.se_total
            hessian_flagged = hess_se.flagged
            centers = {
                "N_A": fit.params.n_a,
                "N_B": fit.params.n_b,
                "N_total": fit.params.total,
            }
            ci["hessian"] = _size_intervals(centers, x0, se_hessian, level)

    se_bootstrap = None
    boot = None
    if "bootstrap" in methods:
        boot = bootstrap(data, fit, n_replicates, seed, threads)
        se_bootstrap = dict(boot.se)
        ci["bootstrap"] = _size_intervals(boot.mean, x0, boot.se, level)

    return UncertaintyReport(
        methods=tuple(methods),
        level=level,
        se_hessian=se_hessian,
        hessian_flagged=hessian_flagged,
        hessian_note=hessian_note,
        se_bootstrap=se_bootstrap,
        ci=ci,
        n_replicates=boot.n_requested if boot is not None else 0,
        n_failed_replicates=boot.n_failed if boot is not None else 0,
        bootstrap_result=boot,
    )


def _size_intervals(centers, x0, se, level) -> dict[str, tuple[float, float] | None]:
    """The multiplicative interval of each size named in ``x0``, or None where
    it is undefined: the SE is missing or not finite, or the center does not
    exceed the observed total."""
    out: dict[str, tuple[float, float] | None] = {}
    for name in x0:
        sigma = se.get(name, float("nan"))
        if not math.isfinite(sigma) or centers[name] <= x0[name]:
            out[name] = None
            continue
        out[name] = confidence_interval(centers[name], x0[name], sigma**2, level)
    return out
