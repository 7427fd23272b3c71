"""Uncertainty for fitted estimates: information-matrix and bootstrap SEs,
and the log-normal-style confidence interval for population sizes.

The bootstrap is "imputed": each replicate resamples a full multinomial
table of (rounded) fitted size per stratum, including the estimated
unobserved cell, then refits the model on the starred observed cells.
Replicates run in fixed-size blocks whose refits are one batched solve
(``mle.fit_many``). Stratum variances add for the total because the strata
are independent.
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
from .model import PARAM_NAMES
from .tables import CellCounts, SurveyData

__all__ = [
    "QUANTITIES",
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


def draw_replicate_tables(
    data: SurveyData, fit: FitResult, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One bootstrap draw per stratum: multinomial tables of the rounded
    fitted sizes over (x11, x10, x01, unobserved) cell rates."""
    table_a = rng.multinomial(
        round(fit.params.n_a), _replicate_probs(data.stratum_a, fit.params.n_a)
    )
    table_b = rng.multinomial(
        round(fit.params.n_b), _replicate_probs(data.stratum_b, fit.params.n_b)
    )
    return table_a, table_b


def _bootstrap_block(task):
    """Run one block of replicates. Every replicate draws its first attempt
    from its own Philox stream (keyed by seed and replicate index) and the
    block's tables are refit in one batch; only the replicates whose attempt
    failed draw again, continuing their own streams, for up to
    _MAX_ATTEMPTS attempts. Returns (index, estimates or None, reason of the
    last failure) per replicate."""
    indices, seed, data, fit, options = task
    rngs = {index: _parallel.stream(seed, index) for index in indices}
    values, reasons = {}, {}
    pending = list(indices)
    for _ in range(_MAX_ATTEMPTS):
        if not pending:
            break
        drawn, surveys = [], []
        for index in pending:
            table_a, table_b = draw_replicate_tables(data, fit, rngs[index])
            if table_a[0] < 1 or table_b[0] < 1:
                reasons[index] = "drawn x11 was zero"
                continue
            try:
                surveys.append(SurveyData(
                    CellCounts(int(table_a[0]), int(table_a[1]), int(table_a[2])),
                    CellCounts(int(table_b[0]), int(table_b[1]), int(table_b[2])),
                    data.label_a,
                    data.label_b,
                ))
            except DualdepError as exc:
                reasons[index] = str(exc)
                continue
            drawn.append(index)
        for index, refit in zip(drawn, mle.fit_many(surveys, options)):
            if isinstance(refit, DualdepError):
                reasons[index] = str(refit)
            elif not refit.converged:
                reasons[index] = "refit did not converge"
            else:
                p = refit.params
                values[index] = (p.n_a, p.n_b, p.total, p.alpha, p.p1, p.p2a, p.p2b)
        pending = [index for index in pending if index not in values]
    return [(index, values.get(index), "" if index in values else reasons[index])
            for index in indices]


def bootstrap(
    data: SurveyData,
    fit: FitResult,
    n_replicates: int = 500,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
    options: FitOptions | None = None,
) -> BootstrapResult:
    """Imputed parametric bootstrap around a converged fit.

    Each replicate redraws both strata from the fitted cell rates and
    refits with the same options as the original fit (overridable). A
    replicate gets up to ten fresh redraws after a failed attempt (zero
    x11 draw, a package error from the refit, or non-convergence);
    replicates that still fail are logged with the reason of their last
    attempt, and more than 5% failures aborts with BootstrapError.
    Replicates run in blocks of ``_parallel.BLOCK_SIZE``, each refit as one
    batch, and the blocks are spread over ``threads`` processes. Replicate
    streams are keyed by (seed, replicate index) and a refit does not depend
    on its batch, so results depend neither on ``threads`` nor on the block
    size.
    """
    if n_replicates < 1:
        raise ValidationError("B must be >= 1 for bootstrap")
    if not fit.converged:
        raise ValidationError("fit did not converge; bootstrap needs a converged fit")
    options = options or fit.options
    tasks = [(block, int(seed), data, fit, options) for block in _parallel.blocks(n_replicates)]
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


def _size_intervals(centers, x0, se, level):
    out: dict[str, tuple[float, float] | None] = {}
    for name in ("N_A", "N_B", "N_total"):
        sigma = se.get(name, float("nan"))
        if not math.isfinite(sigma) or centers[name] <= x0[name]:
            out[name] = None
            continue
        out[name] = confidence_interval(centers[name], x0[name], sigma**2, level)
    return out
