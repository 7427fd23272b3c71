"""Uncertainty for fitted estimates: information-matrix and bootstrap SEs,
and the log-normal-style confidence interval for population sizes.

The bootstrap is "imputed": each replicate resamples a full multinomial
table of (rounded) fitted size per stratum, including the estimated
unobserved cell, then refits the model on the starred observed cells.
Drawing and reducing run in the calling process, and each attempt's drawn
tables are refitted by the package's one replicate pipeline, which the
simulation studies share (``mle._fit_drawn``): a table whose moment point
it certifies from the counts is refitted in closed form, and never set up
for the solver; only the others go to the solver, as the same counts (no
drawn table becomes a SurveyData), in blocks spread over the worker
processes, each refit climbing from the drawn table's starting grid, as
every fit does. Stratum variances add for the total because the strata are
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import _parallel, mle, model
from .exceptions import BootstrapError, DualdepError, InformationMatrixError, ValidationError
from .mle import DEFAULT_SEED, FitResult
from .model import ModelParams, PARAM_NAMES
from .tables import CellCounts, SurveyData, _pair

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
    return _quantity_row(params.as_array().tolist())


def _quantity_row(theta) -> tuple:
    """``quantities`` of the six parameters ``theta``, a list of numbers."""
    n_a, n_b, *rest = theta
    return (n_a, n_b, n_a + n_b, *rest)


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
    active = tuple(name in fit.active_constraints for name in PARAM_NAMES)
    (outcome,) = _hessian_ses([(fit.params.as_tuple(), active, _pair(data))])
    if isinstance(outcome, DualdepError):
        raise outcome
    return outcome


def _hessian_ses(fits) -> list:
    """``se_from_hessian`` of many fits, each given by what the studies keep
    of it: a (params, active, counts) row, ``params`` its six parameters and
    ``active`` which of them lie on an active bound, both in PARAM_NAMES
    order, and ``counts`` its table's (a, b) counts. One pass: one factor
    table over every fit's point, screened for evaluability in one pass
    (``model._unevaluable``; ``model._check`` gives a flagged point its
    error), then per set of free parameters one stacked Cholesky test and
    one stacked inverse. Returns, per fit, its HessianSE or the package error
    ``se_from_hessian`` raises; a fit's result does not depend on the other
    fits."""
    if not fits:
        return []
    theta = np.array([params for params, _, _ in fits]).T
    counts = np.array([model._counts(*table) for _, _, table in fits]).T
    values, weights = model._values(theta, counts)
    hess = model._square(model._hess(values, weights))
    flagged = model._unevaluable(values, counts).tolist()
    outcomes: list = [None] * len(fits)
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, (_, active, _) in enumerate(fits):
        if flagged[k]:
            try:
                model._check(values[:, k:k + 1], counts[:, k:k + 1])
            except DualdepError as exc:
                outcomes[k] = exc.with_traceback(None)
                continue
        free = tuple(i for i, on in enumerate(active) if not on)
        if free:
            groups.setdefault(free, []).append(k)
        else:
            outcomes[k] = InformationMatrixError("every parameter is on a constraint bound")
    for free, members in groups.items():
        info = -hess[np.ix_(members, free, free)]
        finite = np.isfinite(info).all(axis=(1, 2))
        definite = finite.copy()
        try:
            np.linalg.cholesky(info[finite])
        except np.linalg.LinAlgError:  # one failure fails the whole stack
            for j in np.flatnonzero(finite).tolist():
                try:
                    np.linalg.cholesky(info[j])
                except np.linalg.LinAlgError:
                    definite[j] = False
        covariances = iter(np.linalg.inv(info[definite]))
        names = tuple(PARAM_NAMES[i] for i in free)
        flagged = tuple(name for name in PARAM_NAMES if name not in names)
        for j, k in enumerate(members):
            if not finite[j]:
                outcomes[k] = InformationMatrixError(
                    "observed information has non-finite entries at the fitted point; "
                    "use the bootstrap")
                continue
            if not definite[j]:
                outcomes[k] = InformationMatrixError(
                    "observed information is singular or indefinite at the fitted point; "
                    "use the bootstrap")
                continue
            cov = next(covariances)
            se = {name: float("nan") for name in PARAM_NAMES}
            for pos, name in enumerate(names):
                se[name] = math.sqrt(cov[pos, pos])
            var_total = se["N_A"] ** 2 + se["N_B"] ** 2
            outcomes[k] = HessianSE(
                se=se,
                se_total=math.sqrt(var_total) if math.isfinite(var_total) else float("nan"),
                flagged=flagged,
                free=names,
                covariance=cov,
            )
    return outcomes


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


def _drawn_counts(table_a, table_b):
    """The (x11, x10, x01) counts of two drawn stratum tables (x11, x10, x01,
    unobserved) as lists of Python ints, or None when either stratum has
    x11 = 0, where no estimator is defined. The bootstrap (a failed
    attempt) and the studies (a redraw) decide that case here; with x11 >= 1
    in both strata the counts are a table the fit takes as it is."""
    a, b = table_a[:3].tolist(), table_b[:3].tolist()
    return None if a[0] < 1 or b[0] < 1 else (a, b)


def _replicate_stream(streams: _parallel.Streams, index: int, attempt: int, rates):
    """Replicate ``index``'s stream on the bootstrap's generator, where the draw
    of its ``attempt`` (0 for the first) starts: set to the stream's start,
    then past the draws of the earlier attempts, replayed with the same
    ``rates``."""
    rng = streams.at(index)
    for _ in range(attempt):
        _tables(rng, rates)
    return rng


def _bootstrap_rows(indices, seed: int, data: SurveyData, fit: FitResult,
                    threads: int = 1) -> list:
    """``bootstrap``'s replicates ``indices``, as (index, the ``QUANTITIES``
    of the refit or None, reason of the last failure). Each attempt is one
    pass over the pending replicates, with the cell rates computed once and
    every stream set up on one generator (``_parallel.Streams``): draw, read
    the table as Python ints (``_drawn_counts``), and refit the drawn tables
    with the parent fit's options (``mle._fit_drawn``). A replicate whose
    attempt failed continues its own stream (``_replicate_stream``)."""
    rates = _replicate_rates(data, fit)
    streams = _parallel.Streams(seed)
    rows, reasons = [None] * len(indices), [""] * len(indices)
    pending = range(len(indices))
    for attempt in range(_MAX_ATTEMPTS):
        if not pending:
            break
        drawn, draws = [], []
        for pos in pending:
            rng = _replicate_stream(streams, indices[pos], attempt, rates)
            counts = _drawn_counts(*draw_replicate_tables(data, fit, rng, rates))
            if counts is None:
                reasons[pos] = "drawn x11 was zero"
            else:
                drawn.append(pos)
                draws.append(counts)
        for pos, (params, _, error) in zip(drawn, mle._fit_drawn(draws, fit.options, threads)):
            rows[pos], reasons[pos] = ((_quantity_row(params), "") if error is None
                                       else (None, str(error)))
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
    refits with the options of the original fit, ``fit.options``. Where the
    drawn table's moment point lies strictly inside its box, off the
    activity band of every bound, that point is the refit, in closed form
    (certified from the drawn counts by ``mle._fit_drawn``), whatever
    ``fit`` is. Any other refit goes to the solver, which sets the table up
    once and climbs from its starting grid of ``fit.options.n_starts``
    points. A replicate gets up to ten fresh redraws after a failed attempt
    (zero x11 draw, or a package error from the refit, non-convergence
    among them); replicates that still fail are logged with the reason of
    their last attempt, and more than 5% failures aborts with
    BootstrapError. Only the solver refits leave this process, spread over
    ``threads`` processes when they fill more than one block of solver
    columns, so a bootstrap whose every draw is certified starts no
    process. Replicate streams are keyed by (seed, replicate index), the
    seed modulo 2**64 (a negative seed wraps), and a refit does not depend
    on its batch, so results depend neither on ``threads`` nor on the block
    size.
    """
    if n_replicates < 1:
        raise ValidationError("B must be >= 1 for bootstrap")
    _parallel.check_threads(threads)
    if not fit.converged:
        raise ValidationError("fit did not converge; bootstrap needs a converged fit")
    rows, failures = [], []
    for index, values, err in _bootstrap_rows(range(n_replicates), seed, data, fit, threads):
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
    if not sigma2 >= 0.0:  # NaN too
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
    normal_quantile(level)  # reject a bad level or thread count before any method runs
    _parallel.check_threads(threads)
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
