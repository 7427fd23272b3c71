"""Constrained maximum-likelihood fitting with multi-start initialization.

The likelihood surface is sensitive to starting points, so the fit runs a
deterministic grid of interior starts, climbs from each with a projected
Newton method on the analytic Hessian until the projected gradient is below
the tolerance (1e-8 by default), and keeps the best local maximum.
Population sizes are box-constrained between the observed totals and the
per-stratum naive estimates; probabilities live in the unit interval.
``fit_many`` climbs from every start of many tables in one batched solve,
and ``fit`` is one table through it. Both modes run that solver on a linear
map from solver coordinates to the six parameters; its chain rule is one
multiply and one fixed segment sum on the model's gradient and Hessian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model
from ._parallel import stream
from .exceptions import (
    DualdepError, FitError, InfeasibleConstraintsError, NonConvergenceError, ValidationError,
)
from .model import ModelParams, PARAM_NAMES
from .tables import SurveyData, naive_estimate

__all__ = [
    "DEFAULT_SEED", "FitOptions", "StartDiagnostics", "FitResult", "starting_points", "fit",
    "fit_many",
]

DEFAULT_SEED = 20180331

_ALPHA_GRID = (0.05, 0.10, 0.02, 0.20)  # midpoint-ish value first
_START_MARGIN = 1e-4
_ACTIVITY_TOL = 1e-6
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the constrained fit; defaults match the package's reference runs."""

    mode: str = "reduced"
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    n_starts: int = 12
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in ("reduced", "full"):
            raise ValidationError(f"mode must be 'reduced' or 'full', got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0.0:
            raise ValidationError("gradient_tolerance must be positive")
        if self.n_starts < 1:
            raise ValidationError("n_starts must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class StartDiagnostics:
    """Outcome of one starting point."""

    start: ModelParams
    log_likelihood: float
    projected_gradient: float
    converged: bool
    iterations: int
    message: str


@dataclass(frozen=True)
class FitResult:
    """A fitted model with convergence metadata.

    ``active_constraints`` lists parameters sitting on a box bound in
    natural coordinates. ``size_ratio_gap`` and ``p2_identity_gap`` report
    the relative violation of the two reduction identities; both are
    exactly zero in reduced mode.
    """

    params: ModelParams
    log_likelihood: float
    converged: bool
    iterations: int
    active_constraints: frozenset[str]
    n_hat_total: float
    mode: str
    options: FitOptions
    size_ratio_gap: float
    p2_identity_gap: float
    per_start_diagnostics: tuple[StartDiagnostics, ...] = field(repr=False, default=())


# --- constraint boxes --------------------------------------------------------

def _stratum_boxes(data: SurveyData) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-stratum size boxes [observed total, naive estimate]."""
    out = []
    for label, counts in data.strata:
        if counts.x11 < 1:
            raise FitError(
                f"stratum {label!r} has x11 = 0: the naive upper bound does not exist"
            )
        out.append((float(counts.total), naive_estimate(counts)))
    return out[0], out[1]


def _reduced_nb_box(boxes, ratio: float) -> tuple[float, float]:
    """Box for N_B with the N_A box of the per-stratum ``boxes`` mapped
    through the size ratio."""
    (lo_a, hi_a), (lo_b, hi_b) = boxes
    lo = max(lo_b, lo_a / ratio)
    hi = min(hi_b, hi_a / ratio)
    # division then re-multiplication can overshoot by an ulp; walk the
    # endpoints until every in-box N_B maps inside the N_A box exactly
    while hi > lo and (ratio * hi > hi_a or hi > hi_b):
        hi = math.nextafter(hi, 0.0)
    while lo < hi and (ratio * lo < lo_a or lo < lo_b):
        lo = math.nextafter(lo, math.inf)
    if not lo < hi:
        raise InfeasibleConstraintsError(
            "size constraints admit no stratum-B value: "
            f"max({lo_b:.1f}, {lo_a / ratio:.1f}) >= min({hi_b:.1f}, {hi_a / ratio:.1f}); "
            "the shared-p1 identification is infeasible for this data"
        )
    return lo, hi


def _setup(data: SurveyData, mode: str):
    """The constants of one table's problem: the per-stratum size boxes, the
    size ratio and p2A multiplier, the N_B box and the upper bound of p2B.
    In reduced mode N_B's box is mapped through the size ratio and p2B's
    bound keeps p2A = multiplier * p2B at most 1."""
    boxes = _stratum_boxes(data)
    ratio, multiplier = model.size_ratio(data), model.p2a_ratio(data)
    if mode == "full":
        return boxes, ratio, multiplier, boxes[1], 1.0
    p2b_hi = min(1.0, 1.0 / multiplier) if multiplier > 0.0 else 1.0
    return boxes, ratio, multiplier, _reduced_nb_box(boxes, ratio), p2b_hi


def _margin_clip(value: float, lo: float, hi: float, margin: float) -> float:
    pad = margin * (hi - lo)
    return min(max(value, lo + pad), hi - pad)


# --- starting points ----------------------------------------------------------

def starting_points(data: SurveyData, options: FitOptions | None = None) -> list[ModelParams]:
    """Deterministic interior starting grid.

    Crosses three pooled-size hypotheses (midpoint first, then 1.2x the
    observed total and 0.8x the pooled naive estimate) with the alpha grid
    (0.05, 0.10, 0.02, 0.20); p1 is the pooled list-1 rate under each size
    hypothesis and p2B the stratum-B list-2 rate under its implied share.
    All points sit strictly inside the constraint box with a 1e-4 margin.
    Requests beyond the 12 grid points are filled with seeded uniform
    interior draws.
    """
    options = options or FitOptions()
    return _starts(data, options, _setup(data, options.mode))


def _starts(data: SurveyData, options: FitOptions, setup) -> list[ModelParams]:
    """``starting_points`` from the table's ``_setup``."""
    ((na_lo, na_hi), _), ratio, multiplier, (nb_lo, nb_hi), p2b_hi = setup
    pooled = data.pooled()
    x0_pool = float(pooled.total)
    naive_pool = naive_estimate(pooled)
    lo_anchor = 1.2 * x0_pool
    hi_anchor = 0.8 * naive_pool
    anchors = ((lo_anchor + hi_anchor) / 2.0, lo_anchor, hi_anchor)
    x2b = float(data.stratum_b.n_list2)

    def point(n_b: float, alpha: float, p1: float, p2b: float) -> ModelParams:
        # model.expand, with the data ratios computed once
        n_a, p2a = ratio * n_b, min(multiplier * p2b, 1.0)
        if options.mode == "full":
            n_a = _margin_clip(n_a, na_lo, na_hi, _START_MARGIN)
            p2a = _margin_clip(p2a, 0.0, 1.0, _START_MARGIN)
        return ModelParams(n_a, n_b, alpha, p1, p2a, p2b)

    points: list[ModelParams] = []
    for total in anchors:
        n_b = _margin_clip(total / (1.0 + ratio), nb_lo, nb_hi, _START_MARGIN)
        p1 = _margin_clip(pooled.n_list1 / total, 0.0, 1.0, _START_MARGIN)
        p2b = _margin_clip(x2b / n_b, 0.0, p2b_hi, _START_MARGIN)
        for alpha in _ALPHA_GRID:
            points.append(point(n_b, alpha, p1, p2b))
            if len(points) == options.n_starts:
                return points

    rng = stream(options.seed, 0)
    while len(points) < options.n_starts:
        n_b = nb_lo + (nb_hi - nb_lo) * (_START_MARGIN + (1 - 2 * _START_MARGIN) * rng.random())
        alpha = _START_MARGIN + (1 - 2 * _START_MARGIN) * rng.random()
        p1 = _START_MARGIN + (1 - 2 * _START_MARGIN) * rng.random()
        p2b = p2b_hi * (_START_MARGIN + (1 - 2 * _START_MARGIN) * rng.random())
        points.append(point(n_b, alpha, p1, p2b))
    return points


# --- solver ------------------------------------------------------------------

def _trimmed_bounds(lo: np.ndarray, hi: np.ndarray, size_idx: tuple[int, ...],
                    prob_trim: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Pull the optimizer strictly off boundaries where the objective or its
    gradient diverges (zero cell probabilities, N at the observed total)."""
    lo_t, hi_t = lo.copy(), hi.copy()
    for i in range(lo.size):
        width = hi[i] - lo[i]
        if i in size_idx:
            lo_t[i] = max(lo[i] + 1e-9 * width, lo[i] * (1.0 + 1e-12))
        else:
            lo_t[i] = max(lo[i], prob_trim) if lo[i] == 0.0 else lo[i]
            hi_t[i] = hi[i] * (1.0 - prob_trim)
    return lo_t, hi_t


# The solver works on batches. Arrays of shape (P, K) hold one start per
# column in solver coordinates u (P = 4 in reduced mode, 6 in full mode),
# next to the constants of the start's table: counts (8, K), box, and the
# ``scale`` (6, K) of the linear map from u to the six parameters,
# theta[i] = scale[i] * u[sel[i]], whose ``sel`` is one per mode. Every
# operation acts on each column alone, so a start's result does not depend
# on which other starts share its batch.

# Per mode, the solver coordinates (indices into PARAM_NAMES) and ``sel``;
# in reduced mode N_A follows N_B and p2A follows p2B. ``sel`` never
# decreases, so the derivatives meet the coordinates in order.
_COORDINATES = {
    "reduced": ((1, 2, 3, 5), (0, 0, 1, 2, 3, 3)),
    "full": ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)),
}


class _Chain(NamedTuple):
    """The chain rule through theta[i] = scale[i] * u[sel[i]] as segment sums
    (``model._segments``). The gradient in u sums the scaled partials of each
    coordinate's parameters. Entry (c, d), c <= d, of the Hessian in u sums
    scale[i] scale[j] H[i, j] over the parameter pairs with sel[i] = c and
    sel[j] = d, each read from its upper-triangle entry of ``model._hess``,
    so an off-diagonal entry whose parameters share a coordinate counts
    twice, once for its mirror."""

    sel: np.ndarray
    grad_params: np.ndarray  # the parameter of each gradient term
    grad_layout: tuple
    grad_order: np.ndarray  # the summed row of each coordinate
    entries: np.ndarray  # the model entry and the parameters of each Hessian term
    rows: np.ndarray
    cols: np.ndarray
    layout: tuple
    square: np.ndarray  # the summed row of each entry of the P x P Hessian


@functools.cache
def _chain(sel: tuple[int, ...]) -> _Chain:
    """The ``_Chain`` of one ``sel``."""
    size = sel[-1] + 1
    (grad_params,), grad_layout = model._segments([(c, i) for i, c in enumerate(sel)])
    (entries, rows, cols), layout = model._segments([
        (sel[i] * size + sel[j], model._PAIRS.index((min(i, j), max(i, j))), i, j)
        for i in range(6) for j in range(6) if sel[i] <= sel[j]
    ])
    square = [layout[0].index(min(c, d) * size + max(c, d))
              for c in range(size) for d in range(size)]
    return _Chain(np.array(sel), grad_params, grad_layout, np.argsort(grad_layout[0]),
                  entries, rows, cols, layout, np.array(square))


def _expand(u, scale, sel):
    """theta (6, K) from solver coordinates."""
    return scale * u[_chain(tuple(sel)).sel]


def _gradient(u, counts, scale, sel) -> np.ndarray:
    """Log-likelihood gradient in solver coordinates, shape (P, K)."""
    chain = _chain(tuple(sel))
    terms = (scale * model._grad(_expand(u, scale, sel), counts))[chain.grad_params]
    return model._segment_sum(terms, chain.grad_layout)[chain.grad_order]


def _hessian(u, counts, scale, sel) -> np.ndarray:
    """Log-likelihood Hessian in solver coordinates, shape (K, P, P): the
    upper triangle summed once through ``_Chain`` and mirrored."""
    chain = _chain(tuple(sel))
    hess = model._hess(_expand(u, scale, sel), counts)
    terms = hess[chain.entries] * scale[chain.rows] * scale[chain.cols]
    upper = model._segment_sum(terms, chain.layout)
    size = u.shape[0]
    return upper[chain.square].reshape(size, size, -1).transpose(2, 0, 1)


def _projected_gradient(u, grad, lo, hi):
    """Which coordinates are free, and per column the largest free gradient
    entry (NaN if any entry is NaN). A coordinate within the activity band
    of a bound with the gradient pointing out of the box is blocked: it
    belongs on the bound."""
    band = _ACTIVITY_TOL * (hi - lo)
    free = ~(((u - lo <= band) & (grad < 0.0)) | ((hi - u <= band) & (grad > 0.0)))
    return free, np.where(free, np.abs(grad), 0.0).max(axis=0)


def _newton_step(hess, grad):
    """Solve hess[k] step[k] = -grad[k] for each k. Returns the steps and
    which systems were singular (their steps are NaN)."""
    rhs = -grad[..., None]
    singular = np.zeros(len(hess), dtype=bool)
    try:
        return np.linalg.solve(hess, rhs)[..., 0], singular
    except np.linalg.LinAlgError:  # one singular system fails the whole stack
        step = np.full(grad.shape, np.nan)
        for k in range(len(hess)):
            try:
                step[k] = np.linalg.solve(hess[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return step, singular


def _ascent_step(hess, grad):
    """Newton steps with the curvature signs flipped to concave, taken in
    coordinates scaled to unit Hessian diagonal (sizes and probabilities
    differ by orders of magnitude); NaN where the scaled system is not
    finite. ``hess`` is scaled in place, so callers pass a copy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(np.abs(np.diagonal(hess, axis1=1, axis2=2)))
        hess /= d[:, :, None] * d[:, None, :]
        gd = grad / d
    step = np.full(grad.shape, np.nan)
    ok = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(gd).all(axis=1)
    if ok.any():
        lam, vec = np.linalg.eigh(hess if ok.all() else hess[ok])
        y = np.matmul(np.swapaxes(vec, 1, 2), gd[ok][..., None])[..., 0] / np.abs(lam)
        step[ok] = np.matmul(vec, y[..., None])[..., 0] / d[ok]
    return step


def _direction(run):
    """The step of each running start: Newton on the free coordinates (zero
    on the blocked ones), flipped to ascent where it would descend; stopped
    starts get a zero step. Returns (step, singular, broken): the steps,
    shape (P, K); which Newton systems were singular; and which other steps
    are not finite."""
    u, live = run["u"], run["live"]
    size = u.shape[0]
    free = run["free"] & live
    grad = np.where(free, run["grad"], 0.0)
    # blocked coordinates get an identity row and column and a zero
    # gradient entry, so their step is zero
    hess = _hessian(u, run["counts"], run["scale"], run["sel"])
    np.copyto(hess, np.eye(size), where=~(free.T[:, :, None] & free.T[:, None, :]))
    step, singular = _newton_step(hess, grad.T)
    step = step.T
    descend = live & ~((grad * step).sum(axis=0) > 0.0) & ~singular
    if descend.any():
        step[:, descend] = _ascent_step(hess[descend], grad.T[descend]).T
    step = np.where(free, step, 0.0)
    broken = ~np.isfinite(step).all(axis=0) & ~singular
    # where the curvature is extreme the step can be smaller than the
    # spacing of floats and round away; move such coordinates one ulp
    tiny = (step != 0.0) & (u + step == u)
    if tiny.any():
        step = np.where(tiny, np.nextafter(u, np.copysign(np.inf, step)) - u, step)
    return step, singular, broken


def _solve_start(u0, table, counts, scale, sel, lo_t, hi_t, max_iter, tol):
    """Projected Newton (Bertsekas 1982) from a batch of starts.

    Column k of ``u0`` (shape (P, K)) is one start, of table ``table[k]``;
    ``counts`` (8, T), ``scale`` (6, T) and the trimmed box ``lo_t`` and
    ``hi_t`` (P, T) hold the constants of the T tables, and ``sel`` with
    ``scale`` maps solver coordinates to parameters. Each iteration
    holds the coordinates blocked at a bound, takes a Newton step on the
    free ones with the analytic Hessian (curvature flipped to concave where
    the Newton step would descend), clips it to the box and halves it until
    the log-likelihood rises or the projected gradient shrinks. The second
    test is needed because the objective is O(1e5): close to the maximum its
    changes fall below floating-point granularity, so an ascent test alone
    stalls short of tight gradient tolerances. At most ``max_iter`` steps are
    taken. The starts iterate together: one Hessian evaluation and one
    stacked solve serve every start. A start that converges or stops keeps
    its column, masked out of every later step, so the arrays keep one size
    for the whole solve and the memory allocator reuses its blocks.

    Returns (u, log_likelihood, projected_gradient_norm, iterations,
    messages), one column of u and one entry of the others per start.
    """
    table = np.asarray(table)
    run = {"live": np.ones(table.size, dtype=bool), "it": np.zeros(table.size, dtype=int),
           "counts": counts[:, table], "scale": scale[:, table], "sel": sel,
           "lo": lo_t[:, table], "hi": hi_t[:, table]}
    run["u"] = np.clip(u0, run["lo"], run["hi"])
    run["grad"] = _gradient(run["u"], run["counts"], run["scale"], sel)
    run["free"], run["pg"] = _projected_gradient(run["u"], run["grad"], run["lo"], run["hi"])
    messages = [""] * table.size

    def stop(done, message):
        done = done & run["live"]
        for row in np.flatnonzero(done).tolist():
            messages[row] = message
        run["live"] &= ~done

    while True:
        stop(run["pg"] < tol, "converged")
        stop(run["it"] >= max_iter, "iteration cap reached")
        if not run["live"].any():
            break
        step, singular, broken = _direction(run)
        stop(singular, "singular Newton system")
        stop(broken, "non-finite Newton step")
        np.copyto(step, 0.0, where=~run["live"])
        stop(~_line_search(run, step), "no acceptable step")

    u = run["u"]
    theta = _expand(u, run["scale"], sel)
    return u, model._ll(theta, run["counts"]), run["pg"], run["it"], messages


def _line_search(run, step):
    """Backtrack each running start's step from full length, halving it
    until the projected gradient shrinks or the log-likelihood rises.
    Accepted starts move, in place, and count an iteration. Returns which
    starts accepted a step."""
    u, grad, free, pg = run["u"], run["grad"], run["free"], run["pg"]
    lo, hi, counts, scale, sel = run["lo"], run["hi"], run["counts"], run["scale"], run["sel"]
    searching = run["live"].copy()
    accepted = np.zeros_like(searching)
    length = np.ones(u.shape[1])
    value0 = np.full(u.shape[1], np.nan)  # log-likelihood at u, evaluated when first needed
    while searching.any():
        trial = np.clip(u + length * step, lo, hi)
        grad_t = _gradient(trial, counts, scale, sel)
        free_t, pg_t = _projected_gradient(trial, grad_t, lo, hi)
        ok = searching & (pg_t < pg)
        test = searching & ~ok
        if test.any():
            if (test & np.isnan(value0)).any():
                np.copyto(value0, model._ll(_expand(u, scale, sel), counts),
                          where=np.isnan(value0))
            ok |= test & (model._ll(_expand(trial, scale, sel), counts) > value0)
        for state, new in ((u, trial), (grad, grad_t), (free, free_t), (pg, pg_t)):
            np.copyto(state, new, where=ok)
        accepted |= ok
        searching &= ~ok
        length = np.where(searching, 0.5 * length, length)
        searching &= length > 1e-14
    run["it"] += accepted
    return accepted


# --- fitting -------------------------------------------------------------------

@dataclass(frozen=True)
class _Problem:
    """One table's constrained problem in solver coordinates."""

    data: SurveyData
    counts: tuple[float, ...]
    lo_t: np.ndarray
    hi_t: np.ndarray
    scale: tuple[float, ...]  # theta[i] = scale[i] * u[sel[i]]
    ratios: tuple[float, float]  # size ratio, p2A multiplier
    boxes: tuple[tuple[float, float], tuple[float, float]]  # per-stratum size boxes
    starts: list[ModelParams]


def _problem(data: SurveyData, options: FitOptions) -> _Problem:
    """The box and the starts of one table; raises the package error that
    makes the table unfittable."""
    setup = _setup(data, options.mode)
    boxes, ratio, multiplier, nb_box, p2b_hi = setup
    if options.mode == "full" and not all(lo < hi for lo, hi in boxes):
        raise FitError("a stratum size box is degenerate (x10 * x01 = 0)")
    coords, _ = _COORDINATES[options.mode]
    # N_B's box and p2B's bound are the reduced ones in reduced mode, where
    # the tied N_A and p2A are not solver coordinates but take their ratios
    lo, hi = np.array([boxes[0], nb_box, (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, p2b_hi)]).T
    lo_t, hi_t = _trimmed_bounds(lo, hi, size_idx=(0, 1))
    ties = (ratio, 1.0, 1.0, 1.0, multiplier, 1.0)
    scale = tuple(1.0 if i in coords else tie for i, tie in enumerate(ties))
    return _Problem(data, model._counts(data), lo_t[list(coords)], hi_t[list(coords)], scale,
                    (ratio, multiplier), boxes, _starts(data, options, setup))


def _result(problem: _Problem, u, values, pg_norms, iterations, messages, options):
    """The FitResult of one table from its starts' solver outcomes, or the
    NonConvergenceError when no start converged."""
    diagnostics: list[StartDiagnostics] = []
    best = None  # (ll, total, start index, pg, iterations, converged)
    _, sel = _COORDINATES[options.mode]
    theta = _expand(u, np.array(problem.scale)[:, None], sel)
    totals = (theta[0] + theta[1]).tolist()
    for k, (start, value, pg_norm, n_iter, message, total) in enumerate(zip(
        problem.starts, values, pg_norms, iterations, messages, totals
    )):
        converged = pg_norm < options.gradient_tolerance
        diagnostics.append(StartDiagnostics(
            start=start, log_likelihood=value, projected_gradient=pg_norm,
            converged=converged, iterations=n_iter, message=message,
        ))
        # ties: a converged candidate beats a stalled duplicate of the same
        # maximum; among equals, the smaller total wins
        if best is None or value > best[0] + _TIE_TOL or (
            abs(value - best[0]) <= _TIE_TOL and (converged, -total) > (best[5], -best[1])
        ):
            best = (value, total, k, pg_norm, n_iter, converged)

    if not any(d.converged for d in diagnostics):
        return NonConvergenceError(
            f"no starting point reached gradient tolerance {options.gradient_tolerance}",
            diagnostics,
        )

    value, _, k, pg_norm, n_iter, converged = best
    params = ModelParams.from_array(theta[:, k])
    # in reduced mode theta is built from the same products, so both gaps are 0
    ratio, multiplier = problem.ratios
    expected_na = ratio * params.n_b
    size_gap = abs(params.n_a - expected_na) / expected_na
    expected_p2a = multiplier * params.p2b
    denom = max(params.p2a, expected_p2a)
    p2_gap = abs(params.p2a - expected_p2a) / denom if denom > 0.0 else 0.0

    active = set()
    bounds = problem.boxes + ((0.0, 1.0),) * 4
    for name, value_i, (b_lo, b_hi) in zip(PARAM_NAMES, params.as_tuple(), bounds):
        tol_i = _ACTIVITY_TOL * (b_hi - b_lo)
        if value_i - b_lo <= tol_i or b_hi - value_i <= tol_i:
            active.add(name)

    return FitResult(
        params=params,
        log_likelihood=value,
        converged=converged,
        iterations=n_iter,
        active_constraints=frozenset(active),
        n_hat_total=params.total,
        mode=options.mode,
        options=options,
        size_ratio_gap=size_gap,
        p2_identity_gap=p2_gap,
        per_start_diagnostics=tuple(diagnostics),
    )


def fit_many(tables, options: FitOptions | None = None) -> list:
    """Fit many tables with one batched solve over every start of every table.

    Returns, in table order, each table's FitResult or the package error
    fitting it raised (a missing overlap, an empty reduced box, no start
    reaching the tolerance), so one bad table never ends the others. A
    table's result is bit-identical whatever other tables share the batch.
    The batch holds n_starts columns per table; callers with many tables pass
    them in blocks.
    """
    options = options or FitOptions()
    outcomes: list = [None] * len(tables)
    problems = []
    for index, data in enumerate(tables):
        try:
            problems.append((index, _problem(data, options)))
        except DualdepError as exc:
            # without its traceback the error holds no frame, and so no
            # reference cycle through this list, alive
            outcomes[index] = exc.with_traceback(None)
    if not problems:
        return outcomes

    coords, sel = _COORDINATES[options.mode]

    def columns(per_table):
        return np.array(per_table, dtype=float).T

    u0 = np.array([s.as_tuple() for _, p in problems for s in p.starts]).T[list(coords)]
    table = np.repeat(np.arange(len(problems)), [len(p.starts) for _, p in problems])
    u, values, pg_norms, iterations, messages = _solve_start(
        u0, table, columns([p.counts for _, p in problems]),
        columns([p.scale for _, p in problems]), sel,
        columns([p.lo_t for _, p in problems]), columns([p.hi_t for _, p in problems]),
        options.max_iterations, options.gradient_tolerance,
    )
    values, pg_norms, iterations = values.tolist(), pg_norms.tolist(), iterations.tolist()
    end = 0
    for index, problem in problems:
        start, end = end, end + len(problem.starts)
        outcomes[index] = _result(problem, u[:, start:end], values[start:end], pg_norms[start:end],
                                  iterations[start:end], messages[start:end], options)
    return outcomes


def fit(data: SurveyData, options: FitOptions | None = None) -> FitResult:
    """Maximize the constrained log-likelihood over all starting points.

    In reduced mode (the default) N_A and p2A are eliminated through the
    data ratios and the four free coordinates are optimized inside the
    mapped box; in full mode all six parameters move independently. The
    best local maximum wins; exact log-likelihood ties (within 1e-9) break
    toward the smaller N_A + N_B. Raises NonConvergenceError only if no
    start reaches the gradient tolerance. One table through ``fit_many``.
    """
    (outcome,) = fit_many([data], options)
    if isinstance(outcome, DualdepError):
        raise outcome
    return outcome
