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
# grid point j crosses size anchor j // 4 with alpha j % 4
_GRID_ANCHOR = np.repeat(np.arange(3), len(_ALPHA_GRID))
_GRID_ALPHA = np.tile(_ALPHA_GRID, 3)
_START_MARGIN = 1e-4
_ACTIVITY_TOL = 1e-6
# Two starts' log-likelihoods tie within 1e-9 or 16 ulps of the larger
# magnitude, whichever is wider: the rounding noise of the likelihood's sum
# grows with its size (about 4e-6 per ulp at counts near 1e9).
_TIE_TOL = 1e-9
_TIE_ULPS = 16


def _tie_band(a: float, b: float) -> float:
    """The gap within which log-likelihoods ``a`` and ``b`` tie."""
    size = max(abs(a), abs(b))
    return max(_TIE_TOL, _TIE_ULPS * math.ulp(size)) if math.isfinite(size) else _TIE_TOL


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
        if not math.isfinite(self.gradient_tolerance):
            raise ValidationError("gradient_tolerance must be finite")
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

    ``fit`` and ``fit_many`` return only fits whose best start reached the
    gradient tolerance, so their ``converged`` is always True; reports still
    carry it. ``active_constraints`` lists parameters sitting on a box bound
    in natural coordinates. ``size_ratio_gap`` and ``p2_identity_gap`` report
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

# Per mode, the map theta[i] = scale[i] * u[sel[i]] from solver coordinates u
# to the six parameters: the parameter of each coordinate (indices into
# PARAM_NAMES), ``sel``, and the parameters tied to another's coordinate,
# whose scale is a data ratio (the others have scale 1). In reduced mode N_A
# follows N_B and p2A follows p2B. ``sel`` never decreases, so the
# derivatives meet the coordinates in order.
_COORDINATES = {
    "reduced": ((1, 2, 3, 5), (0, 0, 1, 2, 3, 3), (0, 4)),
    "full": ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), ()),
}


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


def _setup(data: SurveyData, mode: str):
    """The constants of one table's problem: the six parameters' boxes, the
    size ratio and p2A multiplier, the ``scale`` of the mode's map and the
    box (lo, hi) of each solver coordinate. A coordinate's box is the
    intersection of its parameters' boxes, each divided by the parameter's
    scale. Raises InfeasibleConstraintsError when a coordinate's box leaves
    no room for a start: every value at least the start margin inside it
    must map strictly inside each of its parameters' boxes."""
    coords, sel, tied = _COORDINATES[mode]
    box = (*_stratum_boxes(data), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    ratio, multiplier = model.size_ratio(data), model.p2a_ratio(data)
    ties = (ratio, 1.0, 1.0, 1.0, multiplier, 1.0)
    scale = [1.0] * 6
    lo, hi = [box[i][0] for i in coords], [box[i][1] for i in coords]
    for i in tied:
        c, s, (b_lo, b_hi) = sel[i], ties[i], box[i]
        scale[i] = s
        lo[c], hi[c] = max(lo[c], b_lo / s), min(hi[c], b_hi / s)
        # division then re-multiplication can overshoot by an ulp; walk the
        # endpoints until every in-box coordinate maps inside the box exactly
        while hi[c] > lo[c] and s * hi[c] > b_hi:
            hi[c] = math.nextafter(hi[c], 0.0)
        while lo[c] < hi[c] and s * lo[c] < b_lo:
            lo[c] = math.nextafter(lo[c], math.inf)
    for (b_lo, b_hi), s, c in zip(box, scale, sel):
        pad = _START_MARGIN * (hi[c] - lo[c])
        if not (lo[c] < hi[c] and b_lo < s * (lo[c] + pad) and s * (hi[c] - pad) < b_hi):
            names = [PARAM_NAMES[i] for i, d in enumerate(sel) if d == c]
            raise InfeasibleConstraintsError(
                f"no {PARAM_NAMES[coords[c]]} value keeps {' and '.join(names)} strictly inside "
                f"{'their boxes' if len(names) > 1 else 'its box'}: "
                f"[{lo[c]:.6g}, {hi[c]:.6g}] has no interior"
            )
    return box, (ratio, multiplier), tuple(scale), lo, hi


# --- starting points ----------------------------------------------------------

def starting_points(data: SurveyData, options: FitOptions | None = None) -> list[ModelParams]:
    """Deterministic interior starting grid.

    Crosses three pooled-size hypotheses (midpoint first, then 1.2x the
    observed total and 0.8x the pooled naive estimate) with the alpha grid
    (0.05, 0.10, 0.02, 0.20); p1 is the pooled list-1 rate under each size
    hypothesis and p2B the stratum-B list-2 rate under its implied share.
    The data ratios tie N_A and p2A to each point, and every solver
    coordinate of the mode is clipped into its box with a 1e-4 margin, so
    all points sit strictly inside the six-parameter box. Requests beyond
    the 12 grid points are filled with seeded uniform interior draws.
    Raises FitError when the table has no such box (x11 = 0, or a
    coordinate box with no interior, as when x10 * x01 = 0 in a stratum).
    """
    options = options or FitOptions()
    starts = _starts(data, options, _setup(data, options.mode))
    return [ModelParams(*start) for start in starts.T.tolist()]


def _starts(data: SurveyData, options: FitOptions, setup) -> np.ndarray:
    """``starting_points`` from the table's ``_setup``: the six parameters
    of each start, one start per column of a (6, n_starts) array."""
    _, (ratio, multiplier), scale, lo, hi = setup
    sel = _COORDINATES[options.mode][1]
    lo, hi = np.array((lo, hi))[..., None]  # (P, 1)
    pad = _START_MARGIN * (hi - lo)
    inner_lo, inner_hi = lo + pad, hi - pad  # each coordinate's box less the margin
    pooled = data.pooled()
    lo_anchor = 1.2 * float(pooled.total)
    hi_anchor = 0.8 * naive_estimate(pooled)
    grid = min(options.n_starts, _GRID_ALPHA.size)
    total = np.array(((lo_anchor + hi_anchor) / 2.0, lo_anchor, hi_anchor))[_GRID_ANCHOR[:grid]]
    n_b = np.minimum(np.maximum(total / (1.0 + ratio), inner_lo[sel[1]]), inner_hi[sel[1]])
    alpha, p1 = _GRID_ALPHA[:grid], pooled.n_list1 / total
    p2b = float(data.stratum_b.n_list2) / n_b
    if options.n_starts > grid:
        # per start, in order, a uniform draw for each of N_B, alpha, p1, p2B
        at = [sel[1], sel[2], sel[3], sel[5]]
        draws = stream(options.seed, 0).random((options.n_starts - grid, 4)).T
        draws = lo[at] + (hi[at] - lo[at]) * (_START_MARGIN + (1 - 2 * _START_MARGIN) * draws)
        n_b, alpha, p1, p2b = (np.concatenate(pair) for pair in zip((n_b, alpha, p1, p2b), draws))
    theta = _clipped(np.array([ratio * n_b, n_b, alpha, p1, multiplier * p2b, p2b]),
                     np.array(scale)[:, None], lo, hi, options.mode)
    theta[2] = alpha  # alpha is taken as drawn or gridded, unclipped
    return theta


def _clipped(theta, scale, lo, hi, mode: str) -> np.ndarray:
    """The points ``theta`` (6, n) with each solver coordinate of ``mode``
    clipped into its box ``lo``, ``hi`` (P, n) less the start margin, the
    tied parameters following their coordinates through ``scale`` (6, n).
    The shapes broadcast: one table's (P, 1) box clips each of its starts,
    and a stack of T tables' boxes clips one point (6, 1) into each."""
    coords, sel, _ = _COORDINATES[mode]
    pad = _START_MARGIN * (hi - lo)
    u = np.minimum(np.maximum(theta[list(coords)], lo + pad), hi - pad)
    return _expand(u, scale, sel)


# --- solver ------------------------------------------------------------------

def _trimmed_bounds(lo, hi, coords) -> tuple[np.ndarray, np.ndarray]:
    """Pull the optimizer strictly off boundaries where the objective or its
    gradient diverges (zero cell probabilities, N at the observed total).
    ``lo`` and ``hi`` are (P, T) boxes, row c that of coordinate ``coords[c]``."""
    size = np.isin(coords, (0, 1))[:, None]
    lo_t = np.where(size, np.maximum(lo + 1e-9 * (hi - lo), lo * (1.0 + 1e-12)),
                    np.maximum(lo, 1e-10))
    return lo_t, np.where(size, hi, hi * (1.0 - 1e-10))


# The solver works on batches. Arrays of shape (P, K) hold one start per
# column in solver coordinates u (P = 4 in reduced mode, 6 in full mode),
# next to the constants of the start's table: counts (8, K), box, and the
# ``scale`` (6, K) of the mode's map from u to the six parameters,
# theta[i] = scale[i] * u[sel[i]] (``_COORDINATES``). Every operation acts
# on each column alone, so a start's result does not depend on which other
# starts share its batch, and a start that stops can leave the arrays.


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


def _gradient(values, weights, scale, sel) -> np.ndarray:
    """Log-likelihood gradient in solver coordinates, shape (P, K), from the
    factor table (``model._values``) of the points."""
    chain = _chain(tuple(sel))
    terms = (scale * model._grad(values, weights))[chain.grad_params]
    return model._segment_sum(terms, chain.grad_layout)[chain.grad_order]


def _hessian(values, weights, scale, sel) -> np.ndarray:
    """Log-likelihood Hessian in solver coordinates, shape (K, P, P), from
    the factor table of the points: the upper triangle summed once through
    ``_Chain`` and mirrored."""
    chain = _chain(tuple(sel))
    hess = model._hess(values, weights)
    terms = hess[chain.entries] * scale[chain.rows] * scale[chain.cols]
    upper = model._segment_sum(terms, chain.layout)
    size = sel[-1] + 1
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
    finite, and not finite where it is singular. ``hess`` is scaled in
    place, so callers pass a copy."""
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
    """The step of each start: Newton on the free coordinates (zero on the
    blocked ones), flipped to ascent where it would descend. Returns (step,
    singular, broken): the steps, shape (P, K); which Newton systems were
    singular; and which other steps are not finite. The Hessian comes from
    the factor table each start carries."""
    u, free = run["u"], run["free"]
    size = u.shape[0]
    grad = np.where(free, run["grad"], 0.0)
    # blocked coordinates get an identity row and column and a zero
    # gradient entry, so their step is zero
    hess = _hessian(run["values"], run["weights"], run["scale"], run["sel"])
    if not free.all():
        np.copyto(hess, np.eye(size), where=~(free.T[:, :, None] & free.T[:, None, :]))
    step, singular = _newton_step(hess, grad.T)
    step = step.T
    descend = ~((grad * step).sum(axis=0) > 0.0) & ~singular
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


# The per-start entries of the solver state: the columns a start that stops
# takes with it. ``start`` is the column's index in the solve's input;
# ``values`` and ``weights`` are the factor table at ``u``.
_COLUMNS = ("start", "u", "ll", "grad", "free", "pg", "values", "weights", "it", "counts",
            "scale", "lo", "hi")
# The state a start leaves behind: the solve's outputs.
_FINAL = ("u", "ll", "pg", "it")


def _initial_state(u0, table, counts, scale, sel, lo_t, hi_t):
    """The solver state of the starts ``u0`` (``_solve_start``'s arguments),
    each clipped into its box and evaluated, one column per start."""
    table = np.asarray(table)
    run = {"start": np.arange(table.size), "it": np.zeros(table.size, dtype=int),
           "counts": counts[:, table], "scale": scale[:, table], "sel": sel,
           "lo": lo_t[:, table], "hi": hi_t[:, table]}
    u = np.clip(u0, run["lo"], run["hi"])
    state = _evaluate(u, run["counts"], run["scale"], sel, run["lo"], run["hi"])
    run.update(zip(_MOVED, (u, *state)))
    return run


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
    stacked solve serve every start still moving. A start that converges or
    stops writes its final state to the outputs and leaves the working
    arrays, so every later evaluation covers the moving starts only. Each
    point is evaluated once: every start carries the factor table of its
    point (``_evaluate``), and the Hessian is built from it.

    Returns (u, log_likelihood, projected_gradient_norm, iterations,
    messages), one column of u and one entry of the others per start.
    """
    run = _initial_state(u0, table, counts, scale, sel, lo_t, hi_t)
    width = run["start"].size
    final = {name: run[name].copy() for name in _FINAL}
    messages = [""] * width

    def stop(*reasons):
        """Stop the starts that a (mask, message) pair names, the first pair
        naming a start giving its message: write their final state and drop
        their columns. Returns which columns stay."""
        done = np.logical_or.reduce([mask for mask, _ in reasons])
        if not done.any():
            return ~done
        for mask, message in reversed(reasons):
            for row in run["start"][mask].tolist():
                messages[row] = message
        rows = run["start"][done]
        for name in _FINAL:
            final[name][..., rows] = run[name][..., done]
        for name in _COLUMNS:
            run[name] = run[name][..., ~done]
        return ~done

    accepted = np.ones(width, dtype=bool)
    while True:
        stop((run["pg"] < tol, "converged"), (run["it"] >= max_iter, "iteration cap reached"),
             (~accepted, "no acceptable step"))
        if not run["start"].size:
            break
        step, singular, broken = _direction(run)
        kept = stop((singular, "singular Newton system"), (broken, "non-finite Newton step"))
        accepted = _line_search(run, step[:, kept], width)

    return final["u"], final["ll"], final["pg"], final["it"], messages


# The step lengths a line search tries, in order: repeated halving from 1
# down to 2**-46, the shortest length above 1e-14.
_LENGTHS = np.ldexp(1.0, -np.arange(47))


def _evaluate(u, counts, scale, sel, lo, hi):
    """The log-likelihood, gradient, free coordinates, projected gradient
    and factor table (values, weights) at solver points u: the ``_MOVED``
    state but u. The table is built once per point, here, and
    ``_direction`` builds the Hessian from it once the point is accepted."""
    values, weights = model._values(_expand(u, scale, sel), counts)
    ll = model._ll(values, weights, counts)
    grad = _gradient(values, weights, scale, sel)
    return (ll, grad, *_projected_gradient(u, grad, lo, hi), values, weights)


# The state an accepted step moves.
_MOVED = ("u", "ll", "grad", "free", "pg", "values", "weights")


def _trial(run, points, cols):
    """The ``_MOVED`` state at ``points`` clipped into the box, point j
    belonging to the start in column ``cols[j]``, and which points pass: the
    projected gradient shrinks or the log-likelihood rises."""
    lo, hi, counts, scale = (run[name][:, cols] for name in ("lo", "hi", "counts", "scale"))
    u = np.clip(points, lo, hi)
    ll, grad, free, pg, values, weights = _evaluate(u, counts, scale, run["sel"], lo, hi)
    passed = (pg < run["pg"][cols]) | (ll > run["ll"][cols])
    return (u, ll, grad, free, pg, values, weights), passed


def _line_search(run, step, width):
    """Backtrack each start's step from full length, halving it until the
    projected gradient shrinks or the log-likelihood rises. Accepted starts
    move, with the state of their new point, and count an iteration.
    Returns which starts accepted a step.

    A start takes the first length of ``_LENGTHS`` that passes, as halving
    one length at a time would. The full-length trial of every start is one
    evaluation. After it, each evaluation tries, for every start still
    searching, its next lengths at once, one column per length, as many as
    keep the evaluation within ``width`` columns."""
    u = run["u"]
    new, accepted = _trial(run, u + step, slice(None))
    if accepted.all():
        run.update(zip(_MOVED, new))
    else:
        for name, value in zip(_MOVED, new):
            np.copyto(run[name], value, where=accepted)
    searching, k = np.flatnonzero(~accepted), 1
    while searching.size and k < _LENGTHS.size:
        per = min(width // searching.size, _LENGTHS.size - k)
        points = u[:, searching, None] + _LENGTHS[k:k + per] * step[:, searching, None]
        new, ok = _trial(run, points.reshape(len(u), -1), np.repeat(searching, per))
        ok = ok.reshape(-1, per)
        found = ok.any(axis=1)
        first = np.flatnonzero(found) * per + ok.argmax(axis=1)[found]
        moved = searching[found]
        for name, value in zip(_MOVED, new):
            run[name][..., moved] = value[..., first]
        accepted[moved] = True
        searching, k = searching[~found], k + per
    run["it"] += accepted
    return accepted


# --- fitting -------------------------------------------------------------------

def _solver_inputs(tables, options: FitOptions, start=None):
    """Each table's ``_setup`` and starts, stacked into the arguments of
    ``_solve_start``, one block of columns per table in table order. The
    starts are the table's starting grid (``_starts``), or with ``start``
    (6, 1) given those six parameters clipped into each table's box
    (``_clipped``, once over the stacked boxes), one column per table.
    Returns (outcomes, fitted, args): ``outcomes`` holds, at the index of
    each table with no box, the package error that makes it unfittable
    (None elsewhere); ``fitted`` the (index, setup, starts) of every other
    table; ``args`` the arguments, or None if no table has a box."""
    outcomes: list = [None] * len(tables)
    fitted, counts = [], []
    for index, data in enumerate(tables):
        try:
            setup = _setup(data, options.mode)
            starts = _starts(data, options, setup) if start is None else None
            fitted.append((index, setup, starts))
            counts.append(model._counts(data))
        except DualdepError as exc:
            # without its traceback the error holds no frame, and so no
            # reference cycle through this list, alive
            outcomes[index] = exc.with_traceback(None)
    if not fitted:
        return outcomes, fitted, None
    coords, sel, _ = _COORDINATES[options.mode]
    scale, lo, hi = (np.array(column, dtype=float).T
                     for column in zip(*(setup[2:] for _, setup, _ in fitted)))
    if start is None:
        theta0 = np.concatenate([starts for _, _, starts in fitted], axis=1)
    else:
        theta0 = _clipped(start, scale, lo, hi, options.mode)
        fitted = [(index, setup, theta0[:, k:k + 1])
                  for k, (index, setup, _) in enumerate(fitted)]
    u0 = theta0[list(coords)]
    table = np.repeat(np.arange(len(fitted)), fitted[0][2].shape[1])
    return outcomes, fitted, (u0, table, np.array(counts).T, scale, sel,
                              *_trimmed_bounds(lo, hi, coords),
                              options.max_iterations, options.gradient_tolerance)


def _result(setup, starts, theta, values, pg_norms, iterations, messages, options):
    """The FitResult of one table from its columns: the starts (6, n), the
    six parameters ``theta`` (6, n) where each start ended and its solver
    outcomes; or the NonConvergenceError when the best start did not
    converge, whether or not another start did. Each start is inside the
    box by construction, so its ``ModelParams`` skips the checks; only the
    winner's parameters are checked."""
    box, (ratio, multiplier), *_ = setup
    diagnostics = [
        StartDiagnostics(start=model._unchecked_params(*start), log_likelihood=value,
                         projected_gradient=pg_norm, converged=pg_norm < options.gradient_tolerance,
                         iterations=n_iter, message=message)
        for start, value, pg_norm, n_iter, message in zip(
            starts.T.tolist(), values, pg_norms, iterations, messages)
    ]

    # ties: a converged candidate beats a stalled duplicate of the same
    # maximum; among equals, the smaller total wins
    totals = (theta[0] + theta[1]).tolist()
    k = 0
    for j, d in enumerate(diagnostics[1:], 1):
        value, best = d.log_likelihood, diagnostics[k].log_likelihood
        band = _tie_band(value, best)
        if value > best + band or (abs(value - best) <= band and (
            (d.converged, -totals[j]) > (diagnostics[k].converged, -totals[k])
        )):
            k = j
    winner = diagnostics[k]
    if not winner.converged:
        stalled = ("the best start did not reach" if any(d.converged for d in diagnostics)
                   else "no starting point reached")
        return NonConvergenceError(
            f"{stalled} gradient tolerance {options.gradient_tolerance}", diagnostics)
    params = ModelParams(*theta[:, k].tolist())
    # in reduced mode theta is built from the same products, so both gaps are 0
    expected_na = ratio * params.n_b
    size_gap = abs(params.n_a - expected_na) / expected_na
    expected_p2a = multiplier * params.p2b
    denom = max(params.p2a, expected_p2a)
    p2_gap = abs(params.p2a - expected_p2a) / denom if denom > 0.0 else 0.0

    active = set()
    for name, value_i, (b_lo, b_hi) in zip(PARAM_NAMES, params.as_tuple(), box):
        tol_i = _ACTIVITY_TOL * (b_hi - b_lo)
        if value_i - b_lo <= tol_i or b_hi - value_i <= tol_i:
            active.add(name)

    return FitResult(
        params=params,
        log_likelihood=winner.log_likelihood,
        converged=True,
        iterations=winner.iterations,
        active_constraints=frozenset(active),
        n_hat_total=params.total,
        mode=options.mode,
        options=options,
        size_ratio_gap=size_gap,
        p2_identity_gap=p2_gap,
        per_start_diagnostics=tuple(diagnostics),
    )


def fit_many(tables, options: FitOptions | None = None, start: ModelParams | None = None) -> list:
    """Fit many tables with one batched solve over every start of every table.

    Returns, in table order, each table's converged FitResult or the
    package error fitting it raised (a missing overlap, an empty reduced
    box, a best start short of the tolerance), so one bad table never ends
    the others. A table's result is bit-identical whatever other tables
    share the batch. Each table climbs from its starting grid of
    ``options.n_starts`` points, or with ``start`` given from that one
    point, its solver coordinates clipped into the table's box with the
    grid's margin (a warm start). The batch holds one column per start;
    callers with many tables pass them in blocks.
    """
    options = options or FitOptions()
    outcomes, fitted, args = _solver_inputs(
        tables, options, None if start is None else start.as_array()[:, None])
    if args is None:
        return outcomes
    u, values, pg_norms, iterations, messages = _solve_start(*args)
    values, pg_norms, iterations = values.tolist(), pg_norms.tolist(), iterations.tolist()
    _, table, _, scale, sel, *_ = args
    theta = _expand(u, scale[:, table], sel)
    n = fitted[0][2].shape[1]
    for k, (index, setup, starts) in enumerate(fitted):
        cols = slice(k * n, (k + 1) * n)
        outcomes[index] = _result(setup, starts, theta[:, cols], values[cols], pg_norms[cols],
                                  iterations[cols], messages[cols], options)
    return outcomes


def fit(data: SurveyData, options: FitOptions | None = None) -> FitResult:
    """Maximize the constrained log-likelihood over all starting points.

    In reduced mode (the default) N_A and p2A are eliminated through the
    data ratios and the four free coordinates are optimized inside the
    mapped box; in full mode all six parameters move independently. The
    best local maximum wins; log-likelihood ties (within 1e-9, or 16 ulps of
    the log-likelihood where that is wider) go to a converged start, then
    to the smaller N_A + N_B. Raises NonConvergenceError when that best
    start did not reach the gradient tolerance, whether or not another start
    did. One table through ``fit_many``.
    """
    (outcome,) = fit_many([data], options)
    if isinstance(outcome, DualdepError):
        raise outcome
    return outcome
