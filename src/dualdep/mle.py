"""Constrained maximum-likelihood fitting with multi-start initialization.

The likelihood surface is sensitive to starting points, so the fit runs a
deterministic grid of interior starts, climbs from each with a projected
Newton method on the analytic Hessian until the projected gradient is below
the tolerance (1e-8 by default), and keeps the best local maximum.
Population sizes are box-constrained between the observed totals and the
per-stratum naive estimates; probabilities live in the unit interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .exceptions import FitError, InfeasibleConstraintsError, NonConvergenceError
from .model import ModelParams, PARAM_NAMES, ReducedParams
from .tables import SurveyData, naive_estimate

__all__ = ["DEFAULT_SEED", "FitOptions", "StartDiagnostics", "FitResult", "starting_points", "fit"]

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
            raise ValueError(f"mode must be 'reduced' or 'full', got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0.0:
            raise ValueError("gradient_tolerance must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


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


def _reduced_nb_box(data: SurveyData) -> tuple[float, float]:
    """Box for N_B with the N_A box mapped through the size ratio."""
    (lo_a, hi_a), (lo_b, hi_b) = _stratum_boxes(data)
    ratio = model.size_ratio(data)
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
    ratio = model.size_ratio(data)
    pooled = data.pooled()
    x0_pool = float(pooled.total)
    naive_pool = naive_estimate(pooled)
    lo_anchor = 1.2 * x0_pool
    hi_anchor = 0.8 * naive_pool
    anchors = ((lo_anchor + hi_anchor) / 2.0, lo_anchor, hi_anchor)

    if options.mode == "reduced":
        nb_lo, nb_hi = _reduced_nb_box(data)
        multiplier = model.p2a_ratio(data)
        p2b_hi = min(1.0, 1.0 / multiplier) if multiplier > 0.0 else 1.0
    else:
        (na_lo, na_hi), (nb_lo, nb_hi) = _stratum_boxes(data)
        p2b_hi = 1.0

    x2b = float(data.stratum_b.n_list2)

    def point(n_b: float, alpha: float, p1: float, p2b: float) -> ModelParams:
        params = model.expand(ReducedParams(n_b, alpha, p1, p2b), data)
        if options.mode == "reduced":
            return params
        return replace(
            params,
            n_a=_margin_clip(params.n_a, na_lo, na_hi, _START_MARGIN),
            p2a=_margin_clip(params.p2a, 0.0, 1.0, _START_MARGIN),
        )

    points: list[ModelParams] = []
    for total in anchors:
        for alpha in _ALPHA_GRID:
            n_b = _margin_clip(total / (1.0 + ratio), nb_lo, nb_hi, _START_MARGIN)
            p1 = _margin_clip(pooled.n_list1 / total, 0.0, 1.0, _START_MARGIN)
            p2b = _margin_clip(x2b / n_b, 0.0, p2b_hi, _START_MARGIN)
            points.append(point(n_b, alpha, p1, p2b))
            if len(points) == options.n_starts:
                return points

    rng = np.random.Generator(np.random.Philox(key=[int(options.seed) % 2**64, 0]))
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


def _projected_gradient(u, grad, lo, hi, band):
    """Which coordinates are free, and the largest free gradient entry (NaN
    if any entry is NaN). A coordinate within ``band`` of a bound with the
    gradient pointing out of the box is blocked: it belongs on the bound."""
    free = [not ((x - a <= w and g < 0.0) or (b - x <= w and g > 0.0))
            for x, g, a, b, w in zip(u, grad, lo, hi, band)]
    norm = max([abs(g) if f else 0.0 for g, f in zip(grad, free)])
    return free, (math.nan if any(map(math.isnan, grad)) else norm)


def _ascent_step(hess, grad):
    """Newton step with the curvature signs flipped to concave, taken in
    coordinates scaled to unit Hessian diagonal (sizes and probabilities
    differ by orders of magnitude)."""
    d = np.sqrt(np.abs(np.diag(hess)))
    lam, vec = np.linalg.eigh(hess / np.outer(d, d))
    return (vec @ ((vec.T @ (grad / d)) / np.abs(lam))) / d


def _solve_start(u0, counts, jac_map, expand_u, lo_t, hi_t, max_iter, tol):
    """Projected Newton (Bertsekas 1982) from one start.

    Each iteration holds the coordinates blocked at a bound, takes a Newton
    step on the free ones with the analytic Hessian (curvature flipped to
    concave where the Newton step would descend), clips it to the box and
    halves it until the log-likelihood rises or the projected gradient
    shrinks. The second test is needed because the objective is O(1e5):
    close to the maximum its changes fall below floating-point granularity,
    so an ascent test alone stalls short of tight gradient tolerances. At
    most ``max_iter`` steps are taken. The vectors have four or six entries,
    so the bookkeeping runs on Python floats, and numpy only assembles and
    solves the Newton system.

    Returns (u, log_likelihood, projected_gradient_norm, iterations, message).
    """
    lo, hi = lo_t.tolist(), hi_t.tolist()
    band = [_ACTIVITY_TOL * (b - a) for a, b in zip(lo, hi)]
    u = [min(max(x, a), b) for x, a, b in zip(np.asarray(u0, dtype=float).tolist(), lo, hi)]

    def gradient(u):
        return (jac_map.T @ model._grad(expand_u(u), counts)).tolist()

    grad = gradient(u)
    free, pg_norm = _projected_gradient(u, grad, lo, hi, band)
    iterations = 0
    while not pg_norm < tol:
        if iterations >= max_iter:
            message = "iteration cap reached"
            break
        theta = expand_u(u)
        idx = [i for i, f in enumerate(free) if f]
        hess = jac_map.T @ model._hess(theta, counts) @ jac_map
        if len(idx) < len(u):
            hess = hess[np.ix_(idx, idx)]
        g = [grad[i] for i in idx]
        try:
            step = np.linalg.solve(hess, [-x for x in g]).tolist()
        except np.linalg.LinAlgError:
            message = "singular Newton system"
            break
        if not sum([a * b for a, b in zip(g, step)]) > 0.0:
            step = _ascent_step(hess, np.array(g)).tolist()
        if not all(map(math.isfinite, step)):
            message = "non-finite Newton step"
            break
        # where the curvature is extreme the step can be smaller than the
        # spacing of floats and round away; move such coordinates one ulp
        step = [math.nextafter(u[i], math.copysign(math.inf, s)) - u[i]
                if s != 0.0 and u[i] + s == u[i] else s for i, s in zip(idx, step)]
        value0, scale = None, 1.0
        while scale > 1e-14:
            trial = u[:]
            for i, s in zip(idx, step):
                trial[i] = min(max(u[i] + scale * s, lo[i]), hi[i])
            grad_t = gradient(trial)
            free_t, pg_t = _projected_gradient(trial, grad_t, lo, hi, band)
            if pg_t < pg_norm:
                break
            if value0 is None:
                value0 = model._ll(theta, counts)
            if model._ll(expand_u(trial), counts) > value0:
                break
            scale *= 0.5
        else:
            message = "no acceptable step"
            break
        u, grad, free, pg_norm = trial, grad_t, free_t, pg_t
        iterations += 1
    else:
        message = "converged"

    return np.array(u), model._ll(expand_u(u), counts), pg_norm, iterations, message


def fit(data: SurveyData, options: FitOptions | None = None) -> FitResult:
    """Maximize the constrained log-likelihood over all starting points.

    In reduced mode (the default) N_A and p2A are eliminated through the
    data ratios and the four free coordinates are optimized inside the
    mapped box; in full mode all six parameters move independently. The
    best local maximum wins; exact log-likelihood ties (within 1e-9) break
    toward the smaller N_A + N_B. Raises NonConvergenceError only if no
    start reaches the gradient tolerance.
    """
    options = options or FitOptions()
    counts = model._counts(data)
    (na_lo, na_hi), (nb_lo_own, nb_hi_own) = _stratum_boxes(data)
    ratio = model.size_ratio(data)
    multiplier = model.p2a_ratio(data)

    if options.mode == "reduced":
        nb_lo, nb_hi = _reduced_nb_box(data)
        p2b_hi = min(1.0, 1.0 / multiplier) if multiplier > 0.0 else 1.0
        lo = np.array([nb_lo, 0.0, 0.0, 0.0])
        hi = np.array([nb_hi, 1.0, 1.0, p2b_hi])
        lo_t, hi_t = _trimmed_bounds(lo, hi, size_idx=(0,))
        jac_map = np.zeros((6, 4))  # d(N_A, N_B, alpha, p1, p2A, p2B) / d(N_B, alpha, p1, p2B)
        jac_map[[0, 1, 2, 3, 4, 5], [0, 0, 1, 2, 3, 3]] = (ratio, 1.0, 1.0, 1.0, multiplier, 1.0)

        coords = [1, 2, 3, 5]  # N_B, alpha, p1, p2B

        def expand_u(u):
            n_b, alpha, p1, p2b = u
            return (ratio * n_b, n_b, alpha, p1, multiplier * p2b, p2b)
    else:
        if not na_lo < na_hi or not nb_lo_own < nb_hi_own:
            raise FitError("a stratum size box is degenerate (x10 * x01 = 0)")
        lo = np.array([na_lo, nb_lo_own, 0.0, 0.0, 0.0, 0.0])
        hi = np.array([na_hi, nb_hi_own, 1.0, 1.0, 1.0, 1.0])
        lo_t, hi_t = _trimmed_bounds(lo, hi, size_idx=(0, 1))
        jac_map = np.eye(6)
        coords = list(range(6))
        expand_u = tuple

    starts = starting_points(data, options)
    diagnostics: list[StartDiagnostics] = []
    best = None  # (ll, total, u, pg, iterations, converged)
    for start in starts:
        u, value, pg_norm, iterations, message = _solve_start(
            start.as_array()[coords], counts, jac_map, expand_u, lo_t, hi_t,
            options.max_iterations, options.gradient_tolerance,
        )
        converged = pg_norm < options.gradient_tolerance
        diagnostics.append(StartDiagnostics(
            start=start, log_likelihood=value, projected_gradient=pg_norm,
            converged=converged, iterations=iterations, message=message,
        ))
        theta = expand_u(u)
        total = theta[0] + theta[1]
        # ties: a converged candidate beats a stalled duplicate of the same
        # maximum; among equals, the smaller total wins
        if best is None or value > best[0] + _TIE_TOL or (
            abs(value - best[0]) <= _TIE_TOL and (converged, -total) > (best[5], -best[1])
        ):
            best = (value, total, u, pg_norm, iterations, converged)

    if not any(d.converged for d in diagnostics):
        raise NonConvergenceError(
            f"no starting point reached gradient tolerance {options.gradient_tolerance}",
            diagnostics,
        )

    value, _, u, pg_norm, iterations, converged = best
    if options.mode == "reduced":
        params = model.expand(ReducedParams(*u.tolist()), data)
        size_gap = 0.0
        p2_gap = 0.0
    else:
        params = ModelParams.from_array(u)
        expected_na = ratio * params.n_b
        size_gap = abs(params.n_a - expected_na) / expected_na
        expected_p2a = multiplier * params.p2b
        denom = max(params.p2a, expected_p2a)
        p2_gap = abs(params.p2a - expected_p2a) / denom if denom > 0.0 else 0.0

    active = set()
    theta = params.as_tuple()
    bounds6 = (
        (na_lo, na_hi), (nb_lo_own, nb_hi_own),
        (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0),
    )
    for name, value_i, (b_lo, b_hi) in zip(PARAM_NAMES, theta, bounds6):
        tol_i = _ACTIVITY_TOL * (b_hi - b_lo)
        if value_i - b_lo <= tol_i or b_hi - value_i <= tol_i:
            active.add(name)

    return FitResult(
        params=params,
        log_likelihood=value,
        converged=converged,
        iterations=iterations,
        active_constraints=frozenset(active),
        n_hat_total=params.total,
        mode=options.mode,
        options=options,
        size_ratio_gap=size_gap,
        p2_identity_gap=p2_gap,
        per_start_diagnostics=tuple(diagnostics),
    )
