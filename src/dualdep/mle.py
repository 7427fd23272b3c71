"""Constrained maximum-likelihood fitting with multi-start initialization.

The likelihood surface is sensitive to starting points, so the fit runs a
deterministic grid of interior starts, climbs from each with a projected
Newton method on the analytic Hessian until the projected gradient is below
the tolerance (1e-8 by default) or the start stalls within the
log-likelihood's rounding, and keeps the best local maximum.
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
from ._parallel import run_blocks, stream
from .exceptions import (
    DualdepError, FitError, InfeasibleConstraintsError, NonConvergenceError, ValidationError,
)
from .model import ModelParams, PARAM_NAMES
from .tables import SurveyData, _naive, _pair

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
    """Knobs for the constrained fit; defaults match the package's reference runs.

    A start converges when its projected gradient is below
    ``gradient_tolerance``, or when it stalls within rounding: no step
    length raises its log-likelihood or shrinks its projected gradient,
    while the gain its step predicts lies within the log-likelihood's tie
    band (1e-9, or 16 ulps where floats are coarser).
    """

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
    """Outcome of one starting point. ``converged`` is True when the start
    stopped with its projected gradient below the tolerance (message
    "converged") or stalled within rounding (message "converged within
    rounding"; see ``FitOptions``)."""

    start: ModelParams
    log_likelihood: float
    projected_gradient: float
    converged: bool
    iterations: int
    message: str


@dataclass(frozen=True)
class FitResult:
    """A fitted model with convergence metadata.

    ``fit`` and ``fit_many`` return only fits whose best start converged
    (``StartDiagnostics``), so their ``converged`` is always True; reports
    still carry it. ``active_constraints`` lists parameters sitting on a box bound
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


_UNIT = (0.0, 1.0)  # the box of a probability


def _size_box(x11: int, x10: int, x01: int) -> tuple[float, float]:
    """A stratum's size box [observed total, naive estimate] from its counts
    (x11 >= 1)."""
    return float(x11 + x10 + x01), _naive(x11, x10, x01)


def _tied_box(lo: float, hi: float, s: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    """The box [lo, hi] of a solver coordinate intersected with the box
    [b_lo, b_hi] of a parameter tied to it at scale ``s``, divided by ``s``.
    Division then re-multiplication can overshoot by an ulp, so the
    endpoints walk inwards until every coordinate in the box maps inside
    the parameter's box exactly."""
    lo, hi = max(lo, b_lo / s), min(hi, b_hi / s)
    while hi > lo and s * hi > b_hi:
        hi = math.nextafter(hi, 0.0)
    while lo < hi and s * lo < b_lo:
        lo = math.nextafter(lo, math.inf)
    return lo, hi


def _room(b_lo: float, b_hi: float, s: float, lo: float, hi: float) -> bool:
    """Whether the coordinate box [lo, hi] leaves room for a start: every
    value at least the start margin inside it maps strictly inside the box
    [b_lo, b_hi] of a parameter at scale ``s``."""
    pad = _START_MARGIN * (hi - lo)
    return lo < hi and b_lo < s * (lo + pad) and s * (hi - pad) < b_hi


def _table(data: SurveyData):
    """A survey as the fit takes it, its counts (``tables._pair``), or the
    FitError naming by its label a stratum with x11 = 0 (no naive bound)."""
    for label, counts in data.strata:
        if counts.x11 < 1:
            return FitError(
                f"stratum {label!r} has x11 = 0: the naive upper bound does not exist"
            )
    return _pair(data)


def _setup(a, b, mode: str):
    """The constants of the problem of the strata's (x11, x10, x01) counts
    ``a`` and ``b`` (x11 >= 1): the six parameters' boxes, the size ratio
    and p2A multiplier (``model._size_ratio``, ``model._p2a_ratio``), the
    ``scale`` of the mode's map and the box (lo, hi) of each solver
    coordinate, the intersection of its parameters' boxes, each divided by
    the parameter's scale (``_tied_box``). Raises InfeasibleConstraintsError
    when a coordinate's box leaves no room for a start (``_room``)."""
    box = (_size_box(*a), _size_box(*b), _UNIT, _UNIT, _UNIT, _UNIT)
    ratio, multiplier = model._size_ratio(a, b), model._p2a_ratio(a, b)
    ties = (ratio, 1.0, 1.0, 1.0, multiplier, 1.0)
    coords, sel, tied = _COORDINATES[mode]
    scale = [1.0] * 6
    lo, hi = [box[i][0] for i in coords], [box[i][1] for i in coords]
    for i in tied:
        c = sel[i]
        scale[i] = ties[i]
        lo[c], hi[c] = _tied_box(lo[c], hi[c], ties[i], *box[i])
    for (b_lo, b_hi), s, c in zip(box, scale, sel):
        if not _room(b_lo, b_hi, s, lo[c], hi[c]):
            names = [PARAM_NAMES[i] for i, d in enumerate(sel) if d == c]
            raise InfeasibleConstraintsError(
                f"no {PARAM_NAMES[coords[c]]} value keeps {' and '.join(names)} strictly inside "
                f"{'their boxes' if len(names) > 1 else 'its box'}: "
                f"[{lo[c]:.6g}, {hi[c]:.6g}] has no interior"
            )
    return box, (ratio, multiplier), tuple(scale), lo, hi


def _moment_point(a, b, mode: str) -> list[float] | None:
    """The fit in closed form of the table whose strata have the (x11, x10,
    x01) counts ``a`` and ``b`` (Python ints), where it can be certified,
    else None.

    The moment point is the parameter point whose expected counts equal the
    observed ones. Each stratum's Stirling term is at most sum_c x_c log
    x_c - x0 and attains it exactly there, so where that point lies in the
    box it is the constrained maximum (the saturated bound; Bishop, Fienberg
    & Holland 1975, ch. 6). With x1._s the list-1 count, a_s = x11_s/x1._s
    and b_s = x01_s/x1._s, it is q = (b_A - b_B)/(a_A - a_B), p1 = 1/(1 +
    q), N_s = x1._s (1 + q), alpha = b_A/q - a_A and p2s = a_s/(1 - alpha).
    Each solver coordinate of the mode (``_COORDINATES``) is one correctly
    rounded division of integer polynomials in the counts; in reduced mode
    N_A = ratio N_B and p2A = multiplier p2B (``model._size_ratio``,
    ``model._p2a_ratio``), exactly as the solver's map gives them.

    The certificate builds only what it tests, with the float operations of
    ``_setup``. It returns the six parameters only where the point is
    defined (read from the counts first), its size coordinates and its
    tied p2B lie strictly inside their trimmed boxes (``_trimmed``), no
    parameter lies in the activity band of a bound (``_active``) and each
    size's coordinate box leaves room for a start (``_room``); None
    elsewhere, for the solver to fit or to report the table's error. So it
    accepts exactly where a point inside the trimmed box of the table's
    ``_setup`` is off every activity band: an untied probability off its
    band (1e-6) is inside its trimmed box (1e-10), and a probability
    coordinate with no room is narrower than its trim, so no point lies in
    it; a size coordinate's trim (1e-12 of its lower end) can be narrower
    than the margin's rounding, so the sizes' room is tested."""
    (a11, a10, a01), (b11, b10, b01) = a, b
    if a11 < 1 or b11 < 1:  # no naive upper bound
        return None
    x1a, x1b = a11 + a10, b11 + b10
    num = a01 * x1b - b01 * x1a  # q = num / den
    den = a11 * x1b - b11 * x1a
    if den < 0:
        num, den = -num, -den
    if num <= 0 or den == 0:  # q undefined, or p1 = 1/(1 + q) not in (0, 1)
        return None
    rest = (x1a + a11) * num - a01 * den  # (1 - alpha) x1.A num
    if rest <= 0:
        return None
    box_a, box_b = _size_box(a11, a10, a01), _size_box(b11, b10, b01)
    n_b = x1b * (den + num) / den
    alpha = (a01 * den - a11 * num) / (x1a * num)
    p1 = den / (den + num)
    p2b = b11 * x1a * num / (x1b * rest)
    if mode == "reduced":  # coordinates N_B, alpha, p1 and p2B
        ratio, multiplier = model._size_ratio(a, b), model._p2a_ratio(a, b)
        lo, hi = _tied_box(box_b[0], box_b[1], ratio, box_a[0], box_a[1])
        low, high = _trim_size(lo, hi)
        if not (low < n_b < high and _room(box_a[0], box_a[1], ratio, lo, hi)
                and _room(box_b[0], box_b[1], 1.0, lo, hi)):
            return None
        if multiplier > 1.0:  # else p2B's box is (0, 1), whose trim its band implies
            low, high = _trim_probability(*_tied_box(0.0, 1.0, multiplier, 0.0, 1.0))
            if not low < p2b < high:
                return None
        n_a, p2a = ratio * n_b, multiplier * p2b
    else:  # every parameter is a coordinate
        n_a, p2a = x1a * (den + num) / den, a11 * num / rest
        for value, (lo, hi) in ((n_a, box_a), (n_b, box_b)):
            low, high = _trim_size(lo, hi)
            if not (low < value < high and _room(lo, hi, 1.0, lo, hi)):
                return None
    if (_active(n_a, box_a[0], box_a[1]) or _active(n_b, box_b[0], box_b[1])
            or _active(alpha, 0.0, 1.0) or _active(p1, 0.0, 1.0) or _active(p2a, 0.0, 1.0)
            or _active(p2b, 0.0, 1.0)):
        return None
    return [n_a, n_b, alpha, p1, p2a, p2b]


# --- starting points ----------------------------------------------------------

def starting_points(data: SurveyData, options: FitOptions | None = None) -> list[ModelParams]:
    """Deterministic interior starting grid.

    Crosses three pooled-size hypotheses (midpoint first, then 1.2x the
    smallest pooled total the mode's box allows and 0.8x the pooled naive
    estimate) with the alpha grid
    (0.05, 0.10, 0.02, 0.20); p1 is the pooled list-1 rate under each size
    hypothesis and p2B the stratum-B list-2 rate under its implied share.
    That smallest total is the observed total x0 in full mode and (1 +
    ratio) times N_B's lower end in reduced mode, where N_A follows N_B at
    the size ratio: so the low anchor starts N_B 20% above its box's lower
    end, off the log singularity at the observed total. A start converges
    when its projected gradient is below the tolerance, or when it stalls
    within the log-likelihood's rounding (``FitOptions``).
    The data ratios tie N_A and p2A to each point, and every solver
    coordinate of the mode is clipped into its box with a 1e-4 margin, so
    all points sit strictly inside the six-parameter box. Requests beyond
    the 12 grid points are filled with seeded uniform interior draws.
    Raises FitError when the table has no such box (x11 = 0, or a
    coordinate box with no interior, as when x10 * x01 = 0 in a stratum).
    """
    options = options or FitOptions()
    table = _table(data)
    if isinstance(table, FitError):
        raise table
    starts = _starts(*table, options, _setup(*table, options.mode))
    return [ModelParams(*start) for start in starts.T.tolist()]


def _starts(a, b, options: FitOptions, setup) -> np.ndarray:
    """``starting_points`` of the counts ``a``, ``b`` from their ``_setup``:
    the six parameters of each start, one per column of a (6, n) array."""
    _, (ratio, multiplier), scale, lo, hi = setup
    coords, sel, _ = _COORDINATES[options.mode]
    # the smallest pooled total the mode's box allows: x0 in full mode, and
    # (1 + ratio) times N_B's lower end in reduced mode
    lowest = scale[0] * lo[sel[0]] + scale[1] * lo[sel[1]]
    lo, hi = np.array((lo, hi))[..., None]  # (P, 1)
    pad = _START_MARGIN * (hi - lo)
    inner_lo, inner_hi = lo + pad, hi - pad  # each coordinate's box less the margin
    x11, x10, x01 = (n_a + n_b for n_a, n_b in zip(a, b))  # the pooled table
    lo_anchor = 1.2 * max(float(x11 + x10 + x01), lowest)
    hi_anchor = 0.8 * _naive(x11, x10, x01)
    grid = min(options.n_starts, _GRID_ALPHA.size)
    total = np.array(((lo_anchor + hi_anchor) / 2.0, lo_anchor, hi_anchor))[_GRID_ANCHOR[:grid]]
    n_b = np.minimum(np.maximum(total / (1.0 + ratio), inner_lo[sel[1]]), inner_hi[sel[1]])
    alpha, p1 = _GRID_ALPHA[:grid], (x11 + x10) / total
    p2b = float(b[0] + b[2]) / n_b
    if options.n_starts > grid:
        # per start, in order, a uniform draw for each of N_B, alpha, p1, p2B
        at = [sel[1], sel[2], sel[3], sel[5]]
        draws = stream(options.seed, 0).random((options.n_starts - grid, 4)).T
        draws = lo[at] + (hi[at] - lo[at]) * (_START_MARGIN + (1 - 2 * _START_MARGIN) * draws)
        n_b, alpha, p1, p2b = (np.concatenate(pair) for pair in zip((n_b, alpha, p1, p2b), draws))
    # each solver coordinate clipped into its box less the margin, the tied
    # parameters following their coordinates
    theta = np.array([ratio * n_b, n_b, alpha, p1, multiplier * p2b, p2b])
    u = np.minimum(np.maximum(theta[list(coords)], inner_lo), inner_hi)
    theta = _expand(u, np.array(scale)[:, None], sel)
    theta[2] = alpha  # alpha is taken as drawn or gridded, unclipped
    return theta


# --- solver ------------------------------------------------------------------

def _trim_size(lo: float, hi: float) -> tuple[float, float]:
    """A size coordinate's box [lo, hi], trimmed off the observed total."""
    return max(lo + 1e-9 * (hi - lo), lo * (1.0 + 1e-12)), hi


def _trim_probability(lo: float, hi: float) -> tuple[float, float]:
    """A probability coordinate's box [lo, hi], trimmed off 0 and 1."""
    return max(lo, 1e-10), hi * (1.0 - 1e-10)


def _trimmed(lo, hi, coords) -> tuple[list[float], list[float]]:
    """Pull the optimizer strictly off boundaries where the objective or its
    gradient diverges (zero cell probabilities, N at the observed total).
    ``lo`` and ``hi`` are one table's box as ``_setup`` gives it, entry c
    that of coordinate ``coords[c]``; so is the trimmed box returned."""
    ends = [(_trim_size if c < 2 else _trim_probability)(low, high)
            for c, low, high in zip(coords, lo, hi)]
    return [low for low, _ in ends], [high for _, high in ends]


def _active(value, lo, hi):
    """Whether parameter values lie in the activity band of their box [lo,
    hi]: within 1e-6 of its width of a bound. Scalars or arrays."""
    tol = _ACTIVITY_TOL * (hi - lo)
    return (value - lo <= tol) | (hi - value <= tol)


# The solver works on batches, one start per column, in solver coordinates
# u (P = 4 coordinates in reduced mode, 6 in full mode). A start's table
# gives it constants: counts (8, K), box, and the ``scale`` (6, K) of the
# mode's map from u to the six parameters, theta[i] = scale[i] * u[sel[i]]
# (``_COORDINATES``). Every operation acts on each column alone, so a
# start's result does not depend on which other starts share its batch or
# on where its column sits, and a start that stops can leave the columns
# that are still computed.


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
    return scale * u.take(_chain(tuple(sel)).sel, axis=0)


def _gradient(values, weights, scale, sel, out=None) -> np.ndarray:
    """Log-likelihood gradient in solver coordinates, shape (P, K), from the
    factor table (``model._values``) of the points, into ``out`` if
    given."""
    chain = _chain(tuple(sel))
    grad = model._grad(values, weights)
    terms = np.multiply(scale, grad, out=grad).take(chain.grad_params, axis=0)
    return model._segment_sum(terms, chain.grad_layout).take(chain.grad_order, axis=0, out=out)


def _hessian(values, weights, scale, sel) -> np.ndarray:
    """Log-likelihood Hessian in solver coordinates, shape (K, P, P), from
    the factor table of the points: the upper triangle summed once through
    ``_Chain`` and mirrored."""
    chain = _chain(tuple(sel))
    terms = model._hess(values, weights).take(chain.entries, axis=0)
    terms *= scale.take(chain.rows, axis=0)
    terms *= scale.take(chain.cols, axis=0)
    upper = model._segment_sum(terms, chain.layout)
    size = sel[-1] + 1
    return upper.take(chain.square, axis=0).reshape(size, size, -1).transpose(2, 0, 1)


def _projected_gradient(u, grad, lo, hi, out=None):
    """Which coordinates are free, and per column the largest free gradient
    entry (NaN if any entry is NaN). A coordinate within the activity band
    of a bound with the gradient pointing out of the box is blocked: it
    belongs on the bound. With ``out``, a (down, up, free, pg) tuple of
    arrays, the rooms u - lo and hi - u, the free coordinates and the
    projected gradient are written there."""
    band = _ACTIVITY_TOL * (hi - lo)
    down, up, free, pg = (None,) * 4 if out is None else out
    down, up = np.subtract(u, lo, out=down), np.subtract(hi, u, out=up)
    blocked = ((down <= band) & (grad < 0.0)) | ((up <= band) & (grad > 0.0))
    free = np.logical_not(blocked, out=free)
    size = np.abs(grad)
    np.copyto(size, 0.0, where=blocked)
    return free, np.maximum.reduce(size, axis=0, out=pg)


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
        ok = (np.logical_and.reduce(np.isfinite(hess), axis=(1, 2))
              & np.logical_and.reduce(np.isfinite(gd), axis=1))
        count = np.count_nonzero(ok)
        if count:
            lam, vec = np.linalg.eigh(hess if count == ok.size else hess[ok])
            y = np.matmul(np.swapaxes(vec, 1, 2), gd[ok][..., None])[..., 0] / np.abs(lam)
            step[ok] = np.matmul(vec, y[..., None])[..., 0] / d[ok]
    return step


# The fraction-to-boundary rule (Wächter & Biegler 2006): a step covers at
# most this share of a probability coordinate's distance to the trimmed box
# in the direction it moves, unless the coordinate is already within
# _BOUNDARY_BAND of the box's width of that bound.
_TO_BOUNDARY = 0.99
_BOUNDARY_BAND = 1e-3


def _to_boundary(step, down, up, edge, first):
    """``step`` with each column scaled as a whole so that no probability
    coordinate (rows ``first`` on) covers more than ``_TO_BOUNDARY`` of its
    room to the bound it heads for: ``down`` (u - lo) or ``up`` (hi - u),
    the rooms the evaluation of the start's point left. A coordinate whose
    room is at most ``edge`` (``_BOUNDARY_BAND`` of its box's width) is
    exempt, so the clip of the trial point lands it exactly on the bound.
    A column the rule does not bind keeps its bits; where no column binds,
    ``step`` itself is returned. Without the rule, a clipped step puts a
    probability on its trim, from where it can only double its distance
    per step."""
    s, down, up, edge = step[first:], down[first:], up[first:], edge[first:]
    room, size = down.copy(), np.abs(s)
    np.copyto(room, up, where=s > 0.0)
    binds = (size > _TO_BOUNDARY * room) & (room > edge)
    if not np.count_nonzero(binds):
        return step
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.divide(room, size, out=room)
        np.multiply(_TO_BOUNDARY, share, out=share)
        np.copyto(share, 1.0, where=~binds)
        return step * np.minimum.reduce(share, axis=0)


# The identity of each mode's number of solver coordinates, built once.
_EYE = {len(coords): np.eye(len(coords)) for coords, _, _ in _COORDINATES.values()}


def _direction(run):
    """The step of each start: Newton on the free coordinates (zero on the
    blocked ones), flipped to ascent where it would descend, then held off
    the probability bounds it would cross (``_to_boundary``). Returns (step,
    singular, broken): the steps, shape (P, K); which Newton systems were
    singular; and which other steps are not finite. The Hessian comes from
    the factor table each start carries. The rule reads the rooms to the
    box that each start's evaluation left (``_projected_gradient``)."""
    u, free, grad = run["u"], run["free"], run["grad"]
    blocked = None if np.count_nonzero(free) == free.size else ~free
    hess = _hessian(run["values"], run["weights"], run["scale"], run["sel"])
    if blocked is not None:
        # blocked coordinates get an identity row and column and a zero
        # gradient entry, so their step is zero
        grad = grad.copy()
        np.copyto(grad, 0.0, where=blocked)
        np.copyto(hess, _EYE[len(u)], where=blocked.T[:, :, None] | blocked.T[:, None, :])
    step, singular = _newton_step(hess, grad.T)
    step = step.T
    descend = ~(np.add.reduce(grad * step, axis=0) > 0.0) & ~singular
    if np.count_nonzero(descend):
        step[:, descend] = _ascent_step(hess[descend], grad.T[descend]).T
    step = step.copy()  # C order, as u
    if blocked is not None:
        np.copyto(step, 0.0, where=blocked)
    broken = ~np.logical_and.reduce(np.isfinite(step), axis=0) & ~singular
    step = _to_boundary(step, run["down"], run["up"], run["edge"], run["sel"][2])
    # where the curvature is extreme the step can be smaller than the
    # spacing of floats and round away; move such coordinates one ulp
    tiny = (step != 0.0) & (u + step == u)
    if np.count_nonzero(tiny):
        np.copyto(step, np.nextafter(u, np.copysign(np.inf, step)) - u, where=tiny)
    return step, singular, broken


# The solver state of a batch is one C-contiguous float64 array (R, n) for
# the n starts still moving, one start per column, named by row blocks
# (``_rows``): first the state a step moves -- the point u, its
# log-likelihood and projected gradient, its gradient, the rooms u - lo and
# hi - u to its box and its factor table (``values``, ``weights``) -- then
# the constants of the start's table: ``counts``, ``scale``, the trimmed
# box ``lo``, ``hi`` and each coordinate's boundary ``edge``. Next to it
# sit ``start`` (each column's index in the solve's input), ``it`` (its
# iterations) and ``free``. The memory is allocated once per solve
# (``_initial_state``): two state buffers, between which a compaction
# gathers the moving columns, and a trial buffer, into which trial points
# are evaluated with the same layout. Every entry, ``free`` included, is a
# contiguous block, as a freshly allocated array would be: not every numpy
# loop over strided views is exact (numpy 2.4.6 on x86-64: ``np.negative``
# from a 64-byte stride into a strided output reads the wrong elements,
# and ``np.isfinite`` into a strided boolean output writes wrong values;
# ``tests/test_solver.py`` pins both).
_MOVED = ("u", "ll", "pg", "grad", "down", "up", "values", "weights")
_CONSTANT = ("counts", "scale", "lo", "hi", "edge")


@functools.cache
def _rows(size: int) -> dict:
    """The row block of each state entry for ``size`` solver coordinates (a
    slice, or a row index for a scalar per start), and the blocks ``moved``
    and ``constant`` that hold the entries of ``_MOVED`` and ``_CONSTANT``,
    and ``final``, that of the solve's outputs u, ll and pg."""
    heights = {"u": size, "ll": 0, "pg": 0, "grad": size, "down": size, "up": size,
               "values": 16, "weights": 16, "counts": 8, "scale": 6, "lo": size, "hi": size,
               "edge": size}
    rows, at = {}, 0
    for name in _MOVED + _CONSTANT:
        rows[name] = slice(at, at + heights[name]) if heights[name] else at
        at += max(heights[name], 1)
    rows["moved"] = slice(0, rows["counts"].start)
    rows["constant"] = slice(rows["counts"].start, at)
    rows["final"] = slice(0, size + 2)
    return rows


def _views(state, free) -> dict:
    """A state array and its free mask, and each of its entries, by name."""
    rows = _rows(free.shape[0])
    views = {name: state[rows[name]] for name in _MOVED + _CONSTANT}
    views.update(state=state, free=free)
    return views


def _evaluate(out, const, sel):
    """Fill the state ``out`` (``_views``) at the solver points in its
    ``u``: the factor table, log-likelihood, gradient, rooms, free
    coordinates and projected gradient, reading the table's constants from
    ``const``. The table is built once per point, here, and ``_direction``
    builds the Hessian from it once the point is accepted."""
    u, scale, counts = out["u"], const["scale"], const["counts"]
    values, weights = model._values(_expand(u, scale, sel), counts,
                                    out=(out["values"], out["weights"]))
    out["ll"][...] = model._ll(values, weights, counts)
    grad = _gradient(values, weights, scale, sel, out=out["grad"])
    _projected_gradient(u, grad, const["lo"], const["hi"],
                        (out["down"], out["up"], out["free"], out["pg"]))


def _initial_state(u0, table, counts, scale, sel, lo_t, hi_t):
    """The solver state of the starts ``u0`` (``_solve_start``'s arguments),
    each clipped into its box and evaluated, one column per start."""
    table = np.asarray(table)
    size, width = u0.shape
    rows = _rows(size)
    height = rows["constant"].stop
    # the two state buffers and the trial buffer
    memory = np.empty((3, height * width))
    state = memory[0].reshape(height, width)
    for name, source in (("counts", counts), ("scale", scale), ("lo", lo_t), ("hi", hi_t)):
        state[rows[name]] = source[:, table]
    state[rows["edge"]] = _BOUNDARY_BAND * (state[rows["hi"]] - state[rows["lo"]])
    run = _views(state, np.empty((size, width), dtype=bool))
    run.update(sel=sel, start=np.arange(width), it=np.zeros(width, dtype=int), memory=memory,
               side=0, trial_free=np.empty(size * width, dtype=bool), trials={})
    np.minimum(np.maximum(u0, run["lo"], out=run["u"]), run["hi"], out=run["u"])
    _evaluate(run, run, sel)
    return run


# The messages of the two stops at which a start has converged: its
# projected gradient below the tolerance, or a stall within the
# likelihood's rounding (``_stalls``).
_CONVERGED = ("converged", "converged within rounding")


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
    taken. A start whose line search finds no acceptable length stops:
    converged within rounding where its step's predicted gain lies in the
    tie band (``_stalls``), else with no acceptable step. The starts
    iterate together: one Hessian evaluation and one stacked solve serve
    every start still moving. A start that converges or
    stops writes its final state to the outputs and leaves the state, whose
    moving columns one gather packs into the other state buffer, so every
    later evaluation covers the moving starts only. Each point is evaluated
    once: every start carries the factor table of its point (``_evaluate``),
    and the Hessian is built from it. The arguments are only read.

    Returns (u, log_likelihood, projected_gradient_norm, iterations,
    messages), one column of u and one entry of the others per start.
    """
    run = _initial_state(u0, table, counts, scale, sel, lo_t, hi_t)
    size, width = u0.shape
    rows = _rows(size)
    final, final_it = np.empty((size + 2, width)), np.empty(width, dtype=int)
    messages = [""] * width

    def stop(*reasons):
        """Stop the starts that a (mask, message) pair names, the first pair
        naming a start giving its message: write their final state and
        gather the other columns into the other state buffer. Returns None
        if none stops, else the column each moving start held before."""
        done = reasons[0][0]
        for mask, _ in reasons[1:]:
            done = done | mask
        if not np.count_nonzero(done):
            return None
        for mask, message in reversed(reasons):
            if np.count_nonzero(mask):
                for row in run["start"][mask].tolist():
                    messages[row] = message
        out = run["start"][done]
        final[:, out] = run["state"][rows["final"], done]
        final_it[out] = run["it"][done]
        (keep,) = (~done).nonzero()
        side, height = 1 - run["side"], len(run["state"])
        state = run["memory"][side, :height * keep.size].reshape(height, keep.size)
        run["state"].take(keep, axis=1, out=state)
        run.update(_views(state, run["free"].take(keep, axis=1)), side=side,
                   start=run["start"][keep], it=run["it"][keep])
        return keep

    within = stalled = np.zeros(width, dtype=bool)
    while True:
        stop((run["pg"] < tol, _CONVERGED[0]), (run["it"] >= max_iter, "iteration cap reached"),
             (within, _CONVERGED[1]), (stalled, "no acceptable step"))
        if not run["start"].size:
            break
        step, singular, broken = _direction(run)
        kept = stop((singular, "singular Newton system"), (broken, "non-finite Newton step"))
        step = step if kept is None else step[:, kept]
        within, stalled = _stalls(run, step, _line_search(run, step, width))

    return final[:size], final[size], final[size + 1], final_it, messages


def _stalls(run, step, accepted):
    """Split the starts that found no acceptable ``step`` in two: those that
    converged within the likelihood's rounding, whose step predicts a gain
    g's in [0, ``_tie_band(ll, ll)``] that the log-likelihood cannot
    resolve (Boyd & Vandenberghe 2004, section 9.5.1), and the others.
    A start that found no step has kept its point, so its gradient and
    log-likelihood are those the step was taken from. Returns the two
    masks."""
    stalled, within = ~accepted, np.zeros_like(accepted)
    if np.count_nonzero(stalled):
        (cols,) = stalled.nonzero()
        gains = np.add.reduce(run["grad"].take(cols, axis=1) * step.take(cols, axis=1), axis=0)
        for col, gain, ll in zip(cols.tolist(), gains.tolist(), run["ll"].take(cols).tolist()):
            within[col] = 0.0 <= gain <= _tie_band(ll, ll)
        stalled &= ~within
    return within, stalled


# The step lengths a line search tries, in order: repeated halving from 1
# down to 2**-46, the shortest length above 1e-14.
_LENGTHS = np.ldexp(1.0, -np.arange(47))


def _trial(run, points, cols=None):
    """Evaluate ``points`` (P, m), clipped into the box, into the trial
    buffer, point j belonging to the start in column ``cols[j]`` (column j
    where ``cols`` is None). Returns the trial state (``_views``) and which
    points pass: the projected gradient shrinks or the log-likelihood
    rises."""
    size, m = points.shape
    trials = run["trials"]
    if m not in trials:
        height = len(run["state"])
        trials[m] = _views(run["memory"][2, :height * m].reshape(height, m),
                           run["trial_free"][:size * m].reshape(size, m))
    out = trials[m]
    if cols is None:
        const, ll, pg = run, run["ll"], run["pg"]
    else:
        rows = _rows(size)["constant"]
        run["state"][rows].take(cols, axis=1, out=out["state"][rows])
        const, ll, pg = out, run["ll"].take(cols), run["pg"].take(cols)
    np.minimum(np.maximum(points, const["lo"], out=out["u"]), const["hi"], out=out["u"])
    _evaluate(out, const, run["sel"])
    return out, (out["pg"] < pg) | (out["ll"] > ll)


def _line_search(run, step, width):
    """Backtrack each start's step from full length, halving it until the
    projected gradient shrinks or the log-likelihood rises. Accepted starts
    move, with the state of their new point, and count an iteration.
    Returns which starts accepted a step.

    A start takes the first length of ``_LENGTHS`` that passes, as halving
    one length at a time would. The full-length trial of every start is one
    evaluation. After it, each evaluation tries, for every start still
    searching, its next lengths at once, one column per length, as many as
    keep the evaluation within ``width`` columns. An accepted trial's
    state moves into the start's column with one copy."""
    u = run["u"]
    moved = _rows(len(u))["moved"]
    state, free = run["state"][moved], run["free"]
    trial, accepted = _trial(run, u + step)
    if np.count_nonzero(accepted) == accepted.size:
        state[...] = trial["state"][moved]
        free[...] = trial["free"]
        run["it"] += 1
        return accepted
    np.copyto(state, trial["state"][moved], where=accepted)
    np.copyto(free, trial["free"], where=accepted)
    (searching,), k = (~accepted).nonzero(), 1
    while searching.size and k < _LENGTHS.size:
        per = min(width // searching.size, _LENGTHS.size - k)
        points = (u.take(searching, axis=1)[:, :, None]
                  + _LENGTHS[k:k + per] * step.take(searching, axis=1)[:, :, None])
        trial, ok = _trial(run, points.reshape(len(u), -1), searching.repeat(per))
        ok = ok.reshape(-1, per)
        found = np.logical_or.reduce(ok, axis=1)
        (rows,) = found.nonzero()
        first = rows * per + ok.argmax(axis=1).take(rows)
        to = searching.take(rows)
        state[:, to] = trial["state"][moved].take(first, axis=1)
        free[:, to] = trial["free"].take(first, axis=1)
        accepted[to] = True
        searching, k = searching[~found], k + per
    run["it"] += accepted
    return accepted


# --- fitting -------------------------------------------------------------------

def _solver_inputs(tables, options: FitOptions):
    """Each table's ``_setup`` and starting grid (``_starts``), stacked into
    the arguments of ``_solve_start``, one block of columns per table in
    table order. A table is the (a, b) counts of ``_setup`` or the error
    of ``_table``. Returns (outcomes, fitted, args): ``outcomes`` holds, at
    the index of each table with no box, the package error that makes it
    unfittable (None elsewhere); ``fitted`` the (index, setup, starts) of
    every other table; ``args`` the arguments, or None if no table has a
    box."""
    outcomes: list = [None] * len(tables)
    fitted, counts = [], []
    for index, table in enumerate(tables):
        if isinstance(table, DualdepError):
            outcomes[index] = table
            continue
        try:
            setup = _setup(*table, options.mode)
            fitted.append((index, setup, _starts(*table, options, setup)))
            counts.append(model._counts(*table))
        except DualdepError as exc:
            # without its traceback the error holds no frame, and so no
            # reference cycle through this list, alive
            outcomes[index] = exc.with_traceback(None)
    if not fitted:
        return outcomes, fitted, None
    coords, sel, _ = _COORDINATES[options.mode]
    scale, lo_t, hi_t = (
        np.array(column, dtype=float).T
        for column in zip(*((setup[2], *_trimmed(*setup[3:], coords)) for _, setup, _ in fitted)))
    u0 = np.concatenate([starts for _, _, starts in fitted], axis=1)[list(coords)]
    table = np.repeat(np.arange(len(fitted)), options.n_starts)
    return outcomes, fitted, (u0, table, np.array(counts).T, scale, sel, lo_t, hi_t,
                              options.max_iterations, options.gradient_tolerance)


# The active-bound mask of a fit off every bound, as a certified fit is, or
# of a table with no fit.
_OFF_BOUNDS = (False,) * 6


class _Fits(NamedTuple):
    """A batch of fits read out (``_read_out``), one row per table in
    ``rows``: the fit as the package passes it on, (params, active, error),
    the winner's six parameters as Python floats (None where the table has
    no fit), which of them lie in the activity band of a bound (a 6-tuple of
    bools in PARAM_NAMES order) and None or the package error that left the
    table without a fit. ``fitted`` (``_solver_inputs``), ``winners`` (each
    fitted table's winning column) and ``solved`` (the solve's
    log-likelihoods, projected gradients, iterations and messages, one entry
    per column) are what ``fit_many`` builds its FitResults from."""

    rows: list
    fitted: list
    winners: list
    solved: tuple


def _winner(lls, converged, totals) -> int:
    """The winning start of one table: the best log-likelihood, where ties
    (``_tie_band``) go to a converged start, then to the smaller total."""
    k = 0
    for j in range(1, len(lls)):
        value, best = lls[j], lls[k]
        band = _tie_band(value, best)
        if value > best + band or (abs(value - best) <= band and (
            (converged[j], -totals[j]) > (converged[k], -totals[k])
        )):
            k = j
    return k


def _diagnostics(starts, solved, cols) -> list[StartDiagnostics]:
    """The StartDiagnostics of a table's starts (6, n), in its solver
    columns ``cols`` of ``solved``. Each start is inside the box by
    construction, so its ``ModelParams`` skips the checks."""
    return [
        StartDiagnostics(start=model._unchecked_params(*start), log_likelihood=value,
                         projected_gradient=pg_norm, converged=message in _CONVERGED,
                         iterations=n_iter, message=message)
        for start, value, pg_norm, n_iter, message in zip(
            starts.T.tolist(), *(part[cols] for part in solved))
    ]


def _read_out(outcomes, fitted, theta, solved, options) -> _Fits:
    """The ``_Fits`` of a solve: ``outcomes`` and ``fitted`` as
    ``_solver_inputs`` gives them, and the six parameters ``theta`` (6, K)
    where each start ended with the solver's ``solved`` outcomes (lists),
    each table's starts in consecutive columns. A table whose winning start
    (``_winner``) did not converge gets the NonConvergenceError, whether or
    not another start did. Only the winners' parameters are checked, as
    ``ModelParams`` checks them; one that fails raises its
    ValidationError."""
    rows = [(None, _OFF_BOUNDS, error) for error in outcomes]
    if not fitted:
        return _Fits(rows, fitted, [], solved)
    lls, _, _, messages = solved
    n = options.n_starts
    totals = (theta[0] + theta[1]).tolist()
    converged = [message in _CONVERGED for message in messages]
    winners = [k + _winner(lls[k:k + n], converged[k:k + n], totals[k:k + n])
               for k in range(0, len(lls), n)]
    fit_at, won, boxes = [], [], []
    for (index, setup, starts), k in zip(fitted, winners):
        if converged[k]:
            fit_at.append(index)
            won.append(k)
            boxes.append(setup[0])
            continue
        cols = slice(k - k % n, k - k % n + n)
        stalled = ("the best start did not reach" if any(converged[cols])
                   else "no starting point reached")
        rows[index] = (None, _OFF_BOUNDS, NonConvergenceError(
            f"{stalled} gradient tolerance {options.gradient_tolerance}",
            _diagnostics(starts, solved, cols)))
    if not fit_at:
        return _Fits(rows, fitted, winners, solved)
    won = theta[:, won]
    sizes, probs = won[:2], won[2:]
    bad = ~((np.isfinite(sizes) & (sizes > 0.0)).all(axis=0)
            & ((probs >= 0.0) & (probs <= 1.0)).all(axis=0))
    if bad.any():
        ModelParams(*won[:, np.argmax(bad)].tolist())  # raises its ValidationError
    lo, hi = np.array(boxes).T  # each (6, len(fit_at))
    for index, params, mask in zip(fit_at, won.T.tolist(), _active(won, lo, hi).T.tolist()):
        rows[index] = (params, tuple(mask), None)
    return _Fits(rows, fitted, winners, solved)


def _fits(tables, options: FitOptions) -> _Fits:
    """Fit many tables with one batched solve over every start of every
    table's starting grid (``_solver_inputs``), read out as rows
    (``_read_out``)."""
    outcomes, fitted, args = _solver_inputs(tables, options)
    if args is None:
        return _read_out(outcomes, fitted, None, None, options)
    u, values, pg_norms, iterations, messages = _solve_start(*args)
    _, table, _, scale, sel, *_ = args
    solved = (values.tolist(), pg_norms.tolist(), iterations.tolist(), messages)
    return _read_out(outcomes, fitted, _expand(u, scale[:, table], sel), solved, options)


def _fit_block(tables, options: FitOptions) -> list:
    """The pool worker of ``_fit_drawn``: a block of (a, b) counts fitted in
    one batched solve, each table's row of ``_fits``."""
    return _fits(tables, options).rows


def _fit_drawn(draws, options: FitOptions, threads: int) -> list:
    """The fits of drawn tables with ``options``, in draw order, each a row
    as ``_fit_block`` gives it: the replicate pipeline of the bootstrap and
    the studies. A draw is an (a, b) pair of the strata's (x11, x10, x01) counts
    as Python ints, x11 >= 1 in both. Each draw is certified in this process
    (``_moment_point``): a certified draw's fit is its moment point, off
    every bound. Only the declined draws go to the solver, as the same
    counts, in blocks of at most ``_parallel.BLOCK_COLUMNS`` solver columns
    spread over ``threads`` processes (``run_blocks``)."""
    fits = [(_moment_point(a, b, options.mode), _OFF_BOUNDS, None) for a, b in draws]
    declined = [k for k, (point, _, _) in enumerate(fits) if point is None]
    for k, fit in zip(declined, run_blocks(_fit_block, [draws[k] for k in declined],
                                           options.n_starts, threads, options)):
        fits[k] = fit
    return fits


def _result(fits: _Fits, position: int, options: FitOptions) -> FitResult:
    """The FitResult of the fitted table at ``position`` of ``fits.fitted``,
    which has a fit."""
    index, (_, (ratio, multiplier), *_), starts = fits.fitted[position]
    n = starts.shape[1]
    k = fits.winners[position]
    diagnostics = _diagnostics(starts, fits.solved, slice(position * n, (position + 1) * n))
    winner = diagnostics[k - position * n]
    theta, active, _ = fits.rows[index]
    params = model._unchecked_params(*theta)
    # in reduced mode theta is built from the same products, so both gaps are 0
    expected_na = ratio * params.n_b
    size_gap = abs(params.n_a - expected_na) / expected_na
    expected_p2a = multiplier * params.p2b
    denom = max(params.p2a, expected_p2a)
    p2_gap = abs(params.p2a - expected_p2a) / denom if denom > 0.0 else 0.0
    return FitResult(
        params=params,
        log_likelihood=winner.log_likelihood,
        converged=True,
        iterations=winner.iterations,
        active_constraints=frozenset(name for name, on in zip(PARAM_NAMES, active) if on),
        n_hat_total=params.total,
        mode=options.mode,
        options=options,
        size_ratio_gap=size_gap,
        p2_identity_gap=p2_gap,
        per_start_diagnostics=tuple(diagnostics),
    )


def fit_many(tables, options: FitOptions | None = None) -> list:
    """Fit many tables with one batched solve over every start of every table.

    Returns, in table order, each table's converged FitResult or the
    package error fitting it raised (a missing overlap, an empty reduced
    box, a best start short of the tolerance), so one bad table never ends
    the others. A table's result is bit-identical whatever other tables
    share the batch. Each table climbs from its starting grid of
    ``options.n_starts`` points. The batch holds one column per start;
    callers with many tables pass them in blocks. The FitResults are built
    from the batch's rows (``_fits``), whose read-out decides each table's
    winner, convergence and active bounds.
    """
    options = options or FitOptions()
    fits = _fits([_table(data) for data in tables], options)
    outcomes = [error for _, _, error in fits.rows]
    for position, (index, _, _) in enumerate(fits.fitted):
        if outcomes[index] is None:
            outcomes[index] = _result(fits, position, options)
    return outcomes


def fit(data: SurveyData, options: FitOptions | None = None) -> FitResult:
    """Maximize the constrained log-likelihood over all starting points.

    In reduced mode (the default) N_A and p2A are eliminated through the
    data ratios and the four free coordinates are optimized inside the
    mapped box; in full mode all six parameters move independently. The
    best local maximum wins; log-likelihood ties (within 1e-9, or 16 ulps of
    the log-likelihood where that is wider) go to a converged start, then
    to the smaller N_A + N_B. Raises NonConvergenceError when that best
    start did not converge (``FitOptions``), whether or not another start
    did. One table through ``fit_many``.
    """
    (outcome,) = fit_many([data], options)
    if isinstance(outcome, DualdepError):
        raise outcome
    return outcome
