"""Latent-structure model for two negatively dependent capture lists.

A share ``alpha`` of the population behaves dependently: given latent
independent Bernoulli capture statuses, a dependent unit's list-2 status is
the *complement* of its list-1 status, so joint capture and joint absence
both require the independent regime. The observed-cell probabilities are

    p11 = (1-alpha) p1 p2
    p10 = p1 (alpha + (1-alpha)(1-p2))
    p01 = (1-p1) (alpha + (1-alpha) p2)
    p00 = (1-alpha)(1-p1)(1-p2)

Identification uses two strata sharing the list-1 capture probability p1:
the stratum sizes are tied through the list-1 marginals and the two list-2
probabilities through a method-of-moments ratio, reducing the six-parameter
problem to four. This module evaluates the (Stirling-approximated) capture
log-likelihood and its analytic gradient and Hessian, all three from one
table of the eleven factors whose products are the cells.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import EvaluationError, ValidationError
from .tables import SurveyData

__all__ = [
    "PARAM_NAMES",
    "ModelParams",
    "CellProbabilities",
    "ReducedParams",
    "cell_probabilities",
    "marginals_and_covariance",
    "size_ratio",
    "p2a_ratio",
    "expand",
    "log_likelihood",
    "gradient",
    "hessian",
]

PARAM_NAMES = ("N_A", "N_B", "alpha", "p1", "p2A", "p2B")


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector (N_A, N_B, alpha, p1, p2A, p2B).

    Sizes are positive reals (the likelihood is a continuous relaxation);
    alpha is the dependent share; p1 is the shared list-1 capture
    probability; p2A/p2B are the per-stratum list-2 probabilities.
    """

    n_a: float
    n_b: float
    alpha: float
    p1: float
    p2a: float
    p2b: float

    def __post_init__(self):
        for name in ("n_a", "n_b"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{name} must be a positive real, got {value}")
            object.__setattr__(self, name, value)
        for name, label in (("alpha", "alpha"), ("p1", "p1"), ("p2a", "p2A"), ("p2b", "p2B")):
            object.__setattr__(self, name, _check_prob(label, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.n_a, self.n_b, self.alpha, self.p1, self.p2a, self.p2b)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @classmethod
    def from_array(cls, values) -> "ModelParams":
        n_a, n_b, alpha, p1, p2a, p2b = (float(v) for v in values)
        return cls(n_a, n_b, alpha, p1, p2a, p2b)

    @property
    def total(self) -> float:
        return self.n_a + self.n_b


@dataclass(frozen=True)
class CellProbabilities:
    """Probabilities of the four capture cells; they sum to one."""

    p11: float
    p10: float
    p01: float
    p00: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p10, self.p01, self.p00)


@dataclass(frozen=True)
class ReducedParams:
    """The four free coordinates once N_A and p2A are tied to the data ratios."""

    n_b: float
    alpha: float
    p1: float
    p2b: float


def cell_probabilities(alpha: float, p1: float, p2: float) -> CellProbabilities:
    """Observed-cell probabilities of the negative-dependence model.

    At alpha = 0 the cells factorize (independent lists); at alpha = 1
    joint capture and joint absence are impossible.
    """
    alpha = _check_prob("alpha", alpha)
    p1 = _check_prob("p1", p1)
    p2 = _check_prob("p2", p2)
    one = 1.0 - alpha
    return CellProbabilities(
        p11=one * p1 * p2,
        p10=p1 * (alpha + one * (1.0 - p2)),
        p01=(1.0 - p1) * (alpha + one * p2),
        p00=one * (1.0 - p1) * (1.0 - p2),
    )


def marginals_and_covariance(alpha: float, p1: float, p2: float) -> tuple[float, float, float]:
    """Marginal capture probabilities (pY, pZ) and their covariance.

    Derived from the cells so the three are consistent by construction:
    pY = p1, pZ = alpha (1-p1) + (1-alpha) p2, and
    cov = p11 - pY pZ = -alpha p1 (1-p1), which is never positive.
    """
    cells = cell_probabilities(alpha, p1, p2)
    p_y = cells.p11 + cells.p10
    p_z = cells.p11 + cells.p01
    return p_y, p_z, cells.p11 - p_y * p_z


def size_ratio(data: SurveyData) -> float:
    """Ratio of list-1 marginals x1.A / x1.B that ties N_A to N_B."""
    return data.stratum_a.n_list1 / data.stratum_b.n_list1


def p2a_ratio(data: SurveyData) -> float:
    """Method-of-moments multiplier relating p2A to p2B.

    Equating each stratum's expected joint-capture count to its observed
    x11 gives p2A = (x11A / x11B) (x1.B / x1.A) p2B.
    """
    if data.stratum_b.x11 == 0:
        raise ValidationError("cannot relate p2A to p2B: x11B = 0")
    return (data.stratum_a.x11 / data.stratum_b.x11) * (
        data.stratum_b.n_list1 / data.stratum_a.n_list1
    )


def expand(reduced: ReducedParams, data: SurveyData) -> ModelParams:
    """Restore the full parameter vector from the reduced coordinates.

    N_A = (x1.A / x1.B) N_B and p2A = p2a_ratio(data) * p2B. If the ratio
    pushes p2A above 1 it is clamped to 1; a fit never produces that (the
    p2B box is pre-shrunk by the ratio) and a clamped value then shows up
    as an active p2A constraint.
    """
    ratio = size_ratio(data)
    multiplier = p2a_ratio(data)
    return ModelParams(
        n_a=ratio * reduced.n_b,
        n_b=reduced.n_b,
        alpha=reduced.alpha,
        p1=reduced.p1,
        p2a=min(multiplier * reduced.p2b, 1.0),
        p2b=reduced.p2b,
    )


# --- array kernels -------------------------------------------------------------
#
# The solver evaluates every start of every table in a batch at once. The
# kernels take theta (6, K), rows in PARAM_NAMES order, and counts (8, K), rows
# (x11A, x10A, x01A, x0A, x11B, x10B, x01B, x0B), one column per point. They
# use elementwise arithmetic only, and add rows to rows in a fixed order where
# they sum (never a numpy reduction, which sums a lone column's contiguous
# terms pairwise), so a point's result never depends on the other points of
# the batch. They do not check that every term is evaluable:
# _check does that for the public wrappers, and the solver's trimmed box keeps
# every term evaluable.
#
# The factor table. Each cell probability is a product of eleven factors
# phi_f, each affine in one parameter or bilinear in (alpha, p2s); _W[f, c]
# says whether phi_f divides cell c. With the cell counts c = (x11A, x10A,
# x01A, N_A - x0A, x11B, x10B, x01B, N_B - x0B) and weights w = _W c, the
# (Stirling-approximated) log-likelihood is
#
#     sum_f w_f log phi_f + sum_s [N_s log N_s - (N_s - x0s) log(N_s - x0s) - x0s],
#
# so its gradient and Hessian need only the factors' partial derivatives:
# _PARTIALS, and the four constant second partials of the bilinear factors.

_TERMS = ("p11A", "p10A", "p01A", "p00A", "p11B", "p10B", "p01B", "p00B")

#                p11A p10A p01A p00A p11B p10B p01B p00B
_W = np.array([[1, 1, 0, 0, 1, 1, 0, 0],  # 0: p1
               [1, 0, 0, 0, 0, 0, 0, 0],  # 1: p2A
               [0, 0, 0, 0, 1, 0, 0, 0],  # 2: p2B
               [1, 0, 0, 1, 1, 0, 0, 1],  # 3: 1 - alpha
               [0, 0, 1, 1, 0, 0, 1, 1],  # 4: 1 - p1
               [0, 0, 0, 1, 0, 0, 0, 0],  # 5: 1 - p2A
               [0, 0, 0, 0, 0, 0, 0, 1],  # 6: 1 - p2B
               [0, 1, 0, 0, 0, 0, 0, 0],  # 7: 1 - (1 - alpha) p2A
               [0, 0, 0, 0, 0, 1, 0, 0],  # 8: 1 - (1 - alpha) p2B
               [0, 0, 1, 0, 0, 0, 0, 0],  # 9: alpha + (1 - alpha) p2A
               [0, 0, 0, 0, 0, 0, 1, 0]],  # 10: alpha + (1 - alpha) p2B
              dtype=bool)

# The kernels work on the rows of one "values" array: the eleven factors, the
# constant 1, the sizes N_A, N_B and the unobserved sizes N_A - x0A, N_B - x0B.
_UNIT, _SIZES, _UNOBSERVED = 11, (12, 13), (14, 15)
_P00 = (3, 7)  # the cells whose count is N_s - x0s

# The 15 nonzero first partials d phi_f / d theta_i = sign * values[g], as
# (f, i, sign, g): constant for the affine factors, and for the bilinear
# ones d/d alpha = p2s or 1 - p2s, d/d p2s = -(1 - alpha) or 1 - alpha.
_PARTIALS = (
    (0, 3, 1.0, _UNIT), (4, 3, -1.0, _UNIT),
    (1, 4, 1.0, _UNIT), (5, 4, -1.0, _UNIT),
    (2, 5, 1.0, _UNIT), (6, 5, -1.0, _UNIT),
    (3, 2, -1.0, _UNIT),
    (7, 2, 1.0, 1), (7, 4, -1.0, 3),
    (8, 2, 1.0, 2), (8, 5, -1.0, 3),
    (9, 2, 1.0, 5), (9, 4, 1.0, 3),
    (10, 2, 1.0, 6), (10, 5, 1.0, 3),
)
# The nonzero second partials d2 phi_f / d alpha d p2s, as (f, i, j, value).
_SECOND_PARTIALS = ((7, 2, 4, 1.0), (8, 2, 5, 1.0), (9, 2, 4, -1.0), (10, 2, 5, -1.0))

# The Hessian entries (i, j), i <= j, in the order _hess returns them.
_PAIRS = tuple((i, j) for i in range(6) for j in range(i, 6))


def _segments(terms):
    """Terms (target, *fields) laid out for ``_segment_sum``: one array per
    field, and the layout.

    The layout lists the targets by decreasing number of terms. The first
    block of terms holds each target's first term in that order, and block d
    the d-th terms of the targets that have more than d, which are a prefix
    of that order; the layout records the targets and where each later
    block starts and how many rows it has."""
    count = Counter(term[0] for term in terms)
    targets = sorted(count, key=lambda target: (-count[target], target))
    own = {target: [term for term in terms if term[0] == target] for target in targets}
    laid, blocks = [], []
    for depth in range(max(count.values())):
        block = [own[target][depth] for target in targets if count[target] > depth]
        if depth:
            blocks.append((len(laid), len(block)))
        laid += block
    _, *fields = zip(*laid)
    return [np.array(field) for field in fields], (targets, blocks)


def _segment_sum(terms, layout):
    """Each target's terms summed in their listed order, one row per target
    in layout order, by elementwise adds of whole blocks only; overwrites
    ``terms``."""
    targets, blocks = layout
    out = terms[:len(targets)]  # adds into the first block of terms
    for start, size in blocks:
        out[:size] += terms[start:start + size]
    return out


def _gradient_terms():
    """Terms (i, coefficient, z, v): coefficient * z[z] * values[v] adds into
    d ll / d theta_i, where z holds w_f / phi_f (rows 0-10) and the logs of
    the values (rows 11-26)."""
    terms = [(i, sign, f, g) for f, i, sign, g in _PARTIALS]
    for s in (0, 1):
        # d/dN_s: log N_s - log(N_s - x0s), plus log phi_f for each factor
        # whose weight holds N_s - x0s
        terms += [(s, 1.0, 11 + _SIZES[s], _UNIT), (s, -1.0, 11 + _UNOBSERVED[s], _UNIT)]
        terms += [(s, 1.0, 11 + f, _UNIT) for f in np.flatnonzero(_W[:, _P00[s]])]
    return terms


def _hessian_terms():
    """Terms (entry, coefficient, y, v1, v2): coefficient * y[y] * values[v1]
    * values[v2] adds into the entry of _PAIRS, where y holds w_f / phi_f^2
    (rows 0-10), w_f / phi_f (rows 11-21) and the reciprocals of the values
    (rows 22-37)."""
    terms = []
    for f in range(11):
        # -w_f (d phi_f / d theta_i)(d phi_f / d theta_j) / phi_f^2
        own = [(i, sign, g) for factor, i, sign, g in _PARTIALS if factor == f]
        for a, (i, sign_i, g_i) in enumerate(own):
            for j, sign_j, g_j in own[a:]:
                terms.append((_PAIRS.index((min(i, j), max(i, j))), -sign_i * sign_j, f, g_i, g_j))
    for f, i, j, value in _SECOND_PARTIALS:  # w_f (d2 phi_f / d theta_i d theta_j) / phi_f
        terms.append((_PAIRS.index((i, j)), value, 11 + f, _UNIT, _UNIT))
    for s in (0, 1):
        # d2/dN_s^2 = 1 / N_s - 1 / (N_s - x0s), and d2/dN_s d theta_j sums
        # (d phi_f / d theta_j) / phi_f over the factors whose weight holds
        # N_s - x0s
        terms += [(_PAIRS.index((s, s)), 1.0, 22 + _SIZES[s], _UNIT, _UNIT),
                  (_PAIRS.index((s, s)), -1.0, 22 + _UNOBSERVED[s], _UNIT, _UNIT)]
        terms += [(_PAIRS.index((s, j)), sign, 22 + f, g, _UNIT)
                  for f, j, sign, g in _PARTIALS if _W[f, _P00[s]]]
    return terms


# w = _W c: the cells of each factor
(_W_CELLS,), _W_LAYOUT = _segments(list(zip(*np.nonzero(_W))))
(_G_COEFF, _G_Z, _G_V), _G_LAYOUT = _segments(_gradient_terms())
(_H_COEFF, _H_Y, _H_V1, _H_V2), _H_LAYOUT = _segments(_hessian_terms())


def _counts(data: SurveyData) -> tuple[float, ...]:
    a, b = data.stratum_a, data.stratum_b
    return (
        float(a.x11), float(a.x10), float(a.x01), float(a.total),
        float(b.x11), float(b.x10), float(b.x01), float(b.total),
    )


def _values(theta, counts):
    """The values array and the weight of each value's log in the
    log-likelihood (w, 0, N_A, N_B, -(N_A - x0A), -(N_B - x0B))."""
    alpha = theta[2]
    values = np.empty((16, theta.shape[1]))
    values[0:3] = theta[3:6]
    np.subtract(1.0, theta[2:6], out=values[3:7])
    np.add(values[5:7], alpha * values[1:3], out=values[7:9])  # 1 - (1 - alpha) p2s
    np.add(values[1:3], alpha * values[5:7], out=values[9:11])  # alpha + (1 - alpha) p2s
    values[_UNIT] = 1.0
    values[12:14] = theta[:2]
    np.subtract(theta[:2], counts[3::4], out=values[14:16])
    cells = counts.copy()  # the count of each cell's log, N_s - x0s for p00s
    cells[3::4] = values[14:16]
    weights = np.empty_like(values)
    weights[_W_LAYOUT[0]] = _segment_sum(cells[_W_CELLS], _W_LAYOUT)
    weights[_UNIT] = 0.0
    weights[12:14] = theta[:2]
    np.negative(values[14:16], out=weights[14:16])
    return values, weights


def _check(theta, counts) -> None:
    """Raise EvaluationError naming the first term of a one-point batch that
    needs log 0 or the log of a negative number: N below the observed total,
    or a zero cell, the product of its factors, against a nonzero count."""
    values, _ = _values(theta, counts)
    for s, term in enumerate(("N_A - x0A", "N_B - x0B")):
        if values[_UNOBSERVED[s], 0] < 0.0:
            raise EvaluationError(
                term, f"{term[:3]} = {theta[s, 0]} is below the observed total "
                      f"{counts[_P00[s], 0]}")
    cells = counts[:, 0].copy()
    cells[3::4] = values[14:16, 0]
    for term, value, coeff in zip(_TERMS, np.where(_W, values[:11], 1.0).prod(axis=0), cells):
        if coeff != 0.0 and value <= 0.0:
            raise EvaluationError(term, f"probability {value} with count coefficient {coeff}")


def _xlogy(x, y):
    """x log y with a zero count contributing zero whatever y is."""
    return np.where(x == 0.0, 0.0, x * np.log(y))


def _frac(num, den):
    """num / den with a zero numerator winning over a zero denominator."""
    return np.where(num == 0.0, 0.0, num / den)


def _ll(theta, counts):
    """The log-likelihood, shape (K,)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        values, weights = _values(theta, counts)
        terms = _xlogy(weights, values)
        # summed pairwise in a fixed tree; the Stirling pairs' linear parts,
        # -N_s + (N_s - x0s), are -x0s
        for half in (8, 4, 2, 1):
            terms = terms[:half] + terms[half:]
        return terms[0] - counts[3] - counts[7]


def _grad(theta, counts):
    """The gradient, shape (6, K), rows in PARAM_NAMES order; a size's
    component diverges to +inf at N = x0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values, weights = _values(theta, counts)
        z = np.empty((11 + len(values), values.shape[1]))
        z[:11] = _frac(weights[:11], values[:11])
        np.log(values, out=z[11:])
        out = np.empty((6, values.shape[1]))
        out[_G_LAYOUT[0]] = _segment_sum(_G_COEFF[:, None] * z[_G_Z] * values[_G_V], _G_LAYOUT)
    return out


def _hess(theta, counts):
    """The Hessian entries _PAIRS, shape (21, K); the entries no factor
    couples (N_A-N_B, alpha-p1, p1-p2s, a size with the other stratum's p2,
    p2A-p2B) are exactly 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values, weights = _values(theta, counts)
        y = np.empty((22 + len(values), values.shape[1]))
        y[11:22] = _frac(weights[:11], values[:11])
        y[:11] = _frac(y[11:22], values[:11])
        np.divide(1.0, values, out=y[22:])
        terms = _H_COEFF[:, None] * y[_H_Y] * values[_H_V1] * values[_H_V2]
        out = np.zeros((len(_PAIRS), values.shape[1]))
        out[_H_LAYOUT[0]] = _segment_sum(terms, _H_LAYOUT)
    return out


# --- public wrappers ---------------------------------------------------------

def _one_point(params: ModelParams, data: SurveyData):
    """theta and counts of one parameter point as one-point kernel arguments,
    checked to be evaluable."""
    theta = np.array(params.as_tuple())[:, None]
    counts = np.array(_counts(data))[:, None]
    _check(theta, counts)
    return theta, counts


def log_likelihood(params: ModelParams, data: SurveyData) -> float:
    """Stirling-approximated capture log-likelihood.

    log(N!) is approximated by N log N - N throughout (never exact
    log-gamma), so population sizes may be any reals >= the observed
    totals. Terms with a zero count coefficient contribute zero even when
    their cell probability vanishes, which keeps boundary parameter values
    (alpha = 0, N_s = x0s) evaluable; a zero cell against a nonzero count
    raises EvaluationError naming the term.
    """
    return float(_ll(*_one_point(params, data))[0])


def gradient(params: ModelParams, data: SurveyData) -> np.ndarray:
    """Partial derivatives of the log-likelihood in PARAM_NAMES order.

    Raises exactly where log_likelihood raises. At evaluable boundary
    points whose derivative diverges (N_s = x0s) the affected component is
    returned as +/-inf rather than raising.
    """
    return _grad(*_one_point(params, data))[:, 0]


def hessian(params: ModelParams, data: SurveyData) -> np.ndarray:
    """Analytic 6x6 Hessian of the log-likelihood, exactly symmetric.

    Off-diagonal structure: the two sizes never interact, alpha and p1
    never interact, p1 never meets a p2, the two p2s never meet, and each
    p2 touches only its own stratum's size and alpha.
    """
    rows, cols = np.array(_PAIRS).T
    h = np.empty((6, 6))
    h[rows, cols] = h[cols, rows] = _hess(*_one_point(params, data))[:, 0]
    return h
