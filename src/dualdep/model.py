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
log-likelihood and its analytic gradient and Hessian.
"""

from __future__ import annotations

import math
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
# kernels take theta as six arrays (N_A, N_B, alpha, p1, p2A, p2B) and counts
# as eight (x11A, x10A, x01A, x0A, x11B, x10B, x01B, x0B) with one entry per
# point, and use elementwise arithmetic only, so a point's result never
# depends on the other points of the batch. They do not check that every term is
# evaluable: _check does that for the public wrappers, and the solver's
# trimmed box keeps every term evaluable.

_TERMS = ("p11A", "p10A", "p01A", "p00A", "p11B", "p10B", "p01B", "p00B")


def _counts(data: SurveyData) -> tuple[float, ...]:
    a, b = data.stratum_a, data.stratum_b
    return (
        float(a.x11), float(a.x10), float(a.x01), float(a.total),
        float(b.x11), float(b.x10), float(b.x01), float(b.total),
    )


def _cells(theta, counts):
    """Unobserved sizes N - x0 and the eight cell probabilities, each
    paired with its count coefficient, in _TERMS order."""
    n_a, n_b, alpha, p1, p2a, p2b = theta
    x11a, x10a, x01a, x0a, x11b, x10b, x01b, x0b = counts
    m_a, m_b = n_a - x0a, n_b - x0b
    one = 1.0 - alpha
    q1 = 1.0 - p1
    return m_a, m_b, (
        (one * p1 * p2a, x11a),
        (p1 * (alpha + one * (1.0 - p2a)), x10a),
        (q1 * (alpha + one * p2a), x01a),
        (one * q1 * (1.0 - p2a), m_a),
        (one * p1 * p2b, x11b),
        (p1 * (alpha + one * (1.0 - p2b)), x10b),
        (q1 * (alpha + one * p2b), x01b),
        (one * q1 * (1.0 - p2b), m_b),
    )


def _check(theta, counts) -> None:
    """Raise EvaluationError naming the first term of a one-point batch that
    needs log 0 or the log of a negative number: N below the observed total,
    or a zero cell against a nonzero count."""
    m_a, m_b, cells = _cells(theta, counts)
    for term, m, n, x0 in (("N_A - x0A", m_a, theta[0], counts[3]),
                           ("N_B - x0B", m_b, theta[1], counts[7])):
        if m[0] < 0.0:
            raise EvaluationError(term, f"{term[:3]} = {n[0]} is below the observed total {x0[0]}")
    for term, (value, coeff) in zip(_TERMS, cells):
        if coeff[0] != 0.0 and value[0] <= 0.0:
            raise EvaluationError(term, f"probability {value[0]} with count coefficient {coeff[0]}")


def _xlogy(x, y):
    """x log y with a zero count contributing zero whatever y is."""
    return np.where(x == 0.0, 0.0, x * np.log(y))


def _frac(num, den):
    """num / den with a zero numerator winning over a zero denominator."""
    return np.where(num == 0.0, 0.0, num / den)


def _ll(theta, counts):
    with np.errstate(divide="ignore", invalid="ignore"):
        n_a, n_b = theta[0], theta[1]
        m_a, m_b, cells = _cells(theta, counts)
        # Stirling's n log n - n for N!, minus the same for (N - x0)!
        out = n_a * np.log(n_a) - n_a + m_a - _xlogy(m_a, m_a)
        out = out + (n_b * np.log(n_b) - n_b + m_b - _xlogy(m_b, m_b))
        for value, coeff in cells:
            out = out + _xlogy(coeff, value)
    return out


def _size_component(n, m, p00):
    # d/dN of the Stirling pair plus the p00 exponent; diverges at N = x0
    return np.where(m == 0.0, np.where(p00 > 0.0, np.inf, np.nan),
                    np.log(n) - np.log(m) + np.log(p00))


def _grad(theta, counts) -> list:
    with np.errstate(divide="ignore", invalid="ignore"):
        n_a, n_b, alpha, p1, p2a, p2b = theta
        x11a, x10a, x01a, _, x11b, x10b, x01b, _ = counts
        m_a, m_b = n_a - counts[3], n_b - counts[7]
        one = 1.0 - alpha
        q1 = 1.0 - p1
        qa10 = alpha + one * (1.0 - p2a)
        qb10 = alpha + one * (1.0 - p2b)
        qa01 = alpha + one * p2a
        qb01 = alpha + one * p2b
        g_na = _size_component(n_a, m_a, one * q1 * (1.0 - p2a))
        g_nb = _size_component(n_b, m_b, one * q1 * (1.0 - p2b))
        g_alpha = (
            -_frac(x11a + x11b + m_a + m_b, one)
            + _frac(x10a * p2a, qa10)
            + _frac(x10b * p2b, qb10)
            + _frac(x01a * (1.0 - p2a), qa01)
            + _frac(x01b * (1.0 - p2b), qb01)
        )
        g_p1 = _frac(x11a + x11b + x10a + x10b, p1) - _frac(x01a + x01b + m_a + m_b, q1)
        g_p2a = (
            _frac(x11a, p2a)
            - _frac(x10a * one, qa10)
            + _frac(x01a * one, qa01)
            - _frac(m_a, 1.0 - p2a)
        )
        g_p2b = (
            _frac(x11b, p2b)
            - _frac(x10b * one, qb10)
            + _frac(x01b * one, qb01)
            - _frac(m_b, 1.0 - p2b)
        )
    return [g_na, g_nb, g_alpha, g_p1, g_p2a, g_p2b]


def _neg_reciprocal(value):
    """-1 / value, diverging to -inf where value reaches 0."""
    return np.where(value > 0.0, -1.0 / value, -np.inf)


def _hess(theta, counts) -> dict:
    """Entries (i, j), i <= j, of the 6x6 Hessian that can be nonzero; every
    other entry is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n_a, n_b, alpha, p1, p2a, p2b = theta
        x11a, x10a, x01a, _, x11b, x10b, x01b, _ = counts
        m_a, m_b = n_a - counts[3], n_b - counts[7]
        one = 1.0 - alpha
        qa10 = alpha + one * (1.0 - p2a)
        qb10 = alpha + one * (1.0 - p2b)
        qa01 = alpha + one * p2a
        qb01 = alpha + one * p2b
        h_alpha = _neg_reciprocal(one)
        h_p1 = _neg_reciprocal(1.0 - p1)
        return {
            (0, 0): np.where(m_a > 0.0, 1.0 / n_a - 1.0 / m_a, -np.inf),
            (1, 1): np.where(m_b > 0.0, 1.0 / n_b - 1.0 / m_b, -np.inf),
            (0, 2): h_alpha,
            (1, 2): h_alpha,
            (0, 3): h_p1,
            (1, 3): h_p1,
            (0, 4): _neg_reciprocal(1.0 - p2a),
            (1, 5): _neg_reciprocal(1.0 - p2b),
            (2, 2): (
                -_frac(x11a + x11b + m_a + m_b, one * one)
                - _frac(x10a * p2a * p2a, qa10 * qa10)
                - _frac(x10b * p2b * p2b, qb10 * qb10)
                - _frac(x01a * (1.0 - p2a) ** 2, qa01 * qa01)
                - _frac(x01b * (1.0 - p2b) ** 2, qb01 * qb01)
            ),
            (2, 4): _frac(x10a, qa10 * qa10) - _frac(x01a, qa01 * qa01),
            (2, 5): _frac(x10b, qb10 * qb10) - _frac(x01b, qb01 * qb01),
            (3, 3): -_frac(x11a + x11b + x10a + x10b, p1 * p1) - _frac(
                x01a + x01b + m_a + m_b, (1.0 - p1) ** 2
            ),
            (4, 4): (
                -_frac(x11a, p2a * p2a)
                - _frac(x10a * one * one, qa10 * qa10)
                - _frac(x01a * one * one, qa01 * qa01)
                - _frac(m_a, (1.0 - p2a) ** 2)
            ),
            (5, 5): (
                -_frac(x11b, p2b * p2b)
                - _frac(x10b * one * one, qb10 * qb10)
                - _frac(x01b * one * one, qb01 * qb01)
                - _frac(m_b, (1.0 - p2b) ** 2)
            ),
        }


# --- public wrappers ---------------------------------------------------------

def _one_point(params: ModelParams, data: SurveyData):
    """theta and counts of one parameter point as one-point kernel arguments,
    checked to be evaluable."""
    theta = [np.array([value]) for value in params.as_tuple()]
    counts = [np.array([value]) for value in _counts(data)]
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
    return np.array([g[0] for g in _grad(*_one_point(params, data))])


def hessian(params: ModelParams, data: SurveyData) -> np.ndarray:
    """Analytic 6x6 Hessian of the log-likelihood, exactly symmetric.

    Off-diagonal structure: the two sizes never interact, alpha and p1
    never interact, p1 never meets a p2, and each p2 touches only its own
    stratum's size and alpha.
    """
    h = np.zeros((6, 6))
    for (i, j), value in _hess(*_one_point(params, data)).items():
        h[i, j] = h[j, i] = value[0]
    return h
