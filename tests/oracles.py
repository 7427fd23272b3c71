"""Independent oracles used by the tests: finite differences against the
analytic derivatives, exhaustive multinomial enumeration against the
simulator, a reference projected-Newton solve against the batched one,
plain-numpy reference kernels against the solver's, the moment point in
exact fractions against the closed-form fit, and the certificate on a
table's solver set-up against the one on its counts. These never call the
code paths they check."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dualdep import mle, model
from dualdep.exceptions import DualdepError
from dualdep.model import ModelParams, log_likelihood, gradient
from dualdep.tables import CellCounts, SurveyData


def fd_gradient(params: ModelParams, data: SurveyData, rel: float = 1e-6) -> np.ndarray:
    theta = np.array(params.as_tuple())
    out = np.zeros(6)
    for i in range(6):
        h = rel * abs(theta[i])
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (
            log_likelihood(ModelParams.from_array(up), data)
            - log_likelihood(ModelParams.from_array(down), data)
        ) / (2.0 * h)
    return out


def fd_hessian(params: ModelParams, data: SurveyData, rel: float = 1e-6) -> np.ndarray:
    """Central finite differences of the analytic gradient."""
    theta = np.array(params.as_tuple())
    out = np.zeros((6, 6))
    for i in range(6):
        h = rel * abs(theta[i])
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[:, i] = (
            gradient(ModelParams.from_array(up), data)
            - gradient(ModelParams.from_array(down), data)
        ) / (2.0 * h)
    return out


def random_survey(rng: np.random.Generator, low: int = 1, high: int = 40) -> SurveyData:
    cells = rng.integers(low, high, size=6)
    return SurveyData(
        CellCounts(int(cells[0]), int(cells[1]), int(cells[2])),
        CellCounts(int(cells[3]), int(cells[4]), int(cells[5])),
    )


def random_interior_params(rng: np.random.Generator, data: SurveyData) -> ModelParams:
    x0a = data.stratum_a.total
    x0b = data.stratum_b.total
    return ModelParams(
        n_a=x0a * (1.0 + rng.uniform(0.2, 2.5)),
        n_b=x0b * (1.0 + rng.uniform(0.2, 2.5)),
        alpha=rng.uniform(0.02, 0.6),
        p1=rng.uniform(0.05, 0.9),
        p2a=rng.uniform(0.05, 0.9),
        p2b=rng.uniform(0.05, 0.9),
    )


def multinomial_pmf(counts: tuple[int, ...], n: int, probs: tuple[float, ...]) -> float:
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    out = float(coef)
    for c, p in zip(counts, probs):
        out *= p**c
    return out


def exact_conditional_naive_mean(n: int, probs: tuple[float, float, float, float]) -> float:
    """E[naive estimate | x11 >= 1] by full enumeration of multinomial tables."""
    acc = 0.0
    mass = 0.0
    for x11 in range(1, n + 1):
        for x10 in range(0, n - x11 + 1):
            for x01 in range(0, n - x11 - x10 + 1):
                x00 = n - x11 - x10 - x01
                pmf = multinomial_pmf((x11, x10, x01, x00), n, probs)
                acc += pmf * (x11 + x10) * (x11 + x01) / x11
                mass += pmf
    return acc / mass


# --- reference solver --------------------------------------------------------
# The projected-Newton solve as one fixed-width batch that halves every
# searching start's step length one evaluation at a time: every start keeps
# its column, masked once it stops. ``mle._solve_start`` must return the same
# bits. Only the solve's building blocks (the derivatives, the Newton and
# ascent steps and the projected gradient) come from ``mle``.

def _reference_direction(run):
    """The step of each running start; stopped starts get a zero step.
    Returns (step, singular, broken)."""
    u, live = run["u"], run["live"]
    size = u.shape[0]
    free = run["free"] & live
    grad = np.where(free, run["grad"], 0.0)
    values, weights = model._values(mle._expand(u, run["scale"], run["sel"]), run["counts"])
    hess = mle._hessian(values, weights, run["scale"], run["sel"])
    np.copyto(hess, np.eye(size), where=~(free.T[:, :, None] & free.T[:, None, :]))
    step, singular = mle._newton_step(hess, grad.T)
    step = step.T
    descend = live & ~((grad * step).sum(axis=0) > 0.0) & ~singular
    if descend.any():
        step[:, descend] = mle._ascent_step(hess[descend], grad.T[descend]).T
    step = np.where(free, step, 0.0)
    broken = ~np.isfinite(step).all(axis=0) & ~singular
    # fraction to boundary, one probability coordinate at a time: the
    # column's share is the least over the coordinates that bind
    share = np.ones(u.shape[1])
    for c in range(run["sel"][2], size):
        lo, hi = run["lo"][c], run["hi"][c]
        room = np.where(step[c] > 0.0, hi - u[c], u[c] - lo)
        band = mle._BOUNDARY_BAND * (hi - lo)
        binds = (np.abs(step[c]) > mle._TO_BOUNDARY * room) & (room > band)
        for k in np.flatnonzero(binds).tolist():
            share[k] = min(share[k], mle._TO_BOUNDARY * (room[k] / abs(step[c, k])))
    with np.errstate(invalid="ignore"):
        step = np.where(share < 1.0, step * share, step)
    tiny = (step != 0.0) & (u + step == u)
    if tiny.any():
        step = np.where(tiny, np.nextafter(u, np.copysign(np.inf, step)) - u, step)
    return step, singular, broken


def reference_solve(u0, table, counts, scale, sel, lo_t, hi_t, max_iter, tol):
    """``mle._solve_start``'s result, the reference way."""
    table = np.asarray(table)
    run = {"live": np.ones(table.size, dtype=bool), "it": np.zeros(table.size, dtype=int),
           "counts": counts[:, table], "scale": scale[:, table], "sel": sel,
           "lo": lo_t[:, table], "hi": hi_t[:, table]}
    run["u"] = np.clip(u0, run["lo"], run["hi"])
    values, weights = model._values(mle._expand(run["u"], run["scale"], sel), run["counts"])
    run["ll"] = model._ll(values, weights, run["counts"])
    run["grad"] = mle._gradient(values, weights, run["scale"], sel)
    run["free"], run["pg"] = mle._projected_gradient(run["u"], run["grad"], run["lo"], run["hi"])
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
        step, singular, broken = _reference_direction(run)
        stop(singular, "singular Newton system")
        stop(broken, "non-finite Newton step")
        np.copyto(step, 0.0, where=~run["live"])
        # a start that finds no step has converged within rounding when
        # its step's predicted gain g's lies in [0, 16 ulps of its
        # log-likelihood], at least 1e-9 (1e-9 where the log-likelihood is
        # not finite)
        gain = (run["grad"] * step).sum(axis=0)
        with np.errstate(invalid="ignore"):
            band = np.where(np.isfinite(run["ll"]),
                            np.maximum(mle._TIE_TOL, mle._TIE_ULPS * np.spacing(np.abs(run["ll"]))),
                            mle._TIE_TOL)
        found = _reference_line_search(run, step)
        stop(~found & (gain >= 0.0) & (gain <= band), "converged within rounding")
        stop(~found, "no acceptable step")

    return run["u"], run["ll"], run["pg"], run["it"], messages


def _reference_line_search(run, step):
    """Halve each running start's step from full length until the projected
    gradient shrinks or the log-likelihood rises, or the length falls to
    1e-14. Returns which starts accepted a step."""
    u, ll, grad, free, pg = run["u"], run["ll"], run["grad"], run["free"], run["pg"]
    lo, hi, counts, scale, sel = run["lo"], run["hi"], run["counts"], run["scale"], run["sel"]
    searching = run["live"].copy()
    accepted = np.zeros_like(searching)
    length = np.ones(u.shape[1])
    while searching.any():
        trial = np.clip(u + length * step, lo, hi)
        values, weights = model._values(mle._expand(trial, scale, sel), counts)
        ll_t = model._ll(values, weights, counts)
        grad_t = mle._gradient(values, weights, scale, sel)
        free_t, pg_t = mle._projected_gradient(trial, grad_t, lo, hi)
        ok = searching & ((pg_t < pg) | (ll_t > ll))
        for state, new in ((u, trial), (ll, ll_t), (grad, grad_t), (free, free_t), (pg, pg_t)):
            np.copyto(state, new, where=ok)
        accepted |= ok
        searching &= ~ok
        length = np.where(searching, 0.5 * length, length)
        searching &= length > 1e-14
    run["it"] += accepted
    return accepted


# --- reference kernels ----------------------------------------------------------
# The solver's per-point kernels written with plain numpy expressions: fancy
# indexing for every gather and scatter, np.where for every masked fill and
# reductions through the array methods. ``model`` and ``mle`` supply only
# the fixed index tables of the kernels (the factor layouts and the chain
# rule's), which they build once at import. The kernels there must return
# these bits.

def reference_xlogy(x, y):
    """x log y with a zero count contributing zero whatever y is."""
    return np.where(x == 0.0, 0.0, x * np.log(y))


def reference_frac(num, den):
    """num / den with a zero numerator winning over a zero denominator."""
    return np.where(num == 0.0, 0.0, num / den)


def reference_segment_sum(terms, layout):
    """``model._segment_sum``: each target's terms summed in their listed
    order, one row per target in layout order, in place. (In place matters
    to the bits: numpy 2.4.6 adds a lone element into itself with the
    operands' NaNs the other way round.)"""
    targets, blocks = layout
    out = terms[:len(targets)]
    for start, size in blocks:
        out[:size] += terms[start:start + size]
    return out


def reference_values(theta, counts):
    """``model._values`` of the points theta (6, K) with counts (8, K)."""
    alpha = theta[2]
    values, weights = np.empty((2, 16, theta.shape[1]))
    values[0:3] = theta[3:6]
    np.subtract(1.0, theta[2:6], out=values[3:7])
    np.add(values[5:7], alpha * values[1:3], out=values[7:9])
    np.add(values[1:3], alpha * values[5:7], out=values[9:11])
    values[11] = 1.0
    values[12:14] = theta[:2]
    np.subtract(theta[:2], counts[3::4], out=values[14:16])
    cells = counts.copy()
    cells[3::4] = values[14:16]
    weights[model._W_LAYOUT[0]] = reference_segment_sum(cells[model._W_CELLS], model._W_LAYOUT)
    weights[11] = 0.0
    weights[12:14] = theta[:2]
    np.negative(values[14:16], out=weights[14:16])
    return values, weights


def reference_ll(values, weights, counts):
    """``model._ll``."""
    terms = reference_xlogy(weights, values)
    for half in (8, 4, 2, 1):
        terms = terms[:half] + terms[half:]
    return terms[0] - counts[3] - counts[7]


def reference_grad(values, weights):
    """``model._grad``."""
    z = np.concatenate((reference_frac(weights[:11], values[:11]), np.log(values)))
    terms = model._G_COEFF * z[model._G_Z] * values[model._G_V]
    out = np.empty((6, values.shape[1]))
    out[model._G_LAYOUT[0]] = reference_segment_sum(terms, model._G_LAYOUT)
    return out


def reference_hess(values, weights):
    """``model._hess``."""
    ratio = reference_frac(weights[:11], values[:11])
    y = np.concatenate((reference_frac(ratio, values[:11]), ratio, 1.0 / values))
    terms = model._H_COEFF * y[model._H_Y] * values[model._H_V1] * values[model._H_V2]
    out = np.zeros((len(model._PAIRS), values.shape[1]))
    out[model._H_LAYOUT[0]] = reference_segment_sum(terms, model._H_LAYOUT)
    return out


def reference_gradient(values, weights, scale, sel):
    """``mle._gradient``."""
    chain = mle._chain(tuple(sel))
    terms = (scale * reference_grad(values, weights))[chain.grad_params]
    return reference_segment_sum(terms, chain.grad_layout)[chain.grad_order]


def reference_hessian(values, weights, scale, sel):
    """``mle._hessian``."""
    chain = mle._chain(tuple(sel))
    terms = (reference_hess(values, weights)[chain.entries] * scale[chain.rows]
             * scale[chain.cols])
    upper = reference_segment_sum(terms, chain.layout)
    size = sel[-1] + 1
    return upper[chain.square].reshape(size, size, -1).transpose(2, 0, 1)


def reference_projected_gradient(u, grad, lo, hi):
    """``mle._projected_gradient``: the free coordinates and the projected
    gradient, with the rooms u - lo and hi - u."""
    band = mle._ACTIVITY_TOL * (hi - lo)
    down, up = u - lo, hi - u
    free = ~(((down <= band) & (grad < 0.0)) | ((up <= band) & (grad > 0.0)))
    return free, np.where(free, np.abs(grad), 0.0).max(axis=0), down, up


def moment_point(data: SurveyData) -> tuple[Fraction, ...] | None:
    """The six parameters whose expected counts equal the observed ones, as
    exact fractions in PARAM_NAMES order, or None where they do not exist
    (equal list-1 ratios, or q <= 0). With a_s = x11_s/x1._s and b_s =
    x01_s/x1._s: q = (b_A - b_B)/(a_A - a_B), p1 = 1/(1 + q), N_s = x1._s
    (1 + q), alpha = b_A/q - a_A and p2s = a_s/(1 - alpha)."""
    (a_a, b_a, n1_a), (a_b, b_b, n1_b) = (
        (Fraction(c.x11, c.n_list1), Fraction(c.x01, c.n_list1), c.n_list1)
        for c in (data.stratum_a, data.stratum_b))
    if a_a == a_b or (b_a - b_b) / (a_a - a_b) <= 0:
        return None
    q = (b_a - b_b) / (a_a - a_b)
    alpha = b_a / q - a_a
    if alpha == 1:
        return None
    return (n1_a * (1 + q), n1_b * (1 + q), alpha, 1 / (1 + q), a_a / (1 - alpha),
            a_b / (1 - alpha))


def triples(data: SurveyData) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The (x11, x10, x01) counts of each stratum, the certificate's input."""
    return tuple((c.x11, c.x10, c.x01) for c in (data.stratum_a, data.stratum_b))


def reference_moment_point(data: SurveyData, mode: str) -> list[float] | None:
    """``mle._moment_point``'s result, the reference way: the table's
    solver ``_setup`` first (None where the fit's door or ``_setup``
    rejects it: the table has no box), then the moment point in exact
    integers, each solver coordinate one correctly rounded division,
    accepted strictly inside the trimmed box and off every activity band."""
    table = mle._table(data)
    if isinstance(table, DualdepError):
        return None
    try:
        box, _, scale, lo, hi = mle._setup(*table, mode)
    except DualdepError:
        return None
    a, b = data.stratum_a, data.stratum_b
    x1a, x1b = a.x11 + a.x10, b.x11 + b.x10
    num = a.x01 * x1b - b.x01 * x1a  # q = num / den
    den = a.x11 * x1b - b.x11 * x1a
    if den < 0:
        num, den = -num, -den
    if num <= 0 or den == 0:
        return None
    rest = (x1a + a.x11) * num - a.x01 * den  # (1 - alpha) x1.A num
    if rest <= 0:
        return None
    exact = (
        (x1a * (den + num), den), (x1b * (den + num), den),
        (a.x01 * den - a.x11 * num, x1a * num), (den, den + num),
        (a.x11 * num, rest), (b.x11 * x1a * num, x1b * rest),
    )
    coords, sel, _ = mle._COORDINATES[mode]
    u = [exact[i][0] / exact[i][1] for i in coords]
    if not all(low < value < high for value, low, high in zip(u, *mle._trimmed(lo, hi, coords))):
        return None
    theta = [s * u[c] for s, c in zip(scale, sel)]
    if any(mle._active(value, low, high) for value, (low, high) in zip(theta, box)):
        return None
    return theta


def saturated_bound(data: SurveyData) -> float:
    """The Stirling log-likelihood's least upper bound over every parameter
    point, sum_s (sum_c x_c log x_c - x0_s), attained where the expected
    counts equal the observed ones."""
    return math.fsum(x * math.log(x) for c in (data.stratum_a, data.stratum_b)
                     for x in (c.x11, c.x10, c.x01) if x) - data.pooled().total


def standard_errors(params: ModelParams, data: SurveyData, mode: str) -> np.ndarray:
    """The standard error of each of the six parameters at ``params`` from
    the public Hessian's information in the mode's free coordinates
    (reduced mode: N_B, alpha, p1, p2B, with N_A and p2A tied to them by the
    data ratios)."""
    if mode == "full":
        jac = np.eye(6)
    else:
        jac = np.zeros((6, 4))
        jac[[1, 2, 3, 5], [0, 1, 2, 3]] = 1.0
        jac[0, 0], jac[4, 3] = model.size_ratio(data), model.p2a_ratio(data)
    info = -jac.T @ model.hessian(params, data) @ jac
    return np.sqrt(np.diag(jac @ np.linalg.inv(info) @ jac.T))
