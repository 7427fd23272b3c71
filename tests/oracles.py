"""Independent oracles used by the tests: finite differences against the
analytic derivatives, exhaustive multinomial enumeration against the
simulator, and a reference projected-Newton solve against the batched one.
These never call the code paths they check."""

from __future__ import annotations

import math

import numpy as np

from dualdep import mle, model
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
        stop(~_reference_line_search(run, step), "no acceptable step")

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
