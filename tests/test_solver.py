"""The batched solve against the reference solve of ``oracles``: the same
bits for every start, whichever starts share a batch and however many of
them have stopped. The factor table the solver carries with each start
against a fresh one at the start's point. And the solver's per-point
kernels against the reference kernels of ``oracles``, bit for bit, on
boundary, infinite and NaN inputs."""

import platform

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualdep import mle, model
from dualdep._parallel import stream
from dualdep.mle import FitOptions, fit
from dualdep.simulate import _draw_survey, _scenario_config
from dualdep.tables import CellCounts, SurveyData

import oracles
from conftest import make_survey, survey_of
from oracles import reference_solve

# Counts near 1e8 whose full-mode log-likelihood (about 2.6e9) is 4.8e-7
# apart between floats: of the 12 starts, nine stall within its rounding,
# and starts 0, 2 and 11 stall where the step they cannot take predicts a
# gain g's of about -6e-23, just below 0 and so outside the rounding band:
# no acceptable step.
STALLING = SurveyData(CellCounts(54_210_000, 16_290_000, 21_690_000),
                      CellCounts(52_780_000, 11_220_000, 3_860_000))


def solver_inputs(tables, options):
    """The arguments ``fit_many`` passes to ``mle._solve_start`` for the
    tables that have a box, as a list, or None if none has."""
    _, _, args = mle._solver_inputs([mle._table(data) for data in tables], options)
    return list(args) if args is not None else None


def assert_same_solve(args):
    """``mle._solve_start`` and the reference return the same bits; returns
    the batched result."""
    copies = [[np.copy(a) if isinstance(a, np.ndarray) else a for a in args] for _ in range(2)]
    got = mle._solve_start(*copies[0])
    want = reference_solve(*copies[1])
    for name, a, b in zip(("u", "ll", "pg", "it"), got[:4], want[:4]):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), (name, a, b)
    assert got[4] == want[4]
    return got


def study2_draws(value, n=6):
    config = _scenario_config(1, value, replicates=n, seed=3)
    return [survey_of(_draw_survey(config, stream(config.seed, rep))[0]) for rep in range(n)]


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_quarters_solve_bit_identical_to_reference(mode):
    quarters = [make_survey(q) for q in ("Q1", "Q2", "Q3", "Q4")]
    assert_same_solve(solver_inputs(quarters, FitOptions(mode=mode)))


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("value", [0.01, 0.15, 0.35])
def test_study2_draws_solve_bit_identical_to_reference(value, mode):
    # at 0.01 the reduced box is empty: only the full mode has starts
    args = solver_inputs(study2_draws(value), FitOptions(mode=mode))
    if args is None:
        assert mode == "reduced" and value == 0.01
    else:
        assert_same_solve(args)


def mixed_stops_args():
    """The arguments of the mixed-stops batch: one full-mode batch of Q1,
    its first start on the maximum; ``STALLING``, its first start where a
    start of it stalled outside the rounding band; and Q1 with alpha's
    scale 0."""
    q1 = make_survey("Q1")
    options = FitOptions(mode="full")
    u, _, _, _, messages = mle._solve_start(*solver_inputs([STALLING], options))
    args = solver_inputs([q1, STALLING, q1], options)
    args[3][2, 2] = 0.0
    args[0][:, 0] = fit(q1, options).params.as_tuple()
    args[0][:, 12] = u[:, messages.index("no acceptable step")]
    return args


def test_mixed_stops_solve_bit_identical_to_reference():
    # Q1's first start converges before any step; STALLING's first start
    # tries all 47 step lengths, none passing, and its other starts stall
    # within the rounding band or outside it; every Newton system of the
    # third table has a zero row
    _, _, _, it, messages = assert_same_solve(mixed_stops_args())
    assert (messages[0], it[0]) == ("converged", 0)
    assert all(m == "converged" for m in messages[1:12])
    assert (messages[12], it[12]) == ("no acceptable step", 0)
    assert {"converged within rounding", "no acceptable step"} <= set(messages[13:24])
    assert messages[24:] == ["singular Newton system"] * 12 and not it[24:].any()


stratum_counts = st.builds(
    CellCounts, st.integers(0, 400), st.integers(1, 6000), st.integers(0, 6000)
)


@settings(max_examples=25, deadline=None)
@given(
    tables=st.lists(st.builds(SurveyData, stratum_counts, stratum_counts), min_size=1, max_size=4),
    mode=st.sampled_from(["reduced", "full"]),
    n_starts=st.integers(1, 15),
    max_iterations=st.sampled_from([1, 3, 500]),
)
def test_random_batches_solve_bit_identical_to_reference(tables, mode, n_starts, max_iterations):
    options = FitOptions(mode=mode, n_starts=n_starts, max_iterations=max_iterations)
    args = solver_inputs(tables, options)
    if args is not None:
        assert_same_solve(args)


def assert_fresh_tables(run):
    """The factor table each column of the solver state ``run`` carries is
    the bits of a fresh ``model._values`` at that column's point alone, and
    so are the point's rooms to its box."""
    theta = mle._expand(run["u"], run["scale"], run["sel"])
    for k in range(theta.shape[1]):
        values, weights = model._values(theta[:, k:k + 1].copy(), run["counts"][:, k:k + 1].copy())
        assert run["values"][:, k:k + 1].tobytes() == values.tobytes(), k
        assert run["weights"][:, k:k + 1].tobytes() == weights.tobytes(), k
        u, lo, hi = (run[name][:, k:k + 1].copy() for name in ("u", "lo", "hi"))
        assert run["down"][:, k:k + 1].tobytes() == (u - lo).tobytes(), k
        assert run["up"][:, k:k + 1].tobytes() == (hi - u).tobytes(), k


@settings(max_examples=25, deadline=None)
@given(
    tables=st.lists(st.builds(SurveyData, stratum_counts, stratum_counts), min_size=1, max_size=4),
    mode=st.sampled_from(["reduced", "full"]),
    n_starts=st.integers(1, 15),
    data=st.data(),
)
def test_the_solver_carries_the_factor_table_of_each_point(tables, mode, n_starts, data):
    # the starts, some coordinates moved onto a bound of the trimmed box:
    # the table after the first evaluation and after one line search, where
    # accepted starts took a trial point's table and the others kept theirs
    args = solver_inputs(tables, FitOptions(mode=mode, n_starts=n_starts))
    assume(args is not None)
    u0, table, counts, scale, sel, lo_t, hi_t = args[:7]
    where = np.array(data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=u0.size,
                                        max_size=u0.size))).reshape(u0.shape)
    u0 = np.select((where == 1, where == 2), (lo_t[:, table], hi_t[:, table]), u0)
    run = mle._initial_state(u0, table, counts, scale, sel, lo_t, hi_t)
    assert_fresh_tables(run)
    step, _, _ = mle._direction(run)
    accepted = mle._line_search(run, np.where(np.isfinite(step), step, 0.0), table.size)
    assume(accepted.any())
    assert_fresh_tables(run)


def assert_reads_only(args):
    """``mle._solve_start`` leaves every array argument's bytes as they were:
    ``mle._fits`` reads ``scale`` after the solve."""
    before = [a.tobytes() if isinstance(a, np.ndarray) else a for a in args]
    mle._solve_start(*args)
    assert [a.tobytes() if isinstance(a, np.ndarray) else a for a in args] == before


def test_the_solve_writes_into_none_of_its_arguments():
    args = mixed_stops_args()
    args[0][3, 1] = 1.5  # p1 above its box, so the solve clips the start
    assert_reads_only(args)


@settings(max_examples=15, deadline=None)
@given(
    tables=st.lists(st.builds(SurveyData, stratum_counts, stratum_counts), min_size=1, max_size=4),
    mode=st.sampled_from(["reduced", "full"]),
    n_starts=st.integers(1, 15),
    data=st.data(),
)
def test_the_solve_writes_into_none_of_its_arguments_on_random_batches(tables, mode, n_starts,
                                                                        data):
    # some coordinates of the starts moved out of the trimmed box
    args = solver_inputs(tables, FitOptions(mode=mode, n_starts=n_starts))
    assume(args is not None)
    u0, table, _, _, _, lo_t, hi_t = args[:7]
    where = np.array(data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=u0.size,
                                        max_size=u0.size))).reshape(u0.shape)
    args[0] = np.select((where == 1, where == 2),
                        (lo_t[:, table] - 1e-3, hi_t[:, table] + 1e-3), u0)
    assert_reads_only(args)


def test_columns_that_stop_in_reverse_order_keep_their_outcomes():
    # column j starts at the point one Q1 start reaches after j steps, so it
    # needs j steps fewer: the last column stops first, and so on back to
    # column 2, which converges on the iteration cap that stops columns 0 and 1
    args = solver_inputs([make_survey("Q1")], FitOptions(mode="full", n_starts=1))
    total = int(mle._solve_start(*args)[3][0])
    n = 6
    path = [mle._solve_start(*args[:7], j, args[8])[0][:, 0] for j in range(n)]
    args[0], args[1], args[7] = np.array(path).T, np.zeros(n, dtype=int), total - 2
    _, _, _, it, messages = assert_same_solve(args)
    assert it.tolist() == [total - 2] * 3 + [total - j for j in range(3, n)]
    assert messages == ["iteration cap reached"] * 2 + ["converged"] * (n - 2)


def test_every_column_but_the_first_stopping_at_once_keeps_its_outcome():
    # columns 1-4 stop in the first iteration, each for its own reason, and
    # column 0 climbs on alone
    args = mixed_stops_args()
    cols = [1, 0, 12, 24, 0]
    args[0], args[1] = args[0][:, cols], args[1][cols]
    _, _, _, it, messages = assert_same_solve(args)
    assert messages == ["converged", "converged", "no acceptable step",
                        "singular Newton system", "converged"]
    assert it[0] > 1 and not it[1:].any()


def test_the_solver_state_stays_contiguous(monkeypatch):
    # every view of the state and of each trial buffer is a contiguous
    # block, through the compactions of the mixed-stops batch (see the
    # strided-loop test below for why)
    seen = []

    def contiguous(views):
        return all(view.flags.c_contiguous for view in views.values()
                   if isinstance(view, np.ndarray))

    direction, trial = mle._direction, mle._trial

    def checked_direction(run):
        seen.append(contiguous(run))
        return direction(run)

    def checked_trial(run, points, cols=None):
        out = trial(run, points, cols)
        seen.append(contiguous(out[0]))
        return out

    monkeypatch.setattr(mle, "_direction", checked_direction)
    monkeypatch.setattr(mle, "_trial", checked_trial)
    _, _, _, _, messages = mle._solve_start(*mixed_stops_args())
    assert len(set(messages)) > 1 and len(seen) > 10 and all(seen)


def assert_same_bits(got, want):
    """Two arrays hold the same bits: equal int64 views, so that -0.0 differs
    from 0.0 and a NaN's sign and payload count."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.int64), want.view(np.int64)
    assert np.array_equal(got, want)


# The special entries a kernel test mixes in: the ends of the unit interval
# and their trims, signed zeros, infinities and NaN.
PROBABILITY_SPECIALS = (0.0, -0.0, 1.0, 1e-10, 1.0 - 1e-10, np.inf, -np.inf, np.nan)
FACTOR_SPECIALS = (0.0, 1.0, 1.0 + 1e-12, np.inf, np.nan)  # a size over its observed total
ENTRY_SPECIALS = (0.0, -0.0, 1e-300, 1.0, 1e300, np.inf, -np.inf, np.nan)


def mixed(rng, shape, regular, specials, share):
    """An array of ``regular`` draws with about ``share`` of its entries
    replaced by entries of ``specials``."""
    out = regular(shape)
    special = rng.random(shape) < share
    out[special] = rng.choice(np.array(specials), size=shape)[special]
    return out


kernel_widths = st.sampled_from([1, 12, 60, 300])
special_shares = st.sampled_from([0.0, 0.05, 0.3, 1.0])


@settings(max_examples=40, deadline=None)
@given(width=kernel_widths, share=special_shares, seed=st.integers(0, 2**32 - 1))
def test_the_masked_fills_give_the_bits_of_np_where(width, share, seed):
    rng = np.random.default_rng(seed)
    x, y = (mixed(rng, (11, width), lambda shape: rng.uniform(-2.0, 5.0, shape), ENTRY_SPECIALS,
                  share) for _ in range(2))
    with np.errstate(all="ignore"):
        assert_same_bits(model._xlogy(x, y), oracles.reference_xlogy(x, y))
        assert_same_bits(model._frac(x, y, np.empty_like(x)), oracles.reference_frac(x, y))


def kernel_points(rng, width, share):
    """theta (6, K) and counts (8, K): zero counts, sizes at, on the trim
    of and above the observed total, probabilities on the ends of the unit
    interval and their trims, and infinite and NaN entries."""
    cells = rng.integers(0, 50, size=(6, width)) * (rng.random((6, width)) >= share)
    x0 = cells[:3].sum(axis=0), cells[3:].sum(axis=0)
    counts = np.array([*cells[:3], x0[0], *cells[3:], x0[1]], dtype=float)
    factors = mixed(rng, (2, width), lambda shape: rng.uniform(1.0, 3.0, shape), FACTOR_SPECIALS,
                    share)
    with np.errstate(invalid="ignore"):  # an infinite factor of a zero total is NaN
        sizes = np.array(x0) * factors
    probs = mixed(rng, (4, width), rng.random, PROBABILITY_SPECIALS, share)
    return np.concatenate((sizes, probs)), counts


@settings(max_examples=40, deadline=None)
@given(width=kernel_widths, share=special_shares, seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["reduced", "full"]))
def test_the_kernels_give_the_bits_of_the_reference_kernels(width, share, seed, mode):
    rng = np.random.default_rng(seed)
    theta, counts = kernel_points(rng, width, share)
    _, sel, tied = mle._COORDINATES[mode]
    scale = np.ones((6, width))
    scale[list(tied)] = mixed(rng, (len(tied), width), lambda shape: rng.uniform(0.1, 10.0, shape),
                              (0.0, np.inf), share)
    with np.errstate(all="ignore"):
        values, weights = oracles.reference_values(theta, counts)
        for got, want in zip(model._values(theta, counts), (values, weights)):
            assert_same_bits(got, want)
        assert_same_bits(model._ll(values, weights, counts),
                         oracles.reference_ll(values, weights, counts))
        assert_same_bits(model._grad(values, weights), oracles.reference_grad(values, weights))
        assert_same_bits(model._hess(values, weights), oracles.reference_hess(values, weights))
        assert_same_bits(mle._gradient(values, weights, scale, sel),
                         oracles.reference_gradient(values, weights, scale, sel))
        assert_same_bits(mle._hessian(values, weights, scale, sel),
                         oracles.reference_hessian(values, weights, scale, sel))


@settings(max_examples=40, deadline=None)
@given(width=kernel_widths, share=special_shares, seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([4, 6]))
def test_the_projected_gradient_gives_the_bits_of_the_reference(width, share, seed, size):
    # points on, within the activity band of, inside and outside their box,
    # against gradients that are zero, signed zero, infinite or NaN
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0, (size, width))
    hi = lo + rng.uniform(1e-3, 2.0, (size, width))
    band = mle._ACTIVITY_TOL * (hi - lo)
    at = rng.integers(0, 6, (size, width))
    u = np.choose(at, [lo, hi, lo + band / 2, hi - band / 2, lo - 1.0,
                       rng.uniform(lo, hi)])
    u = mixed(rng, (size, width), lambda shape: u, (np.nan, np.inf), share / 4)
    grad = mixed(rng, (size, width), lambda shape: rng.uniform(-5.0, 5.0, shape), ENTRY_SPECIALS,
                 share)
    out = (np.empty((size, width)), np.empty((size, width)), np.empty((size, width), dtype=bool),
           np.empty(width))
    with np.errstate(all="ignore"):
        free, pg = mle._projected_gradient(u, grad, lo, hi, out)
        want = oracles.reference_projected_gradient(u, grad, lo, hi)
    assert free is out[2] and pg is out[3]
    for got, expected in zip((free, pg, *out[:2]), want):
        assert_same_bits(got, expected)


# numpy 2.4.6 on x86-64 (seen with its dispatch at the X86_V2 baseline as at
# AVX-512) computes some ufunc loops wrongly when input and output are both
# strided: np.negative with a 64-byte stride reads the contiguous elements
# instead, and np.isfinite writes wrong flags into a strided boolean output
# of 16 or more elements. The solver's state views are contiguous for this
# reason; a numpy that mends it turns these into strict-xfail failures.
STRIDED_LOOP_DEFECT = np.__version__ == "2.4.6" and platform.machine() in ("x86_64", "AMD64")


@pytest.mark.xfail(STRIDED_LOOP_DEFECT, strict=True,
                   reason="numpy 2.4.6 strided ufunc loops on x86-64")
@pytest.mark.parametrize("ufunc, stride, n, dtype", [(np.negative, 8, 4, float),
                                                     (np.isfinite, 2, 16, bool)])
def test_a_ufunc_into_a_strided_view_gives_the_bits_of_contiguous_arrays(ufunc, stride, n, dtype):
    a = np.arange(1.0, stride * n + 1.0)
    out = np.zeros(stride * n, dtype=dtype)
    got = ufunc(a[::stride], out=out[::stride])
    assert got.tobytes() == ufunc(a[::stride].copy()).tobytes()
