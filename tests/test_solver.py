"""The batched solve against the reference solve of ``oracles``: the same
bits for every start, whichever starts share a batch and however many of
them have stopped. And the factor table the solver carries with each start
against a fresh one at the start's point."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualdep import mle, model
from dualdep._parallel import stream
from dualdep.mle import FitOptions, fit
from dualdep.simulate import _draw_survey, _scenario_config
from dualdep.tables import CellCounts, SurveyData

from conftest import make_survey
from oracles import reference_solve

LARGE_COUNTS = SurveyData(CellCounts(10_000_000, 800_000_000, 300_000_000),
                          CellCounts(50_000_000, 200_000_000, 300_000_000))


def solver_inputs(tables, options):
    """The arguments ``fit_many`` passes to ``mle._solve_start`` for the
    tables that have a box, as a list, or None if none has."""
    _, _, args = mle._solver_inputs(tables, options)
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
    return [_draw_survey(config, stream(config.seed, rep))[0] for rep in range(n)]


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


def test_mixed_stops_solve_bit_identical_to_reference():
    # one full-mode batch of three tables: Q1, with its first start on the
    # maximum, so it converges before any step; the large-count table, with
    # its first start where a start of it stalled, so no step length passes
    # (all 47 are tried); and Q1 with alpha's scale 0, so every Newton
    # system has a zero row
    q1 = make_survey("Q1")
    options = FitOptions(mode="full")
    u, _, _, _, messages = mle._solve_start(*solver_inputs([LARGE_COUNTS], options))
    stalled = u[:, messages.index("no acceptable step")]
    args = solver_inputs([q1, LARGE_COUNTS, q1], options)
    args[3][2, 2] = 0.0
    args[0][:, 0] = fit(q1, options).params.as_tuple()
    args[0][:, 12] = stalled
    _, _, _, it, messages = assert_same_solve(args)
    assert (messages[0], it[0]) == ("converged", 0)
    assert all(m == "converged" for m in messages[1:12])
    assert (messages[12], it[12]) == ("no acceptable step", 0)
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
    the bits of a fresh ``model._values`` at that column's point alone."""
    theta = mle._expand(run["u"], run["scale"], run["sel"])
    for k in range(theta.shape[1]):
        values, weights = model._values(theta[:, k:k + 1].copy(), run["counts"][:, k:k + 1].copy())
        assert run["values"][:, k:k + 1].tobytes() == values.tobytes(), k
        assert run["weights"][:, k:k + 1].tobytes() == weights.tobytes(), k


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
