import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualdep import _parallel, inference, mle, model
from dualdep.exceptions import (
    BootstrapError, DualdepError, EvaluationError, InformationMatrixError, ValidationError,
)
from dualdep.inference import (
    BootstrapResult,
    bootstrap,
    confidence_interval,
    draw_replicate_tables,
    se_from_hessian,
    uncertainty_report,
)
from dualdep.mle import FitOptions, FitResult, fit
from dualdep.model import ModelParams
from dualdep.simulate import GeneratorConfig, _draw_survey, _scenario_config
from dualdep.tables import CellCounts, SurveyData

from conftest import drawn_tables
from oracles import fd_hessian


@pytest.fixture(scope="module")
def q1_fit():
    from conftest import make_survey

    data = make_survey("Q1")
    return data, fit(data)


def test_hessian_se_reference_magnitudes(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    assert ses.se["alpha"] == pytest.approx(0.0053, rel=0.5)
    assert ses.se["p1"] == pytest.approx(0.0077, rel=0.5)
    assert ses.flagged == ()
    assert all(math.isfinite(v) and v > 0 for v in ses.se.values())


def test_hessian_se_total_additivity(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    assert ses.se_total**2 == pytest.approx(ses.se["N_A"] ** 2 + ses.se["N_B"] ** 2, rel=1e-12)


def test_hessian_se_close_to_finite_differences(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    info = -fd_hessian(result.params, data, rel=1e-5)
    cov = np.linalg.inv(info)
    for idx, name in enumerate(("N_A", "N_B", "alpha", "p1", "p2A", "p2B")):
        assert ses.se[name] == pytest.approx(math.sqrt(cov[idx, idx]), rel=0.01)


def test_hessian_se_requires_convergence(q1_fit):
    data, result = q1_fit
    import dataclasses

    broken = dataclasses.replace(result, converged=False)
    with pytest.raises(ValidationError, match="converge"):
        se_from_hessian(broken, data)


def test_hessian_se_flags_bound_parameters(q1_fit):
    data, result = q1_fit
    import dataclasses

    pinned = dataclasses.replace(result, active_constraints=frozenset({"p2B"}))
    ses = se_from_hessian(pinned, data)
    assert ses.flagged == ("p2B",)
    assert math.isnan(ses.se["p2B"])
    assert math.isfinite(ses.se["alpha"])


def test_hessian_se_simulated_sanity():
    config = GeneratorConfig(
        n_a=50_000, n_b=20_000, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.05, p2_b=0.15, replicates=1, seed=3,
    )
    survey, _ = _draw_survey(config, _parallel.stream(3, 0))
    result = fit(survey)
    ses = se_from_hessian(result, survey)
    assert all(math.isfinite(v) and v > 0 for v in ses.se.values())


def test_bootstrap_deterministic(q1_fit):
    data, result = q1_fit
    a = bootstrap(data, result, n_replicates=2, seed=11)
    b = bootstrap(data, result, n_replicates=2, seed=11)
    for name in a.estimates:
        assert np.array_equal(a.estimates[name], b.estimates[name])
    c = bootstrap(data, result, n_replicates=2, seed=12)
    assert not np.array_equal(a.estimates["N_total"], c.estimates["N_total"])


def test_bootstrap_thread_invariance(q1_fit):
    data, result = q1_fit
    serial = bootstrap(data, result, n_replicates=6, seed=5, threads=1)
    parallel = bootstrap(data, result, n_replicates=6, seed=5, threads=2)
    for name in serial.estimates:
        assert np.array_equal(serial.estimates[name], parallel.estimates[name])


def test_bootstrap_block_size_and_thread_invariance(q1_fit, monkeypatch):
    # one block in this process against three blocks of two warm refits over
    # two workers
    data, result = q1_fit
    whole = bootstrap(data, result, n_replicates=6, seed=5, threads=1)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 2)
    split = bootstrap(data, result, n_replicates=6, seed=5, threads=2)
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


def columns_per_call(monkeypatch):
    """Spy on ``mle._fits``, the bootstrap's refit entry: the list it
    returns gains, per call, the solver columns of that call and whether it
    was a warm pass."""
    real, calls = mle._fits, []

    def spy(surveys, options, start=None):
        calls.append((len(surveys) * (1 if start is not None else options.n_starts),
                      start is not None))
        return real(surveys, options, start=start)

    monkeypatch.setattr(mle, "_fits", spy)
    return calls


def test_a_warm_bootstrap_split_into_blocks_gives_the_bits_of_one_block(q1_fit, monkeypatch):
    data, result = q1_fit
    whole = bootstrap(data, result, n_replicates=40, seed=5)
    calls = columns_per_call(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 7)
    split = bootstrap(data, result, n_replicates=40, seed=5)
    assert sorted(width for width, warm in calls if warm) == [6, 6, 7, 7, 7, 7]
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


@pytest.mark.parametrize("table", [
    ((201, 4162, 4390), (406, 2574, 3265)),  # corner: the parent sits on the N_B and p2B bounds
    ((2, 3, 4), (1, 2, 3)),  # tiny: many warm refits end on a bound and refit from the grid
], ids=["corner", "tiny"])
def test_no_refit_batch_exceeds_the_column_budget(table, monkeypatch):
    data = SurveyData(CellCounts(*table[0]), CellCounts(*table[1]))
    parent = fit(data)
    whole = bootstrap(data, parent, n_replicates=100, seed=1)
    calls = columns_per_call(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 60)
    split = bootstrap(data, parent, n_replicates=100, seed=1)
    assert max(width for width, _ in calls) <= 60
    # grid batches of several tables: a budget of 60 holds five 12-start fits
    assert max(width for width, warm in calls if not warm) == 60
    assert whole.failures == split.failures
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


@settings(max_examples=8, deadline=None)
@given(quarter=st.sampled_from(["Q1", "Q2", "Q3", "Q4"]), seed=st.integers(0, 2**63))
def test_bootstrap_prefix_does_not_depend_on_B(quarter, seed):
    from conftest import make_survey

    data = make_survey(quarter)
    result = fit(data)
    short = bootstrap(data, result, n_replicates=10, seed=seed)
    long = bootstrap(data, result, n_replicates=40, seed=seed)
    assert short.n_failed == long.n_failed == 0
    for name in short.estimates:
        assert np.array_equal(short.estimates[name], long.estimates[name][:10])


def test_bootstrap_retries_a_package_error_and_reports_its_reason(q1_fit, monkeypatch):
    data, result = q1_fit
    real = mle._fits
    calls = []

    def first_table_fails(surveys, options, start=None):
        calls.append((len(surveys), start is None))
        fits = real(surveys, options, start=start)
        fits.errors[0] = EvaluationError("p11A", "probability 0.0 with count coefficient 3.0")
        return fits

    monkeypatch.setattr(mle, "_fits", first_table_fails)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 30)  # one block: replicate 0 comes first
    boot = bootstrap(data, result, n_replicates=30, seed=4)
    # replicate 0 fails every attempt, warm and then from the grid, and is
    # counted with its reason; the other 29 are untouched by its failures
    assert calls == [(30, False), (1, True)] + [(1, False), (1, True)] * 10
    assert boot.failures == ((0, "cannot evaluate log-likelihood term 'p11A': "
                                 "probability 0.0 with count coefficient 3.0"),)
    monkeypatch.setattr(mle, "_fits", real)
    clean = bootstrap(data, result, n_replicates=30, seed=4)
    for name in boot.estimates:
        assert np.array_equal(boot.estimates[name], clean.estimates[name][1:])


def test_bootstrap_propagates_programming_errors(q1_fit, monkeypatch):
    data, result = q1_fit

    def broken(surveys, options, start=None):
        raise TypeError("bug in the fitting code")

    monkeypatch.setattr(mle, "_fits", broken)
    with pytest.raises(TypeError, match="bug in the fitting code"):
        bootstrap(data, result, n_replicates=3, seed=4)


def test_bootstrap_propagates_programming_errors_of_the_grid_pass(q1_fit, monkeypatch):
    # every warm refit fails with a package error, so the grid pass runs
    data, result = q1_fit

    def broken(surveys, options, start=None):
        if start is None:
            raise TypeError("bug in the fitting code")
        n = len(surveys)
        return mle._Fits(np.full((6, n), np.nan), np.zeros((6, n), dtype=bool),
                         [EvaluationError("p11A", "probability 0.0")] * n, [], [], None)

    monkeypatch.setattr(mle, "_fits", broken)
    with pytest.raises(TypeError, match="bug in the fitting code"):
        bootstrap(data, result, n_replicates=3, seed=4)


def test_bootstrap_zero_x11_draw_costs_an_attempt_on_the_replicates_stream(tiny):
    # each replicate draws from its own stream for up to 11 attempts; a draw
    # with x11 = 0 in a stratum uses up an attempt, a refit error another,
    # and the next attempt continues the same stream
    result = fit(tiny)
    assert not result.active_constraints  # so refits start warm from the parent fit
    indices = list(range(50))
    expected, zeros, draws = [], 0, 0
    for index in indices:
        rng = _parallel.stream(1, index)
        values, reason = None, ""
        for _ in range(11):
            table_a, table_b = draw_replicate_tables(tiny, result, rng)
            draws += 1
            if table_a[0] < 1 or table_b[0] < 1:
                zeros += 1
                reason = "drawn x11 was zero"
                continue
            survey = SurveyData(CellCounts(*map(int, table_a[:3])),
                                CellCounts(*map(int, table_b[:3])))
            (refit,) = mle.fit_many([survey], result.options, start=result.params)
            if (isinstance(refit, DualdepError) or not refit.converged
                    or refit.active_constraints):
                (refit,) = mle.fit_many([survey], result.options)  # the grid's second pass
            if isinstance(refit, DualdepError):
                reason = str(refit)
                continue
            assert refit.converged  # every refit that runs on this table converges
            p = refit.params
            values, reason = (p.n_a, p.n_b, p.total, p.alpha, p.p1, p.p2a, p.p2b), ""
            break
        expected.append((index, values, reason))
    assert (zeros, draws) == (72, 167)
    got = inference._bootstrap_block((indices, 1, tiny, result))
    assert got == expected
    assert [row[2] for row in got if row[1] is None][-1] == "drawn x11 was zero"
    with pytest.raises(BootstrapError, match="3 of 50 bootstrap replicates failed"):
        bootstrap(tiny, result, n_replicates=50, seed=1)


def test_an_attempt_that_draws_no_table_makes_no_refit(tiny, monkeypatch):
    # in blocks of 50 replicates of the tiny table, some attempt draws x11 =
    # 0 for every replicate still pending; it refits nothing, so it makes
    # no refit call
    result = fit(tiny)
    calls = columns_per_call(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 60)
    boot = bootstrap(tiny, result, n_replicates=200, seed=1)
    assert "drawn x11 was zero" in dict(boot.failures).values()
    assert calls and min(width for width, _ in calls) > 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       keys=st.lists(st.one_of(st.integers(0, 2**32),
                               st.builds(lambda grid, rep: (grid << 32) | rep,
                                         st.integers(0, 40), st.integers(0, 2**32 - 1))),
                     min_size=2, max_size=4, unique=True),
       attempt=st.integers(1, 3))
def test_the_block_stream_draws_what_a_fresh_stream_draws(q1_fit, seed, keys, attempt):
    # keys include study 2's (grid << 32) | rep; the block's one generator
    # gives each key the draws of a fresh stream, on a first attempt and on
    # a later one that continues the key's stream after other keys drew
    data, parent = q1_fit
    rates = inference._replicate_rates(data, parent)
    streams = _parallel.Streams(seed)

    def drawn(rng):
        return [table.tolist() for table in draw_replicate_tables(data, parent, rng, rates)]

    def fresh(key, attempt):
        rng = _parallel.stream(seed, key)
        return [drawn(rng) for _ in range(attempt + 1)][-1]

    for key in keys:
        assert drawn(inference._replicate_stream(streams, key, 0, rates)) == fresh(key, 0)
    for key in reversed(keys):
        assert drawn(inference._replicate_stream(streams, key, attempt, rates)) == fresh(key, attempt)


def one_table_at_a_time(indices, seed, data, parent):
    """The ``_bootstrap_block`` rows of replicates ``indices`` as FitResults
    give them: each replicate's tables drawn on a fresh stream, attempt by
    attempt, and refit alone with ``mle.fit_many`` (warm from the parent
    unless it sits on a bound; from the grid where the warm refit failed or
    ended on a bound), its row ``inference.quantities`` of the refit."""
    warm = None if parent.active_constraints else parent.params
    out = []
    for index in indices:
        rng, row, reason = _parallel.stream(seed, index), None, ""
        for _ in range(11):
            survey = inference._drawn_survey(*draw_replicate_tables(data, parent, rng))
            if survey is None:
                reason = "drawn x11 was zero"
                continue
            (refit,) = mle.fit_many([survey], parent.options, start=warm)
            if warm is not None and (isinstance(refit, DualdepError) or refit.active_constraints):
                (refit,) = mle.fit_many([survey], parent.options)
            if isinstance(refit, DualdepError):
                reason = str(refit)
                continue
            row, reason = inference.quantities(refit.params), ""
            break
        out.append((index, row, reason))
    return out


@pytest.mark.parametrize("table, count", [
    *(((q, None), 40) for q in ("Q1", "Q2", "Q3", "Q4")),
    (((2, 3, 4), (1, 2, 3)), 60),  # tiny: zero-x11 redraws, warm refits that take the grid
    (((201, 4162, 4390), (406, 2574, 3265)), 25),  # corner: the parent is on bounds
], ids=["Q1", "Q2", "Q3", "Q4", "tiny", "corner"])
def test_the_array_read_out_gives_the_rows_of_the_fit_results(table, count):
    # every bootstrap row, read out of the block's arrays, has the bits of
    # inference.quantities of fit_many's FitResult for the same drawn table
    # fitted alone, and the same failures; a row does not depend on which
    # other tables share its block
    from conftest import make_survey

    a, b = table
    data = make_survey(a) if b is None else SurveyData(CellCounts(*a), CellCounts(*b))
    parent = fit(data)
    rows = inference._bootstrap_block((range(count), 3, data, parent))
    assert rows == one_table_at_a_time(range(count), 3, data, parent)
    assert sum(row is not None for _, row, _ in rows) >= count * 0.8
    every_third = list(range(count))[1::3]
    assert inference._bootstrap_block((every_third, 3, data, parent)) == rows[1::3]


def _row(refit):
    p = refit.params
    return (p.n_a, p.n_b, p.total, p.alpha, p.p1, p.p2a, p.p2b)


def _first_attempts(data, parent, seed, count):
    """Per replicate 0..count-1 of a one-block bootstrap: its drawn table,
    the grid refit of that table, and its bootstrap row, for the replicates
    whose first draw has x11 >= 1 and whose grid refit converged (their
    bootstrap rows come from the first attempt)."""
    surveys = {}
    for index in range(count):
        survey = inference._drawn_survey(
            *draw_replicate_tables(data, parent, _parallel.stream(seed, index)))
        if survey is not None:
            surveys[index] = survey
    grid = dict(zip(surveys, mle.fit_many(list(surveys.values()), parent.options)))
    rows = inference._bootstrap_block((range(count), seed, data, parent))
    return [(surveys[index], grid[index], row) for index, row, _ in rows
            if index in grid and not isinstance(grid[index], DualdepError)
            and grid[index].converged]


def assert_at_the_grid_maximum(data, parent, seed, count):
    # a warm refit reaches the grid refit's maximum: no lower log-likelihood
    # and the same parameters, both within 1e-6
    compared = _first_attempts(data, parent, seed, count)
    for survey, grid, row in compared:
        n_a, n_b, _, alpha, p1, p2a, p2b = row
        ll = model.log_likelihood(ModelParams(n_a, n_b, alpha, p1, p2a, p2b), survey)
        assert ll >= grid.log_likelihood - 1e-6, survey
        assert row == pytest.approx(_row(grid), rel=1e-6, abs=0.0), survey
    return compared


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("quarter", ["Q1", "Q2", "Q3", "Q4"])
def test_warm_refits_reach_the_grid_maximum_on_the_quarters(quarter, mode):
    from conftest import make_survey

    data = make_survey(quarter)
    parent = fit(data, FitOptions(mode=mode))
    assert not parent.active_constraints  # so every refit starts warm
    assert len(assert_at_the_grid_maximum(data, parent, 7, 25)) == 25


@settings(max_examples=25, deadline=None)
@given(data=drawn_tables(), mode=st.sampled_from(["reduced", "full"]),
       seed=st.integers(0, 2**32))
def test_warm_refits_reach_the_grid_maximum_on_random_tables(data, mode, seed):
    (parent,) = mle.fit_many([data], FitOptions(mode=mode))
    assume(not isinstance(parent, DualdepError) and parent.converged
           and not parent.active_constraints)
    assert_at_the_grid_maximum(data, parent, seed, 8)


def assert_grid_bits(data, parent, seed, count):
    compared = _first_attempts(data, parent, seed, count)
    assert len(compared) == count
    for _, grid, row in compared:
        assert row == _row(grid)
    return compared


def test_a_parent_on_a_bound_refits_from_the_grid():
    # the corner table's maximum sits on the N_B and p2B bounds
    data = SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265))
    parent = fit(data)
    assert {"N_B", "p2B"} <= parent.active_constraints
    assert_grid_bits(data, parent, 3, 25)


def test_a_multi_maximum_parent_refits_from_the_grid():
    # a study-2 draw whose full-mode maximum, on the N_B and p2B bounds, only
    # four of the twelve grid starts reach; from the parent alone, a refit
    # can stop at a lower maximum
    config = _scenario_config(2, 0.05, replicates=10, seed=11)
    data, _ = _draw_survey(config, _parallel.stream(config.seed, 1))
    parent = fit(data, FitOptions(mode="full"))
    assert {"N_B", "p2B"} <= parent.active_constraints
    compared = assert_grid_bits(data, parent, 3, 25)
    warm = mle.fit_many([survey for survey, _, _ in compared], parent.options,
                        start=parent.params)
    assert max(grid.log_likelihood - alone.log_likelihood
               for (_, grid, _), alone in zip(compared, warm)) > 1.0


def test_a_warm_refit_on_a_bound_takes_the_grid_refit():
    # the parent is interior, but the warm refit of replicate 4 ends on the
    # N_B bound, at other bits than the grid refit
    data = SurveyData(CellCounts(200, 35, 3807), CellCounts(105, 3326, 2527))
    parent = fit(data, FitOptions(mode="full"))
    assert not parent.active_constraints
    survey = inference._drawn_survey(*draw_replicate_tables(data, parent, _parallel.stream(5, 4)))
    (warm,) = mle.fit_many([survey], parent.options, start=parent.params)
    assert warm.converged and warm.active_constraints == {"N_B"}
    (grid,) = mle.fit_many([survey], parent.options)
    assert _row(warm) != _row(grid)
    ((index, row, reason),) = inference._bootstrap_block(([4], 5, data, parent))
    assert (index, row, reason) == (4, _row(grid), "")


def test_bootstrap_requires_positive_B(q1_fit):
    data, result = q1_fit
    with pytest.raises(ValidationError, match="B must be >= 1"):
        bootstrap(data, result, n_replicates=0)


def test_bootstrap_small_run_sane(q1_fit):
    data, result = q1_fit
    boot = bootstrap(data, result, n_replicates=40, seed=20180331)
    assert boot.n_failed == 0
    assert boot.n_used == 40
    assert boot.mean["N_total"] == pytest.approx(result.params.total, rel=0.05)
    assert boot.se["N_total"] > 0
    # exact definition: population-style second moment over replicates
    vec = boot.estimates["N_A"]
    assert boot.se["N_A"] == pytest.approx(
        math.sqrt(np.mean((vec - vec.mean()) ** 2)), rel=1e-12
    )


def test_degenerate_fit_replicates_observed_cells_only():
    data = SurveyData(CellCounts(6, 4, 5), CellCounts(8, 3, 4))
    params = ModelParams(
        n_a=data.stratum_a.total, n_b=data.stratum_b.total,
        alpha=0.1, p1=0.5, p2a=0.5, p2b=0.5,
    )
    degenerate = FitResult(
        params=params, log_likelihood=0.0, converged=True, iterations=0,
        active_constraints=frozenset({"N_A", "N_B"}), n_hat_total=params.total,
        mode="reduced", options=FitOptions(), size_ratio_gap=0.0, p2_identity_gap=0.0,
    )
    rng = np.random.default_rng(0)
    for _ in range(50):
        table_a, table_b = draw_replicate_tables(data, degenerate, rng)
        assert table_a[3] == 0 and table_b[3] == 0
        assert table_a.sum() == data.stratum_a.total
        assert table_b.sum() == data.stratum_b.total


def test_confidence_interval_zero_variance_collapses():
    assert confidence_interval(150.0, 100.0, 0.0) == (150.0, 150.0)


def test_confidence_interval_ordering():
    rng = np.random.default_rng(17)
    for _ in range(300):
        x0 = rng.uniform(10, 1000)
        n_hat = x0 + rng.uniform(1e-6, 1e5)
        sigma2 = rng.uniform(0, 1e8)
        lo, hi = confidence_interval(n_hat, x0, sigma2)
        assert x0 <= lo <= n_hat <= hi
        if sigma2 > 0:
            assert lo < n_hat < hi


def test_confidence_interval_errors():
    with pytest.raises(ValidationError):
        confidence_interval(100.0, 100.0, 1.0)
    with pytest.raises(ValidationError):
        confidence_interval(90.0, 100.0, 1.0)
    with pytest.raises(ValidationError):
        confidence_interval(150.0, 100.0, -1.0)
    with pytest.raises(ValidationError):
        confidence_interval(150.0, 100.0, 1.0, level=1.0)


def test_confidence_interval_level_quantiles():
    narrow = confidence_interval(150.0, 100.0, 400.0, level=0.90)
    default = confidence_interval(150.0, 100.0, 400.0, level=0.95)
    wide = confidence_interval(150.0, 100.0, 400.0, level=0.99)
    assert narrow[1] - narrow[0] < default[1] - default[0] < wide[1] - wide[0]


def test_uncertainty_report_both_methods(q1_fit):
    data, result = q1_fit
    report = uncertainty_report(
        data, result, methods=("hessian", "bootstrap"), n_replicates=25, seed=1,
    )
    assert report.se_hessian is not None and report.se_bootstrap is not None
    assert report.n_replicates == 25
    assert report.n_failed_replicates == 0
    for method in ("hessian", "bootstrap"):
        intervals = report.ci[method]
        for name in ("N_A", "N_B", "N_total"):
            lo, hi = intervals[name]
            assert lo < hi
    # hessian intervals center on the MLE, bootstrap ones on the bootstrap mean
    lo, hi = report.ci["hessian"]["N_total"]
    assert lo < result.params.total < hi


def test_uncertainty_report_rejects_unknown_method(q1_fit):
    data, result = q1_fit
    with pytest.raises(ValidationError, match="unknown uncertainty method"):
        uncertainty_report(data, result, methods=("jackknife",))
