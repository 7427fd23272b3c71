import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from dualdep import _parallel, mle, model, simulate
from dualdep._parallel import stream
from dualdep.exceptions import (
    DualdepError, InfeasibleConstraintsError, NonConvergenceError, ValidationError,
)
from dualdep.mle import FitOptions, fit_many
from dualdep.model import PARAM_NAMES, ModelParams, cell_probabilities
from dualdep.simulate import (
    GeneratorConfig,
    cell_probabilities_for,
    draw_counts,
    run_coverage,
    run_study1,
    run_study2,
    scenario_grid,
    study1_config,
)
from dualdep.tables import SurveyData, naive_estimate

from conftest import survey_of
from oracles import exact_conditional_naive_mean


def small_config(**overrides):
    base = dict(
        n_a=4000, n_b=1500, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.08, p2_b=0.18, dependence="negative", replicates=20, seed=99,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def test_full_negative_dependence_forbids_joint_states():
    rng = stream(1, 0)
    for _ in range(30):
        counts, x00 = draw_counts(1000, 1.0, 0.3, 0.6, "negative", rng)
        assert counts.x11 == 0 and x00 == 0


def test_full_positive_dependence_forces_agreement():
    rng = stream(2, 0)
    for _ in range(30):
        counts, x00 = draw_counts(1000, 1.0, 0.3, 0.6, "positive", rng)
        assert counts.x10 == 0 and counts.x01 == 0


def test_independent_draw_matches_product_cell():
    rng = stream(3, 0)
    n = 1_000_000
    counts, _ = draw_counts(n, 0.7, 0.3, 0.2, "independent", rng)
    sd = math.sqrt(0.06 * 0.94 / n)
    assert abs(counts.x11 / n - 0.06) < 3 * sd


def test_multinomial_totals_exact():
    rng = stream(4, 0)
    for _ in range(50):
        counts, x00 = draw_counts(777, 0.1, 0.3, 0.4, "negative", rng)
        assert counts.total + x00 == 777


def test_cell_frequencies_match_probabilities():
    # one multinomial of 2e5 draws, each cell within 4 Monte-Carlo SDs
    n = 200_000
    alpha, p1, p2 = 0.07, 0.22, 0.4
    rng = stream(5, 0)
    counts, x00 = draw_counts(n, alpha, p1, p2, "negative", rng)
    observed = (counts.x11, counts.x10, counts.x01, x00)
    expected = cell_probabilities(alpha, p1, p2).as_tuple()
    for obs, prob in zip(observed, expected):
        sd = math.sqrt(n * prob * (1 - prob))
        assert abs(obs - n * prob) < 4 * sd


def test_positive_cells_formula():
    alpha, p1, p2 = 0.3, 0.4, 0.25
    p11, p10, p01, p00 = cell_probabilities_for("positive", alpha, p1, p2)
    one = 1 - alpha
    assert p11 == pytest.approx(one * p1 * p2 + alpha * p1, abs=1e-15)
    assert p10 == pytest.approx(one * p1 * (1 - p2), abs=1e-15)
    assert p01 == pytest.approx(one * (1 - p1) * p2, abs=1e-15)
    assert p00 == pytest.approx(one * (1 - p1) * (1 - p2) + alpha * (1 - p1), abs=1e-15)
    assert p11 + p10 + p01 + p00 == pytest.approx(1.0, abs=1e-12)
    # positive dependence raises the joint-capture cell above independence
    assert p11 > p1 * p2


def test_generator_config_validation():
    with pytest.raises(ValidationError):
        small_config(alpha=1.5)
    with pytest.raises(ValidationError):
        small_config(n_a=0)
    with pytest.raises(ValidationError):
        small_config(replicates=0)
    with pytest.raises(ValidationError):
        small_config(dependence="anti")
    with pytest.raises(ValidationError):
        cell_probabilities_for("sideways", 0.1, 0.2, 0.3)


def test_study1_deterministic_and_thread_invariant():
    config = small_config()
    a = run_study1(config)
    b = run_study1(config)
    c = run_study1(config, threads=2)
    assert a.proposed == b.proposed == c.proposed
    assert a.naive == b.naive == c.naive
    assert a.fit_failures == 0


def test_study1_summary_identities():
    result = run_study1(small_config(replicates=30))
    for _, s in result.all_summaries():
        bias = s.mean - s.truth
        variance = (s.cv_pct / 100.0 * s.mean) ** 2
        assert s.rmse**2 == pytest.approx(bias**2 + variance, rel=1e-9)
        assert s.relative_bias_pct == pytest.approx((s.mean - s.truth) / s.mean * 100, rel=1e-12)
        assert s.n_used == 30


def test_study1_naive_overshoots_under_negative_dependence():
    result = run_study1(small_config(replicates=30))
    naive_na = result.naive[0]
    proposed_na = result.proposed[0]
    assert naive_na.mean > naive_na.truth * 1.2
    assert abs(proposed_na.relative_bias_pct) < abs(naive_na.relative_bias_pct)


def test_study1_independent_lists_leave_naive_unbiased():
    config = GeneratorConfig(
        n_a=50_000, n_b=20_000, alpha=0.0, p1_a=0.15, p1_b=0.15,
        p2_a=0.05, p2_b=0.15, dependence="negative", replicates=150, seed=31,
    )
    result = run_study1(config)
    for summary in result.naive:
        assert abs(summary.relative_bias_pct) < 1.0


def test_brute_force_conditional_naive_oracle():
    # tiny population: enumerate every multinomial table exactly
    n, alpha, p1, p2 = 12, 0.1, 0.4, 0.3
    probs = cell_probabilities(alpha, p1, p2).as_tuple()
    exact = exact_conditional_naive_mean(n, probs)
    rng = stream(6, 0)
    draws = []
    while len(draws) < 40_000:
        counts, _ = draw_counts(n, alpha, p1, p2, "negative", rng)
        if counts.x11 >= 1:
            draws.append((counts.x11 + counts.x10) * (counts.x11 + counts.x01) / counts.x11)
    draws = np.array(draws)
    mc_se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 4 * mc_se


def test_study_draws_match_brute_force_naive_mean():
    # the draw path of the studies, one stream per replicate: stratum A's
    # naive mean against exact enumeration. The strata are independent, so
    # redrawing both on x11B = 0 leaves stratum A's law conditional on
    # x11A >= 1 unchanged.
    n, alpha, p1, p2 = 14, 0.1, 0.4, 0.3
    config = GeneratorConfig(n_a=n, n_b=n, alpha=alpha, p1_a=p1, p1_b=p1, p2_a=p2, p2_b=p2,
                             replicates=20_000, seed=65)
    draws = np.array([
        naive_estimate(survey_of(simulate._draw_survey(config, stream(config.seed, rep))[0])
                       .stratum_a)
        for rep in range(config.replicates)
    ])
    exact = exact_conditional_naive_mean(n, cell_probabilities(alpha, p1, p2).as_tuple())
    assert abs(draws.mean() - exact) < 4 * draws.std() / math.sqrt(draws.size)


def test_study_zero_x11_draw_is_redrawn_on_its_stream_and_never_a_failure():
    # a replicate redraws both strata on its own stream until each has
    # x11 >= 1; the redraws are counted, never as failed fits
    config = GeneratorConfig(n_a=40, n_b=30, alpha=0.05, p1_a=0.2, p1_b=0.2, p2_a=0.2,
                             p2_b=0.2, replicates=40, seed=1)
    expected = []
    for key in range(config.replicates):
        rng = stream(config.seed, key)
        redraws = 0
        while True:
            counts_a, _ = draw_counts(config.n_a, config.alpha, config.p1_a, config.p2_a,
                                      config.dependence, rng)
            counts_b, _ = draw_counts(config.n_b, config.alpha, config.p1_b, config.p2_b,
                                      config.dependence, rng)
            if counts_a.x11 >= 1 and counts_b.x11 >= 1:
                break
            redraws += 1
        expected.append((SurveyData(counts_a, counts_b), redraws))
    records = simulate._run_replicates([(config, range(config.replicates))], FitOptions(), 1)
    assert [(survey_of(r.counts), r.redraws) for r in records] == expected
    assert all(r.params is not None and r.error is None for r in records)
    result = run_study1(config)
    assert (result.redraws, result.fit_failures, result.reduced_fallbacks) == (36, 0, 4)


@pytest.mark.parametrize("value, certified", [(0.01, 0), (0.15, 12), (0.35, 0)])
def test_a_study_record_is_the_certified_point_or_the_solvers_winner(value, certified):
    # study-2 draws: at 0.15 every moment point lies inside its box; at 0.01
    # the reduced box is empty (the full-mode fallback), and at 0.35 the
    # moment point lies outside the box. A certified record holds the
    # closed-form point; a declined one the winner fit_many picks, bit for
    # bit, in full mode where the reduced box is empty
    config = simulate._scenario_config(1, value, replicates=12, seed=1)
    records = simulate._run_replicates([(config, range(config.replicates))], FitOptions(), 1)
    points = 0
    for record in records:
        point = mle._moment_point(*record.counts, "reduced")
        if point is not None:
            points += 1
            assert record.params == point
            assert (record.active, record.error, record.fallback) == ((False,) * 6, None, False)
            continue
        (fit,) = fit_many([survey_of(record.counts)])
        fallback = isinstance(fit, InfeasibleConstraintsError)
        if fallback:
            (fit,) = fit_many([survey_of(record.counts)], FitOptions(mode="full"))
        if isinstance(fit, DualdepError):
            assert (record.params, type(record.error), str(record.error), record.fallback) == (
                None, type(fit), str(fit), False)
            continue
        assert record.params == list(fit.params.as_tuple())
        assert (record.active, record.error, record.fallback) == (
            tuple(name in fit.active_constraints for name in PARAM_NAMES), None, fallback)
    assert points == certified


def test_a_failed_fallback_is_a_failure_and_not_a_fallback():
    # at p1B = 0.01 every draw's reduced box is empty; capped at one step,
    # its full-mode refit stalls, so the record has no fit, carries that
    # refit's NonConvergenceError text and is not counted as a fallback
    options = FitOptions(max_iterations=1)
    config = simulate._scenario_config(1, 0.01, replicates=6, seed=1)
    records = simulate._run_replicates([(config, range(6))], options, 1)
    for record in records:
        (reduced,) = fit_many([survey_of(record.counts)], options)
        assert isinstance(reduced, InfeasibleConstraintsError)
        (full,) = fit_many([survey_of(record.counts)], replace(options, mode="full"))
        assert isinstance(full, NonConvergenceError)
        assert (record.params, record.active, type(record.error), str(record.error),
                record.fallback) == (None, (False,) * 6, NonConvergenceError, str(full), False)
    assert run_study2(1, (0.01,), replicates=6, seed=1, options=options).reduced_fallbacks == 0


def test_a_certified_study_makes_no_solver_call_and_starts_no_process_pool(monkeypatch):
    # every study-1 draw is certified in this process, so nothing reaches the
    # solver and nothing is dispatched, whatever threads asks for
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a certified study reached the solver or the pool")

    monkeypatch.setattr(mle, "_solve_start", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(_parallel, "cpus", lambda: 2)
    result = run_study1(threads=2)
    assert (result.fit_failures, result.reduced_fallbacks) == (0, 0)
    assert all(s.n_used == 500 for s in result.proposed)


def test_a_fit_is_its_row_from_the_solver_to_the_study_reductions(monkeypatch):
    # from the solver to the studies' reductions a fit is its row: no study
    # builds a ModelParams, checked or not, but for the starts of a
    # NonConvergenceError (mle._diagnostics), and every record's active
    # bounds are a 6-tuple of bools. Study 1's and coverage's draws are
    # certified; study 2's at p1B = 0.35 are solved in reduced mode, and at
    # 0.01 they fall back to full mode
    unchecked, post_init = model._unchecked_params, ModelParams.__post_init__
    run_replicates, callers, records = simulate._run_replicates, set(), []

    def caller():
        """The function that built the ModelParams: the nearest frame above
        the spy outside the model module, dataclass-generated code and list
        comprehensions (their own frames before Python 3.12)."""
        frame = sys._getframe(2)
        while (frame.f_code.co_filename in (model.__file__, "<string>")
               or frame.f_code.co_name == "<listcomp>"):
            frame = frame.f_back
        return frame.f_code.co_filename, frame.f_code.co_name

    def spy_unchecked(*args):
        callers.add(caller())
        return unchecked(*args)

    def spy_post_init(self):
        callers.add(caller())
        post_init(self)

    def spy_replicates(*args):
        out = run_replicates(*args)
        records.extend(out)
        return out

    monkeypatch.setattr(model, "_unchecked_params", spy_unchecked)
    monkeypatch.setattr(ModelParams, "__post_init__", spy_post_init)
    monkeypatch.setattr(simulate, "_run_replicates", spy_replicates)
    run_study1(study1_config(replicates=8, seed=3))
    run_coverage(study1_config(replicates=8, seed=3))
    run_study2(1, (0.01, 0.35), replicates=6, seed=1)
    assert callers <= {(mle.__file__, "_diagnostics")}
    assert len(records) == 8 + 8 + 12
    assert {record.fallback for record in records} == {False, True}
    for record in records:
        assert type(record.active) is tuple and len(record.active) == 6
        assert all(type(on) is bool for on in record.active)


def test_scenario_grid():
    grid = scenario_grid()
    assert len(grid) == 35
    assert grid[0] == 0.01 and grid[-1] == 0.35
    assert grid[6] == pytest.approx(0.07, abs=1e-12)
    with pytest.raises(ValidationError):
        scenario_grid(start=0.0, stop=0.3, step=0.1)
    with pytest.raises(ValidationError, match="grid step must be positive"):
        scenario_grid(0.1, 0.2, 0)
    with pytest.raises(ValidationError, match="grid values must be finite"):
        scenario_grid(0.1, 0.2, float("nan"))


def test_scenario_grid_step_must_divide_the_range():
    # 0.01 + 18 * 0.02 = 0.37 would overshoot the stop
    with pytest.raises(ValidationError, match="grid step does not divide the range"):
        scenario_grid(0.01, 0.36, 0.02)


def test_scenario_grid_is_the_cli_grid_bit_for_bit():
    from dualdep.cli import _parse_grid

    assert [v.hex() for v in scenario_grid()] == [v.hex() for v in _parse_grid("0.01:0.35:0.01")]


def test_study2_structure_and_determinism():
    result = run_study2(scenario=1, grid=(0.15,), replicates=10, seed=21)
    again = run_study2(scenario=1, grid=(0.15,), replicates=10, seed=21, threads=2)
    assert result.rows == again.rows
    assert {r.estimator for r in result.rows} == {"proposed", "naive"}
    assert {r.quantity for r in result.rows} == {"N_A", "N_B", "N_total"}
    assert len(result.rows) == 6
    row = result.row(0.15, "proposed", "N_total")
    assert row.truth == 70_000.0
    assert row.n_used == 10
    assert row.bias == pytest.approx(row.mean - row.truth, rel=1e-12)
    with pytest.raises(ValidationError):
        run_study2(scenario=9, grid=(0.15,), replicates=2)


def test_study2_fallback_engages_under_gross_violation():
    result = run_study2(scenario=1, grid=(0.01,), replicates=6, seed=2)
    assert result.reduced_fallbacks > 0
    assert result.fit_failures == 0


def test_coverage_small_run():
    config = study1_config(replicates=40, seed=13)
    result = run_coverage(config)
    assert result.failures == 0
    assert {((r.quantity, r.method)) for r in result.rows} == {
        ("N_A", "standard"), ("N_A", "lognormal"),
        ("N_B", "standard"), ("N_B", "lognormal"),
    }
    for row in result.rows:
        assert row.n_used == 40
        assert 0.8 <= row.coverage <= 1.0
        assert row.mean_lower < row.mean_upper
    repeat = run_coverage(config, threads=2)
    assert repeat.rows == result.rows


def test_coverage_propagates_programming_errors(monkeypatch):
    # only package errors count as failed replicates; a bug must surface
    from dualdep import simulate

    def broken(fits):
        raise TypeError("bug in the standard-error code")

    monkeypatch.setattr(simulate, "_hessian_ses", broken)
    with pytest.raises(TypeError, match="bug in the standard-error code"):
        run_coverage(study1_config(replicates=2, seed=13))


def test_coverage_counts_fallback_when_interval_step_fails(monkeypatch):
    # a full-mode fallback counts once the fallback fit exists, whatever fails after it
    from dualdep import simulate
    from dualdep.exceptions import InformationMatrixError

    def singular(fits):
        return [InformationMatrixError("observed information is singular") for _ in fits]

    monkeypatch.setattr(simulate, "_hessian_ses", singular)
    config = simulate._scenario_config(1, 0.01, replicates=6, seed=2)
    result = run_coverage(config)
    assert result.failures == 6
    assert result.reduced_fallbacks == run_study2(1, (0.01,), replicates=6, seed=2).reduced_fallbacks > 0
