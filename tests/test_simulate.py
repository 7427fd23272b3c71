import math

import numpy as np
import pytest

from dualdep._parallel import stream
from dualdep.exceptions import ValidationError
from dualdep.model import cell_probabilities
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


def test_scenario_grid():
    grid = scenario_grid()
    assert len(grid) == 35
    assert grid[0] == 0.01 and grid[-1] == 0.35
    assert grid[6] == pytest.approx(0.07, abs=1e-12)
    with pytest.raises(ValidationError):
        scenario_grid(start=0.0, stop=0.3, step=0.1)


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

    def broken(result, survey):
        raise TypeError("bug in the standard-error code")

    monkeypatch.setattr(simulate, "se_from_hessian", broken)
    with pytest.raises(TypeError, match="bug in the standard-error code"):
        run_coverage(study1_config(replicates=2, seed=13))


def test_coverage_counts_fallback_when_interval_step_fails(monkeypatch):
    # a full-mode fallback counts once the fallback fit exists, whatever fails after it
    from dualdep import simulate
    from dualdep.exceptions import InformationMatrixError

    def singular(result, survey):
        raise InformationMatrixError("observed information is singular")

    monkeypatch.setattr(simulate, "se_from_hessian", singular)
    config = simulate._scenario_config(1, 0.01, replicates=6, seed=2)
    result = run_coverage(config)
    assert result.failures == 6
    assert result.reduced_fallbacks == run_study2(1, (0.01,), replicates=6, seed=2).reduced_fallbacks > 0
