import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dualdep import mle, model
from dualdep._parallel import stream
from dualdep.exceptions import (
    DualdepError, FitError, InfeasibleConstraintsError, NonConvergenceError, ValidationError,
)
from dualdep.mle import FitOptions, fit, fit_many, starting_points
from dualdep.model import (
    ModelParams, ReducedParams, expand, gradient, hessian, log_likelihood, size_ratio, p2a_ratio,
)
from dualdep.simulate import (
    GeneratorConfig, _draw_survey, _fit_draws, _scenario_config, study1_config,
)
from dualdep.tables import CellCounts, SurveyData, naive_estimate

from conftest import QUARTER_COUNTS, drawn_tables, make_survey
from oracles import random_interior_params


def in_box(params, data, slack=0.0):
    for counts, n in ((data.stratum_a, params.n_a), (data.stratum_b, params.n_b)):
        if not counts.total - slack <= n <= naive_estimate(counts) + slack:
            return False
    return all(0.0 <= v <= 1.0 for v in (params.alpha, params.p1, params.p2a, params.p2b))


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_starting_points_twelve_distinct_interior(q1, mode):
    points = starting_points(q1, FitOptions(mode=mode, n_starts=12))
    assert len(points) == 12
    assert len({p.as_tuple() for p in points}) == 12
    for p in points:
        assert in_box(p, q1)
        # strictly interior in the sizes
        assert q1.stratum_a.total < p.n_a < naive_estimate(q1.stratum_a)
        assert q1.stratum_b.total < p.n_b < naive_estimate(q1.stratum_b)
        assert 0.0 < p.alpha < 1.0 and 0.0 < p.p1 < 1.0


def test_starting_points_single_midpoint(q1):
    (point,) = starting_points(q1, FitOptions(n_starts=1))
    pooled = q1.pooled()
    mid_total = (1.2 * pooled.total + 0.8 * naive_estimate(pooled)) / 2.0
    assert point.alpha == 0.05
    assert point.n_b == pytest.approx(mid_total / (1.0 + size_ratio(q1)), rel=1e-12)


def test_starting_points_symmetric_data():
    counts = CellCounts(60, 140, 90)
    data = SurveyData(counts, counts)
    for point in starting_points(data, FitOptions(n_starts=12)):
        assert point.p2a == point.p2b
        assert point.n_a == point.n_b


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_starting_points_seeded_extension(q1, mode):
    a = starting_points(q1, FitOptions(mode=mode, n_starts=15, seed=42))
    b = starting_points(q1, FitOptions(mode=mode, n_starts=15, seed=42))
    c = starting_points(q1, FitOptions(mode=mode, n_starts=15, seed=43))
    assert [p.as_tuple() for p in a] == [p.as_tuple() for p in b]
    assert [p.as_tuple() for p in a][12:] != [p.as_tuple() for p in c][12:]
    for p in a:
        assert in_box(p, q1)


def test_fit_reference_quarter(q1):
    result = fit(q1)
    assert result.converged
    assert result.params.n_a == pytest.approx(54620, rel=0.05)
    assert result.params.n_b == pytest.approx(18916, rel=0.05)
    assert result.params.alpha == pytest.approx(0.0690, abs=0.010)
    assert result.params.p1 == pytest.approx(0.1651, abs=0.010)
    assert result.params.p2a == pytest.approx(0.0119, abs=0.005)
    assert result.params.p2b == pytest.approx(0.1837, abs=0.015)
    assert result.active_constraints == frozenset()
    assert result.n_hat_total == result.params.n_a + result.params.n_b


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("quarter", ["Q1", "Q2", "Q3", "Q4"])
def test_fit_log_likelihood_matches_reevaluation(quarter, mode):
    # the log-likelihood the solver carries is the one of the fitted point, exactly
    data = make_survey(quarter)
    result = fit(data, FitOptions(mode=mode))
    assert result.log_likelihood == log_likelihood(result.params, data)


def test_fit_requires_overlap():
    data = SurveyData(CellCounts(0, 10, 10), CellCounts(5, 5, 5))
    with pytest.raises(FitError, match="x11 = 0"):
        fit(data)


def test_fit_deterministic(q1):
    a = fit(q1)
    b = fit(q1)
    # bit-identical down to the per-start diagnostics
    assert a == b


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("n_starts", [1, 12, 15])
def test_per_start_diagnostics_hold_the_starting_points(q1, mode, n_starts):
    options = FitOptions(mode=mode, n_starts=n_starts)
    starts = [d.start for d in fit(q1, options).per_start_diagnostics]
    assert starts == starting_points(q1, options)


def test_refit_from_optimum_is_stable(q1):
    result = fit(q1)
    # refitting with the optimum as the sole start must not move the loglik
    refit = fit(q1, FitOptions(n_starts=1))
    start = starting_points(q1, FitOptions(n_starts=1))[0]
    assert refit.log_likelihood >= log_likelihood(start, q1)
    counts = np.array(model._counts(q1))[:, None]
    ratio = size_ratio(q1)
    mult = p2a_ratio(q1)
    u0 = np.array([[result.params.n_b, result.params.alpha, result.params.p1, result.params.p2b]]).T
    scale = np.array([[ratio, 1.0, 1.0, 1.0, mult, 1.0]]).T
    _, _, _, lo, hi = mle._setup(q1, "reduced")
    lo_t, hi_t = mle._trimmed_bounds(np.array([lo]).T, np.array([hi]).T,
                                     mle._COORDINATES["reduced"][0])
    _, (value,), _, _, _ = mle._solve_start(
        u0, [0], counts, scale, (0, 0, 1, 2, 3, 3), lo_t, hi_t, 500, 1e-8,
    )
    assert abs(value - result.log_likelihood) < 1e-8


def test_fit_monotone_over_starts(q1):
    options = FitOptions(n_starts=12)
    result = fit(q1, options)
    for start in starting_points(q1, options):
        assert result.log_likelihood >= log_likelihood(start, q1) - 1e-9
    # the winner has minimal total among log-likelihood ties
    tied = [
        d for d in result.per_start_diagnostics
        if abs(d.log_likelihood - result.log_likelihood) <= 1e-9
    ]
    assert tied, "winner must appear among the per-start diagnostics"


def test_fit_reduced_identities_exact(q1):
    result = fit(q1)
    assert result.params.n_a == size_ratio(q1) * result.params.n_b
    assert result.params.p2a == p2a_ratio(q1) * result.params.p2b
    assert result.size_ratio_gap == 0.0
    assert result.p2_identity_gap == 0.0


def test_fit_full_mode(q1):
    reduced = fit(q1)
    full = fit(q1, FitOptions(mode="full"))
    assert full.converged
    assert full.mode == "full"
    # same optimum for real data where the identities hold at the MLE
    assert full.params.n_a == pytest.approx(reduced.params.n_a, rel=1e-3)
    assert full.log_likelihood >= reduced.log_likelihood - 1e-6
    assert full.size_ratio_gap < 1e-3
    assert full.p2_identity_gap < 1e-3


def test_fit_box_respected_on_simulated_draws():
    config = GeneratorConfig(
        n_a=5000, n_b=2000, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.05, p2_b=0.15, replicates=1, seed=7,
    )
    for index in range(15):
        survey, _ = _draw_survey(config, stream(7, index))
        result = fit(survey)
        assert in_box(result.params, survey, slack=1e-9)
        assert result.converged


def test_reduced_box_maps_exactly_inside_stratum_boxes():
    # the upper bound comes from the mapped stratum-A cap here; the box
    # endpoints must re-multiply into the per-stratum boxes without an
    # ulp of overshoot
    data = SurveyData(CellCounts(10, 10, 80), CellCounts(10, 10, 90))
    ratio = size_ratio(data)
    _, _, _, (lo, *_), (hi, *_) = mle._setup(data, "reduced")
    assert data.stratum_b.total <= lo < hi <= naive_estimate(data.stratum_b)
    assert data.stratum_a.total <= ratio * lo
    assert ratio * hi <= naive_estimate(data.stratum_a)


def test_fit_infeasible_reduced_box_raises():
    # list-1 marginals force N_A ~ 60 N_B while the naive caps sit far lower
    data = SurveyData(CellCounts(5, 9000, 50), CellCounts(50, 100, 5000))
    with pytest.raises(InfeasibleConstraintsError):
        fit(data)
    full = fit(data, FitOptions(mode="full"))
    assert full.converged


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("stratum", ["A", "B"])
def test_degenerate_size_box_raises_before_any_start(mode, stratum):
    # x10 * x01 = 0 makes the naive estimate the observed total: the size
    # box is one point, with no interior to start in
    degenerate, other = CellCounts(10, 0, 40), CellCounts(30, 60, 70)
    data = SurveyData(degenerate, other) if stratum == "A" else SurveyData(other, degenerate)
    options = FitOptions(mode=mode)
    with pytest.raises(InfeasibleConstraintsError):
        starting_points(data, options)
    with pytest.raises(InfeasibleConstraintsError):
        fit(data, options)


def strictly_inside(params, data):
    for counts, n in ((data.stratum_a, params.n_a), (data.stratum_b, params.n_b)):
        if not counts.total < n < naive_estimate(counts):
            return False
    return all(0.0 < v < 1.0 for v in (params.alpha, params.p1, params.p2a, params.p2b))


edge_count = st.one_of(st.just(0), st.integers(0, 10**4), st.integers(0, 10**9))
edge_stratum = st.builds(CellCounts, st.one_of(st.just(1), st.integers(1, 10**9)),
                         edge_count, edge_count)
INFEASIBLE_REDUCED = SurveyData(CellCounts(5, 9000, 50), CellCounts(50, 100, 5000))
LARGE_COUNTS = SurveyData(CellCounts(10_000_000, 800_000_000, 300_000_000),
                          CellCounts(50_000_000, 200_000_000, 300_000_000))


@settings(max_examples=40, deadline=None)
@given(data=st.builds(SurveyData, edge_stratum, edge_stratum),
       mode=st.sampled_from(["reduced", "full"]))
@example(data=SurveyData(CellCounts(10, 0, 40), CellCounts(30, 60, 70)), mode="full")
@example(data=SurveyData(CellCounts(30, 60, 70), CellCounts(10, 40, 0)), mode="full")
@example(data=SurveyData(CellCounts(1, 300, 200), CellCounts(1, 5, 7)), mode="reduced")
# stratum B's box is 2e-7 wide at 5e6: its start margin rounds onto the bounds
@example(data=SurveyData(CellCounts(100, 8900, 3641), CellCounts(5_000_000, 1, 1)), mode="full")
@example(data=INFEASIBLE_REDUCED, mode="reduced")
@example(data=INFEASIBLE_REDUCED, mode="full")
@example(data=LARGE_COUNTS, mode="reduced")
@example(data=LARGE_COUNTS, mode="full")
def test_edge_tables_start_and_fit_inside_the_box(data, mode):
    # a table either has no fit, for a package reason, or its starts sit
    # strictly inside the six-parameter box and its fit inside it
    options = FitOptions(mode=mode)
    try:
        starts = starting_points(data, options)
    except FitError:
        starts = None
    else:
        assert all(strictly_inside(p, data) for p in starts), starts
    (outcome,) = fit_many([data], options)
    if isinstance(outcome, DualdepError):
        assert isinstance(outcome, FitError), outcome
    else:
        assert starts is not None
        assert in_box(outcome.params, data), outcome.params


def test_large_counts_tie_goes_to_the_converged_start():
    # the log-likelihood is about 3.1e10, where floats are about 3.8e-6
    # apart: the one converged reduced-mode start sits about 8 ulps below a
    # stalled one, inside the tie band, so it wins
    result = fit(LARGE_COUNTS)
    assert result.converged
    best = max(d.log_likelihood for d in result.per_start_diagnostics)
    assert 0.0 < best - result.log_likelihood <= 16 * math.ulp(best)
    # the full mode stays out of reach of the absolute gradient tolerance
    with pytest.raises(NonConvergenceError):
        fit(LARGE_COUNTS, FitOptions(mode="full"))


# The reduced fits that stall at these scales: every start stops with "no
# acceptable step" a few ulps of the log-likelihood from the maximum, its
# projected gradient (1e-7 to 8e-6) above the absolute 1e-8 tolerance
# (ROADMAP item 10: a tolerance that follows the gradient's rounding noise).
STALLS_AT_SCALE = {("Q2", 10**6), ("Q3", 10**5), ("Q3", 10**6), ("Q4", 10**6)}


def _scaling_case(quarter, k, mode):
    marks = ()
    if mode == "reduced" and (quarter, k) in STALLS_AT_SCALE:
        marks = pytest.mark.xfail(raises=NonConvergenceError, strict=True,
                                  reason="ROADMAP item 10: absolute gradient tolerance")
    return pytest.param(quarter, k, mode, marks=marks, id=f"{quarter}-k{k}-{mode}")


@functools.cache
def _quarter_fit(quarter, mode, k=1):
    (a, b) = QUARTER_COUNTS[quarter]
    return fit(SurveyData(CellCounts(*(k * n for n in a)), CellCounts(*(k * n for n in b))),
               FitOptions(mode=mode))


@pytest.mark.parametrize("quarter, k, mode", [
    _scaling_case(quarter, k, mode) for mode in ("reduced", "full")
    for quarter in ("Q1", "Q2", "Q3", "Q4") for k in (10, 10**3, 10**5, 10**6)
])
def test_scaling_every_count_scales_the_sizes_and_keeps_the_probabilities(quarter, k, mode):
    # under the Stirling likelihood ll(k x; k N, probs) = k ll(x; N, probs)
    # + k x0 log k, so the maximum moves with the counts (worst seen: 9e-13)
    base, scaled = _quarter_fit(quarter, mode), _quarter_fit(quarter, mode, k)
    assert scaled.converged == base.converged
    assert scaled.active_constraints == base.active_constraints
    sizes, probs = np.split(np.array(scaled.params.as_tuple()), [2])
    base_sizes, base_probs = np.split(np.array(base.params.as_tuple()), [2])
    np.testing.assert_allclose(sizes, k * base_sizes, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(probs, base_probs, rtol=1e-11, atol=0.0)


def test_fit_quarters_all_converge():
    for quarter in ("Q2", "Q3", "Q4"):
        result = fit(make_survey(quarter))
        assert result.converged
        assert result.active_constraints == frozenset()


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(mode="fast")
    with pytest.raises(ValueError):
        FitOptions(n_starts=0)
    with pytest.raises(ValueError):
        FitOptions(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        FitOptions(max_iterations=0)
    assert dataclasses.asdict(FitOptions())["seed"] == 20180331


def test_fit_result_carries_diagnostics(q1):
    result = fit(q1)
    assert len(result.per_start_diagnostics) == 12
    assert all(math.isfinite(d.log_likelihood) for d in result.per_start_diagnostics)
    assert any(d.converged for d in result.per_start_diagnostics)


def held_at_bounds(result, data):
    """Check first-order optimality of a fit from the model gradient alone.

    The gradient is taken in the fit's own coordinates (through the reduced
    map in reduced mode). Every entry is below the gradient tolerance unless
    its coordinate sits on a bound, where it must point out of the box.
    Returns how many coordinates are held on a bound that way.
    """
    params = result.params
    grad = gradient(params, data)
    _, _, _, lo, hi = mle._setup(data, result.mode)
    lo, hi = np.array(lo), np.array(hi)
    if result.mode == "reduced":
        mult = p2a_ratio(data)
        jac = np.zeros((6, 4))
        jac[[0, 1, 2, 3, 4, 5], [0, 0, 1, 2, 3, 3]] = (size_ratio(data), 1, 1, 1, mult, 1)
        grad = jac.T @ grad
        coords = np.array([params.n_b, params.alpha, params.p1, params.p2b])
    else:
        coords = params.as_array()
    # the fit's activity tolerance (1e-6 of the width), with room for the
    # solver keeping a hair inside the box
    band = 2e-6 * (hi - lo)
    outward = ((coords - lo <= band) & (grad < 0)) | ((hi - coords <= band) & (grad > 0))
    small = np.abs(grad) < result.options.gradient_tolerance
    assert np.all(small | outward), (grad, coords, lo, hi)
    return int(np.sum(outward & ~small))


def test_fit_first_order_optimal_on_bounds():
    # independent lists: the fitted alpha and N_A land on their bounds
    config = GeneratorConfig(
        n_a=3000, n_b=1500, alpha=0.0, p1_a=0.2, p1_b=0.2,
        p2_a=0.15, p2_b=0.25, dependence="independent", seed=2,
    )
    held = 0
    for index in range(10):
        survey, _ = _draw_survey(config, stream(2, index))
        result = fit(survey)
        assert result.converged
        held += held_at_bounds(result, survey)
    assert held >= 5

    # study-2 scenario 1 at 0.01: the reduced box is empty, so every draw
    # falls back to the six-parameter fit
    config = _scenario_config(1, 0.01, replicates=4, seed=20180331)
    held = 0
    for rep in range(4):
        survey, _ = _draw_survey(config, stream(config.seed, rep))
        ((result, fallback),) = _fit_draws([survey], FitOptions())
        assert fallback and result.mode == "full" and result.converged
        held += held_at_bounds(result, survey)
    assert held >= 4


def test_max_iterations_caps_every_start(q1):
    with pytest.raises(NonConvergenceError) as info:
        fit(q1, FitOptions(max_iterations=1))
    diagnostics = info.value.diagnostics
    assert len(diagnostics) == 12
    for d in diagnostics:
        assert not d.converged
        assert d.iterations == 1
        assert d.message == "iteration cap reached"
    assert fit(q1, FitOptions(max_iterations=100)).converged


# a study-2 draw whose full-mode maximum only the four 1.2 x0-anchor starts
# reach, in about 35 steps: capped at 20 they are still short of the
# tolerance, but above the lower maximum the other eight converge to
STALLED_BEST = SurveyData(CellCounts(127, 2377, 4586), CellCounts(430, 2558, 3250))


def test_a_stalled_best_start_is_an_error():
    options = FitOptions(mode="full", max_iterations=20)
    message = "the best start did not reach gradient tolerance 1e-08"
    with pytest.raises(NonConvergenceError) as info:
        fit(STALLED_BEST, options)
    (outcome,) = fit_many([STALLED_BEST], options)
    assert isinstance(outcome, NonConvergenceError)
    for error in (info.value, outcome):
        assert str(error) == message
        assert len(error.diagnostics) == 12
        assert sum(d.converged for d in error.diagnostics) == 8
        assert not max(error.diagnostics, key=lambda d: d.log_likelihood).converged


def test_every_start_reaches_tolerance_on_quarters():
    for quarter in ("Q1", "Q2", "Q3", "Q4"):
        for mode in ("reduced", "full"):
            result = fit(make_survey(quarter), FitOptions(mode=mode))
            assert all(d.converged and d.message == "converged" for d in result.per_start_diagnostics)


def test_fit_converges_where_curvature_outruns_float_spacing():
    # the maximum sits about 4e-8 below p2B = 1, where the p2B curvature is
    # about -1e10: one ulp of p2B moves its gradient by more than the 1e-8
    # tolerance, so a Newton step there is smaller than the float spacing
    data = SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265))
    result = fit(data)
    assert all(d.converged for d in result.per_start_diagnostics)
    assert result.active_constraints == {"N_B", "p2B"}
    assert held_at_bounds(result, data) >= 1


# Study-2 scenario 2 at p1A = 0.05, seed 11: on these replicates the full-mode
# maximum sits on the N_B and p2B bounds, 11 to 35 log-likelihood units above
# the maxima that eight of the twelve grid starts climb to. Only the four
# starts at the 1.2 x0 size anchor reach it, so a leaner start grid can lose
# it; these are its log-likelihoods.
MULTI_MAXIMUM = {1: 93244.35, 2: 93396.31, 3: 94299.07, 4: 94090.54, 5: 93789.14,
                 6: 94216.54, 8: 92914.27, 9: 93355.93}


@pytest.mark.parametrize("replicate", sorted(MULTI_MAXIMUM))
def test_full_fit_keeps_the_maximum_few_starts_reach(replicate):
    config = _scenario_config(2, 0.05, replicates=10, seed=11)
    data, _ = _draw_survey(config, stream(config.seed, replicate))
    result = fit(data, FitOptions(mode="full"))
    assert result.converged
    assert result.log_likelihood == pytest.approx(MULTI_MAXIMUM[replicate], abs=0.01)
    assert {"N_B", "p2B"} <= result.active_constraints


def fingerprint(outcome):
    """Every number of a fit outcome by its repr, which tells apart any two
    different floats (NaN included), or the error's type, text and starts."""
    if isinstance(outcome, Exception):
        starts = getattr(outcome, "diagnostics", ())
        return repr((type(outcome).__name__, str(outcome), starts))
    return repr((
        outcome.params.as_tuple(), outcome.log_likelihood, outcome.converged, outcome.iterations,
        sorted(outcome.active_constraints), outcome.n_hat_total, outcome.mode,
        outcome.size_ratio_gap, outcome.p2_identity_gap, outcome.per_start_diagnostics,
    ))


def fit_alone(data, options):
    try:
        return fit(data, options)
    except DualdepError as exc:
        return exc


stratum_counts = st.builds(
    CellCounts, st.integers(0, 400), st.integers(1, 6000), st.integers(0, 6000)
)


@settings(max_examples=15, deadline=None)
@given(
    tables=st.lists(st.builds(SurveyData, stratum_counts, stratum_counts), min_size=1, max_size=5),
    mode=st.sampled_from(["reduced", "full"]),
)
def test_fit_many_matches_fitting_each_table_alone(tables, mode):
    # batch size 1 against the whole batch: a table's fit, its per-start
    # diagnostics and its error do not depend on the other tables
    options = FitOptions(mode=mode)
    batch = fit_many(tables, options)
    assert len(batch) == len(tables)
    for data, outcome in zip(tables, batch):
        assert fingerprint(outcome) == fingerprint(fit_alone(data, options))


def test_fit_many_keeps_going_past_bad_tables(q1):
    bad = SurveyData(CellCounts(0, 10, 10), CellCounts(5, 5, 5))
    infeasible = SurveyData(CellCounts(5, 9000, 50), CellCounts(50, 100, 5000))
    first, overlap, box, last = fit_many([q1, bad, infeasible, q1])
    assert isinstance(overlap, FitError) and "x11 = 0" in str(overlap)
    assert isinstance(box, InfeasibleConstraintsError)
    assert fingerprint(first) == fingerprint(last) == fingerprint(fit(q1))
    assert fit_many([]) == []


# the quarters and three edge tables of tools/fit_digest.py: a maximum on the
# N_B and p2B bounds, small counts, and counts near 1e9 (no full-mode start
# converges there)
READOUT_TABLES = [make_survey(q) for q in QUARTER_COUNTS] + [
    SurveyData(CellCounts(*a), CellCounts(*b)) for a, b in (
        ((201, 4162, 4390), (406, 2574, 3265)),
        ((2, 3, 4), (1, 2, 3)),
        ((10_000_000, 800_000_000, 300_000_000), (50_000_000, 200_000_000, 300_000_000)),
    )]


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_every_start_reads_out_as_the_parameters_its_checks_give(mode):
    # the read-out skips ModelParams' checks for the starts: they would pass
    # and keep the same floats, for warm, 12-start and 15-start fits alike
    warm = fit(make_survey("Q1")).params
    outcomes = (fit_many(READOUT_TABLES, FitOptions(mode=mode), start=warm)
                + fit_many(READOUT_TABLES, FitOptions(mode=mode))
                + fit_many(READOUT_TABLES, FitOptions(mode=mode, n_starts=15)))
    seen = 0
    for outcome in outcomes:
        diagnostics = (outcome.diagnostics if isinstance(outcome, NonConvergenceError)
                       else outcome.per_start_diagnostics)
        for d in diagnostics:
            assert d.start == ModelParams(*d.start.as_tuple())
            assert all(type(value) is float for value in d.start.as_tuple())
        seen += len(diagnostics)
    assert seen == len(READOUT_TABLES) * (1 + 12 + 15)


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("row, value", [(0, math.inf), (1, math.nan), (2, math.nan),
                                        (5, -math.inf)])
def test_a_non_finite_winner_is_still_checked(q1, mode, row, value):
    options = FitOptions(mode=mode)
    _, ((_, setup, starts),), _ = mle._solver_inputs([q1], options)
    theta = starts.copy()
    theta[row, 0] = value
    n = starts.shape[1]
    solved = ([1.0] + [0.0] * (n - 1), [0.0] * n, [1] * n, ["converged"] * n)
    with pytest.raises(ValidationError):
        mle._read_out([None], [(0, setup, starts)], theta, solved, options)


def solver_derivatives(data, mode, u):
    """``mle._gradient`` and ``mle._hessian`` of ``data`` at the solver points
    that are the columns of ``u``."""
    k = u.shape[1]
    counts = np.repeat(np.array(model._counts(data))[:, None], k, axis=1)
    scale = np.repeat(np.array(mle._setup(data, mode)[2])[:, None], k, axis=1)
    _, sel, _ = mle._COORDINATES[mode]
    values, weights = model._values(mle._expand(u, scale, sel), counts)
    return mle._gradient(values, weights, scale, sel), mle._hessian(values, weights, scale, sel)


def reduced_interior_points(rng, data, k):
    """k random points (N_B, alpha, p1, p2B) inside the reduced box, as columns."""
    _, _, _, (nb_lo, _, _, _), (nb_hi, _, _, p2b_hi) = mle._setup(data, "reduced")
    return np.array([
        nb_lo + (nb_hi - nb_lo) * rng.uniform(0.1, 0.9, k), rng.uniform(0.02, 0.6, k),
        rng.uniform(0.05, 0.9, k), p2b_hi * rng.uniform(0.05, 0.9, k),
    ])


def reduced_log_likelihood(u, data):
    return log_likelihood(expand(ReducedParams(*u), data), data)


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "tiny"])
def test_reduced_solver_derivatives_match_central_differences(name, tiny):
    # the chain rule through N_A = ratio N_B and p2A = multiplier p2B: the
    # gradient against central differences of the reduced log-likelihood,
    # then the Hessian against central differences of that checked gradient
    # (second differences of a log-likelihood of order 1e5 lose too many
    # digits to cancellation)
    data = tiny if name == "tiny" else make_survey(name)
    u = reduced_interior_points(np.random.default_rng(17), data, 6)
    grad, hess = solver_derivatives(data, "reduced", u)
    steps = 1e-5 * np.abs(u)
    for i in range(4):
        up, down = u.copy(), u.copy()
        up[i] += steps[i]
        down[i] -= steps[i]
        numeric = np.array([
            reduced_log_likelihood(up[:, k], data) - reduced_log_likelihood(down[:, k], data)
            for k in range(u.shape[1])
        ]) / (2.0 * steps[i])
        assert np.max(np.abs(grad[i] - numeric) / (np.abs(grad[i]) + 1.0)) < 1e-5
        numeric = (solver_derivatives(data, "reduced", up)[0]
                   - solver_derivatives(data, "reduced", down)[0]) / (2.0 * steps[i])
        assert np.max(np.abs(hess[:, :, i] - numeric.T) / (np.abs(hess[:, :, i]) + 1.0)) < 1e-6
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "tiny"])
def test_full_solver_derivatives_are_the_model_derivatives(name, tiny):
    data = tiny if name == "tiny" else make_survey(name)
    rng = np.random.default_rng(23)
    points = [random_interior_params(rng, data) for _ in range(6)]
    grad, hess = solver_derivatives(data, "full", np.array([p.as_tuple() for p in points]).T)
    for k, params in enumerate(points):
        assert np.array_equal(grad[:, k], gradient(params, data))
        assert np.array_equal(hess[k], hessian(params, data))


def swap_params(params):
    n_a, n_b, alpha, p1, p2a, p2b = params.as_tuple()
    return ModelParams(n_b, n_a, alpha, p1, p2b, p2a)


SWAP_NAMES = {"N_A": "N_B", "N_B": "N_A", "p2A": "p2B", "p2B": "p2A"}


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_fit_is_stratum_swap_symmetric(mode):
    # exchanging the strata exchanges the fitted sizes and list-2 rates; the
    # solver maps N_A and p2A onto stratum B's coordinates, so it treats the
    # two strata differently and only the fitted point is symmetric
    config = study1_config(seed=5)
    tables = [make_survey(q) for q in ("Q1", "Q2", "Q3", "Q4")] + [
        _draw_survey(config, stream(config.seed, rep))[0] for rep in range(30)
    ]
    # the corner table's maximum sits on the N_B and p2B bounds
    tables.append(SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265)))
    options = FitOptions(mode=mode)
    fits = fit_many(tables, options)
    swapped = fit_many([data.swapped() for data in tables], options)
    for data, result, other in zip(tables, fits, swapped):
        assert result.converged and other.converged, data
        expected = swap_params(result.params).as_tuple()
        assert other.params.as_tuple() == pytest.approx(expected, rel=1e-9, abs=0.0), data
        assert other.active_constraints == {
            SWAP_NAMES.get(name, name) for name in result.active_constraints
        }, data


# The same examples on every run: a rare full-mode table is a GRID_MISS,
# which would otherwise fail the suite at random.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=drawn_tables(), mode=st.sampled_from(["reduced", "full"]))
def test_fit_is_stratum_swap_symmetric_on_random_tables(data, mode):
    # where the likelihood is nearly flat along a ridge the solver stops
    # anywhere on it within the gradient tolerance (the two orientations'
    # parameters can differ by 1e-2 relative), so the fits are compared
    # through the likelihood: equal maxima, each one's swapped point as high
    # on the other's table, and swapped active bounds
    result, other = fit_many([data, data.swapped()], FitOptions(mode=mode))
    assume(not isinstance(result, DualdepError) and not isinstance(other, DualdepError))
    assert other.log_likelihood == pytest.approx(result.log_likelihood, rel=0.0, abs=1e-6)
    assert log_likelihood(swap_params(other.params), data) == pytest.approx(
        result.log_likelihood, rel=0.0, abs=1e-6)
    assert other.active_constraints == {
        SWAP_NAMES.get(name, name) for name in result.active_constraints
    }


# In full mode the starting grid of this table reaches only a maximum 0.44
# below the one the grid of its stratum-swapped twin reaches (15 starts
# reach it too): the grid is built on stratum B's coordinates, so it is not
# swap-symmetric, and 12 starts do not always find the higher maximum.
GRID_MISS = SurveyData(CellCounts(65, 6719, 2069), CellCounts(49, 6671, 2151))


@pytest.mark.xfail(strict=True, reason="the starting grid is not swap-symmetric")
def test_full_fit_reaches_the_maximum_of_its_swapped_twin():
    result, other = fit_many([GRID_MISS, GRID_MISS.swapped()], FitOptions(mode="full"))
    assert result.log_likelihood == pytest.approx(other.log_likelihood, rel=0.0, abs=1e-6)
