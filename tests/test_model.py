import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdep import model
from dualdep.exceptions import EvaluationError, ValidationError
from dualdep.model import (
    ModelParams,
    ReducedParams,
    cell_probabilities,
    expand,
    gradient,
    hessian,
    log_likelihood,
    marginals_and_covariance,
    p2a_ratio,
    size_ratio,
)
from dualdep.tables import CellCounts, SurveyData

from oracles import fd_gradient, fd_hessian, random_interior_params, random_survey

TINY_THETA = ModelParams(n_a=20, n_b=10, alpha=0.1, p1=0.3, p2a=0.2, p2b=0.4)
# frozen from an exact rational term-by-term evaluation of the Stirling form
TINY_LL = -0.8990737367813540


def test_cells_independence():
    cells = cell_probabilities(0.0, 0.3, 0.2)
    assert cells.as_tuple() == pytest.approx((0.06, 0.24, 0.14, 0.56), abs=1e-15)


def test_cells_full_dependence():
    cells = cell_probabilities(1.0, 0.3, 0.77)
    assert cells.as_tuple() == pytest.approx((0.0, 0.3, 0.7, 0.0), abs=1e-15)


def test_cells_reference_point():
    cells = cell_probabilities(0.05, 0.15, 0.05)
    assert cells.as_tuple() == pytest.approx(
        (0.007125, 0.142875, 0.082875, 0.767125), abs=1e-15
    )


def test_cells_domain_error():
    with pytest.raises(ValidationError):
        cell_probabilities(-0.1, 0.3, 0.2)
    with pytest.raises(ValidationError):
        cell_probabilities(0.1, 1.3, 0.2)


def test_cells_normalization():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        cells = cell_probabilities(*rng.random(3))
        assert abs(sum(cells.as_tuple()) - 1.0) <= 1e-12


def test_negative_dependence_sign():
    rng = np.random.default_rng(7)
    for _ in range(500):
        alpha, p1, p2 = rng.random(3)
        cells = cell_probabilities(alpha, p1, p2)
        assert cells.p11 <= p1 * p2 + 1e-15
        _, _, cov = marginals_and_covariance(alpha, p1, p2)
        assert cov <= 1e-15
    # equality cases
    assert cell_probabilities(0.0, 0.4, 0.6).p11 == pytest.approx(0.24, abs=1e-15)
    for p1 in (0.0, 1.0):
        _, _, cov = marginals_and_covariance(0.3, p1, 0.5)
        assert cov == pytest.approx(0.0, abs=1e-15)


def test_marginals_reference_values():
    assert marginals_and_covariance(0.0, 0.3, 0.2) == pytest.approx((0.3, 0.2, 0.0), abs=1e-15)
    p_y, p_z, cov = marginals_and_covariance(1.0, 0.3, 0.2)
    assert (p_y, p_z, cov) == pytest.approx((0.3, 0.7, -0.21), abs=1e-15)
    _, _, cov = marginals_and_covariance(0.05, 0.15, 0.05)
    assert cov == pytest.approx(-0.05 * 0.15 * 0.85, abs=1e-15)


def test_expand_reference_values(q1):
    params = expand(ReducedParams(n_b=18916, alpha=0.069, p1=0.1651, p2b=0.1837), q1)
    assert params.n_a == pytest.approx((9000 / 3118) * 18916, rel=1e-14)
    assert params.p2a == pytest.approx((100 / 534) * (3118 / 9000) * 0.1837, rel=1e-14)
    assert round(params.p2a, 4) == 0.0119


def test_expand_symmetric_data():
    counts = CellCounts(50, 100, 80)
    data = SurveyData(counts, counts)
    params = expand(ReducedParams(n_b=400, alpha=0.1, p1=0.3, p2b=0.4), data)
    assert params.n_a == params.n_b
    assert params.p2a == params.p2b


def test_expand_zero_x11a_gives_zero_p2a():
    data = SurveyData(CellCounts(0, 150, 80), CellCounts(40, 60, 30))
    params = expand(ReducedParams(n_b=300, alpha=0.1, p1=0.3, p2b=0.8), data)
    assert params.p2a == 0.0


def test_expand_zero_x11b_errors():
    data = SurveyData(CellCounts(40, 60, 30), CellCounts(0, 150, 80))
    with pytest.raises(ValidationError, match="x11B = 0"):
        p2a_ratio(data)
    with pytest.raises(ValidationError):
        expand(ReducedParams(n_b=300, alpha=0.1, p1=0.3, p2b=0.8), data)


def test_expand_restriction_roundtrip(q1):
    reduced = ReducedParams(n_b=12000.5, alpha=0.07, p1=0.17, p2b=0.18)
    params = expand(reduced, q1)
    assert (params.n_b, params.alpha, params.p1, params.p2b) == (
        reduced.n_b, reduced.alpha, reduced.p1, reduced.p2b,
    )
    again = expand(ReducedParams(params.n_b, params.alpha, params.p1, params.p2b), q1)
    assert again == params


def test_expand_clamps_p2a():
    data = SurveyData(CellCounts(90, 10, 5), CellCounts(10, 500, 5))
    assert p2a_ratio(data) > 1.0
    params = expand(ReducedParams(n_b=600, alpha=0.05, p1=0.3, p2b=0.9), data)
    assert params.p2a == 1.0


def test_log_likelihood_frozen_value(tiny):
    assert log_likelihood(TINY_THETA, tiny) == pytest.approx(TINY_LL, abs=1e-13)


def test_log_likelihood_diverges_as_alpha_to_one(tiny):
    values = [
        log_likelihood(ModelParams(20, 10, a, 0.3, 0.2, 0.4), tiny)
        for a in (0.9, 0.99, 0.999999, 1 - 1e-12)
    ]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < -80.0
    with pytest.raises(EvaluationError, match="p11"):
        log_likelihood(ModelParams(20, 10, 1.0, 0.3, 0.2, 0.4), tiny)


def test_log_likelihood_swap_invariance(tiny):
    swapped_params = ModelParams(
        n_a=TINY_THETA.n_b, n_b=TINY_THETA.n_a, alpha=TINY_THETA.alpha,
        p1=TINY_THETA.p1, p2a=TINY_THETA.p2b, p2b=TINY_THETA.p2a,
    )
    assert log_likelihood(TINY_THETA, tiny) == pytest.approx(
        log_likelihood(swapped_params, tiny.swapped()), rel=1e-14
    )


def test_log_likelihood_error_names_term(tiny):
    with pytest.raises(EvaluationError, match="N_A - x0A"):
        log_likelihood(ModelParams(5, 10, 0.1, 0.3, 0.2, 0.4), tiny)
    with pytest.raises(EvaluationError, match="p11A"):
        log_likelihood(ModelParams(20, 10, 0.1, 0.3, 0.0, 0.4), tiny)


def test_log_likelihood_evaluable_at_observed_floor(tiny):
    # N_s = x0s is inside the constraint box; the 0 log 0 terms drop out
    value = log_likelihood(ModelParams(9, 6, 0.1, 0.3, 0.2, 0.4), tiny)
    assert math.isfinite(value)


def test_gradient_matches_finite_differences(tiny):
    rng = np.random.default_rng(99)
    datasets = [tiny] + [random_survey(rng) for _ in range(4)]
    for data in datasets:
        for _ in range(10):
            params = random_interior_params(rng, data)
            analytic = gradient(params, data)
            numeric = fd_gradient(params, data)
            scale = np.abs(analytic) + 1.0
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


def test_gradient_exact_p1_component_at_boundary():
    # with x01 = 0 everywhere and N at the observed floor, every (1 - p1)
    # term carries a zero coefficient, leaving the closed form S / p1
    data = SurveyData(CellCounts(3, 4, 0), CellCounts(2, 5, 0))
    params = ModelParams(n_a=7, n_b=7, alpha=0.2, p1=0.4, p2a=0.3, p2b=0.35)
    grad = gradient(params, data)
    assert grad[3] == (3 + 2 + 4 + 5) / 0.4
    assert math.isinf(grad[0]) and math.isinf(grad[1])


def test_gradient_raises_like_log_likelihood(tiny):
    with pytest.raises(EvaluationError, match="p11"):
        gradient(ModelParams(20, 10, 1.0, 0.3, 0.2, 0.4), tiny)


def test_hessian_matches_finite_differenced_gradient(tiny):
    rng = np.random.default_rng(123)
    datasets = [tiny] + [random_survey(rng) for _ in range(4)]
    for data in datasets:
        for _ in range(5):
            params = random_interior_params(rng, data)
            analytic = hessian(params, data)
            numeric = fd_hessian(params, data)
            assert np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1.0)) < 1e-5


def test_hessian_exactly_symmetric(tiny):
    rng = np.random.default_rng(321)
    for _ in range(20):
        params = random_interior_params(rng, tiny)
        h = hessian(params, tiny)
        assert np.array_equal(h, h.T)


def test_hessian_sizes_never_interact(tiny):
    # no cell couples the two sizes, alpha and p1, p1 and a p2, the two p2s,
    # or a size and the other stratum's p2: those entries are exactly zero,
    # in the interior and at evaluable boundaries (alpha = 0, N = x0)
    uncoupled = [(0, 1), (2, 3), (3, 4), (3, 5), (4, 5), (0, 5), (1, 4)]
    rng = np.random.default_rng(8)
    datasets = [tiny] + [random_survey(rng) for _ in range(4)]
    for data in datasets:
        points = [random_interior_params(rng, data) for _ in range(20)]
        x0a, x0b = data.stratum_a.total, data.stratum_b.total
        points += [ModelParams(x0a, 2 * x0b, 0.0, 0.3, 0.2, 0.4),
                   ModelParams(2 * x0a, x0b, 0.1, 0.3, 0.2, 0.4)]
        for params in points:
            h = hessian(params, data)
            for i, j in uncoupled:
                assert h[i, j] == 0.0 and h[j, i] == 0.0


def test_hessian_size_diagonal_closed_form(tiny):
    x0a = tiny.stratum_a.total
    params = ModelParams(2 * x0a, 14, 0.1, 0.3, 0.2, 0.4)
    h = hessian(params, tiny)
    assert h[0, 0] == pytest.approx(-1.0 / (2 * x0a), rel=1e-14)


def test_model_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(0.0, 10, 0.1, 0.3, 0.2, 0.4)
    with pytest.raises(ValidationError):
        ModelParams(10, 10, 1.2, 0.3, 0.2, 0.4)
    params = ModelParams(10, 10, 0.1, 0.3, 0.2, 0.4)
    assert ModelParams.from_array(params.as_array()) == params
    assert params.total == 20.0


def test_size_ratio(q1):
    assert size_ratio(q1) == 9000 / 3118


probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
column = st.tuples(
    st.lists(st.integers(0, 10**6), min_size=6, max_size=6),
    st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.sampled_from([None, "A", "B"]),
    probability, probability, probability, probability,
)


def kernel_arguments(columns):
    """theta (6, K) and counts (8, K) of the drawn columns; a size is the
    observed total times its factor, or exactly the total when the column
    says so."""
    theta, counts = [], []
    for cells, fa, fb, at_total, *probs in columns:
        x0a, x0b = sum(cells[:3]) + 1, sum(cells[3:]) + 1
        counts.append([cells[0], cells[1], cells[2] + 1, x0a, cells[3], cells[4], cells[5] + 1, x0b])
        theta.append([x0a * (1.0 if at_total == "A" else fa), x0b * (1.0 if at_total == "B" else fb),
                      *probs])
    return np.array(theta, dtype=float).T.copy(), np.array(counts, dtype=float).T.copy()


@settings(max_examples=60, deadline=None)
@given(columns=st.lists(column, min_size=2, max_size=12))
def test_kernels_give_a_column_the_same_bits_alone_as_in_a_batch(columns):
    # a column's log-likelihood, gradient and Hessian entries do not depend
    # on the other columns of the batch, wherever it is (boundaries and
    # non-evaluable points included)
    theta, counts = kernel_arguments(columns)
    kernels = (lambda table, counts: model._ll(*table, counts),
               lambda table, _: model._grad(*table), lambda table, _: model._hess(*table))
    for kernel in kernels:
        batch = kernel(model._values(theta, counts), counts)
        for k in range(theta.shape[1]):
            alone_counts = counts[:, k:k + 1].copy()
            alone = kernel(model._values(theta[:, k:k + 1].copy(), alone_counts), alone_counts)
            assert alone.tobytes() == batch[..., k:k + 1].copy().tobytes()
