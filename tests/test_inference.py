import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdep import _parallel, mle
from dualdep.exceptions import EvaluationError, InformationMatrixError, ValidationError
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
from dualdep.simulate import GeneratorConfig, _draw_survey
from dualdep.tables import CellCounts, SurveyData

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
    # one block in this process against three blocks of two over two workers
    data, result = q1_fit
    whole = bootstrap(data, result, n_replicates=6, seed=5, threads=1)
    monkeypatch.setattr(_parallel, "BLOCK_SIZE", 2)
    split = bootstrap(data, result, n_replicates=6, seed=5, threads=2)
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
    real = mle.fit_many
    calls = []

    def first_table_fails(surveys, options):
        calls.append(len(surveys))
        outcomes = real(surveys, options)
        outcomes[0] = EvaluationError("p11A", "probability 0.0 with count coefficient 3.0")
        return outcomes

    monkeypatch.setattr(mle, "fit_many", first_table_fails)
    monkeypatch.setattr(_parallel, "BLOCK_SIZE", 30)  # one block: replicate 0 comes first
    boot = bootstrap(data, result, n_replicates=30, seed=4)
    # replicate 0 fails every attempt and is counted with its reason; the
    # other 29 are untouched by its failures
    assert calls == [30] + [1] * 10
    assert boot.failures == ((0, "cannot evaluate log-likelihood term 'p11A': "
                                 "probability 0.0 with count coefficient 3.0"),)
    monkeypatch.setattr(mle, "fit_many", real)
    clean = bootstrap(data, result, n_replicates=30, seed=4)
    for name in boot.estimates:
        assert np.array_equal(boot.estimates[name], clean.estimates[name][1:])


def test_bootstrap_propagates_programming_errors(q1_fit, monkeypatch):
    data, result = q1_fit

    def broken(surveys, options):
        raise TypeError("bug in the fitting code")

    monkeypatch.setattr(mle, "fit_many", broken)
    with pytest.raises(TypeError, match="bug in the fitting code"):
        bootstrap(data, result, n_replicates=3, seed=4)


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
