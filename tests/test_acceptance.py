"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them). Reference values are the benchmark tables this estimator is
expected to reproduce: quarterly dual-list fits and two simulation
studies."""

import math
import time

import numpy as np
import pytest

from dualdep._parallel import stream
from dualdep.inference import bootstrap, confidence_interval, se_from_hessian
from dualdep.mle import FitOptions, fit
from dualdep.model import cell_probabilities
from dualdep.simulate import (
    GeneratorConfig,
    draw_counts,
    run_coverage,
    run_study1,
    run_study2,
    study1_config,
    _draw_survey,
)
from dualdep.tables import c_hat, naive_estimate, naive_pooled

from conftest import QUARTER_COUNTS, make_survey, survey_of
from oracles import (
    exact_conditional_naive_mean,
    fd_gradient,
    fd_hessian,
    random_interior_params,
    random_survey,
)

# Published per-quarter reference values: naive diagnostics...
REF_C_HAT = {
    "Q1": (0.0111, 0.1713),
    "Q2": (0.0148, 0.1771),
    "Q3": (0.0129, 0.1720),
    "Q4": (0.0186, 0.1655),
}
REF_NAIVE = {
    "Q1": (336690, 25189, 153960),
    "Q2": (247647, 23664, 132548),
    "Q3": (250189, 23591, 127224),
    "Q4": (154694, 21180, 99694),
}
# ... and fitted-model results (bootstrap means, SEs, parameters, CI of the total).
REF_FIT = {
    "Q1": {"N_A": 54620, "N_B": 18916, "N_total": 73536, "se_total": 3358,
           "alpha": 0.0690, "p1": 0.1651, "p2A": 0.0119, "p2B": 0.1837,
           "ci_total": (66866, 80206)},
    "Q2": {"N_A": 46004, "N_B": 17360, "N_total": 63364, "se_total": 2893,
           "alpha": 0.0806, "p1": 0.1895, "p2A": 0.0161, "p2B": 0.1923,
           "ci_total": (57621, 69107)},
    "Q3": {"N_A": 45971, "N_B": 17753, "N_total": 63724, "se_total": 2969,
           "alpha": 0.0702, "p1": 0.1810, "p2A": 0.0138, "p2B": 0.1847,
           "ci_total": (57825, 69623)},
    "Q4": {"N_A": 33967, "N_B": 15181, "N_total": 49147, "se_total": 3278,
           "alpha": 0.0757, "p1": 0.1212, "p2A": 0.0200, "p2B": 0.1790,
           "ci_total": (42636, 55658)},
}
# Reference simulation-study summaries (500 replicates).
REF_STUDY1 = {
    "naive_N_A": (95259, 47.5113, 4.8531),
    "naive_N_B": (26033, 23.1732, 4.2945),
    "prop_N_A": (50298, 0.5920, 8.0528),
    "prop_N_B": (20096, 0.4791, 7.3090),
    "prop_alpha": (0.0504, 0.6958, 20.4676),
}


def _report(criterion: str, checks: list[tuple[str, bool]], extra: str = "") -> None:
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"\nACCEPTANCE {criterion}: {status} {extra}")
    assert not failed, f"criterion {criterion}: {failed}"


def test_criterion_1_diagnostics_exact():
    t0 = time.time()
    checks = []
    for quarter in QUARTER_COUNTS:
        data = make_survey(quarter)
        got_c = (round(c_hat(data.stratum_a), 4), round(c_hat(data.stratum_b), 4))
        checks.append((f"{quarter} c_hat", got_c == REF_C_HAT[quarter]))
        ref_a, ref_b, ref_pool = REF_NAIVE[quarter]
        checks.append((f"{quarter} naive A", abs(naive_estimate(data.stratum_a) - ref_a) <= 1.0))
        checks.append((f"{quarter} naive B", abs(naive_estimate(data.stratum_b) - ref_b) <= 1.0))
        checks.append((f"{quarter} naive pooled", abs(naive_pooled(data) - ref_pool) <= 1.0))
    _report("1 diagnostics", checks, f"[{time.time() - t0:.3f}s]")


@pytest.mark.parametrize("quarter", list(QUARTER_COUNTS))
def test_criterion_2_real_data_fit_and_bootstrap(quarter):
    t0 = time.time()
    data = make_survey(quarter)
    ref = REF_FIT[quarter]
    result = fit(data)
    boot = bootstrap(data, result, n_replicates=500, seed=20180331)
    x0_total = data.pooled().total
    ci = confidence_interval(
        boot.mean["N_total"], x0_total, boot.se["N_total"] ** 2, level=0.95
    )
    checks = [
        ("converged", result.converged),
        ("total within 5%", abs(boot.mean["N_total"] - ref["N_total"]) <= 0.05 * ref["N_total"]),
        ("N_A within 5%", abs(boot.mean["N_A"] - ref["N_A"]) <= 0.05 * ref["N_A"]),
        ("N_B within 5%", abs(boot.mean["N_B"] - ref["N_B"]) <= 0.05 * ref["N_B"]),
        ("SE total within 25%", abs(boot.se["N_total"] - ref["se_total"]) <= 0.25 * ref["se_total"]),
        ("alpha within 0.010", abs(result.params.alpha - ref["alpha"]) <= 0.010),
        ("p1 within 0.010", abs(result.params.p1 - ref["p1"]) <= 0.010),
        ("p2A within 0.005", abs(result.params.p2a - ref["p2A"]) <= 0.005),
        ("p2B within 0.015", abs(result.params.p2b - ref["p2B"]) <= 0.015),
        ("CI lower within 5%", abs(ci[0] - ref["ci_total"][0]) <= 0.05 * ref["ci_total"][0]),
        ("CI upper within 5%", abs(ci[1] - ref["ci_total"][1]) <= 0.05 * ref["ci_total"][1]),
        ("no failed replicates", boot.n_failed == 0),
    ]
    elapsed = time.time() - t0
    extra = (
        f"[total={boot.mean['N_total']:.0f} se={boot.se['N_total']:.0f} "
        f"alpha={result.params.alpha:.4f} ci=({ci[0]:.0f},{ci[1]:.0f}) {elapsed:.1f}s]"
    )
    _report(f"2 real-data {quarter}", checks, extra)


@pytest.fixture(scope="module")
def study1_result():
    return run_study1(study1_config(replicates=500, seed=1))


def test_criterion_3_simulation_study1(study1_result):
    t0 = time.time()
    result = study1_result
    by_name = {f"naive_{s.quantity}": s for s in result.naive}
    by_name.update({f"prop_{s.quantity}": s for s in result.proposed})
    checks = []
    for key, (mean_ref, rb_ref, cv_ref) in REF_STUDY1.items():
        s = by_name[key]
        if key.startswith("naive"):
            checks.append((f"{key} mean 2%", abs(s.mean - mean_ref) <= 0.02 * mean_ref))
            checks.append((f"{key} rel.bias 2pp", abs(s.relative_bias_pct - rb_ref) <= 2.0))
        elif key == "prop_alpha":
            checks.append((f"{key} mean 0.005", abs(s.mean - mean_ref) <= 0.005))
            checks.append((f"{key} cv 2pp", abs(s.cv_pct - cv_ref) <= 2.0))
        else:
            checks.append((f"{key} rel.bias 1.5pp", abs(s.relative_bias_pct - rb_ref) <= 1.5))
            checks.append((f"{key} cv 2pp", abs(s.cv_pct - cv_ref) <= 2.0))
    checks.append(("no fit failures", result.fit_failures == 0))
    extra = (
        f"[naive E(N_A)={by_name['naive_N_A'].mean:.0f} "
        f"prop rb(N_A)={by_name['prop_N_A'].relative_bias_pct:.3f}% "
        f"cv(alpha)={by_name['prop_alpha'].cv_pct:.2f}% {time.time() - t0:.1f}s]"
    )
    _report("3 study-1", checks, extra)


def test_criterion_4_interval_coverage():
    t0 = time.time()
    result = run_coverage(study1_config(replicates=500, seed=2))
    checks = []
    for row in result.rows:
        checks.append(
            (f"{row.quantity} {row.method} in [0.93, 0.98]", 0.93 <= row.coverage <= 0.98)
        )
    checks.append(("few failures", result.failures <= 25))
    cov = {(r.quantity, r.method): r.coverage for r in result.rows}
    extra = f"[{cov} {time.time() - t0:.1f}s]"
    _report("4 coverage", checks, extra)


def test_criterion_5_simulation_study2_pattern():
    t0 = time.time()
    result = run_study2(scenario=1, grid=(0.01, 0.15, 0.35), replicates=500, seed=3)
    center = result.row(0.15, "proposed", "N_total")
    low = result.row(0.01, "proposed", "N_total")
    high = result.row(0.35, "proposed", "N_total")
    checks = [
        ("bias at 0.15 below 2%", abs(center.bias) / center.truth < 0.02),
        ("bias grows toward 0.01", abs(low.bias) > abs(center.bias)),
        ("bias grows toward 0.35", abs(high.bias) > abs(center.bias)),
    ]
    for value in (0.01, 0.15, 0.35):
        prop = result.row(value, "proposed", "N_total")
        naive = result.row(value, "naive", "N_total")
        checks.append(
            (f"proposed |bias| <= naive |bias| at {value}", abs(prop.bias) <= abs(naive.bias))
        )
    extra = (
        f"[rel.bias%: 0.01={low.relative_bias_pct:.1f} 0.15={center.relative_bias_pct:.2f} "
        f"0.35={high.relative_bias_pct:.1f} fallbacks={result.reduced_fallbacks} "
        f"{time.time() - t0:.1f}s]"
    )
    _report("5 study-2", checks, extra)


def test_criterion_6_property_suites(tiny):
    t0 = time.time()
    checks = []

    # cell-probability normalization over 10,000 random parameter triples
    rng = np.random.default_rng(60)
    worst = max(
        abs(sum(cell_probabilities(*rng.random(3)).as_tuple()) - 1.0) for _ in range(10_000)
    )
    checks.append(("normalization <= 1e-12", worst <= 1e-12))

    # analytic derivatives vs finite differences at 100 interior points
    # spread over 10 random small datasets, plus exact Hessian symmetry
    rng = np.random.default_rng(61)
    grad_worst = hess_worst = 0.0
    symmetric = True
    from dualdep.model import gradient, hessian

    for _ in range(10):
        data = random_survey(rng)
        for _ in range(10):
            params = random_interior_params(rng, data)
            g = gradient(params, data)
            grad_worst = max(
                grad_worst,
                float(np.max(np.abs(g - fd_gradient(params, data)) / (np.abs(g) + 1.0))),
            )
            h = hessian(params, data)
            symmetric = symmetric and bool(np.array_equal(h, h.T))
            hess_worst = max(
                hess_worst,
                float(np.max(np.abs(h - fd_hessian(params, data)) / (np.abs(h) + 1.0))),
            )
    checks.append(("gradient FD < 1e-6", grad_worst < 1e-6))
    checks.append(("hessian FD < 1e-5", hess_worst < 1e-5))
    checks.append(("hessian exactly symmetric", symmetric))

    # constraint box respected on 100 random simulated datasets
    config = GeneratorConfig(
        n_a=5000, n_b=2000, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.06, p2_b=0.15, replicates=1, seed=62,
    )
    box_ok = True
    for index in range(100):
        survey = survey_of(_draw_survey(config, stream(62, index))[0])
        params = fit(survey).params
        for counts, n in ((survey.stratum_a, params.n_a), (survey.stratum_b, params.n_b)):
            box_ok = box_ok and counts.total <= n <= naive_estimate(counts)
        box_ok = box_ok and all(
            0.0 <= v <= 1.0 for v in (params.alpha, params.p1, params.p2a, params.p2b)
        )
    checks.append(("fits satisfy the constraint box", box_ok))

    # determinism: repeated fits bit-identical; bootstrap and study summaries
    # invariant to the thread count under a fixed seed
    data = make_survey("Q1")
    fit_a, fit_b = fit(data), fit(data)
    checks.append(("fit deterministic", fit_a.params == fit_b.params))
    boot1 = bootstrap(data, fit_a, n_replicates=6, seed=63, threads=1)
    boot3 = bootstrap(data, fit_a, n_replicates=6, seed=63, threads=3)
    checks.append(
        ("bootstrap thread-invariant",
         all(np.array_equal(boot1.estimates[k], boot3.estimates[k]) for k in boot1.estimates)),
    )
    sim_cfg = GeneratorConfig(
        n_a=3000, n_b=1200, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.08, p2_b=0.18, replicates=10, seed=64,
    )
    sim1 = run_study1(sim_cfg, threads=1)
    sim3 = run_study1(sim_cfg, threads=3)
    checks.append(("simulation thread-invariant", sim1.proposed == sim3.proposed))

    # brute-force multinomial oracle for a tiny population
    n, alpha, p1, p2 = 14, 0.1, 0.4, 0.3
    probs = cell_probabilities(alpha, p1, p2).as_tuple()
    exact = exact_conditional_naive_mean(n, probs)
    draws = []
    rng_mc = stream(65, 0)
    while len(draws) < 30_000:
        counts, _ = draw_counts(n, alpha, p1, p2, "negative", rng_mc)
        if counts.x11 >= 1:
            draws.append((counts.x11 + counts.x10) * (counts.x11 + counts.x01) / counts.x11)
    draws = np.array(draws)
    mc_gap = abs(draws.mean() - exact)
    mc_tol = 4 * draws.std() / math.sqrt(draws.size)
    checks.append(("brute-force oracle agreement", mc_gap < mc_tol))

    extra = (
        f"[grad={grad_worst:.2e} hess={hess_worst:.2e} "
        f"oracle gap={mc_gap:.3f} (tol {mc_tol:.3f}) {time.time() - t0:.1f}s]"
    )
    _report("6 properties", checks, extra)
