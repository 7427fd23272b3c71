import math

import numpy as np
import pytest

from dualdep.exceptions import ValidationError
from dualdep.tables import (
    CellCounts,
    SurveyData,
    c_hat,
    diagnostics,
    lp_bias_approx,
    load_survey,
    naive_estimate,
    naive_pooled,
    read_survey_csv,
    read_survey_json,
    validate,
)


def test_validate_reference_counts_no_flags():
    data = validate(
        [
            {"label": "Small & medium", "x11": 100, "x10": 8900, "x01": 3641},
            {"label": "Large", "x11": 534, "x10": 2584, "x01": 3780},
        ]
    )
    assert data.flags == ()
    assert data.stratum_a.total == 12641
    assert data.stratum_b.total == 6898
    assert data.label_a == "Small & medium"


def test_validate_flags_zero_x11_without_rejecting():
    data = validate(
        [
            {"x11": 0, "x10": 10, "x01": 10},
            {"x11": 5, "x10": 5, "x01": 5},
        ]
    )
    assert data.flags == ("x11A = 0",)


def test_validate_negative_count_names_field():
    with pytest.raises(ValidationError, match="negative count x11"):
        validate([{"x11": -1, "x10": 10, "x01": 10}, {"x11": 5, "x10": 5, "x01": 5}])


def test_validate_requires_exactly_two_strata():
    rows = [{"x11": 1, "x10": 1, "x01": 1}]
    with pytest.raises(ValidationError, match="exactly two strata"):
        validate(rows)
    with pytest.raises(ValidationError, match="exactly two strata"):
        validate(rows * 3)


def test_validate_zero_total_and_missing_field():
    with pytest.raises(ValidationError, match="zero observed total"):
        validate([{"x11": 0, "x10": 0, "x01": 0}, {"x11": 1, "x10": 1, "x01": 1}])
    with pytest.raises(ValidationError, match="missing field x01"):
        validate([{"x11": 1, "x10": 1}, {"x11": 1, "x10": 1, "x01": 1}])
    for bad in (1.5, True):
        with pytest.raises(ValidationError, match="field x11 is not an integer"):
            validate([{"x11": bad, "x10": 1, "x01": 1}, {"x11": 1, "x10": 1, "x01": 1}])


def test_cell_counts_invariants():
    with pytest.raises(ValidationError):
        CellCounts(-1, 0, 2)
    with pytest.raises(ValidationError):
        CellCounts(0, 0, 0)
    counts = CellCounts(2, 3, 4)
    assert (counts.total, counts.n_list1, counts.n_list2) == (9, 5, 6)
    assert (counts + counts).total == 18


def test_survey_requires_list1_units():
    with pytest.raises(ValidationError, match="x11 \\+ x10"):
        SurveyData(CellCounts(0, 0, 5), CellCounts(1, 1, 1))


def test_c_hat_reference_values(q1):
    assert round(c_hat(q1.stratum_a), 4) == 0.0111
    assert round(c_hat(q1.stratum_b), 4) == 0.1713


def test_c_hat_all_recaptured():
    assert c_hat(CellCounts(7, 0, 3)) == 1.0


def test_c_hat_zero_denominator():
    counts = CellCounts.__new__(CellCounts)  # bypass SurveyData guard
    object.__setattr__(counts, "x11", 0)
    object.__setattr__(counts, "x10", 0)
    object.__setattr__(counts, "x01", 3)
    with pytest.raises(ValidationError, match="c_hat undefined"):
        c_hat(counts)


def test_c_hat_ignores_x01():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x11, x10 = int(rng.integers(1, 50)), int(rng.integers(0, 50))
        values = {c_hat(CellCounts(x11, x10, int(rng.integers(0, 50)) + 1)) for _ in range(4)}
        assert len(values) == 1


def test_naive_reference_values(q1):
    assert naive_estimate(q1.stratum_a) == 336690.0
    assert round(naive_estimate(q1.stratum_b)) == 25189
    assert round(naive_pooled(q1)) == 153960
    assert naive_estimate(CellCounts(10, 10, 10)) == 40.0


def test_naive_undefined_when_no_overlap():
    with pytest.raises(ValidationError, match="naive estimator undefined"):
        naive_estimate(CellCounts(0, 5, 5))


def test_naive_scale_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = CellCounts(int(rng.integers(1, 30)), int(rng.integers(0, 30)), int(rng.integers(0, 30)))
        for k in (2, 3, 7):
            scaled = CellCounts(k * counts.x11, k * counts.x10, k * counts.x01)
            assert math.isclose(naive_estimate(scaled), k * naive_estimate(counts), rel_tol=1e-12)


def test_naive_at_least_observed_total():
    rng = np.random.default_rng(12)
    for _ in range(200):
        counts = CellCounts(int(rng.integers(1, 40)), int(rng.integers(0, 40)), int(rng.integers(0, 40)))
        assert naive_estimate(counts) >= counts.total


def test_lp_bias_unit_phi():
    # phi = 1 kills the leading term; remainder is (0.5 * 0.8) / (0.5 * 0.2)
    assert lp_bias_approx(1000, 0.5, 0.2, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_lp_bias_vanishes_when_list1_saturates():
    assert abs(lp_bias_approx(1e9, 1 - 1e-12, 0.3, 0.7)) < 1e-2


def test_lp_bias_reference_evaluation():
    # frozen from an exact rational term-by-term evaluation: 9303470/17
    assert lp_bias_approx(70000, 0.17, 0.02, 0.1) == pytest.approx(547262.9411764706, rel=1e-12)


def test_lp_bias_domain_errors():
    for bad in ({"p1dot": 0.0}, {"p1dot": 1.0}, {"p": 0.0}, {"p": 1.0}, {"phi": 0.0}, {"phi": -1.0}):
        kwargs = {"n": 100.0, "p1dot": 0.5, "p": 0.2, "phi": 0.5, **bad}
        with pytest.raises(ValidationError):
            lp_bias_approx(**kwargs)


def test_diagnostics_default_p_hat_collapses_to_c_hat(q1):
    diag = diagnostics(q1)
    for c, p in zip(diag.c_hat, diag.p_hat):
        assert p == pytest.approx(c, rel=1e-12)
    assert round(diag.naive_pooled) == 153960


def test_diagnostics_external_sizes(q1):
    diag = diagnostics(q1, external_sizes=(47000.0, 7300.0))
    # p_hat = x01 / (N - n1.)
    assert diag.p_hat[0] == pytest.approx(3641 / (47000 - 9000), rel=1e-12)
    assert diag.p_hat[1] == pytest.approx(3780 / (7300 - 3118), rel=1e-12)
    assert diag.c_hat[0] < diag.p_hat[0]  # negative dependence signature


def test_diagnostics_undefined_stratum():
    data = validate([{"x11": 0, "x10": 10, "x01": 10}, {"x11": 5, "x10": 5, "x01": 5}])
    diag = diagnostics(data)
    assert math.isnan(diag.naive_per_stratum[0])
    assert math.isnan(diag.p_hat[0])
    assert diag.c_hat[0] == 0.0
    assert diag.flags == ("x11A = 0",)


CSV_TEXT = "stratum,x11,x10,x01\nSmall & medium,100,8900,3641\nLarge,534,2584,3780\n"


def test_read_csv(tmp_path):
    path = tmp_path / "q1.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    data = read_survey_csv(path)
    assert data.stratum_a.x11 == 100
    assert data.label_b == "Large"


def test_read_csv_header_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bad.csv:1"):
        read_survey_csv(path)


def test_read_csv_bad_count_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stratum,x11,x10,x01\nA,1,2,3\nB,x,2,3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bad.csv:3.*x11"):
        read_survey_csv(path)


def test_read_json(tmp_path):
    path = tmp_path / "q1.json"
    path.write_text(
        '{"strata": [{"label": "A", "x11": 100, "x10": 8900, "x01": 3641},'
        ' {"label": "B", "x11": 534, "x10": 2584, "x01": 3780}]}',
        encoding="utf-8",
    )
    data = read_survey_json(path)
    assert data.stratum_b.x01 == 3780


def test_read_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        read_survey_json(path)
    path.write_text('{"rows": []}', encoding="utf-8")
    with pytest.raises(ValidationError, match="'strata'"):
        read_survey_json(path)


def test_load_survey_autodetect(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(CSV_TEXT, encoding="utf-8")
    assert load_survey(csv_path).stratum_a.x11 == 100
    odd = tmp_path / "data.dat"
    odd.write_text(CSV_TEXT, encoding="utf-8")
    with pytest.raises(ValidationError, match="format"):
        load_survey(odd)
    assert load_survey(odd, fmt="csv").stratum_a.x11 == 100
