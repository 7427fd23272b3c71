import contextlib
import copy
import csv
import io
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dualdep.cli import _parse_grid, main
from dualdep.exceptions import ValidationError

Q1_CSV = "stratum,x11,x10,x01\nSmall & medium,100,8900,3641\nLarge,534,2584,3780\n"


@pytest.fixture
def q1_csv(tmp_path):
    path = tmp_path / "q1.csv"
    path.write_text(Q1_CSV, encoding="utf-8")
    return path


def read_report(stem):
    return json.loads(stem.with_name(stem.name + ".report.json").read_text(encoding="utf-8"))


def test_diagnose_text_and_files(q1_csv, capsys):
    assert main(["diagnose", "--input", str(q1_csv)]) == 0
    out = capsys.readouterr().out
    assert "0.0111" in out and "0.1713" in out
    assert "336,690" in out and "25,189" in out and "153,960" in out
    report = read_report(q1_csv.with_suffix(""))
    strata = report["results"]["strata"]
    assert strata[0]["naive"] == 336690.0
    assert round(strata[1]["c_hat"], 4) == 0.1713
    assert report["results"]["flags"] == []
    assert report["manifest"]["output_digest"].startswith("sha256:")
    csv_path = q1_csv.with_suffix("").with_name("q1.summary.csv")
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stratum", "c_hat", "p_hat", "naive"]
    assert len(rows) == 4  # header, two strata, pooled


@pytest.mark.parametrize("literal, shown", [("Infinity", "inf"), ("-Infinity", "-inf"),
                                             ("NaN", "nan")])
def test_diagnose_non_finite_json_count_is_usage_error(tmp_path, capsys, literal, shown):
    # Python's json module reads these literals as floats; int() of an
    # infinite float raises OverflowError rather than ValueError
    path = tmp_path / "t.json"
    path.write_text('{"strata": [{"label": "A", "x11": %s, "x10": 8900, "x01": 3641}, '
                    '{"label": "B", "x11": 534, "x10": 2584, "x01": 3780}]}' % literal,
                    encoding="utf-8")
    assert main(["diagnose", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: stratum 'A': field x11 is not an integer: {shown}\n"


def test_diagnose_string_json_count_is_usage_error(tmp_path, capsys):
    # int() reads "1_00" as 100 and strips the blanks of " 8900 "; a JSON
    # count must be a number
    path = tmp_path / "t.json"
    path.write_text('{"strata": [{"label": "A", "x11": "1_00", "x10": " 8900 ", "x01": 3641}, '
                    '{"label": "B", "x11": 534, "x10": 2584, "x01": 3780}]}', encoding="utf-8")
    assert main(["diagnose", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: stratum 'A': field x11 is not an integer: '1_00'\n"


def test_diagnose_three_strata_is_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(Q1_CSV + "Extra,1,2,3\n", encoding="utf-8")
    assert main(["diagnose", "--input", str(path)]) == 2
    assert "exactly two strata" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, message", [
    ("missing.csv", None, "cannot read"),
    ("latin1.csv", "stratum,x11,x10,x01\nA\xe9,100,8900,3641\nB,534,2584,3780\n".encode("latin-1"),
     "not UTF-8"),
    ("latin1.json", '{"strata": [{"label": "\xe9"}]}'.encode("latin-1"), "not UTF-8"),
    ("numbers.json", b'{"strata": [1, 2]}', "expected an object"),
    ("huge.json", b'{"strata": [{"x11": 1%s, "x10": 1, "x01": 1}, {"x11": 1, "x10": 1, "x01": 1}]}'
     % (b"0" * 400), "exceeds 2**53"),
])
def test_unreadable_or_malformed_input_is_usage_error(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert main(["diagnose", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


VALID_STRATA = [{"label": "A", "x11": 100, "x10": 8900, "x01": 3641},
                {"label": "B", "x11": 534, "x10": 2584, "x01": 3780}]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# values that are not a count: int() fails on them, or they are strings,
# negative, fractional, booleans or beyond 2**53
not_a_count = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(max_value=-1), st.integers(min_value=2**53 + 1),
    st.floats().filter(lambda x: not (x.is_integer() and 0 <= x <= 2**53)),
    st.lists(st.integers(0, 9), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
not_utf8 = st.binary(max_size=20).map(lambda b: b + b"\xff")


@st.composite
def malformed_json(draw):
    strata = copy.deepcopy(VALID_STRATA)
    payload = {"strata": strata}
    kind = draw(st.sampled_from(["payload", "strata", "record", "count", "missing", "empty",
                                 "number", "truncated"]))
    stratum, field = draw(st.integers(0, 1)), draw(st.sampled_from(["x11", "x10", "x01"]))
    if kind == "payload":
        payload = draw(json_values.filter(lambda v: not isinstance(v, dict) or "strata" not in v))
    elif kind == "strata":
        payload = {"strata": draw(json_values.filter(lambda v: not (isinstance(v, list) and len(v) == 2)))}
    elif kind == "record":
        strata[stratum] = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    elif kind == "count":
        strata[stratum][field] = draw(not_a_count)
    elif kind == "missing":
        del strata[stratum][field]
    elif kind == "empty":
        strata[stratum].update(x11=0, x10=0, x01=0)
    elif kind == "number":
        payload["strata"] = (strata * 2)[:draw(st.sampled_from([0, 1, 3, 4]))]
    text = json.dumps(payload)
    if kind == "truncated":  # no proper prefix of a JSON object is JSON
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text.encode("utf-8")


@st.composite
def malformed_csv(draw):
    rows = [["stratum", "x11", "x10", "x01"], ["A", "100", "8900", "3641"], ["B", "534", "2584", "3780"]]
    kind = draw(st.sampled_from(["header", "count", "fields", "rows"]))
    row, column = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    letters = st.text(string.ascii_letters + " ", max_size=6)
    if kind == "header":
        rows[0] = draw(st.lists(letters, max_size=5).filter(
            lambda h: [c.strip().lower() for c in h] != rows[0]))
    elif kind == "count":
        rows[row][column] = draw(st.one_of(letters, st.integers(max_value=-1).map(str),
                                           st.floats(0.1, 0.9).map(str)))
    elif kind == "fields":
        rows[row] = draw(st.lists(letters | st.integers(0, 9).map(str), min_size=1, max_size=6).filter(
            lambda r: len(r) != 4 and any(c.strip() for c in r)))
    else:
        rows = rows[:1] + (rows[1:] * 2)[:draw(st.sampled_from([0, 1, 3, 4]))]
    return "\n".join(",".join(r) for r in rows).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(st.tuples(st.just("input.json"), malformed_json() | not_utf8),
                      st.tuples(st.just("input.csv"), malformed_csv() | not_utf8)))
def test_malformed_input_is_one_line_usage_error(tmp_path_factory, data):
    name, content = data
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["diagnose", "--input", str(path)])
    assert code == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_diagnose_bias_approximation(q1_csv, capsys):
    code = main(
        ["diagnose", "--input", str(q1_csv), "--phi", "1.0", "--p", "0.2", "--p1dot", "0.5", "--N", "1000"]
    )
    assert code == 0
    assert "ordinary" not in capsys.readouterr().err
    report = read_report(q1_csv.with_suffix(""))
    assert report["results"]["bias_approximation"] == 4.0


def test_diagnose_partial_bias_args_usage_error(q1_csv, capsys):
    assert main(["diagnose", "--input", str(q1_csv), "--phi", "0.5"]) == 2
    assert "--p1dot" in capsys.readouterr().err


def test_estimate_bootstrap_needs_positive_B(q1_csv, capsys):
    code = main(["estimate", "--input", str(q1_csv), "--B", "0", "--se", "bootstrap"])
    assert code == 2
    assert "B must be >= 1 for bootstrap" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--starts", "0", "n_starts must be >= 1"),
    ("--max-iterations", "0", "max_iterations must be >= 1"),
    ("--gradient-tolerance", "0", "gradient_tolerance must be positive"),
    ("--gradient-tolerance", "inf", "gradient_tolerance must be finite"),
    ("--seed", "-1", "seed must fit in 64 unsigned bits"),
])
def test_estimate_bad_fit_option_is_usage_error(q1_csv, capsys, flag, value, message):
    code = main(["estimate", "--input", str(q1_csv), "--se", "hessian", flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


BIAS = ("--p", "0.02", "--p1dot", "0.17")


@pytest.mark.parametrize("argv, message", [
    (["--phi", "nan", *BIAS, "--N", "70000"], "phi must be positive and finite, got nan"),
    (["--phi", "inf", *BIAS, "--N", "70000"], "phi must be positive and finite, got inf"),
    (["--phi", "0.5", *BIAS, "--N", "inf"], "N must be positive and finite, got inf"),
    (["--phi", "0.5", *BIAS, "--N", "-5"], "N must be positive and finite, got -5.0"),
    (["--external-size-a", "nan", "--external-size-b", "20000"],
     "external population sizes must be finite, got (nan, 20000.0)"),
])
def test_diagnose_bad_option_is_usage_error(q1_csv, capsys, argv, message):
    code = main(["diagnose", "--input", str(q1_csv), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not q1_csv.with_suffix(".report.json").exists()


@pytest.mark.parametrize("table, argv, undefined", [
    # stratum A has x11 = 0, so its naive estimate and p_hat do not exist
    ("A,0,50,40\nB,30,60,70\n", ["diagnose"], {("A", "p_hat"), ("A", "naive")}),
    # N_B and p2B sit on their bounds, so their information SEs do not exist
    ("A,201,4162,4390\nB,406,2574,3265\n", ["estimate", "--se", "hessian"],
     {("N_B", "se_hessian"), ("N_total", "se_hessian"), ("p2B", "se_hessian")}),
])
def test_non_finite_values_are_null_in_json_and_empty_in_csv(tmp_path, table, argv, undefined):
    path = tmp_path / "t.csv"
    path.write_text("stratum,x11,x10,x01\n" + table, encoding="utf-8")
    assert main(argv + ["--input", str(path)]) == 0
    results = read_report(tmp_path / "t")["results"]
    if argv[0] == "diagnose":
        reported = {(s["label"], field): s[field]
                    for s in results["strata"] for field in ("c_hat", "p_hat", "naive")}
    else:
        reported = {(name, "se_hessian"): se
                    for name, se in results["uncertainty"]["se_hessian"].items()}
    with (tmp_path / "t.summary.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = {(row[0], field): cell for row in reader for field, cell in zip(header[1:], row[1:])}
    assert {key for key, value in reported.items() if value is None} == undefined
    assert {key for key in reported if cells[key] == ""} == undefined


def test_estimate_small_run(q1_csv, capsys):
    code = main(
        ["estimate", "--input", str(q1_csv), "--mode", "reduced", "--se", "both",
         "--B", "25", "--seed", "20180331"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    report = read_report(q1_csv.with_suffix(""))
    fit_block = report["results"]["fit"]
    assert fit_block["converged"] is True
    assert fit_block["params"]["N_A"] == pytest.approx(54620, rel=0.05)
    assert fit_block["params"]["alpha"] == pytest.approx(0.0690, abs=0.01)
    unc = report["results"]["uncertainty"]
    assert unc["B"] == 25
    assert unc["n_failed_replicates"] == 0
    assert unc["se_hessian"]["p1"] == pytest.approx(0.0077, rel=0.5)
    lo, hi = unc["ci"]["bootstrap"]["N_total"]
    assert lo < fit_block["params"]["N_total"] < hi


def test_estimate_seeded_runs_identical_but_timestamp(q1_csv):
    args = ["estimate", "--input", str(q1_csv), "--se", "bootstrap", "--B", "10", "--seed", "7"]
    assert main(args) == 0
    first = read_report(q1_csv.with_suffix(""))
    assert main(args) == 0
    second = read_report(q1_csv.with_suffix(""))
    ts1 = first["manifest"].pop("timestamp")
    ts2 = second["manifest"].pop("timestamp")
    assert first == second
    assert first["manifest"]["output_digest"] == second["manifest"]["output_digest"]
    assert isinstance(ts1, str) and isinstance(ts2, str)


def test_estimate_json_roundtrip_idempotent(q1_csv):
    assert main(["estimate", "--input", str(q1_csv), "--se", "hessian", "--B", "1"]) == 0
    path = q1_csv.with_suffix("").with_name("q1.report.json")
    text = path.read_text(encoding="utf-8")
    reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert reparsed == text


def test_estimate_full_mode(q1_csv):
    assert main(["estimate", "--input", str(q1_csv), "--mode", "full", "--se", "hessian"]) == 0
    report = read_report(q1_csv.with_suffix(""))
    assert report["results"]["fit"]["mode"] == "full"
    assert report["results"]["fit"]["size_ratio_gap"] < 1e-3


def test_simulate_study1_cli(tmp_path, capsys):
    stem = tmp_path / "s1"
    code = main(
        ["simulate", "study1", "--replicates", "8", "--seed", "1", "--output", str(stem)]
    )
    assert code == 0
    report = read_report(stem)
    assert report["command"] == "study1"
    summaries = report["results"]["summaries"]
    assert {s["estimator"] for s in summaries} == {"naive", "proposed"}
    assert len(summaries) == 8  # 2 naive + 6 proposed quantities
    with (tmp_path / "s1.summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "estimator"
    assert len(rows) == 9


def test_simulate_study2_cli(tmp_path):
    stem = tmp_path / "sweep"
    code = main(
        ["simulate", "study2", "--scenario", "1", "--grid", "0.14:0.16:0.02",
         "--replicates", "5", "--seed", "3", "--output", str(stem)]
    )
    assert code == 0
    report = read_report(stem)
    assert report["results"]["grid"] == [0.14, 0.16]
    assert len(report["results"]["rows"]) == 2 * 2 * 3  # grid x estimator x quantity


def test_simulate_coverage_cli(tmp_path):
    stem = tmp_path / "cov"
    code = main(
        ["simulate", "coverage", "--replicates", "6", "--seed", "5", "--output", str(stem)]
    )
    assert code == 0
    report = read_report(stem)
    assert len(report["results"]["rows"]) == 4
    for row in report["results"]["rows"]:
        assert 0.0 <= row["coverage"] <= 1.0


def test_simulate_custom_cli(tmp_path, capsys):
    stem = tmp_path / "indep"
    code = main(
        ["simulate", "custom", "--NA", "3000", "--NB", "1500", "--alpha", "0",
         "--p1A", "0.2", "--p2A", "0.15", "--p2B", "0.25",
         "--replicates", "8", "--seed", "2", "--output", str(stem)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "~0 bias" in out  # independence flags near-zero bias rows
    report = read_report(stem)
    assert report["results"]["config"]["alpha"] == 0.0


def test_estimate_nonconvergence_exit_code(q1_csv, monkeypatch, capsys):
    from dualdep import cli
    from dualdep.exceptions import NonConvergenceError
    from dualdep.mle import StartDiagnostics
    from dualdep.model import ModelParams

    diag = StartDiagnostics(
        start=ModelParams(20000, 8000, 0.05, 0.2, 0.1, 0.2),
        log_likelihood=-1.0, projected_gradient=0.5,
        converged=False, iterations=3, message="stalled",
    )
    def explode(data, options):
        raise NonConvergenceError("no starting point reached gradient tolerance", [diag])

    monkeypatch.setattr(cli.mle, "fit", explode)
    code = main(["estimate", "--input", str(q1_csv), "--se", "hessian"])
    assert code == 1
    err = capsys.readouterr().err
    assert "gradient tolerance" in err
    assert "stalled" in err  # per-start diagnostics are printed


def test_estimate_iteration_cap_exit_code(q1_csv, capsys):
    code = main(["estimate", "--input", str(q1_csv), "--se", "hessian", "--max-iterations", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "gradient tolerance" in err
    assert err.count("iteration cap reached") == 12


def test_estimate_unconverged_best_start_exit_code(tmp_path, capsys):
    # a study-2 draw whose full-mode maximum only the four 1.2 x0-anchor
    # starts reach, in about 35 steps: capped at 20 they are still short of
    # the tolerance, but above the lower maximum the other eight converge to
    path = tmp_path / "multi.csv"
    path.write_text("stratum,x11,x10,x01\nA,127,2377,4586\nB,430,2558,3250\n", encoding="utf-8")
    code = main(["estimate", "--input", str(path), "--se", "hessian", "--mode", "full",
                 "--max-iterations", "20"])
    assert code == 1
    err = capsys.readouterr().err
    assert "gradient tolerance" in err
    assert err.count("  start ll=") == 12  # per-start diagnostics are printed
    assert err.count(": converged") == 8
    assert not path.with_name("multi.report.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is not a dependency; importing it would cost most of the start-up time
    import dualdep

    src = str(Path(dualdep.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, dualdep.cli; assert 'scipy' not in sys.modules, 'scipy was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_thread_cap_env_var(monkeypatch):
    from dualdep.cli import _default_threads, build_parser

    monkeypatch.setenv("DUALDEP_THREADS", "4")
    assert _default_threads() == 4
    args = build_parser().parse_args(["simulate", "study1", "--replicates", "2"])
    assert args.threads == 4
    monkeypatch.setenv("DUALDEP_THREADS", "not-a-number")
    assert _default_threads() == 1


def test_parse_grid():
    assert _parse_grid("0.01:0.35:0.01") == pytest.approx(tuple(k / 100 for k in range(1, 36)))
    assert _parse_grid("0.2") == (0.2,)
    with pytest.raises(ValidationError):
        _parse_grid("0.1:0.2")
    with pytest.raises(ValidationError):
        _parse_grid("0.1:0.2:0.03")
    with pytest.raises(ValidationError):
        _parse_grid("a:b:c")


def test_bad_grid_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "study2", "--scenario", "1", "--grid", "0.1:0.2",
                 "--replicates", "2", "--output", str(tmp_path / "x")])
    assert code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("0.01:0.35:nan", "finite"), ("0.01:0.35:inf", "finite"), ("nan:0.35:0.01", "finite"),
    ("0:0.35:0.35", "strictly inside (0, 1)"), ("0.5:1:0.5", "strictly inside (0, 1)"),
    ("nan", "strictly inside (0, 1)"),
])
def test_grid_outside_unit_interval_or_not_finite_is_usage_error(tmp_path, capsys, grid, message):
    code = main(["simulate", "study2", "--scenario", "1", "--grid", grid,
                 "--replicates", "2", "--output", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_estimate_level_outside_unit_interval_fails_before_bootstrap(q1_csv, capsys, monkeypatch):
    from dualdep import inference

    def no_draw(*args):
        raise AssertionError("the level must be checked before any bootstrap draw")

    monkeypatch.setattr(inference, "draw_replicate_tables", no_draw)
    code = main(["estimate", "--input", str(q1_csv), "--se", "bootstrap", "--level", "1.5",
                 "--B", "200"])
    assert code == 2
    assert "level must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["1.5", "0"])
def test_coverage_level_outside_unit_interval_is_usage_error(tmp_path, capsys, monkeypatch, level):
    from dualdep import simulate

    def no_draw(config, rng):
        raise AssertionError("the level must be checked before any draw")

    monkeypatch.setattr(simulate, "_draw_survey", no_draw)
    code = main(["simulate", "coverage", "--level", level, "--replicates", "2",
                 "--output", str(tmp_path / "cov")])
    assert code == 2
    assert "level must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "cov.report.json").exists()


def test_simulate_report_is_strict_json_when_every_interval_fails(tmp_path, monkeypatch):
    from dualdep import simulate
    from dualdep.exceptions import InformationMatrixError

    def singular(result, survey):
        raise InformationMatrixError("observed information is singular")

    monkeypatch.setattr(simulate, "se_from_hessian", singular)
    stem = tmp_path / "cov"
    code = main(["simulate", "coverage", "--replicates", "3", "--seed", "5", "--output", str(stem)])
    assert code == 0

    def reject(name):
        raise ValueError(f"non-finite constant {name} in report")

    text = (tmp_path / "cov.report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=reject)
    assert report["results"]["failures"] == 3
    for row in report["results"]["rows"]:
        assert row["mean_lower"] is None and row["mean_upper"] is None
        assert row["coverage"] is None and row["n_used"] == 0
    with (tmp_path / "cov.summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [
        [quantity, method, "", "", "", "0"]
        for quantity in ("N_A", "N_B")
        for method in ("standard", "lognormal")
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "study1", "--replicates", "6", "--seed", "3"],
        ["simulate", "coverage", "--replicates", "6", "--seed", "3"],
        ["simulate", "study2", "--scenario", "1", "--grid", "0.01:0.15:0.14",
         "--replicates", "3", "--seed", "3"],
    ],
    ids=["study1", "coverage", "study2"],
)
def test_simulate_reports_thread_invariant(tmp_path, monkeypatch, argv):
    # one block in this process against blocks of two over two workers
    from dualdep import _parallel

    reports, tables = [], []
    # blocks of two 12-start fits
    for threads, block in (("1", _parallel.BLOCK_COLUMNS), ("2", 2 * 12)):
        monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", block)
        stem = tmp_path / f"t{threads}"
        assert main(argv + ["--threads", threads, "--output", str(stem)]) == 0
        reports.append(read_report(stem)["results"])
        tables.append((tmp_path / f"t{threads}.summary.csv").read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert tables[0] == tables[1]


def test_estimate_report_identical_across_block_size_and_threads(tmp_path, q1_csv, monkeypatch):
    from dualdep import _parallel

    argv = ["estimate", "--input", str(q1_csv), "--se", "bootstrap", "--B", "5", "--seed", "3"]
    texts = []
    # blocks of two warm refits
    for threads, block in (("1", _parallel.BLOCK_COLUMNS), ("2", 2)):
        monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", block)
        stem = tmp_path / f"t{threads}"
        assert main(argv + ["--threads", threads, "--output", str(stem)]) == 0
        texts.append((json.dumps(read_report(stem)["results"]),
                      (tmp_path / f"t{threads}.summary.csv").read_bytes()))
    assert texts[0] == texts[1]
