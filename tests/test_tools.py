"""Smoke tests of the digest tools in ``tools/``. They import private names
of the package, so a rename there breaks them without failing any other
test."""

import copy
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import fit_digest  # noqa: E402
import paired_cpu  # noqa: E402
import report_digest  # noqa: E402
import dualdep  # noqa: E402
from dualdep import mle  # noqa: E402
from dualdep.exceptions import FitError  # noqa: E402
from dualdep.mle import fit_many  # noqa: E402
from dualdep.model import PARAM_NAMES  # noqa: E402
from dualdep.tables import CellCounts, SurveyData  # noqa: E402

X11A_ZERO = SurveyData(CellCounts(*fit_digest.EDGES["x11A-zero"][0]),
                       CellCounts(*fit_digest.EDGES["x11A-zero"][1]))


def test_fit_digest_records_a_fit_and_an_error(q1):
    fitted, error = fit_many([q1, X11A_ZERO])
    assert isinstance(error, FitError)
    digest = {"fit": fit_digest.record(fitted), "error": fit_digest.record(error)}
    assert json.loads(json.dumps(digest)) == digest
    record = digest["fit"]
    assert record["params"] == dict(zip(PARAM_NAMES, (v.hex() for v in fitted.params.as_tuple())))
    assert record["log_likelihood"] == fitted.log_likelihood.hex()
    assert len(record["per_start"]) == 12
    assert record["per_start"][0]["iterations"] == fitted.per_start_diagnostics[0].iterations
    assert digest["error"] == {"error": "FitError", "message": str(error), "per_start": []}


def test_compare_counts_each_changed_leaf(q1):
    (fitted,) = fit_many([q1])
    before = {"q1": fit_digest.record(fitted), "x11A-zero": fit_digest.record(
        fit_many([X11A_ZERO])[0])}
    assert fit_digest.compare(before, before, out=io.StringIO()) == 0
    after = copy.deepcopy(before)
    after["q1"]["per_start"][3]["iterations"] += 1
    out = io.StringIO()
    assert fit_digest.compare(before, after, out=out) == 1
    assert "q1 per_start[3].iterations" in out.getvalue()


def test_compare_ends_with_the_gate_counts_of_a_planted_pair(q1):
    corner = SurveyData(CellCounts(*fit_digest.EDGES["corner"][0]),
                        CellCounts(*fit_digest.EDGES["corner"][1]))
    fitted, on_bounds, error = fit_many([q1, corner, X11A_ZERO])
    records = {"lower": fitted, "tied": fitted, "active": on_bounds, "error": error,
               "same": on_bounds}
    before = {key: fit_digest.record(outcome) for key, outcome in records.items()}
    after = copy.deepcopy(before)
    ll = float.fromhex(before["lower"]["log_likelihood"])
    after["lower"]["log_likelihood"] = (ll - 1e-6).hex()  # beyond the 1e-9 tie band
    after["tied"]["log_likelihood"] = (ll - 5e-10).hex()  # within it
    after["active"]["active_constraints"] = ["N_B"]
    after["error"] = fit_digest.record(fitted)
    lower, active, kinds = fit_digest.gates(before, after)
    assert (lower, active, dict(kinds)) == (1, 1, {"FitError -> fit": 1})
    out = io.StringIO()
    assert fit_digest.compare(before, after, out=out) > 0
    assert out.getvalue().splitlines()[-4:] == [
        "winners lower beyond the tie band: 1", "changed active sets: 1",
        "changed error types: 1", "  FitError -> fit: 1"]
    # a digest of commands, not fits, has no gate lines
    out = io.StringIO()
    fit_digest.compare({"cmd": {"exit": 0}}, {"cmd": {"exit": 1}}, out=out)
    assert "tie band" not in out.getvalue()


def test_report_digest_runs_a_command(tmp_path):
    name = "estimate-corner-hessian"
    report_digest._write_tables(tmp_path)
    out = report_digest.run(name, report_digest.COMMANDS[name], tmp_path)
    assert (out["exit"], out["stderr"]) == (0, [])
    assert out["stdout"][0] == "Constrained MLE (reduced mode) for <work>/corner.csv"
    assert "active constraints: N_B, p2B" in out["stdout"]
    assert set(out["results"]) == {"fit", "naive", "uncertainty"}
    assert out["csv"][0] == "quantity,point,se_hessian,se_bootstrap,bootstrap_mean"


def test_main_writes_and_compares_the_digest_it_is_given(tmp_path):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert fit_digest.main(lambda: {"r": {"x": 1}}, __doc__, ["--output", str(before)]) == 0
    assert fit_digest.main(lambda: {"r": {"x": 2}}, __doc__, ["--output", str(after)]) == 0
    assert fit_digest.main(None, __doc__, ["--compare", str(before), str(before)]) == 0
    assert fit_digest.main(None, __doc__, ["--compare", str(before), str(after)]) == 1


def test_paired_cpu_runs_one_tree_against_itself():
    root = Path(__file__).resolve().parents[1]
    out = io.StringIO()
    summary = paired_cpu.compare(root, root, "estimate", rounds=2, out=out)
    assert summary["rounds"] == 2 and 0 <= summary["change_wins"] <= 2
    assert summary["parent_cpu_s"] > 0.0 and summary["change_cpu_s"] > 0.0
    assert summary["median_ratio"] > 0.0
    for name in ("parent_quartiles", "change_quartiles", "ratio_quartiles"):
        low, mid, high = summary[name]
        assert 0.0 < low <= mid <= high
    assert summary["change_quartiles"][1] == summary["change_cpu_s"]
    assert summary["ratio_quartiles"][1] == summary["median_ratio"]
    text = out.getvalue()
    assert "the change used less CPU in" in text and text.count("IQR") == 3
    assert not any(name.startswith("dualdep_") for name in sys.modules)


def test_quartiles_are_the_exclusive_method_and_one_value_its_own():
    assert paired_cpu.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert paired_cpu.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_paired_cpu_runs_the_solver_refit_block():
    root = Path(__file__).resolve().parents[1]
    out = io.StringIO()
    summary = paired_cpu.compare(root, root, "solver-refits", rounds=1, out=out)
    assert summary["workload"] == "solver-refits" and summary["rounds"] == 1
    assert summary["parent_cpu_s"] > 0.0 and summary["change_cpu_s"] > 0.0


def test_paired_cpu_runs_the_studies_block():
    root = Path(__file__).resolve().parents[1]
    out = io.StringIO()
    summary = paired_cpu.compare(root, root, "studies", rounds=1, out=out)
    assert summary["workload"] == "studies" and summary["rounds"] == 1
    assert summary["parent_cpu_s"] > 0.0 and summary["change_cpu_s"] > 0.0


def test_paired_cpu_times_the_solver_alone_on_two_copies_of_one_tree(tmp_path):
    root = Path(__file__).resolve().parents[1]
    for name in ("a", "b"):
        shutil.copytree(root / "src" / "dualdep", tmp_path / name / "src" / "dualdep",
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = io.StringIO()
    summary = paired_cpu.compare(tmp_path / "a", tmp_path / "b", "solve", rounds=1, out=out)
    assert summary["workload"] == "solve" and summary["rounds"] == 1
    assert summary["parent_cpu_s"] > 0.0 and summary["change_cpu_s"] > 0.0
    assert not any(name.startswith("dualdep_") for name in sys.modules)
    # each width is summarized and printed after the whole block
    assert list(summary["parts"]) == list(paired_cpu.SOLVE_WIDTHS)
    for part in summary["parts"].values():
        assert part["parent_cpu_s"] > 0.0 and part["change_cpu_s"] > 0.0
    text = out.getvalue()
    assert text.count("IQR") == 9
    assert all(f"solve, {width}, CPU per command" in text for width in paired_cpu.SOLVE_WIDTHS)
    # the 60-column calls fit draws that the certificate declines, in their
    # mode; the 12-column calls are the four quarters' reduced point fits
    calls = paired_cpu.solve_inputs(dualdep, seed=7)
    blocks, fits = (calls[width] for width in paired_cpu.SOLVE_WIDTHS)
    assert [options.mode for _, options in blocks] == ["full", "reduced"]
    for draws, options in blocks:
        assert len(draws) == paired_cpu.SOLVE_DRAWS
        assert all(mle._moment_point(*d, options.mode) is None for d in draws)
    assert [options.mode for _, options in fits] == ["reduced"] * 4
    assert [table for (table,), _ in fits] == list(paired_cpu.QUARTERS.values())
    for width, calls in zip((60, 12), (blocks, fits)):
        assert all(mle._solver_inputs(*call)[2][0].shape[1] == width for call in calls)
