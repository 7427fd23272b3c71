"""Smoke tests of the digest tools in ``tools/``. They import private names
of the package, so a rename there breaks them without failing any other
test."""

import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import fit_digest  # noqa: E402
import report_digest  # noqa: E402
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
