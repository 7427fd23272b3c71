"""Tests of the benchmark itself (not part of the repository's tier-1 suite):

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name):
    cls = WORKLOADS[name]
    plain = run.measure(cls, seed=3, seconds=0.0, trace=False, size=2, setup_samples=2)
    assert plain["correct"], plain["problems"]
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert _units("end_to_end").items() <= {k: v[1] for k, v in plain["metrics"].items()}.items()
    assert all(v[0] > 0 for v in plain["metrics"].values())

    traced = run.measure(cls, seed=3, seconds=0.0, trace=True, size=2)
    assert traced["correct"], traced["problems"]
    assert {k: v[1] for k, v in traced["metrics"].items()} == _units("per_layer")
    layer = {k: v[0] for k, v in traced["metrics"].items()}
    # the likelihood and solver layers are seen on every workload, including
    # inside coverage_pool's process-pool workers
    assert layer["mle.fits"] > 0 and layer["model.ll_calls"] > 0
    assert layer["cli.commands"] == cls.trace_rounds * cls.commands_per_round
    if name == "coverage_pool":
        assert layer["parallel.tasks"] > 0 and layer["simulate.draws"] > 0


def _targets():
    for attr in tracing.MODEL_KERNELS:
        yield importlib.import_module("dualdep.model"), attr
    for mod_name, attr in tracing.SPAN_TARGETS:
        yield importlib.import_module("dualdep." + mod_name), attr


def test_uninstall_restores_every_original():
    before = [(module, attr, getattr(module, attr)) for module, attr in _targets()]
    tracer = tracing.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in before)
        from dualdep import mle
        from dualdep.tables import CellCounts, SurveyData

        mle.fit(SurveyData(CellCounts(100, 8900, 3641), CellCounts(534, 2584, 3780)))
    finally:
        tracing.uninstall(tracer)
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
    assert tracer.recorder.counts["mle.fits"] == 1
    assert tracer.recorder.counts["model.ll_calls"] > 0
    assert tracing._active is None


def _run_first(name, tmp_path, monkeypatch, index=0, size=2):
    import dualdep.cli as cli

    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS[name](5, tmp_path, size)
    workload.prepare()
    outcome = worker.run_command(cli, workload, index, keep_report=True)
    assert not outcome.problems
    return workload, outcome


def test_corrupted_estimate_trips_checks(tmp_path, monkeypatch):
    workload, outcome = _run_first("estimate_quarters", tmp_path, monkeypatch)
    outcome.report["results"]["fit"]["params"]["alpha"] += 0.05
    outcome.problems.clear()
    workload.check(outcome)
    assert any("alpha" in p for p in outcome.problems)

    outcome.report["results"]["uncertainty"]["bootstrap_mean"]["N_total"] *= 1.2
    workload.check(outcome)
    assert any("bootstrap mean N_total" in p for p in workload.check_run([outcome]))


def test_corrupted_fit_request_trips_checks(tmp_path, monkeypatch):
    workload, outcome = _run_first("fit_requests", tmp_path, monkeypatch)
    a, b = workload.tables[0]
    outcome.report["results"]["fit"]["params"]["N_total"] = float(sum(a) + sum(b)) - 1.0
    workload.check(outcome)
    assert any("outside" in p for p in outcome.problems)


def test_corrupted_study2_pattern_trips_checks(tmp_path, monkeypatch):
    workload = None
    outcomes = []
    for index in range(3):
        workload, outcome = _run_first("study2_extremes", tmp_path, monkeypatch, index, size=4)
        outcomes.append(outcome)
    assert workload.check_run(outcomes) == []
    for row in outcomes[1].report["results"]["rows"]:
        if row["estimator"] == "proposed" and row["quantity"] == "N_total":
            row["mean"] = row["truth"] * 1.9  # worse than the edges and than naive
    workload.check(outcomes[1])
    problems = workload.check_run(outcomes)
    assert any("bias at 0.15" in p for p in problems)
    assert any("exceeds naive" in p for p in problems)


def test_corrupted_coverage_row_trips_checks(tmp_path, monkeypatch):
    workload, outcome = _run_first("coverage_pool", tmp_path, monkeypatch)
    outcome.report["results"]["rows"][0]["coverage"] = 1.5
    outcome.problems.clear()
    workload.check(outcome)
    assert outcome.problems


def test_failed_command_is_counted(tmp_path, monkeypatch):
    import dualdep.cli as cli

    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["fit_requests"](5, tmp_path, 1)
    workload.prepare()
    next(tmp_path.glob("t000.*")).write_text("not a table\n")
    outcome = worker.run_command(cli, workload, 0)
    assert outcome.exit_code == 2 and outcome.failed == outcome.attempted == 1
    assert outcome.problems
