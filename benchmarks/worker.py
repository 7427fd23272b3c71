"""One measured process: import dualdep, write the inputs, run the workload's
commands in process through ``dualdep.cli.main`` and report what happened.

Started by run.py in the run's work directory. It writes two lines to
standard output: ``READY <json>`` once the first command has completed
(the end of set-up) and ``RESULT <json>`` at the end.

Modes:
  setup  stop after the first command;
  timed  then run whole rounds of commands until --seconds have passed;
  trace  then run a fixed list of rounds untraced, and the same list again
         with the per-layer tracing installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome, Workload

_real_stdout = sys.stdout


def emit(tag: str, payload: dict) -> None:
    _real_stdout.write(tag + " " + json.dumps(payload) + "\n")
    _real_stdout.flush()


def run_command(cli, workload: Workload, index: int, argv: list[str] | None = None,
                keep_report: bool = False) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    cpu0, start = cpu_seconds(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv or workload.argv(index))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    seconds, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    outcome = workload.read(index, seconds, code)
    outcome.cpu_s = cpu
    if code:
        outcome.problems.append(err.getvalue().strip()[-400:])
    if not keep_report:
        outcome.report = None
    return outcome


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "start_method": multiprocessing.get_start_method(),
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed(cli, workload: Workload, seconds: float) -> list[Outcome]:
    """Whole rounds, back to back, until ``seconds`` have passed."""
    per_round = workload.commands_per_round
    start = time.perf_counter()
    outcomes: list[Outcome] = []
    index = per_round  # round 0 holds the set-up command
    while True:
        outcomes.append(run_command(cli, workload, index))
        index += 1
        if index % per_round == 0 and time.perf_counter() - start >= seconds:
            break
    return outcomes


def traced(cli, workload: Workload, spans_path: Path) -> tuple[list[Outcome], dict]:
    """The same fixed list of commands untraced, then traced."""
    import tracing

    indices = range(workload.commands_per_round,
                    workload.commands_per_round * (1 + workload.trace_rounds))
    plain = [run_command(cli, workload, i) for i in indices]
    tracer = tracing.install()
    try:
        outcomes = [run_command(cli, workload, i) for i in indices]
    finally:
        tracing.uninstall(tracer)
    for a, b in zip(plain, outcomes):
        if a.output_digest != b.output_digest:
            b.problems.append(f"command {b.index}: report differs when traced")
    overhead = sum(o.seconds for o in outcomes) / sum(o.seconds for o in plain)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in tracer.recorder.spans:
            fh.write(json.dumps(span) + "\n")
    layers = tracing.layer_metrics(tracer.recorder, overhead)
    return plain + outcomes, {"layers": layers, "untraced": sorted(tracer.missing)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", type=Path, required=True, help="the dualdep source tree to measure")
    parser.add_argument("--spans", type=Path, default=Path("spans.jsonl"))
    args = parser.parse_args(argv)

    import dualdep
    import dualdep.cli as cli

    here = Path(dualdep.__file__).resolve()
    if args.src.resolve() not in here.parents:
        print(f"dualdep was imported from {here}, not from {args.src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, Path.cwd(), args.size)
    workload.prepare()
    first = run_command(cli, workload, 0)
    emit("READY", {"digest": first.output_digest})

    extra: dict = {}
    outcomes: list[Outcome] = []
    if args.mode == "timed":
        outcomes = timed(cli, workload, args.seconds)
        serial_argv = workload.serial_argv(0)
        if serial_argv is not None:  # the same command on one thread gives the same numbers
            serial = run_command(cli, workload, 0, serial_argv)
            if serial.results_digest != first.results_digest:
                first.problems.append("results differ between --threads 1 and the pool")
    elif args.mode == "trace":
        outcomes, extra = traced(cli, workload, args.spans)
    everything = [first] + outcomes
    problems = [p for o in everything for p in o.problems]
    if args.mode != "setup":
        problems += workload.check_run(everything)
    emit("RESULT", {
        "fingerprint": fingerprint(),
        "first": first.summary(),
        "commands": [o.summary() for o in outcomes],
        "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
        **extra,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
