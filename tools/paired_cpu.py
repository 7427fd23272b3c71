"""Compare the CPU cost of two source trees in one process, in paired rounds.

Each tree's ``src/dualdep`` is copied under its own package name
(``dualdep_parent`` and ``dualdep_change``; the package imports itself only
relatively), so both load side by side and run the same commands through
their own ``cli.main``. A round runs one block of commands on each tree,
the two blocks with the same seeds; which tree runs first alternates from
round to round, so a slow phase of the host falls on both trees alike. The
blocks are:

- ``estimate``: ``estimate --se both --threads 1 --B 100`` on Q1-Q4;
- ``study2``: ``simulate study2 --scenario 1 --replicates 5 --threads 1``
  at p1B = 0.01, 0.15 and 0.35;
- ``solver-refits``: ``estimate --se both --threads 1 --B 100`` on three
  tables whose drawn tables often reach the solver rather than the closed
  form, each such draw one grid refit: ``small`` (single-digit counts: most
  draws are declined, on a flat likelihood), ``corner`` (the parent fit is
  on bounds) and ``mixed`` (full mode, an interior parent);
- ``studies``: ``simulate study1 --replicates 100`` and ``simulate coverage
  --replicates 50``, both ``--threads 1``: study 1's draws, all certified,
  and coverage's, with a Hessian SE each;
- ``solve``: the batched solver alone, ``mle._fits`` at the two batch
  widths the benchmark's workloads run. At 60 columns: study-2 draws that
  the certificate declines, scenario 1's first 5 declined draws at
  p1B = 0.01 in full mode, and at 0.35 in reduced mode, one call each,
  drawn with the tree's own ``simulate`` from the round's seed before the
  clock starts. At 12 columns: the reduced-mode point fit of each of Q1-Q4,
  one call each, the fit ``estimate`` makes on every command. A "command"
  is then one call. Each table is the (a, b) pair of its strata's (x11,
  x10, x01) counts, as ``mle._fits`` takes it, so this workload pairs
  only trees whose ``_fits`` takes count pairs.

It prints each tree's CPU per command and the per-round ratio change/parent,
each as its quartiles (``statistics.quantiles``, exclusive method) with the
interquartile range, and in how many rounds the change used less CPU; for
``solve``, the same for each width's calls alone after the whole block. A
gain is told from noise by comparing the median paired difference with the
parent's interquartile range.

    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE --rounds 40
    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE --workload study2 --rounds 20
    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE --workload solver-refits --rounds 40
    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE --workload studies --rounds 20
    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE --workload solve --rounds 40

A tree is the root of a checkout (the directory that holds ``src``). CPU is
this process's ``time.process_time``: the commands run on one thread and
start no worker process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the published quarterly tables, (x11, x10, x01) per stratum
QUARTERS = {
    "q1": ((100, 8900, 3641), (534, 2584, 3780)),
    "q2": ((129, 8571, 3543), (582, 2705, 3608)),
    "q3": ((107, 8199, 3116), (552, 2657, 3506)),
    "q4": ((76, 4019, 2795), (303, 1528, 3202)),
}
# tables whose bootstrap draws often reach the solver, with the fit mode
SOLVER_REFITS = {
    "small": (((4, 6, 8), (2, 4, 6)), "reduced"),
    "corner": (((201, 4162, 4390), (406, 2574, 3265)), "reduced"),
    "mixed": (((200, 35, 3807), (105, 3326, 2527)), "full"),
}
STUDY2_POINTS = ("0.01", "0.15", "0.35")
# the solve workload's 60-column calls: scenario 1's study-2 draws at p1B,
# declined by the certificate in the fit mode, SOLVE_DRAWS per call
SOLVE_POINTS = ((0.01, "full"), (0.35, "reduced"))
SOLVE_DRAWS = 5
# its two widths: those calls, and each quarter's reduced-mode point fit
SOLVE_WIDTHS = ("60 columns", "12 columns")
SIDES = ("parent", "change")


def block(workload: str, seed: int, work: Path) -> list[list[str]]:
    """The commands of one block, reading the tables' CSV files in
    ``work``, without ``--output``."""
    if workload == "estimate":
        return [["estimate", "--input", str(work / f"{name}.csv"), "--se", "both", "--threads", "1",
                 "--B", "100", "--seed", str(seed + k)] for k, name in enumerate(QUARTERS)]
    if workload == "solver-refits":
        return [["estimate", "--input", str(work / f"{name}.csv"), "--mode", mode, "--se", "both",
                 "--threads", "1", "--B", "100", "--seed", str(seed + k)]
                for k, (name, (_, mode)) in enumerate(SOLVER_REFITS.items())]
    if workload == "studies":
        return [["simulate", "study1", "--replicates", "100", "--threads", "1", "--seed", str(seed)],
                ["simulate", "coverage", "--replicates", "50", "--threads", "1",
                 "--seed", str(seed + 1)]]
    return [["simulate", "study2", "--scenario", "1", "--grid", point, "--replicates", "5",
             "--threads", "1", "--seed", str(seed + k)] for k, point in enumerate(STUDY2_POINTS)]


def load(tree: Path, name: str, packages: Path):
    """``tree``'s dualdep, copied to ``packages`` as ``name``, with its
    ``cli``, ``mle`` and ``simulate`` modules imported."""
    shutil.copytree(tree / "src" / "dualdep", packages / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("cli", "mle", "simulate"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def run_block(cli, commands: list[list[str]], work: Path) -> float:
    """CPU seconds for running ``commands`` through ``cli.main``."""
    start = time.process_time()
    for k, argv in enumerate(commands):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--output", str(work / f"out-{k}")])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return time.process_time() - start


def solve_inputs(package, seed: int) -> dict:
    """The ``solve`` workload's calls at ``seed``, each a list of tables and
    the fit options, by width (``SOLVE_WIDTHS``): per point of
    ``SOLVE_POINTS``, the first ``SOLVE_DRAWS`` draws of study 2's scenario
    1 that the certificate declines, drawn on the study's streams; and each
    quarter of ``QUARTERS`` alone, in reduced mode."""
    mle, simulate = package.mle, package.simulate
    blocks = []
    for value, mode in SOLVE_POINTS:
        config = simulate._scenario_config(1, value, replicates=1, seed=seed)
        streams = simulate.Streams(config.seed)
        draws, rep = [], 0
        while len(draws) < SOLVE_DRAWS:
            table, _ = simulate._draw_survey(config, streams.at(rep))
            rep += 1
            if mle._moment_point(*table, mode) is None:
                draws.append(table)
        blocks.append((draws, mle.FitOptions(mode=mode)))
    fits = [([table], mle.FitOptions(mode="reduced")) for table in QUARTERS.values()]
    return dict(zip(SOLVE_WIDTHS, (blocks, fits)))


def run_side(package, workload: str, seed: int, work: Path) -> dict[str, float]:
    """CPU seconds per command of one block of ``workload`` at ``seed`` on
    one tree's ``package``: of the whole block, under ``"block"``, and for
    ``solve`` of each width's calls too."""
    if workload != "solve":
        commands = block(workload, seed, work)
        return {"block": run_block(package.cli, commands, work) / len(commands)}
    cpu, total, count = {}, 0.0, 0
    for width, calls in solve_inputs(package, seed).items():
        start = time.process_time()
        for tables, options in calls:
            package.mle._fits(tables, options)
        elapsed = time.process_time() - start
        cpu[width] = elapsed / len(calls)
        total, count = total + elapsed, count + len(calls)
    return {"block": total / count, **cpu}


def compare(parent: Path, change: Path, workload: str, rounds: int, out=sys.stdout) -> dict:
    """Run ``rounds`` paired rounds; print and return the summary."""
    with tempfile.TemporaryDirectory() as tmp:
        packages, work = Path(tmp) / "packages", Path(tmp) / "work"
        packages.mkdir()
        work.mkdir()
        tables = {**QUARTERS, **{name: table for name, (table, _) in SOLVER_REFITS.items()}}
        for name, (a, b) in tables.items():
            (work / f"{name}.csv").write_text(
                "stratum,x11,x10,x01\nA,%d,%d,%d\nB,%d,%d,%d\n" % (*a, *b), encoding="utf-8")
        sys.path.insert(0, str(packages))
        try:
            loaded = {side: load(tree, f"dualdep_{side}", packages)
                      for side, tree in zip(SIDES, (parent, change))}
            for side in SIDES:  # warm up: imports, caches and the first allocations
                run_side(loaded[side], workload, 0, work)
            cpu = {side: [] for side in SIDES}
            for r in range(rounds):
                for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                    cpu[side].append(run_side(loaded[side], workload, 1000 * (r + 1), work))
        finally:
            sys.path.remove(str(packages))
            for side in SIDES:
                for module in [m for m in sys.modules if m.split(".")[0] == f"dualdep_{side}"]:
                    del sys.modules[module]
    parts = {part: {side: [cpu_s[part] for cpu_s in cpu[side]] for side in SIDES}
             for part in cpu["parent"][0]}
    summary = {"workload": workload, "rounds": rounds, **summarize(parts.pop("block"))}
    report(f"{workload}: {rounds} paired rounds", summary, rounds, out)
    if parts:
        summary["parts"] = {part: summarize(part_cpu) for part, part_cpu in parts.items()}
        for part, part_summary in summary["parts"].items():
            report(f"{workload}, {part}", part_summary, rounds, out)
    return summary


def summarize(cpu: dict[str, list[float]]) -> dict:
    """The summary of each side's CPU per command over the rounds."""
    ratios = [c / p for p, c in zip(cpu["parent"], cpu["change"])]
    return {
        "parent_cpu_s": statistics.median(cpu["parent"]),
        "change_cpu_s": statistics.median(cpu["change"]),
        "parent_quartiles": quartiles(cpu["parent"]),
        "change_quartiles": quartiles(cpu["change"]),
        "median_difference_s": statistics.median(p - c for p, c in zip(cpu["parent"],
                                                                       cpu["change"])),
        "median_ratio": statistics.median(ratios),
        "ratio_quartiles": quartiles(ratios),
        "change_wins": sum(ratio < 1.0 for ratio in ratios),
    }


def report(title: str, summary: dict, rounds: int, out) -> None:
    """Print one summary of ``summarize``."""
    print(f"{title}, CPU per command (quartiles; interquartile range)", file=out)
    for side in SIDES:
        low, mid, high = (value * 1e3 for value in summary[side + "_quartiles"])
        print(f"  {side:<7}{low:10.3f}{mid:10.3f}{high:10.3f} ms; IQR {high - low:.3f} ms",
              file=out)
    low, mid, high = summary["ratio_quartiles"]
    print(f"  change/parent ratio {low:.4f} {mid:.4f} {high:.4f}; IQR {high - low:.4f}",
          file=out)
    print(f"  median paired difference {summary['median_difference_s'] * 1e3:.3f} ms; "
          f"the change used less CPU in {summary['change_wins']} of {rounds} rounds", file=out)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The quartiles of ``values`` (exclusive method); the median of one
    value is that value, and so are its other quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload",
                        choices=("estimate", "study2", "solver-refits", "studies", "solve"),
                        default="estimate")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    compare(args.parent.resolve(), args.change.resolve(), args.workload, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
