"""Run a fixed set of seeded CLI commands and write what each one produced.

The commands are ``diagnose`` on Q1 with the naive-bias approximation;
``estimate`` on Q1 (reduced and full mode; a bootstrap of 400 replicates
and its twin at ``--threads 2``, whose draws are all certified, so it
starts no process, and whose results and CSV must equal the serial run's;
a bootstrap seeded above 2**63, whose stream takes every bit of the seed),
on Q4 with 15 starts and on a table whose maximum sits on the N_B and p2B
bounds (standard errors, and a bootstrap with its own twin at
``--threads 2``: its 33 first-attempt grid refits fill two solver blocks,
so they run on two worker processes); the study-1, coverage and study-2
simulations, and study 2 at p1B = 0.01 alone with its twin at ``--threads
2`` (the 60 draws' reduced boxes are empty, so their full-mode fallbacks,
the pipeline's second pass, fill three solver blocks and run on two worker
processes); and three edge commands: a bootstrap on a tiny table that
fails too many replicates (exit 1), a small custom study with many
zero-x11 redraws and full-mode fallbacks, and standard errors on a table
with counts near 1e9, whose starts converge within the log-likelihood's
rounding.

A bootstrap refit of a drawn table whose moment point lies inside its box
is that point, in closed form; every other refit climbs from the drawn
table's starting grid, as every ``simulate`` fit does. The Q1 and Q4 draws
are all certified. ``estimate-corner-bootstrap`` (parent on bounds) refits
from the grid. ``estimate-mixed-bootstrap`` (full mode, interior parent)
takes both paths in one command: 48 of its 50 draws are certified and the
other two are grid refits. ``estimate-small-bootstrap`` pins grid refits on
a flat likelihood: the certificate declines most draws of the single-digit
table (4, 6, 8)/(2, 4, 6), and there the winner among the starts decides
the rows. For each
command the digest holds its exit code, stdout and stderr, the report's
``results`` (floats as ``float.hex``, so equal files mean bit-identical
results) and the summary CSV. The work directory is written as ``<work>``,
so digests made in different directories compare equal; the report's
manifest (timestamp, options, output paths) is left out.

    PYTHONPATH=src python tools/report_digest.py --output reports.json
    PYTHONPATH=src python tools/report_digest.py --compare before.json after.json

The command line is ``fit_digest.main``: ``--compare`` uses ``fit_digest.compare`` and
exits 1 if any field differs. Digesting exits 1 if a ``--threads 2`` twin's
results differ from its serial run's.
Point PYTHONPATH at another checkout's ``src`` to digest that tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fit_digest import EDGES, QUARTERS, main

from dualdep.cli import main as cli_main

TABLES = {
    "q1": QUARTERS["Q1"],
    "q4": QUARTERS["Q4"],
    "corner": EDGES["corner"],
    "tiny": EDGES["tiny"],
    "large": EDGES["large-counts"],
    "mixed": ((200, 35, 3807), (105, 3326, 2527)),
    "small": ((4, 6, 8), (2, 4, 6)),
}
SIM = ("--replicates", "40", "--seed", "1")
COMMANDS = {
    "diagnose-q1-bias": ("diagnose", "--input", "q1.csv", "--phi", "0.8", "--p", "0.3",
                         "--p1dot", "0.4", "--N", "70000"),
    "estimate-q1": ("estimate", "--input", "q1.csv", "--B", "50", "--seed", "1"),
    "estimate-q1-b400": ("estimate", "--input", "q1.csv", "--B", "400", "--seed", "1"),
    "estimate-q1-b400-threads2": ("estimate", "--input", "q1.csv", "--B", "400", "--seed", "1",
                                  "--threads", "2"),
    "estimate-q1-seed-high": ("estimate", "--input", "q1.csv", "--B", "50", "--seed",
                              "9223372036854775813"),
    "estimate-q1-full": ("estimate", "--input", "q1.csv", "--B", "50", "--seed", "1",
                         "--mode", "full"),
    "estimate-q4-starts15": ("estimate", "--input", "q4.csv", "--B", "50", "--seed", "2",
                             "--starts", "15"),
    "estimate-corner-hessian": ("estimate", "--input", "corner.csv", "--se", "hessian"),
    "estimate-corner-bootstrap": ("estimate", "--input", "corner.csv", "--se", "bootstrap",
                                  "--B", "50", "--seed", "1"),
    "estimate-corner-bootstrap-threads2": ("estimate", "--input", "corner.csv", "--se",
                                           "bootstrap", "--B", "50", "--seed", "1",
                                           "--threads", "2"),
    "estimate-large-hessian": ("estimate", "--input", "large.csv", "--se", "hessian"),
    "estimate-tiny-bootstrap": ("estimate", "--input", "tiny.csv", "--se", "bootstrap",
                                "--B", "50", "--seed", "1"),
    "estimate-small-bootstrap": ("estimate", "--input", "small.csv", "--se", "bootstrap",
                                 "--B", "50", "--seed", "1"),
    "estimate-mixed-bootstrap": ("estimate", "--input", "mixed.csv", "--mode", "full",
                                 "--se", "bootstrap", "--B", "50", "--seed", "5"),
    "study1": ("simulate", "study1", *SIM),
    "coverage": ("simulate", "coverage", *SIM),
    "study2": ("simulate", "study2", "--scenario", "1", "--grid", "0.01:0.35:0.17",
               "--replicates", "10", "--seed", "1"),
    "study2-fallbacks": ("simulate", "study2", "--scenario", "1", "--grid", "0.01",
                         "--replicates", "60", "--seed", "1"),
    "study2-fallbacks-threads2": ("simulate", "study2", "--scenario", "1", "--grid", "0.01",
                                  "--replicates", "60", "--seed", "1", "--threads", "2"),
    "custom-small": ("simulate", "custom", "--NA", "40", "--NB", "30", "--alpha", "0.05",
                     "--p1A", "0.2", "--p2A", "0.2", *SIM),
}

# commands with a ``-threads2`` twin whose results and CSV must equal theirs
TWINS = ("estimate-q1-b400", "estimate-corner-bootstrap", "study2-fallbacks")


def _hex_floats(value):
    """``value`` with every float, however deeply nested, as ``float.hex``."""
    if isinstance(value, dict):
        return {key: _hex_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex_floats(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _write_tables(work: Path) -> None:
    for name, (a, b) in TABLES.items():
        rows = ["stratum,x11,x10,x01", "A," + ",".join(map(str, a)), "B," + ",".join(map(str, b))]
        (work / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def run(name: str, command: tuple[str, ...], work: Path) -> dict:
    """One command's exit code, output streams, report results and CSV."""
    stem = work / name
    argv = [str(work / arg) if arg.endswith(".csv") else arg for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([*argv, "--output", str(stem)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    report = stem.with_name(stem.name + ".report.json")
    summary = stem.with_name(stem.name + ".summary.csv")

    def lines(text: str) -> list[str]:
        return text.replace(str(work), "<work>").splitlines()

    return {
        "exit": code,
        "stdout": lines(out.getvalue()),
        "stderr": lines(err.getvalue()),
        "results": (_hex_floats(json.loads(report.read_text(encoding="utf-8"))["results"])
                    if report.exists() else None),
        "csv": lines(summary.read_text(encoding="utf-8")) if summary.exists() else None,
    }


def digest() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_tables(work)
        out = {name: run(name, command, work) for name, command in COMMANDS.items()}
    for name in TWINS:
        serial, twin = out[name], out[name + "-threads2"]
        if (serial["results"], serial["csv"]) != (twin["results"], twin["csv"]):
            sys.exit(f"{name}-threads2: results differ from the serial {name}")
    return out


if __name__ == "__main__":
    sys.exit(main(digest, __doc__))
