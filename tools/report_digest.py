"""Run a fixed set of seeded CLI commands and write what each one produced.

The commands are ``estimate`` on Q1 (reduced and full mode; a bootstrap of
400 replicates, which spans two blocks, and its twin on two worker
processes, whose results and CSV must equal the serial run's; a bootstrap
seeded above 2**63, whose stream takes every bit of the seed), on Q4
with 15 starts and on a table whose maximum sits on the N_B and p2B bounds
(standard errors and a bootstrap); the study-1, coverage and study-2 simulations; and
three edge commands: a bootstrap on a tiny table that fails too many
replicates (exit 1), a small custom study with many zero-x11 redraws and
full-mode fallbacks, and standard errors on a table with counts near 1e9,
whose one converged start ties stalled ones within the log-likelihood's
rounding noise.

Refits take two paths. The bootstraps of ``estimate-q1`` and its twins,
``estimate-q1-full``, ``estimate-q4-starts15`` and
``estimate-tiny-bootstrap`` start warm from their interior parent fit, with
the starting grid only for the refits that fail or end on a bound there;
``estimate-corner-bootstrap``, whose parent sits on bounds, and every
``simulate`` command fit from the starting grid alone. For each
command the digest holds its exit code, stdout and stderr, the report's
``results`` (floats as ``float.hex``, so equal files mean bit-identical
results) and the summary CSV. The work directory is written as ``<work>``,
so digests made in different directories compare equal; the report's
manifest (timestamp, options, output paths) is left out.

    PYTHONPATH=src python tools/report_digest.py --output reports.json
    PYTHONPATH=src python tools/report_digest.py --compare before.json after.json

The command line is ``fit_digest.main``: ``--compare`` uses ``fit_digest.compare`` and
exits 1 if any field differs. Digesting exits 1 if the two-process twin's
results differ from the serial run's.
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
}
SIM = ("--replicates", "40", "--seed", "1")
COMMANDS = {
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
    "estimate-large-hessian": ("estimate", "--input", "large.csv", "--se", "hessian"),
    "estimate-tiny-bootstrap": ("estimate", "--input", "tiny.csv", "--se", "bootstrap",
                                "--B", "50", "--seed", "1"),
    "study1": ("simulate", "study1", *SIM),
    "coverage": ("simulate", "coverage", *SIM),
    "study2": ("simulate", "study2", "--scenario", "1", "--grid", "0.01:0.35:0.17",
               "--replicates", "10", "--seed", "1"),
    "custom-small": ("simulate", "custom", "--NA", "40", "--NB", "30", "--alpha", "0.05",
                     "--p1A", "0.2", "--p2A", "0.2", *SIM),
}


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
    serial, twin = out["estimate-q1-b400"], out["estimate-q1-b400-threads2"]
    if (serial["results"], serial["csv"]) != (twin["results"], twin["csv"]):
        sys.exit("estimate-q1-b400-threads2: results differ from the serial estimate-q1-b400")
    return out


if __name__ == "__main__":
    sys.exit(main(digest, __doc__))
