"""Fit a fixed seeded corpus and write every field of every fit, exactly.

The corpus is the four published quarters, seven edge tables, 40 study-1
draws, 60 study-2 scenario-1 draws (20 each at p1B = 0.01, 0.15 and 0.35) and
eight study-2 scenario-2 draws at p1A = 0.05 whose starts reach different
maxima, each fitted in reduced and full mode with 1, 12 and 15 starts: 119
tables, 714 fits. Each fit is written as JSON with floats as ``float.hex`` (so two files
are equal exactly when the fits are bit-identical) and active sets sorted (so
the file does not depend on the set's iteration order). A fit that raises is
written as its error's type, text and per-start diagnostics.

    PYTHONPATH=src python tools/fit_digest.py --output fits.json
    PYTHONPATH=src python tools/fit_digest.py --compare before.json after.json

``--compare`` prints each differing field and, per field, the worst relative
change over the corpus; it exits 1 if any field differs. Point PYTHONPATH at
another checkout's ``src`` to digest that tree.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from dualdep.exceptions import DualdepError
from dualdep._parallel import stream
from dualdep.mle import FitOptions, fit_many
from dualdep.model import PARAM_NAMES
from dualdep.simulate import _draw_survey, _scenario_config, study1_config
from dualdep.tables import CellCounts, SurveyData

QUARTERS = {
    "Q1": ((100, 8900, 3641), (534, 2584, 3780)),
    "Q2": ((129, 8571, 3543), (582, 2705, 3608)),
    "Q3": ((107, 8199, 3116), (552, 2657, 3506)),
    "Q4": ((76, 4019, 2795), (303, 1528, 3202)),
}
EDGES = {
    "corner": ((201, 4162, 4390), (406, 2574, 3265)),  # maximum on the N_B and p2B bounds
    "degenerate-box": ((10, 0, 40), (30, 60, 70)),  # x10 * x01 = 0 in stratum A
    "degenerate-box-b": ((30, 60, 70), (10, 40, 0)),  # x10 * x01 = 0 in stratum B
    "infeasible-reduced": ((5, 9000, 50), (50, 100, 5000)),  # empty mapped N_B box
    # log-likelihood about 3.1e10, floats 3.8e-6 apart: the one converged
    # reduced-mode start ties stalled ones, and no full-mode start reaches the
    # absolute gradient tolerance
    "large-counts": ((10_000_000, 800_000_000, 300_000_000),
                     (50_000_000, 200_000_000, 300_000_000)),
    "tiny": ((2, 3, 4), (1, 2, 3)),
    "x11A-zero": ((0, 10, 10), (5, 5, 5)),
}
STUDY2_VALUES = (0.01, 0.15, 0.35)
# scenario 2 at p1A = 0.05, seed 11: only the four 1.2 x0-anchor starts reach
# the full-mode maximum, on the N_B and p2B bounds
MULTI_MAXIMUM_REPLICATES = (1, 2, 3, 4, 5, 6, 8, 9)
MODES = ("reduced", "full")
STARTS = (1, 12, 15)


def corpus() -> list[tuple[str, SurveyData]]:
    """(name, table) pairs, in a fixed order."""
    tables = [(name, SurveyData(CellCounts(*a), CellCounts(*b)))
              for name, (a, b) in {**QUARTERS, **EDGES}.items()]
    config = study1_config(seed=1)
    for rep in range(40):
        tables.append((f"study1/{rep}", _draw_survey(config, stream(config.seed, rep))[0]))
    for value in STUDY2_VALUES:
        config = _scenario_config(1, value, replicates=20, seed=3)
        for rep in range(20):
            tables.append((f"study2/{value}/{rep}",
                           _draw_survey(config, stream(config.seed, rep))[0]))
    config = _scenario_config(2, 0.05, replicates=10, seed=11)
    for rep in MULTI_MAXIMUM_REPLICATES:
        tables.append((f"study2-multi/{rep}", _draw_survey(config, stream(config.seed, rep))[0]))
    return tables


def _params(params) -> dict[str, str]:
    return dict(zip(PARAM_NAMES, (v.hex() for v in params.as_tuple())))


def _diagnostics(starts) -> list[dict]:
    return [{"start": _params(d.start), "log_likelihood": d.log_likelihood.hex(),
             "projected_gradient": d.projected_gradient.hex(), "converged": d.converged,
             "iterations": d.iterations, "message": d.message} for d in starts]


def record(outcome) -> dict:
    """Every field of a fit outcome."""
    if isinstance(outcome, DualdepError):
        return {"error": type(outcome).__name__, "message": str(outcome),
                "per_start": _diagnostics(getattr(outcome, "diagnostics", ()))}
    return {
        "params": _params(outcome.params),
        "log_likelihood": outcome.log_likelihood.hex(),
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "active_constraints": sorted(outcome.active_constraints),
        "n_hat_total": outcome.n_hat_total.hex(),
        "mode": outcome.mode,
        "size_ratio_gap": outcome.size_ratio_gap.hex(),
        "p2_identity_gap": outcome.p2_identity_gap.hex(),
        "per_start": _diagnostics(outcome.per_start_diagnostics),
    }


def digest() -> dict[str, dict]:
    tables = corpus()
    out = {}
    for mode in MODES:
        for n_starts in STARTS:
            outcomes = fit_many([t for _, t in tables], FitOptions(mode=mode, n_starts=n_starts))
            for (name, _), outcome in zip(tables, outcomes):
                out[f"{name}/{mode}/{n_starts}"] = record(outcome)
    return out


def _leaves(value, path=""):
    """(path, leaf) pairs of a fit record; a list of starts is indexed as
    ``per_start[i]``, any other list (the active set) is one leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _number(value) -> float | None:
    """The number a leaf holds (a float.hex string or an int), else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float.fromhex(value)
        except ValueError:
            return None
    return None


def _relative(a, b) -> float:
    """Relative change between two leaves; inf unless both are finite numbers."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) and scale > 0.0 else math.inf


def compare(before: dict, after: dict, out=sys.stdout) -> int:
    """Print each differing field and the worst relative change per field
    (start indices pooled); return the number of differences, a record (a
    fit, or a command of ``report_digest``) present on one side only
    counting as one."""
    differences = 0
    worst: dict[str, float] = {}
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            print(f"{key}: only in {'after' if key in after else 'before'}", file=out)
            differences += 1
            continue
        old, new = dict(_leaves(before[key])), dict(_leaves(after[key]))
        for path in sorted(set(old) | set(new)):
            a, b = old.get(path), new.get(path)
            field = re.sub(r"\[\d+\]", "[]", path)
            worst.setdefault(field, 0.0)
            if a != b:
                differences += 1
                worst[field] = max(worst[field], _relative(a, b))
                print(f"{key} {path}: {a} -> {b}", file=out)
    print(f"{differences} differences over {len(set(before) | set(after))} records", file=out)
    print("worst relative change per field:", file=out)
    for field in sorted(worst):
        print(f"  {field}: {worst[field]:.3g}", file=out)
    return differences


def main(make_digest, doc: str, argv=None) -> int:
    """The command line of a digest tool described by the module docstring
    ``doc``: ``--output FILE`` writes ``make_digest()`` to FILE, and
    ``--compare BEFORE AFTER`` exits 1 if two digest files differ."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--output", help="write the digest to this file")
    action.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two digest files")
    args = parser.parse_args(argv)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(make_digest(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    loaded = []
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    return 1 if compare(*loaded) else 0


if __name__ == "__main__":
    sys.exit(main(digest, __doc__))
