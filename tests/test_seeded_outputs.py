"""The seeded outputs, pinned: the fixed corpora of ``tools/fit_digest.py``
(738 fits) and ``tools/report_digest.py`` (20 CLI commands) recomputed and
compared with the reference in ``seeded_outputs.json``.

A fit is pinned by its winner's fields (parameters, log-likelihood, active
set) or by its error's type; a command by its exit code, stderr and report
results. Numbers agree within 1e-12 relative rather than bit for bit, since
numpy may take another SIMD kernel for ``log`` and ``exp`` on another CPU;
everything else agrees exactly. A change that moves seeded outputs on
purpose regenerates the reference and lists the moved fields:

    PYTHONPATH=src python tests/test_seeded_outputs.py
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import fit_digest  # noqa: E402
import report_digest  # noqa: E402

REFERENCE = Path(__file__).with_name("seeded_outputs.json")
RELATIVE = 1e-12
_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|-?inf|nan")


def fit_winners() -> dict[str, dict]:
    """The winner's fields of each fit of the ``fit_digest`` corpus."""
    out = {}
    for key, record in fit_digest.digest().items():
        if "error" in record:
            out[key] = {"error": record["error"]}
        else:
            out[key] = {name: record[name]
                        for name in ("params", "log_likelihood", "active_constraints")}
    return out


def report_results() -> dict[str, dict]:
    """The exit code, stderr and report results of each ``report_digest``
    command."""
    return {name: {field: record[field] for field in ("exit", "stderr", "results")}
            for name, record in report_digest.digest().items()}


def differences(reference, value, path="") -> list[str]:
    """Where ``value`` departs from ``reference``: a float (as ``float.hex``)
    by more than ``RELATIVE``, anything else at all."""
    if isinstance(reference, dict) and isinstance(value, dict):
        if reference.keys() != value.keys():
            return [f"{path}: keys {sorted(reference)} -> {sorted(value)}"]
        return [line for key in reference
                for line in differences(reference[key], value[key], f"{path}.{key}")]
    if isinstance(reference, list) and isinstance(value, list) and len(reference) == len(value):
        return [line for k, (a, b) in enumerate(zip(reference, value))
                for line in differences(a, b, f"{path}[{k}]")]
    if (isinstance(reference, str) and isinstance(value, str)
            and _HEX_FLOAT.fullmatch(reference) and _HEX_FLOAT.fullmatch(value)):
        a, b = float.fromhex(reference), float.fromhex(value)
        if a == b or (math.isnan(a) and math.isnan(b)):
            return []
        if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RELATIVE * max(abs(a), abs(b)):
            return []
    elif reference == value:
        return []
    return [f"{path}: {reference!r} -> {value!r}"]


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_seeded_fits_match_the_reference(reference):
    assert differences(reference["fits"], fit_winners()) == []


def test_seeded_reports_match_the_reference(reference):
    assert differences(reference["reports"], report_results()) == []


def test_a_difference_is_a_float_beyond_the_tolerance_or_any_other_change():
    x = 146506.77869
    near, far = x * (1 + 1e-13), x * (1 + 1e-11)
    assert differences([x.hex(), "nan"], [near.hex(), "nan"]) == []
    assert differences([x.hex()], [far.hex()]) == [f"[0]: {x.hex()!r} -> {far.hex()!r}"]
    assert differences({"active": ["N_B"]}, {"active": ["N_B", "p2B"]}) != []
    assert differences({"error": "FitError"}, {"params": {}}) != []
    assert differences({"exit": 0}, {"exit": 1}) == [".exit: 0 -> 1"]


if __name__ == "__main__":
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"fits": fit_winners(), "reports": report_results()}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
