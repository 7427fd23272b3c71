"""Ingestion and diagnostics for stratified dual-list contingency data.

A stratum's observed 2x2 table has three known cells: units in both lists
(x11), in list 1 only (x10), and in list 2 only (x01). The jointly missed
cell x00 is what the estimators in this package infer. This module holds
the data containers, the naive (Lincoln-Petersen) estimator, the c-hat
dependence diagnostic, and the CSV/JSON readers shared with the CLI.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .exceptions import ValidationError

__all__ = [
    "CellCounts",
    "SurveyData",
    "Diagnostics",
    "validate",
    "c_hat",
    "naive_estimate",
    "naive_pooled",
    "lp_bias_approx",
    "diagnostics",
    "read_survey_csv",
    "read_survey_json",
    "load_survey",
]


@dataclass(frozen=True)
class CellCounts:
    """Observed cells of one stratum's capture table.

    Counts must be non-negative integers and at least one unit must have
    been observed ("x11 + x10 + x01 >= 1").
    """

    x11: int
    x10: int
    x01: int

    def __post_init__(self):
        for name in ("x11", "x10", "x01"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"count {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValidationError(f"negative count: {name} = {value}")
        if self.total < 1:
            raise ValidationError("zero observed total: x11 + x10 + x01 must be >= 1")

    @property
    def total(self) -> int:
        """Observed units x0 = x11 + x10 + x01."""
        return self.x11 + self.x10 + self.x01

    @property
    def n_list1(self) -> int:
        """List-1 marginal n1. = x11 + x10."""
        return self.x11 + self.x10

    @property
    def n_list2(self) -> int:
        """List-2 marginal n.1 = x11 + x01."""
        return self.x11 + self.x01

    def __add__(self, other: "CellCounts") -> "CellCounts":
        return CellCounts(self.x11 + other.x11, self.x10 + other.x10, self.x01 + other.x01)


@dataclass(frozen=True)
class SurveyData:
    """A pair of stratum tables; the estimator's sole input.

    The model requires exactly two mutually exclusive, exhaustive strata,
    and each stratum must have a positive list-1 marginal (the stratum
    size ratio divides by it).
    """

    stratum_a: CellCounts
    stratum_b: CellCounts
    label_a: str = "A"
    label_b: str = "B"

    def __post_init__(self):
        for counts, tag in ((self.stratum_a, "A"), (self.stratum_b, "B")):
            if counts.n_list1 < 1:
                raise ValidationError(
                    f"stratum {tag}: list-1 marginal x11 + x10 must be >= 1"
                )

    @property
    def flags(self) -> tuple[str, ...]:
        """Non-fatal data conditions, e.g. ``x11A = 0`` (naive estimate undefined)."""
        out = []
        if self.stratum_a.x11 == 0:
            out.append("x11A = 0")
        if self.stratum_b.x11 == 0:
            out.append("x11B = 0")
        return tuple(out)

    @property
    def strata(self) -> tuple[tuple[str, CellCounts], tuple[str, CellCounts]]:
        return ((self.label_a, self.stratum_a), (self.label_b, self.stratum_b))

    def pooled(self) -> CellCounts:
        """Cellwise sum of the two strata."""
        return self.stratum_a + self.stratum_b

    def swapped(self) -> "SurveyData":
        """The same data with the stratum roles exchanged."""
        return SurveyData(self.stratum_b, self.stratum_a, self.label_b, self.label_a)


def _unchecked_survey(a, b, label_a: str, label_b: str) -> SurveyData:
    """A SurveyData of two (x11, x10, x01) triples of Python ints known to
    pass the checks of CellCounts and SurveyData (non-negative, with x11 >= 1
    in both strata), built without running them: a drawn table."""
    strata = []
    for x11, x10, x01 in (a, b):
        counts = object.__new__(CellCounts)
        counts.__dict__.update(x11=x11, x10=x10, x01=x01)
        strata.append(counts)
    data = object.__new__(SurveyData)
    data.__dict__.update(stratum_a=strata[0], stratum_b=strata[1], label_a=label_a,
                         label_b=label_b)
    return data


@dataclass(frozen=True)
class Diagnostics:
    """Per-stratum dependence diagnostics and naive estimates.

    ``c_hat`` is the list-2 capture rate among list-1 captures; values far
    below ``p_hat`` (the list-2 rate among list-1 misses) indicate negative
    dependence. Entries are NaN where undefined (x11 = 0 strata).
    """

    labels: tuple[str, str]
    c_hat: tuple[float, float]
    p_hat: tuple[float, float]
    naive_per_stratum: tuple[float, float]
    naive_pooled: float
    flags: tuple[str, ...]


def c_hat(counts: CellCounts) -> float:
    """List-2 capture rate conditional on list-1 capture, x11 / (x11 + x10)."""
    if counts.n_list1 < 1:
        raise ValidationError("c_hat undefined: x11 + x10 is zero")
    return counts.x11 / counts.n_list1


def naive_estimate(counts: CellCounts) -> float:
    """Lincoln-Petersen estimate n1. * n.1 / n11 as a real number.

    Unbiased only when the two lists capture independently. Callers round
    for display; all internal math keeps the full value.
    """
    if counts.x11 < 1:
        raise ValidationError("naive estimator undefined: x11 = 0")
    return counts.n_list1 * counts.n_list2 / counts.x11


def naive_pooled(data: SurveyData) -> float:
    """Lincoln-Petersen estimate on the strata summed cellwise (no stratification)."""
    return naive_estimate(data.pooled())


def lp_bias_approx(n: float, p1dot: float, p: float, phi: float) -> float:
    """Approximate bias of the naive estimator under a behavioral response effect.

    Args:
        n: population size, finite and > 0.
        p1dot: probability of list-1 capture, in (0, 1).
        p: probability of list-2 capture given a list-1 miss, in (0, 1).
        phi: behavioral response effect, finite and > 0 (1 = independence).

    Returns:
        N(1-p1.)(1-phi)/phi + (1/phi) * (1-p1.)(1-phi*p) / (p1. * phi * p).
    """
    if not 0.0 < p1dot < 1.0:
        raise ValidationError(f"p1dot must be in (0, 1), got {p1dot}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    if not 0.0 < phi < math.inf:
        raise ValidationError(f"phi must be positive and finite, got {phi}")
    if not 0.0 < n < math.inf:
        raise ValidationError(f"N must be positive and finite, got {n}")
    lead = n * (1.0 - p1dot) * (1.0 - phi) / phi
    rest = (1.0 / phi) * (1.0 - p1dot) * (1.0 - phi * p) / (p1dot * phi * p)
    return lead + rest


def diagnostics(
    data: SurveyData,
    external_sizes: tuple[float, float] | None = None,
) -> Diagnostics:
    """Compute c-hat, p-hat, and naive estimates per stratum plus the pooled naive.

    ``p_hat`` estimates Pr(list 2 | missed by list 1) as x01 / (N - n1.),
    which needs a population size. With ``external_sizes`` (one per stratum,
    e.g. from a reference survey) the comparison against ``c_hat`` is
    informative; without it the naive estimate is plugged in, which makes
    p_hat collapse to c_hat identically, so equality carries no information.

    Strata with x11 = 0 get NaN for the naive estimate and p_hat and are
    listed in ``flags``.
    """
    if external_sizes is not None and not all(map(math.isfinite, external_sizes)):
        raise ValidationError(f"external population sizes must be finite, got {external_sizes}")
    nan = float("nan")
    c_vals, p_vals, n_vals = [], [], []
    for idx, (_, counts) in enumerate(data.strata):
        c_vals.append(c_hat(counts))
        if counts.x11 == 0:
            n_vals.append(nan)
            p_vals.append(nan)
            continue
        n_vals.append(naive_estimate(counts))
        size = external_sizes[idx] if external_sizes is not None else n_vals[-1]
        missed = size - counts.n_list1
        if missed <= 0:
            raise ValidationError(
                f"population size {size} for stratum {data.strata[idx][0]!r} "
                f"does not exceed its list-1 count {counts.n_list1}"
            )
        p_vals.append(min(counts.x01 / missed, 1.0))
    pooled = data.pooled()
    pooled_naive = naive_estimate(pooled) if pooled.x11 >= 1 else nan
    return Diagnostics(
        labels=(data.label_a, data.label_b),
        c_hat=(c_vals[0], c_vals[1]),
        p_hat=(p_vals[0], p_vals[1]),
        naive_per_stratum=(n_vals[0], n_vals[1]),
        naive_pooled=pooled_naive,
        flags=data.flags,
    )


_MAX_COUNT = 2**53  # the estimators compute in floats


def validate(strata: Sequence[Mapping[str, object]]) -> SurveyData:
    """Build a SurveyData from raw per-stratum records.

    Each record needs integer fields x11, x10, x01 and may carry a label.
    Exactly two records are required. Strata with x11 = 0 are accepted and
    surface through ``SurveyData.flags``; structural problems (a record that
    is not a mapping, negative, missing or over 2**53 counts, zero observed
    total) raise ValidationError naming the offending field.
    """
    if len(strata) != 2:
        raise ValidationError(f"exactly two strata required, got {len(strata)}")
    parsed = []
    for pos, record in enumerate(strata):
        default_label = "A" if pos == 0 else "B"
        if not isinstance(record, Mapping):
            raise ValidationError(f"stratum {default_label!r}: expected an object, got {record!r}")
        label = str(record.get("label", default_label))
        cells = {}
        for field in ("x11", "x10", "x01"):
            if field not in record:
                raise ValidationError(f"stratum {label!r}: missing field {field}")
            raw = record[field]
            try:  # int() would also read True, "1_00" and " 8900 " as counts
                value = None if isinstance(raw, (bool, str)) else int(raw)
            except (TypeError, ValueError, OverflowError):  # OverflowError: infinity
                value = None
            if value is None or (isinstance(raw, float) and raw != value):
                raise ValidationError(
                    f"stratum {label!r}: field {field} is not an integer: {raw!r}"
                )
            if value < 0:
                raise ValidationError(f"stratum {label!r}: negative count {field} = {value}")
            if value > _MAX_COUNT:
                raise ValidationError(f"stratum {label!r}: count {field} exceeds 2**53")
            cells[field] = value
        if cells["x11"] + cells["x10"] + cells["x01"] < 1:
            raise ValidationError(f"stratum {label!r}: zero observed total")
        parsed.append((label, CellCounts(**cells)))
    return SurveyData(parsed[0][1], parsed[1][1], parsed[0][0], parsed[1][0])


CSV_HEADER = ("stratum", "x11", "x10", "x01")


def _read_text(path: Path) -> str:
    """The file's UTF-8 text, newlines untranslated; a file that cannot be
    read or is not UTF-8 is a ValidationError."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_survey_csv(path: str | Path) -> SurveyData:
    """Read a two-row survey CSV with header ``stratum,x11,x10,x01``."""
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise ValidationError(
                f"{path}:1: expected header 'stratum,x11,x10,x01', got {','.join(header)!r}"
            )
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            rec = {"label": row[0].strip()}
            for field, cell in zip(("x11", "x10", "x01"), row[1:]):
                text = cell.strip()
                try:
                    rec[field] = int(text)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: field {field} is not an integer: {text!r}"
                    ) from None
            records.append(rec)
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ValidationError(f"{path}: malformed CSV: {exc}") from None
    return validate(records)


def read_survey_json(path: str | Path) -> SurveyData:
    """Read a survey JSON object ``{"strata": [{...}, {...}]}``."""
    path = Path(path)
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, huge integers
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "strata" not in payload:
        raise ValidationError(f"{path}: expected an object with a 'strata' array")
    strata = payload["strata"]
    if not isinstance(strata, list):
        raise ValidationError(f"{path}: 'strata' must be an array")
    return validate(strata)


def load_survey(path: str | Path, fmt: str | None = None) -> SurveyData:
    """Load survey data, autodetecting CSV vs JSON from the extension.

    ``fmt`` may be ``"csv"`` or ``"json"`` to override detection.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lower().lstrip(".")
    if fmt == "csv":
        return read_survey_csv(path)
    if fmt == "json":
        return read_survey_json(path)
    raise ValidationError(f"{path}: cannot determine input format (use --format csv|json)")
