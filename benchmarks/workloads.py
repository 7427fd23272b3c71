"""The benchmark's workloads: inputs made from the seed, the command stream,
and the checks every command's report must pass.

Each workload is a closed loop with one client: the next ``dualdep`` command
starts when the previous one has finished. Commands are grouped in rounds, the
samples that throughput and CPU are scored on: one pass over the workload's
input mix, or a single command where one command is already a long piece of
work (``estimate_quarters``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

# The published quarterly tables and the values acceptance criterion 2 checks
# them against (stratum A = small & medium entities, B = large).
QUARTER_COUNTS = {
    "Q1": ((100, 8900, 3641), (534, 2584, 3780)),
    "Q2": ((129, 8571, 3543), (582, 2705, 3608)),
    "Q3": ((107, 8199, 3116), (552, 2657, 3506)),
    "Q4": ((76, 4019, 2795), (303, 1528, 3202)),
}
PUBLISHED = {
    "Q1": {"N_A": 54620, "N_B": 18916, "N_total": 73536, "se_total": 3358,
           "alpha": 0.0690, "p1": 0.1651, "p2A": 0.0119, "p2B": 0.1837},
    "Q2": {"N_A": 46004, "N_B": 17360, "N_total": 63364, "se_total": 2893,
           "alpha": 0.0806, "p1": 0.1895, "p2A": 0.0161, "p2B": 0.1923},
    "Q3": {"N_A": 45971, "N_B": 17753, "N_total": 63724, "se_total": 2969,
           "alpha": 0.0702, "p1": 0.1810, "p2A": 0.0138, "p2B": 0.1847},
    "Q4": {"N_A": 33967, "N_B": 15181, "N_total": 49147, "se_total": 3278,
           "alpha": 0.0757, "p1": 0.1212, "p2A": 0.0200, "p2B": 0.1790},
}
# criterion 2's absolute tolerances on the fitted parameters
PARAM_TOLERANCE = {"alpha": 0.010, "p1": 0.010, "p2A": 0.005, "p2B": 0.015}

STUDY2_POINTS = ("0.01", "0.15", "0.35")  # criterion 5's grid, scenario 1


def command_seed(seed: int, index: int) -> int:
    """The dualdep --seed of command ``index`` in a run of workload seed ``seed``."""
    return (int(seed) * 1_000_003 + index) % 2**63


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """Percentile (0 < q < 1) by linear interpolation; 0.0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def naive(x11: int, x10: int, x01: int) -> float:
    """Lincoln-Petersen estimate of one table."""
    return (x11 + x10) * (x11 + x01) / x11


class Outcome:
    """What one command did, as read back from its report."""

    def __init__(self, index: int, seconds: float, exit_code: int, report: dict | None):
        self.index = index
        self.seconds = seconds
        self.exit_code = exit_code
        self.report = report  # dropped once checked, so a run's memory does not grow
        self.kept = None  # the few fields check_run pools, filled by Workload.check
        self.cpu_s = 0.0  # CPU of the command, worker plus reaped children
        self.attempted = 1
        self.failed = 0
        self.units = 0  # replicate refits (or, on fit_requests, requests) completed
        self.problems: list[str] = []
        self.output_digest = report["manifest"]["output_digest"] if report else None
        # the results alone: the manifest also covers options such as
        # --threads, which must not change the numbers
        self.results_digest = digest(report["results"]) if report else None

    def summary(self) -> dict:
        return {
            "index": self.index, "seconds": self.seconds, "cpu_s": self.cpu_s,
            "attempted": self.attempted, "failed": self.failed, "units": self.units,
            "digest": self.output_digest,
        }


class Workload:
    """A seeded command stream. ``size`` is the per-command replicate count
    (or, on fit_requests, the number of distinct request tables)."""

    name = ""
    why = ""
    unit = "replicates"  # what ``units`` counts
    commands_per_round = 1
    default_size = 1
    trace_rounds = 1  # rounds run (untraced, then traced) by --trace 1

    def __init__(self, seed: int, workdir: Path, size: int | None = None):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.size = int(size or self.default_size)

    def prepare(self) -> None:
        """Write the inputs the commands read."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def stem(self, index: int) -> str:
        raise NotImplementedError

    def serial_argv(self, index: int) -> list[str] | None:
        """Command ``index`` on one thread, for workloads that run a pool."""
        return None

    def read(self, index: int, seconds: float, exit_code: int) -> Outcome:
        report = None
        path = self.workdir / (self.stem(index) + ".report.json")
        if exit_code == 0:
            report = json.loads(path.read_text(encoding="utf-8"))
        outcome = Outcome(index, seconds, exit_code, report)
        if exit_code != 0:
            outcome.failed = outcome.attempted = self.attempted_per_command()
            outcome.problems.append(f"command {index} exited with code {exit_code}")
            return outcome
        self.check(outcome)
        return outcome

    def attempted_per_command(self) -> int:
        return self.size

    def check(self, outcome: Outcome) -> None:
        """Fill attempted/failed/units/kept and record problems for one command."""
        raise NotImplementedError

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        """Checks that need every command of the run together."""
        return []


# --- estimate_quarters ----------------------------------------------------------

class EstimateQuarters(Workload):
    name = "estimate_quarters"
    why = ("the analyst's main use: estimate --se both --B 100 on the four published quarters; "
           "98% of the time is reduced-mode bootstrap refits, no process pool")
    # One command is a round: at the analyst's scale a command is seconds of
    # bootstrap refits, and the quarters rotate from one command to the next.
    commands_per_round = 1
    default_size = 100  # bootstrap replicates per command
    first_size = 5  # the set-up command's bootstrap, so set-up stays a cold start
    trace_rounds = 4

    def prepare(self) -> None:
        for quarter, (a, b) in QUARTER_COUNTS.items():
            with (self.workdir / f"{quarter.lower()}.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("stratum", "x11", "x10", "x01"))
                writer.writerow(("Small & medium", *a))
                writer.writerow(("Large", *b))

    def quarter(self, index: int) -> str:
        return tuple(QUARTER_COUNTS)[index % 4]

    def stem(self, index: int) -> str:
        return f"out-{self.quarter(index).lower()}"

    def argv(self, index: int) -> list[str]:
        quarter = self.quarter(index).lower()
        return ["estimate", "--input", f"{quarter}.csv", "--se", "both", "--threads", "1",
                "--B", str(min(self.size, self.first_size) if index == 0 else self.size),
                "--seed", str(command_seed(self.seed, index)),
                "--output", self.stem(index)]

    def check(self, outcome: Outcome) -> None:
        res = outcome.report["results"]
        ref = PUBLISHED[self.quarter(outcome.index)]
        unc = res["uncertainty"]
        outcome.attempted = unc["B"]
        outcome.failed = unc["n_failed_replicates"]
        outcome.units = outcome.attempted - outcome.failed
        outcome.kept = {name: (unc["bootstrap_mean"][name], unc["se_bootstrap"][name])
                        for name in ("N_A", "N_B", "N_total")}
        if not res["fit"]["converged"]:
            outcome.problems.append(f"command {outcome.index}: fit did not converge")
        if outcome.failed:
            outcome.problems.append(f"command {outcome.index}: {outcome.failed} replicates failed")
        for name, tol in PARAM_TOLERANCE.items():
            got = res["fit"]["params"][name]
            if got is None or abs(got - ref[name]) > tol:
                outcome.problems.append(
                    f"command {outcome.index}: {name}={got} is not within {tol} of {ref[name]}")
        for name, (mean, se) in outcome.kept.items():
            if mean is None or se is None:
                outcome.problems.append(f"command {outcome.index}: bootstrap {name} is not finite")

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        """Pool each quarter's replicates over the run and compare with the
        published bootstrap means and standard error. Criterion 2 allows 5%
        and 25% at 500 replicates; a run pools fewer, so each bound is widened
        by three standard errors of the pooled mean, and four of the pooled
        SD, at the run's replicate count n."""
        problems = []
        if not any(o.units for o in outcomes):
            return ["no completed replicates to check"]
        for quarter in QUARTER_COUNTS:  # a run shorter than four commands misses some
            rows = [o for o in outcomes if o.kept and self.quarter(o.index) == quarter]
            n = sum(o.units for o in rows)
            if not n:
                continue
            ref = PUBLISHED[quarter]
            for name in ("N_A", "N_B", "N_total"):
                mean, se = _pool([(o.units, *o.kept[name]) for o in rows])
                tol = 0.05 * ref[name] + 3.0 * se / math.sqrt(n)
                if abs(mean - ref[name]) > tol:
                    problems.append(f"{quarter}: bootstrap mean {name}={mean:.0f} is not within "
                                    f"{tol:.0f} of the published {ref[name]} (n={n})")
                if name == "N_total":
                    tol = 0.25 + 4.0 / math.sqrt(2.0 * n)
                    if abs(se - ref["se_total"]) > tol * ref["se_total"]:
                        problems.append(f"{quarter}: bootstrap SE N_total={se:.0f} is not within "
                                        f"{tol:.0%} of the published {ref['se_total']} (n={n})")
        return problems


def _pool(parts: list[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean and population SD of the union of groups given (n, mean, sd) each."""
    n = sum(k for k, _, _ in parts)
    mean = sum(k * m for k, m, _ in parts) / n
    second = sum(k * (s * s + m * m) for k, m, s in parts) / n
    return mean, math.sqrt(max(second - mean * mean, 0.0))


# --- study2_extremes ------------------------------------------------------------

class Study2Extremes(Workload):
    name = "study2_extremes"
    why = ("study-2 scenario 1 at criterion 5's grid 0.01, 0.15, 0.35: the 6-parameter "
           "fallback, active bounds and redraws carry weight here")
    commands_per_round = 3
    default_size = 5  # replicates per grid point and command
    trace_rounds = 2

    def point(self, index: int) -> str:
        return STUDY2_POINTS[index % 3]

    def stem(self, index: int) -> str:
        return "out-study2-" + self.point(index)

    def argv(self, index: int) -> list[str]:
        return ["simulate", "study2", "--scenario", "1", "--grid", self.point(index),
                "--replicates", str(self.size), "--seed", str(command_seed(self.seed, index)),
                "--threads", "1", "--output", self.stem(index)]

    def check(self, outcome: Outcome) -> None:
        res = outcome.report["results"]
        outcome.attempted = res["replicates"]
        outcome.failed = res["fit_failures"]
        outcome.units = outcome.attempted - outcome.failed
        rows = {(r["estimator"], r["quantity"]): r for r in res["rows"]}
        outcome.kept = {}
        for estimator in ("proposed", "naive"):
            row = rows.get((estimator, "N_total"))
            if row is None or row["mean"] is None or row["rmse"] is None:
                outcome.problems.append(f"command {outcome.index}: no {estimator} N_total row")
            else:
                outcome.kept[estimator] = (row["n_used"], row["mean"], row["rmse"], row["truth"])

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        """Criterion 5's pattern on the replicates pooled per grid point. The
        bound on the bias at 0.15 (2%) gets three standard errors of the
        pooled mean on top, because a run pools fewer replicates than 500."""
        pooled = {}
        for point in STUDY2_POINTS:
            for estimator in ("proposed", "naive"):
                parts = [o.kept[estimator] for o in outcomes
                         if o.kept and estimator in o.kept and self.point(o.index) == point]
                n = sum(p[0] for p in parts)
                if not n:
                    return [f"grid point {point}: no completed replicates to check"]
                truth = parts[0][3]
                mean = sum(k * m for k, m, _, _ in parts) / n
                mse = sum(k * r * r for k, _, r, _ in parts) / n
                bias = mean - truth
                se_mean = math.sqrt(max(mse - bias * bias, 0.0) / n)
                pooled[(point, estimator)] = (bias, se_mean, truth)
        problems = []
        bias, se_mean, truth = pooled[("0.15", "proposed")]
        if abs(bias) >= 0.02 * truth + 3.0 * se_mean:
            problems.append(f"bias at 0.15 is {bias / truth:.2%}, not below 2% "
                            f"(+3 SE = {3.0 * se_mean / truth:.2%})")
        for edge in ("0.01", "0.35"):
            if abs(pooled[(edge, "proposed")][0]) <= abs(bias):
                problems.append(f"bias does not grow from 0.15 toward {edge}")
        for point in STUDY2_POINTS:
            if abs(pooled[(point, "proposed")][0]) > abs(pooled[(point, "naive")][0]):
                problems.append(f"proposed |bias| exceeds naive |bias| at {point}")
        return problems


# --- coverage_pool --------------------------------------------------------------

class CoveragePool(Workload):
    name = "coverage_pool"
    why = ("simulate coverage --threads 2: the only workload through the process pool, "
           "with a Hessian SE per replicate")
    default_size = 16  # replicates per command
    trace_rounds = 3

    def stem(self, index: int) -> str:
        return "out-coverage"

    def argv(self, index: int, threads: int = 2) -> list[str]:
        return ["simulate", "coverage", "--replicates", str(self.size),
                "--seed", str(command_seed(self.seed, index)),
                "--threads", str(threads), "--output", self.stem(index)]

    def serial_argv(self, index: int) -> list[str]:
        return self.argv(index, threads=1)

    def check(self, outcome: Outcome) -> None:
        res = outcome.report["results"]
        outcome.attempted = res["config"]["replicates"]
        outcome.failed = res["failures"]
        outcome.units = outcome.attempted - outcome.failed
        if len(res["rows"]) != 4:
            outcome.problems.append(f"command {outcome.index}: expected 4 coverage rows")
        for row in res["rows"]:
            if row["n_used"] != outcome.units or not 0.0 <= (row["coverage"] or 0.0) <= 1.0:
                outcome.problems.append(
                    f"command {outcome.index}: bad coverage row {row['quantity']}/{row['method']}")


# --- fit_requests ---------------------------------------------------------------

def _cells(alpha: float, p1: float, p2: float) -> list[float]:
    """Cell probabilities (p11, p10, p01, p00) under negative dependence."""
    q = 1.0 - alpha
    return [q * p1 * p2, p1 * (alpha + q * (1.0 - p2)), (1.0 - p1) * (alpha + q * p2),
            q * (1.0 - p1) * (1.0 - p2)]


def request_tables(seed: int, count: int) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """``count`` two-stratum tables drawn under negative dependence with a shared
    p1. Population sizes are log-uniform on [1.6e4, 4e6] (observed totals of
    about 5e3 to 1.3e6); alpha >= 0.06 and clearly different list-2 rates
    keep the dependence identifiable, so every fit is well defined."""
    rng = np.random.Generator(np.random.PCG64([int(seed) % 2**63, 7]))
    tables = []
    while len(tables) < count:
        n = 10 ** rng.uniform(4.2, 6.6)
        n_a = int(round(n * rng.uniform(0.55, 0.8)))
        n_b = int(round(n)) - n_a
        alpha, p1 = rng.uniform(0.06, 0.12), rng.uniform(0.12, 0.25)
        p2a, p2b = rng.uniform(0.02, 0.06), rng.uniform(0.15, 0.3)
        a = tuple(int(v) for v in rng.multinomial(n_a, _cells(alpha, p1, p2a))[:3])
        b = tuple(int(v) for v in rng.multinomial(n_b, _cells(alpha, p1, p2b))[:3])
        if a[0] >= 1 and b[0] >= 1:
            tables.append((a, b))
    return tables


class FitRequests(Workload):
    name = "fit_requests"
    why = ("interactive estimate --se hessian requests on seed-drawn CSV/JSON tables: "
           "no replicate loop, so loading and report writing show")
    unit = "requests"
    default_size = 192  # distinct tables, requested in turn
    trace_rounds = 96

    def __init__(self, seed: int, workdir: Path, size: int | None = None):
        super().__init__(seed, workdir, size)
        self.tables = request_tables(self.seed, self.size)
        fmt_rng = np.random.Generator(np.random.PCG64([self.seed % 2**63, 8]))
        self.formats = ["json" if fmt_rng.random() < 0.5 else "csv" for _ in self.tables]

    def attempted_per_command(self) -> int:
        return 1

    def prepare(self) -> None:
        for k, ((a, b), fmt) in enumerate(zip(self.tables, self.formats)):
            path = self.workdir / f"t{k:03d}.{fmt}"
            if fmt == "json":
                strata = [dict(label=label, x11=c[0], x10=c[1], x01=c[2])
                          for label, c in (("A", a), ("B", b))]
                path.write_text(json.dumps({"strata": strata}), encoding="utf-8")
            else:
                path.write_text("stratum,x11,x10,x01\nA,%d,%d,%d\nB,%d,%d,%d\n" % (*a, *b),
                                encoding="utf-8")

    def stem(self, index: int) -> str:
        return f"out-t{index % self.size:03d}"

    def argv(self, index: int) -> list[str]:
        k = index % self.size
        return ["estimate", "--input", f"t{k:03d}.{self.formats[k]}", "--se", "hessian",
                "--output", self.stem(index)]

    def check(self, outcome: Outcome) -> None:
        """The fitted total lies between the observed total and the pooled
        naive estimate, and has a finite information-matrix SE."""
        a, b = self.tables[outcome.index % self.size]
        res = outcome.report["results"]
        outcome.units = 1
        pooled = [x + y for x, y in zip(a, b)]
        lo, hi = float(sum(pooled)), naive(*pooled)
        total = res["fit"]["params"]["N_total"]
        if not res["fit"]["converged"] or total is None or not lo <= total <= hi:
            outcome.problems.append(
                f"request {outcome.index}: N_total={total} outside [{lo:.1f}, {hi:.1f}]")
        se = (res["uncertainty"]["se_hessian"] or {}).get("N_total")
        if se is None or not se > 0.0:
            outcome.problems.append(f"request {outcome.index}: SE of N_total is {se}")


WORKLOADS = {w.name: w for w in (EstimateQuarters, Study2Extremes, CoveragePool, FitRequests)}
