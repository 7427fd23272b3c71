"""Command-line front end: diagnostics, estimation, and simulation studies.

Every command prints a text report and then hands its results to one
writer, ``_write_outputs``, which writes two machine-readable files:
``<stem>.report.json`` (full precision, strict JSON with every non-finite
value as null, and a reproducibility manifest) and ``<stem>.summary.csv``
(non-finite values as empty cells). Runs are deterministic for a fixed
seed; the manifest's digest covers everything except its own timestamp, so
two runs of the same command differ only in that one field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import __version__, inference, mle, simulate, tables
from .exceptions import DualdepError, NonConvergenceError, ValidationError

SIZE_QUANTITIES = ("N_A", "N_B", "N_total")
PARAM_QUANTITIES = ("alpha", "p1", "p2A", "p2B")


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("DUALDEP_THREADS", "1")))
    except ValueError:
        return 1


def _fmt_size(value) -> str:
    if value is None or not math.isfinite(value):
        return "undefined"
    return f"{value:,.0f}"


def _fmt_prob(value) -> str:
    if value is None or not math.isfinite(value):
        return "undefined"
    return f"{value:.4f}"


def _finite(value):
    """``value`` with every non-finite float, however deeply nested, as None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _record_rows(records, csv_header) -> list[list]:
    """CSV rows taken from result records by header name."""
    return [[r[key] for key in csv_header] for r in records]


def _write_outputs(args, command: str, inputs: list[str], seed, results: dict,
                   csv_header, csv_rows) -> tuple[Path, Path]:
    """Write ``<stem>.report.json`` and ``<stem>.summary.csv`` for a command and
    print where they went. Non-finite floats in ``results`` become null in
    the report and in ``csv_rows`` empty cells."""
    manifest = _manifest(args, command, inputs, seed)
    report = {"command": command, "results": _finite(results), "manifest": manifest}
    digest_view = dict(report)
    digest_view["manifest"] = {
        k: v for k, v in manifest.items() if k not in ("timestamp", "output_digest")
    }
    manifest["output_digest"] = "sha256:" + hashlib.sha256(
        json.dumps(digest_view, sort_keys=True, separators=(",", ":"), allow_nan=False)
        .encode("utf-8")
    ).hexdigest()

    stem = _stem_for(args, command)
    json_path = stem.with_name(stem.name + ".report.json")
    csv_path = stem.with_name(stem.name + ".summary.csv")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header)
        writer.writerows(_finite(csv_rows))
    print(f"wrote {json_path} and {csv_path}")
    return json_path, csv_path


def _manifest(args, command: str, inputs: list[str], seed) -> dict:
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func",) or callable(value):
            continue
        options[key] = str(value) if isinstance(value, Path) else value
    return {
        "command": command,
        "inputs": inputs,
        "options": options,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_digest": None,
    }


def _stem_for(args, fallback: str) -> Path:
    if args.output is not None:
        return Path(args.output)
    if getattr(args, "input", None) is not None:
        path = Path(args.input)
        return path.with_suffix("")
    return Path(fallback)


# --- diagnose ------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    data = tables.load_survey(args.input, args.format)
    external = None
    if (args.external_size_a is None) != (args.external_size_b is None):
        raise ValidationError("--external-size-a and --external-size-b go together")
    if args.external_size_a is not None:
        external = (args.external_size_a, args.external_size_b)
    diag = tables.diagnostics(data, external)

    bias_args = (args.phi, args.p, args.p1dot, args.N)
    if any(v is not None for v in bias_args) and not all(v is not None for v in bias_args):
        raise ValidationError("bias approximation needs all of --phi, --p, --p1dot, --N")
    bias_value = None
    if all(v is not None for v in bias_args):
        bias_value = tables.lp_bias_approx(args.N, args.p1dot, args.p, args.phi)

    print(f"Dual-list diagnostics for {args.input}")
    print(f"{'stratum':<24}{'c_hat':>8}{'p_hat':>8}{'naive':>14}")
    for idx, (label, _) in enumerate(data.strata):
        print(
            f"{label:<24}{_fmt_prob(diag.c_hat[idx]):>8}{_fmt_prob(diag.p_hat[idx]):>8}"
            f"{_fmt_size(diag.naive_per_stratum[idx]):>14}"
        )
    print(f"{'pooled naive':<24}{'':>16}{_fmt_size(diag.naive_pooled):>14}")
    for flag in diag.flags:
        print(f"flag: {flag} (naive estimate undefined in that stratum)")
    if bias_value is not None:
        print(
            f"naive-bias approximation at phi={args.phi}, p={args.p}, "
            f"p1.={args.p1dot}, N={args.N}: {bias_value:.6g}"
        )

    results = {
        "strata": [
            {
                "label": label,
                "x11": counts.x11,
                "x10": counts.x10,
                "x01": counts.x01,
                "c_hat": diag.c_hat[idx],
                "p_hat": diag.p_hat[idx],
                "naive": diag.naive_per_stratum[idx],
            }
            for idx, (label, counts) in enumerate(data.strata)
        ],
        "naive_pooled": diag.naive_pooled,
        "flags": list(diag.flags),
        "bias_approximation": bias_value,
    }
    rows = [
        (s["label"], s["c_hat"], s["p_hat"], s["naive"]) for s in results["strata"]
    ] + [("pooled", "", "", results["naive_pooled"])]
    _write_outputs(
        args, "diagnose", [str(args.input)], None, results,
        ("stratum", "c_hat", "p_hat", "naive"), rows,
    )
    return 0


# --- estimate ------------------------------------------------------------------

def cmd_estimate(args) -> int:
    if args.se in ("bootstrap", "both") and args.B < 1:
        raise ValidationError("B must be >= 1 for bootstrap")
    data = tables.load_survey(args.input, args.format)
    options = mle.FitOptions(
        mode=args.mode,
        max_iterations=args.max_iterations,
        gradient_tolerance=args.gradient_tolerance,
        n_starts=args.starts,
        seed=args.seed,
    )
    try:
        fit = mle.fit(data, options)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in exc.diagnostics:
            print(
                f"  start ll={diag.log_likelihood:.6f} pg={diag.projected_gradient:.3e} "
                f"iterations={diag.iterations}: {diag.message}",
                file=sys.stderr,
            )
        return 1

    methods = {"hessian": ("hessian",), "bootstrap": ("bootstrap",), "both": ("hessian", "bootstrap")}[args.se]
    unc = inference.uncertainty_report(
        data, fit, methods=methods, n_replicates=args.B,
        seed=args.seed, level=args.level, threads=args.threads,
    )
    diag = tables.diagnostics(data)

    points = {
        "N_A": fit.params.n_a,
        "N_B": fit.params.n_b,
        "N_total": fit.params.total,
        "alpha": fit.params.alpha,
        "p1": fit.params.p1,
        "p2A": fit.params.p2a,
        "p2B": fit.params.p2b,
    }
    boot_mean = unc.bootstrap_result.mean if unc.bootstrap_result is not None else {}

    print(f"Constrained MLE ({fit.mode} mode) for {args.input}")
    print(
        f"converged={fit.converged} log_likelihood={fit.log_likelihood:.6f} "
        f"iterations={fit.iterations}"
    )
    active = ", ".join(sorted(fit.active_constraints)) or "none"
    print(f"active constraints: {active}")
    if unc.hessian_note:
        print(f"note: {unc.hessian_note}")
    header = f"{'quantity':<10}{'point':>12}"
    if unc.se_hessian is not None:
        header += f"{'se(info)':>12}"
    if unc.se_bootstrap is not None:
        header += f"{'se(boot)':>12}{'boot mean':>12}"
    print(header)
    for name in SIZE_QUANTITIES + PARAM_QUANTITIES:
        fmt = _fmt_size if name in SIZE_QUANTITIES else _fmt_prob
        line = f"{name:<10}{fmt(points[name]):>12}"
        if unc.se_hessian is not None:
            line += f"{fmt(unc.se_hessian.get(name)):>12}"
        if unc.se_bootstrap is not None:
            line += f"{fmt(unc.se_bootstrap.get(name)):>12}{fmt(boot_mean.get(name)):>12}"
        print(line)
    for method in unc.ci:
        parts = []
        for name in SIZE_QUANTITIES:
            interval = unc.ci[method][name]
            if interval is None:
                parts.append(f"{name}: undefined")
            else:
                parts.append(f"{name}: [{_fmt_size(interval[0])}; {_fmt_size(interval[1])}]")
        print(f"{int(unc.level * 100)}% CI ({method}): " + "  ".join(parts))
    if unc.n_replicates:
        print(f"bootstrap: B={unc.n_replicates} failed={unc.n_failed_replicates}")

    results = {
        "naive": {
            "per_stratum": diag.naive_per_stratum,
            "pooled": diag.naive_pooled,
            "c_hat": diag.c_hat,
        },
        "fit": {
            "mode": fit.mode,
            "converged": fit.converged,
            "log_likelihood": fit.log_likelihood,
            "iterations": fit.iterations,
            "active_constraints": sorted(fit.active_constraints),
            "params": points,
            "size_ratio_gap": fit.size_ratio_gap,
            "p2_identity_gap": fit.p2_identity_gap,
        },
        "uncertainty": {
            "methods": list(unc.methods),
            "level": unc.level,
            "se_hessian": unc.se_hessian,
            "hessian_note": unc.hessian_note,
            "se_bootstrap": unc.se_bootstrap,
            "bootstrap_mean": boot_mean or None,
            "ci": unc.ci,
            "B": unc.n_replicates,
            "n_failed_replicates": unc.n_failed_replicates,
        },
    }
    rows = [
        (name, points[name], (unc.se_hessian or {}).get(name), (unc.se_bootstrap or {}).get(name),
         boot_mean.get(name))
        for name in SIZE_QUANTITIES + PARAM_QUANTITIES
    ]
    _write_outputs(
        args, "estimate", [str(args.input)], args.seed, results,
        ("quantity", "point", "se_hessian", "se_bootstrap", "bootstrap_mean"), rows,
    )
    return 0


# --- simulate ------------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(Decimal(parts[0])),)
        if len(parts) != 3:
            raise ValidationError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (Decimal(p) for p in parts)
    except InvalidOperation:
        raise ValidationError(f"grid values are not numbers: {text!r}") from None
    if not all(value.is_finite() for value in (start, stop, step)):
        raise ValidationError(f"grid values must be finite: {text!r}")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    quotient = (stop - start) / step
    n = int(quotient.to_integral_value(rounding="ROUND_HALF_EVEN"))
    if n < 0 or abs(quotient - n) > Decimal("1e-9"):
        raise ValidationError(f"grid step does not divide the range: {text!r}")
    return tuple(float(start + k * step) for k in range(n + 1))


def _print_study1(result, near_zero_marks: bool = False) -> None:
    print(
        f"{'estimator':<10}{'quantity':<9}{'truth':>12}{'mean':>14}"
        f"{'rel.bias%':>11}{'cv%':>9}{'rmse':>12}"
    )
    for estimator, s in result.all_summaries():
        mark = ""
        if near_zero_marks and abs(s.relative_bias_pct) < 1.0:
            mark = "  ~0 bias"
        mean = _fmt_size(s.mean) if s.quantity.startswith("N") else _fmt_prob(s.mean)
        truth = _fmt_size(s.truth) if s.quantity.startswith("N") else _fmt_prob(s.truth)
        print(
            f"{estimator:<10}{s.quantity:<9}{truth:>12}{mean:>14}"
            f"{s.relative_bias_pct:>11.4f}{s.cv_pct:>9.4f}{s.rmse:>12.4g}{mark}"
        )
    print(
        f"replicates={result.config.replicates} redraws={result.redraws} "
        f"fit_failures={result.fit_failures} reduced_fallbacks={result.reduced_fallbacks}"
    )


def _study1_like(args, command: str, config) -> int:
    options = mle.FitOptions(seed=args.seed)
    result = simulate.run_study1(config, options, threads=args.threads)
    print(f"Simulation summary ({command})")
    _print_study1(result, near_zero_marks=(command == "custom"))
    results = {
        "config": asdict(config),
        "summaries": [
            {"estimator": est, **asdict(s)} for est, s in result.all_summaries()
        ],
        "redraws": result.redraws,
        "fit_failures": result.fit_failures,
        "reduced_fallbacks": result.reduced_fallbacks,
    }
    header = ("estimator", "quantity", "truth", "n_used", "mean", "relative_bias_pct", "cv_pct", "rmse")
    _write_outputs(
        args, command, [], args.seed, results, header, _record_rows(results["summaries"], header)
    )
    return 0


def cmd_simulate_study1(args) -> int:
    config = simulate.study1_config(replicates=args.replicates, seed=args.seed)
    return _study1_like(args, "study1", config)


def cmd_simulate_custom(args) -> int:
    config = simulate.GeneratorConfig(
        n_a=args.NA,
        n_b=args.NB,
        alpha=args.alpha,
        p1_a=args.p1A,
        p1_b=args.p1B if args.p1B is not None else args.p1A,
        p2_a=args.p2A,
        p2_b=args.p2B if args.p2B is not None else args.p2A,
        dependence=args.dependence,
        replicates=args.replicates,
        seed=args.seed,
    )
    return _study1_like(args, "custom", config)


def cmd_simulate_coverage(args) -> int:
    config = simulate.study1_config(replicates=args.replicates, seed=args.seed)
    result = simulate.run_coverage(
        config, mle.FitOptions(seed=args.seed), level=args.level, threads=args.threads
    )
    print(f"Interval coverage at level {args.level}")
    print(f"{'quantity':<9}{'method':<11}{'mean lower':>12}{'mean upper':>12}{'coverage':>10}{'n':>6}")
    for row in result.rows:
        print(
            f"{row.quantity:<9}{row.method:<11}{_fmt_size(row.mean_lower):>12}"
            f"{_fmt_size(row.mean_upper):>12}{row.coverage:>10.4f}{row.n_used:>6}"
        )
    print(f"failures={result.failures} redraws={result.redraws}")
    results = {
        "config": asdict(config),
        "level": result.level,
        "rows": [asdict(row) for row in result.rows],
        "failures": result.failures,
        "redraws": result.redraws,
        "reduced_fallbacks": result.reduced_fallbacks,
    }
    header = ("quantity", "method", "mean_lower", "mean_upper", "coverage", "n_used")
    _write_outputs(
        args, "coverage", [], args.seed, results, header, _record_rows(results["rows"], header)
    )
    return 0


def cmd_simulate_study2(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else simulate.scenario_grid()
    result = simulate.run_study2(
        scenario=args.scenario,
        grid=grid,
        replicates=args.replicates,
        seed=args.seed,
        options=mle.FitOptions(seed=args.seed),
        threads=args.threads,
    )
    print(f"Assumption-violation sweep, scenario {args.scenario}")
    print(
        f"{'grid':>6} {'estimator':<10}{'quantity':<9}{'mean':>14}"
        f"{'bias':>14}{'rel.bias%':>11}{'rmse':>12}"
    )
    for row in result.rows:
        print(
            f"{row.grid_value:>6.2f} {row.estimator:<10}{row.quantity:<9}"
            f"{_fmt_size(row.mean):>14}{row.bias:>14,.1f}"
            f"{row.relative_bias_pct:>11.2f}{row.rmse:>12,.1f}"
        )
    print(
        f"replicates/point={result.replicates} fit_failures={result.fit_failures} "
        f"reduced_fallbacks={result.reduced_fallbacks}"
    )
    results = {
        "scenario": result.scenario,
        "grid": list(result.grid),
        "replicates": result.replicates,
        "rows": [asdict(row) for row in result.rows],
        "fit_failures": result.fit_failures,
        "reduced_fallbacks": result.reduced_fallbacks,
    }
    header = ("grid_value", "estimator", "quantity", "truth", "n_used", "mean", "bias",
              "relative_bias_pct", "rmse")
    _write_outputs(
        args, "study2", [], args.seed, results, header, _record_rows(results["rows"], header)
    )
    return 0


# --- parser --------------------------------------------------------------------

def _add_common_sim(parser, default_replicates=500):
    parser.add_argument("--replicates", type=int, default=default_replicates)
    parser.add_argument("--seed", type=int, default=mle.DEFAULT_SEED)
    parser.add_argument("--threads", type=int, default=_default_threads())
    parser.add_argument("--output", type=Path, default=None, help="output file stem")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdep",
        description="Population size estimation from two negatively dependent capture lists.",
    )
    parser.add_argument("--version", action="version", version=f"dualdep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    diag = sub.add_parser("diagnose", help="dependence diagnostics and naive estimates")
    diag.add_argument("--input", required=True, type=Path)
    diag.add_argument("--format", choices=("csv", "json"), default=None)
    diag.add_argument("--phi", type=float, default=None, help="behavioral response effect")
    diag.add_argument("--p", type=float, default=None, help="list-2 rate among list-1 misses")
    diag.add_argument("--p1dot", type=float, default=None, help="list-1 capture probability")
    diag.add_argument("--N", type=float, default=None, help="population size for the bias approximation")
    diag.add_argument("--external-size-a", type=float, default=None)
    diag.add_argument("--external-size-b", type=float, default=None)
    diag.add_argument("--output", type=Path, default=None)
    diag.set_defaults(func=cmd_diagnose)

    est = sub.add_parser("estimate", help="constrained MLE with uncertainty")
    est.add_argument("--input", required=True, type=Path)
    est.add_argument("--format", choices=("csv", "json"), default=None)
    est.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    est.add_argument("--se", choices=("hessian", "bootstrap", "both"), default="both")
    est.add_argument("--B", type=int, default=500, help="bootstrap replicates")
    est.add_argument("--seed", type=int, default=mle.DEFAULT_SEED)
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--threads", type=int, default=_default_threads())
    est.add_argument("--starts", type=int, default=12)
    est.add_argument("--max-iterations", type=int, default=500)
    est.add_argument("--gradient-tolerance", type=float, default=1e-8)
    est.add_argument("--output", type=Path, default=None)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte-Carlo studies")
    sim_sub = sim.add_subparsers(dest="study", required=True)

    s1 = sim_sub.add_parser("study1", help="bias/CV study at the reference configuration")
    _add_common_sim(s1)
    s1.set_defaults(func=cmd_simulate_study1)

    cov = sim_sub.add_parser("coverage", help="interval coverage study")
    _add_common_sim(cov)
    cov.add_argument("--level", type=float, default=0.95)
    cov.set_defaults(func=cmd_simulate_coverage)

    s2 = sim_sub.add_parser("study2", help="assumption-violation sweep")
    s2.add_argument("--scenario", type=int, choices=(1, 2, 3), required=True)
    s2.add_argument("--grid", type=str, default=None, help="start:stop:step, e.g. 0.01:0.35:0.01")
    _add_common_sim(s2)
    s2.set_defaults(func=cmd_simulate_study2)

    cust = sim_sub.add_parser("custom", help="summary study at a custom configuration")
    cust.add_argument("--NA", type=int, required=True)
    cust.add_argument("--NB", type=int, required=True)
    cust.add_argument("--alpha", type=float, required=True)
    cust.add_argument("--p1A", type=float, required=True)
    cust.add_argument("--p1B", type=float, default=None, help="defaults to --p1A")
    cust.add_argument("--p2A", type=float, required=True)
    cust.add_argument("--p2B", type=float, default=None, help="defaults to --p2A")
    cust.add_argument("--dependence", choices=simulate.DEPENDENCE_KINDS, default="negative")
    _add_common_sim(cust)
    cust.set_defaults(func=cmd_simulate_custom)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(default_threads: int) -> argparse.ArgumentParser:
    """``build_parser()`` while DUALDEP_THREADS gives ``default_threads``.
    A parser is a web of reference cycles, so a new one per ``main`` call
    leaves garbage that only the cyclic collector frees."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(_default_threads()).parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
