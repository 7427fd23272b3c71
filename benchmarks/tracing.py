"""Per-layer tracing from outside the program.

``install`` replaces module attributes of ``dualdep`` at the names where
callers look them up, so every call into a layer passes through a wrapper
that records a span (name, start, end, parent, request) or, for the
likelihood kernels that run hundreds of thousands of times, a count and a
duration. ``uninstall`` puts every original back.

Calls made inside process-pool workers are caught by wrapping the worker
handed to ``run_indexed``: the worker records into a fresh ``Recorder`` and
returns it with its result; the wrapped ``run_indexed`` strips it off and
merges it before the caller sees the results.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

from dualdep.exceptions import FitError, NonConvergenceError, ValidationError
from workloads import percentile as _p

MODEL_KERNELS = {"_ll": "ll", "_grad": "grad", "_hess": "hess"}

# (module, attribute) pairs wrapped as spans; simulate binds se_from_hessian and
# run_indexed by name at import, so those bindings are wrapped separately.
SPAN_TARGETS = (
    ("cli", "main"),
    ("cli", "_write_outputs"),
    ("tables", "load_survey"),
    ("mle", "fit"),
    ("mle", "_solve_start"),
    ("inference", "bootstrap"),
    ("inference", "draw_replicate_tables"),
    ("inference", "se_from_hessian"),
    ("simulate", "se_from_hessian"),
    ("simulate", "_draw_survey"),
    ("simulate", "_fit_generated"),
    ("_parallel", "run_indexed"),
    ("simulate", "run_indexed"),
)

_active: "Tracer | None" = None  # the tracer whose wrappers are installed in this process


class Recorder:
    """Spans, counts and samples of one process (or one pool task)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request, pid, error]
        self.stack: list[int] = []
        self.request = 0
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.fit_depth = 0
        self.pid = os.getpid()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, self.pid, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        return span[2] - span[1]

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, other: "Recorder") -> None:
        offset = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for name, start, end, up, _, pid, error in other.spans:
            self.spans.append([name, start, end, up + offset if up >= 0 else parent,
                               self.request, pid, error])
        self.counts.update(other.counts)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)


class TracedWorker:
    """Picklable stand-in for a pool worker: runs it with a fresh recorder and
    returns ``(result, recorder)``."""

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, task):
        tracer = _active
        if tracer is None:  # a spawned worker starts from a fresh import
            tracer = install()
        outer = tracer.recorder
        tracer.recorder = rec = Recorder()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = self.worker(task)
        finally:
            tracer.recorder = outer
        rec.sample("parallel.busy_s", time.perf_counter() - start)
        rec.sample("parallel.cpu_s", time.process_time() - cpu)
        return result, rec


class Tracer:
    def __init__(self):
        self.recorder = Recorder()
        self.originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers ---------------------------------------------------------------

    def _kernel(self, fn, kind: str):
        counter, samples = "model." + kind + "_calls", "model.eval_s"

        def kernel(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                rec = self.recorder
                rec.counts[counter] += 1
                rec.sample(samples, elapsed)
                if rec.fit_depth:
                    rec.counts["model.seconds_in_fit"] += elapsed

        return kernel

    def _span(self, fn, name: str):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            rec = self.recorder
            rec.request += name == "cli.main"  # one command is one request
            index = rec.open(name)
            is_fit = name == "mle.fit"
            rec.fit_depth += is_fit
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = rec.close(index)
                rec.fit_depth -= is_fit
                rec.spans[index][6] = type(exc).__name__
                if observe is not None:
                    observe(rec, None, exc, elapsed)
                raise
            elapsed = rec.close(index)
            rec.fit_depth -= is_fit
            rec.sample(name + ".s", elapsed)
            if observe is not None:
                observe(rec, result, None, elapsed)
            return result

        return span

    def _run_indexed(self, fn, name: str):
        def run_indexed(worker, tasks, *args, **kwargs):
            rec = self.recorder
            index = rec.open(name)
            try:
                pairs = fn(TracedWorker(worker), tasks, *args, **kwargs)
            finally:
                wall = rec.close(index)
            busy = 0.0
            for _, sub in pairs:
                busy += sum(sub.samples["parallel.busy_s"])
                rec.merge(sub)
            n_workers = len({sub.pid for _, sub in pairs}) or 1
            rec.counts["parallel.tasks"] += len(tasks)
            rec.counts["parallel.wall_x_workers_s"] += wall * n_workers
            rec.counts["parallel.dispatch_s"] += max(wall - busy / n_workers, 0.0)
            return [result for result, _ in pairs]

        return run_indexed

    # -- observers: counts read off results at the layer boundary ---------------

    def _observe_mle_fit(self, rec, result, exc, elapsed):
        """A fit that ran its starts. Calls that raise before any start (an
        empty reduced box, before the full-mode fallback) count as none."""
        if isinstance(exc, NonConvergenceError):
            diagnostics, best, mode = exc.diagnostics, None, None
        elif result is not None:
            diagnostics, best, mode = result.per_start_diagnostics, result.log_likelihood, result.mode
        else:
            return
        rec.counts["mle.fits"] += 1
        rec.counts["mle.full_mode_fits"] += mode == "full"
        rec.sample("mle.fit_s", elapsed)
        for d in diagnostics:
            rec.sample("mle.iterations_per_start", d.iterations)
            rec.counts["mle.diagnosed_starts"] += 1
            rec.counts["mle.nonconverged_starts"] += not d.converged
            if best is not None and abs(d.log_likelihood - best) <= self.tie_tol:
                rec.counts["mle.starts_at_best"] += 1

    def _observe_inference_bootstrap(self, rec, result, exc, elapsed):
        if result is not None:
            rec.counts["inference.replicates"] += result.n_requested
            rec.counts["inference.failed_replicates"] += result.n_failed

    def _observe_simulate__draw_survey(self, rec, result, exc, elapsed):
        if result is not None:
            rec.counts["simulate.redraws"] += result[1]

    def _observe_simulate__fit_generated(self, rec, result, exc, elapsed):
        if result is not None:
            fit, fallback = result
            rec.counts["simulate.fallbacks"] += bool(fallback)
            rec.counts["simulate.fit_failures"] += not fit.converged
        elif isinstance(exc, (FitError, ValidationError)):
            rec.counts["simulate.fit_failures"] += 1

    def _observe_cli__write_outputs(self, rec, result, exc, elapsed):
        if result is not None:
            rec.sample("cli.report_bytes", os.path.getsize(result[0]))

    # -- install / uninstall ------------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self.originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        self.tie_tol = getattr(importlib.import_module("dualdep.mle"), "_TIE_TOL", 1e-9)
        model = importlib.import_module("dualdep.model")
        for attr, kind in MODEL_KERNELS.items():
            if hasattr(model, attr):
                self._replace(model, attr, self._kernel(getattr(model, attr), kind))
            else:
                self.missing.append("model." + attr)
        for mod_name, attr in SPAN_TARGETS:
            module = importlib.import_module("dualdep." + mod_name)
            if not hasattr(module, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name.lstrip('_')}.{attr}"
            fn = getattr(module, attr)
            wrap = self._run_indexed if attr == "run_indexed" else self._span
            self._replace(module, attr, wrap(fn, name))

    def uninstall(self) -> None:
        while self.originals:
            module, attr, original = self.originals.pop()
            setattr(module, attr, original)


def install() -> Tracer:
    """Wrap the layer entry points of dualdep in this process."""
    global _active
    if _active is not None:
        raise RuntimeError("tracing is already installed")
    tracer = Tracer()
    tracer.install()
    _active = tracer
    return tracer


def uninstall(tracer: Tracer) -> None:
    global _active
    tracer.uninstall()
    if _active is tracer:
        _active = None


# --- per-layer metrics ------------------------------------------------------------

def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count)."""
    c, s = rec.counts, rec.samples
    fit_s = s.get("mle.fit_s", [])
    starts = s.get("mle._solve_start.s", [])
    replicates = c["inference.replicates"]
    busy = sum(s.get("parallel.busy_s", []))
    wall_x_workers = c["parallel.wall_x_workers_s"]
    n = len
    metrics = {
        "model.ll_calls": (c["model.ll_calls"], "count", c["model.ll_calls"]),
        "model.grad_calls": (c["model.grad_calls"], "count", c["model.grad_calls"]),
        "model.hess_calls": (c["model.hess_calls"], "count", c["model.hess_calls"]),
        "model.eval_us_p50": (_p(s.get("model.eval_s", []), 0.5) * 1e6, "us",
                              n(s.get("model.eval_s", []))),
        "mle.fits": (c["mle.fits"], "count", c["mle.fits"]),
        "mle.fit_ms_p50": (_p(fit_s, 0.5) * 1e3, "ms", n(fit_s)),
        "mle.fit_ms_p95": (_p(fit_s, 0.95) * 1e3, "ms", n(fit_s)),
        "mle.starts": (n(starts), "count", n(starts)),
        "mle.start_ms_p50": (_p(starts, 0.5) * 1e3, "ms", n(starts)),
        "mle.iterations_per_start_p50": (_p(s.get("mle.iterations_per_start", []), 0.5), "count",
                                         c["mle.diagnosed_starts"]),
        "mle.nonconverged_starts": (c["mle.nonconverged_starts"], "count", c["mle.diagnosed_starts"]),
        "mle.full_mode_fits": (c["mle.full_mode_fits"], "count", c["mle.fits"]),
        "mle.self_share": ((1.0 - c["model.seconds_in_fit"] / sum(fit_s)) if fit_s else 0.0,
                           "ratio", n(fit_s)),
        "mle.redundant_start_ratio": (
            c["mle.starts_at_best"] / c["mle.diagnosed_starts"] if c["mle.diagnosed_starts"] else 0.0,
            "ratio", c["mle.diagnosed_starts"]),
        "inference.draws": (n(s.get("inference.draw_replicate_tables.s", [])), "count",
                            n(s.get("inference.draw_replicate_tables.s", []))),
        "inference.draws_per_replicate": (
            n(s.get("inference.draw_replicate_tables.s", [])) / replicates if replicates else 0.0,
            "ratio", replicates),
        "inference.draw_us_p50": (_p(s.get("inference.draw_replicate_tables.s", []), 0.5) * 1e6,
                                  "us", n(s.get("inference.draw_replicate_tables.s", []))),
        "inference.se_us_p50": (
            _p(s.get("inference.se_from_hessian.s", []) + s.get("simulate.se_from_hessian.s", []),
               0.5) * 1e6, "us",
            n(s.get("inference.se_from_hessian.s", [])) + n(s.get("simulate.se_from_hessian.s", []))),
        "inference.failed_replicates": (c["inference.failed_replicates"], "count", replicates),
        "simulate.draws": (n(s.get("simulate._draw_survey.s", [])), "count",
                           n(s.get("simulate._draw_survey.s", []))),
        "simulate.draw_us_p50": (_p(s.get("simulate._draw_survey.s", []), 0.5) * 1e6, "us",
                                 n(s.get("simulate._draw_survey.s", []))),
        "simulate.redraws": (c["simulate.redraws"], "count", n(s.get("simulate._draw_survey.s", []))),
        "simulate.fallbacks": (c["simulate.fallbacks"], "count",
                               n(s.get("simulate._fit_generated.s", []))),
        "simulate.fit_failures": (c["simulate.fit_failures"], "count",
                                  n(s.get("simulate._fit_generated.s", []))),
        "parallel.tasks": (c["parallel.tasks"], "count", c["parallel.tasks"]),
        "parallel.worker_busy_s": (busy, "s", c["parallel.tasks"]),
        "parallel.dispatch_s": (c["parallel.dispatch_s"], "s", c["parallel.tasks"]),
        "parallel.utilization": (busy / wall_x_workers if wall_x_workers else 0.0, "ratio",
                                 c["parallel.tasks"]),
        "parallel.cpu_per_busy": (sum(s.get("parallel.cpu_s", [])) / busy if busy else 0.0,
                                  "ratio", c["parallel.tasks"]),
        "tables.load_ms_p50": (_p(s.get("tables.load_survey.s", []), 0.5) * 1e3, "ms",
                               n(s.get("tables.load_survey.s", []))),
        "cli.commands": (n(s.get("cli.main.s", [])), "count", n(s.get("cli.main.s", []))),
        "cli.write_ms_p50": (_p(s.get("cli._write_outputs.s", []), 0.5) * 1e3, "ms",
                             n(s.get("cli._write_outputs.s", []))),
        "cli.report_bytes": (_p(s.get("cli.report_bytes", []), 0.5), "bytes",
                             n(s.get("cli.report_bytes", []))),
        "trace.overhead_ratio": (overhead_ratio, "ratio", 1),
    }
    return {k: (float(v), unit, int(count)) for k, (v, unit, count) in metrics.items()}
