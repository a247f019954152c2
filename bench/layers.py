"""Which package functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package. The wrappers live here, in the
benchmark; the program is not edited. scipy's L-BFGS-B is read at the
gp_level -> scipy boundary by wrapping the `minimize` name that gp_level
imported, and taking nfev, nit, success and x from its result.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import Tracer, self_times

MODULES = ("kernel", "gp_level", "model", "active", "bounds", "benchmarks", "cli")

# L-BFGS-B runs in log-parameter space inside this box (resgp.gp_level.LOG_BOUND)
LOG_BOX = 10.0
# level sizes N the per-evaluation NLL cost is bucketed by
NLL_BUCKETS = (10, 30, 80, 200)


def _rows(q) -> int:
    q = np.asarray(q)
    return 1 if q.ndim == 1 else int(q.shape[0])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cross_vec_after(span, args, kwargs, result):
    q = np.asarray(_arg(args, kwargs, 1, "query"))
    pts = np.asarray(_arg(args, kwargs, 2, "points"))
    m, n, l = _rows(q), int(pts.shape[0]), int(pts.shape[1])
    span.attrs["pairs"] = m * n
    span.attrs["bytes_computed"] = m * n * l * 8


def _fit_level_before(span, args, kwargs):
    span.attrs["n"] = int(_arg(args, kwargs, 0, "data").n_points)


def _lbfgs_after(tracer):
    def after(span, args, kwargs, result):
        parent = tracer.parent(span)
        span.attrs["n"] = parent.attrs.get("n") if parent is not None else None
        span.attrs["nfev"] = int(result.nfev)
        span.attrs["nit"] = int(result.nit)
        span.attrs["success"] = bool(result.success)
        span.attrs["box_hits"] = int(np.sum(np.abs(result.x) >= LOG_BOX - 1e-9))
    return after


def _rows_after(position, name):
    def after(span, args, kwargs, result):
        span.attrs["rows"] = _rows(_arg(args, kwargs, position, name))
    return after


def _select_next_after(span, args, kwargs, result):
    span.attrs["candidates"] = _rows(_arg(args, kwargs, 1, "candidates"))


def _main_after(span, args, kwargs, result):
    span.attrs["exit"] = int(result)


# (defining module, function, span name, before hook, after hook)
TARGETS = [
    ("kernel", "gram", "kernel.gram", None, None),
    ("kernel", "cross_vec", "kernel.cross_vec", None, _cross_vec_after),
    ("kernel", "kernel_lipschitz", "kernel.kernel_lipschitz", None, None),
    ("gp_level", "fit_level", "gp_level.fit_level", _fit_level_before, None),
    ("gp_level", "cholesky_with_escalation", "gp_level.cholesky", None, None),
    ("gp_level", "level_predict", "gp_level.level_predict", None, _rows_after(1, "query")),
    ("model", "train", "model.train", None, None),
    ("model", "nesting_check", "model.nesting_check", None, None),
    ("model", "compute_residuals", "model.compute_residuals", None, None),
    ("model", "predict", "model.predict", None, _rows_after(1, "query")),
    ("model", "save_model", "model.save_model", None, None),
    ("model", "load_model", "model.load_model", None, None),
    ("active", "sequential_construct", "active.sequential_construct", None, None),
    ("active", "select_next", "active.select_next", None, _select_next_after),
    ("bounds", "uniform_bound", "bounds.uniform_bound", None, None),
    ("bounds", "mean_lipschitz_bound", "bounds.mean_lipschitz_bound", None, None),
    ("benchmarks", "run_benchmark_case", "benchmarks.run_benchmark_case", None, None),
    ("benchmarks", "nested_random_data", "benchmarks.nested_random_data", None, None),
    ("benchmarks", "evaluate", "benchmarks.evaluate", None, None),
    ("benchmarks", "metrics", "benchmarks.metrics", None, None),
    ("cli", "main", "cli.main", None, _main_after),
]


def install(tracer: Tracer) -> list:
    """Wrap every target at every module attribute holding it; returns the wrapped sites.

    A target the package no longer defines is skipped, and its metrics read 0.
    """
    mods = {m: importlib.import_module(f"resgp.{m}") for m in MODULES}
    search = [importlib.import_module("resgp")] + list(mods.values())
    sites = []
    for mod, attr, name, before, after in TARGETS:
        target = getattr(mods[mod], attr, None)
        if target is not None:
            sites += tracer.wrap_everywhere(search, target, name, before, after)
    # the optimizer is scipy's; only the name gp_level calls it through is wrapped
    if hasattr(mods["gp_level"], "minimize"):
        tracer.wrap(mods["gp_level"], "minimize", "gp_level.lbfgs", after=_lbfgs_after(tracer))
        sites.append("resgp.gp_level.minimize")
    return sites


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("kernel.gram.calls", "count"),
    ("kernel.gram.s", "s"),
    ("kernel.cross_vec.calls", "count"),
    ("kernel.cross_vec.pairs", "count"),
    ("kernel.cross_vec.bytes_computed", "B"),
    ("kernel.cross_vec.s", "s"),
    ("kernel.kernel_lipschitz.calls", "count"),
    ("kernel.kernel_lipschitz.s", "s"),
    ("gp_level.fit_level.calls", "count"),
    ("gp_level.fit_level.self_s", "s"),
    ("gp_level.lbfgs.starts", "count"),
    ("gp_level.lbfgs.nfev", "count"),
    ("gp_level.lbfgs.nit", "count"),
    ("gp_level.lbfgs.s", "s"),
    ("gp_level.lbfgs.converged_ratio", "1"),
    ("gp_level.lbfgs.box_hits", "count"),
] + [(f"gp_level.nll_eval_ms.n_le_{b}", "ms") for b in NLL_BUCKETS] + [
    ("gp_level.cholesky.calls", "count"),
    ("gp_level.cholesky.s", "s"),
    ("gp_level.cholesky.escalations", "count"),
    ("gp_level.level_predict.calls", "count"),
    ("gp_level.level_predict.rows", "count"),
    ("gp_level.level_predict.self_s", "s"),
    ("model.train.calls", "count"),
    ("model.train.self_s", "s"),
    ("model.nesting_check.s", "s"),
    ("model.compute_residuals.s", "s"),
    ("model.predict.calls", "count"),
    ("model.predict.rows", "count"),
    ("model.predict.self_s", "s"),
    ("model.save_model.s", "s"),
    ("model.load_model.s", "s"),
    ("active.sequential_construct.self_s", "s"),
    ("active.refit.calls", "count"),
    ("active.refit.s", "s"),
    ("active.select_next.calls", "count"),
    ("active.select_next.candidates", "count"),
    ("active.select_next.s", "s"),
    ("active.oracle.s", "s"),
    ("bounds.uniform_bound.calls", "count"),
    ("bounds.uniform_bound.self_s", "s"),
    ("bounds.mean_lipschitz_bound.s", "s"),
    ("benchmarks.run_benchmark_case.calls", "count"),
    ("benchmarks.run_benchmark_case.self_s", "s"),
    ("benchmarks.nested_random_data.s", "s"),
    ("benchmarks.evaluate.calls", "count"),
    ("benchmarks.evaluate.s", "s"),
    ("benchmarks.metrics.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.exit_nonzero", "count"),
    ("trace_overhead", "1"),
]


def _bucket(n) -> int | None:
    for b in NLL_BUCKETS:
        if n is not None and n <= b:
            return b
    return None


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate the spans into every per-layer metric except trace_overhead.

    A layer the workload never calls reports zero calls and zero seconds.
    """
    selfs = self_times(tracer)
    kids = tracer.children()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name))

    def total(name):
        return float(sum(s.duration for s in spans(name)))

    def self_total(name):
        return float(sum(selfs[s.id] for s in spans(name)))

    def attr_sum(name, key):
        return int(sum(s.attrs.get(key, 0) for s in spans(name)))

    out = {}
    out["kernel.gram.calls"] = calls("kernel.gram")
    out["kernel.gram.s"] = total("kernel.gram")
    out["kernel.cross_vec.calls"] = calls("kernel.cross_vec")
    out["kernel.cross_vec.pairs"] = attr_sum("kernel.cross_vec", "pairs")
    out["kernel.cross_vec.bytes_computed"] = attr_sum("kernel.cross_vec", "bytes_computed")
    out["kernel.cross_vec.s"] = total("kernel.cross_vec")
    out["kernel.kernel_lipschitz.calls"] = calls("kernel.kernel_lipschitz")
    out["kernel.kernel_lipschitz.s"] = total("kernel.kernel_lipschitz")

    lb = spans("gp_level.lbfgs")
    out["gp_level.fit_level.calls"] = calls("gp_level.fit_level")
    out["gp_level.fit_level.self_s"] = self_total("gp_level.fit_level")
    out["gp_level.lbfgs.starts"] = len(lb)
    out["gp_level.lbfgs.nfev"] = attr_sum("gp_level.lbfgs", "nfev")
    out["gp_level.lbfgs.nit"] = attr_sum("gp_level.lbfgs", "nit")
    out["gp_level.lbfgs.s"] = total("gp_level.lbfgs")
    out["gp_level.lbfgs.converged_ratio"] = (
        sum(1 for s in lb if s.attrs.get("success")) / len(lb) if lb else 0.0
    )
    out["gp_level.lbfgs.box_hits"] = attr_sum("gp_level.lbfgs", "box_hits")
    for b in NLL_BUCKETS:
        group = [s for s in lb if _bucket(s.attrs.get("n")) == b]
        nfev = sum(s.attrs.get("nfev", 0) for s in group)
        secs = sum(s.duration for s in group)
        out[f"gp_level.nll_eval_ms.n_le_{b}"] = 1000.0 * secs / nfev if nfev else 0.0

    chol = spans("gp_level.cholesky")
    out["gp_level.cholesky.calls"] = len(chol)
    out["gp_level.cholesky.s"] = total("gp_level.cholesky")
    # every Gram build after the first inside one factorization is a jitter escalation
    out["gp_level.cholesky.escalations"] = int(sum(
        max(0, sum(1 for c in kids.get(s.id, ()) if c.name == "kernel.gram") - 1)
        for s in chol
    ))
    out["gp_level.level_predict.calls"] = calls("gp_level.level_predict")
    out["gp_level.level_predict.rows"] = attr_sum("gp_level.level_predict", "rows")
    out["gp_level.level_predict.self_s"] = self_total("gp_level.level_predict")

    out["model.train.calls"] = calls("model.train")
    out["model.train.self_s"] = self_total("model.train")
    out["model.nesting_check.s"] = total("model.nesting_check")
    out["model.compute_residuals.s"] = total("model.compute_residuals")
    out["model.predict.calls"] = calls("model.predict")
    out["model.predict.rows"] = attr_sum("model.predict", "rows")
    out["model.predict.self_s"] = self_total("model.predict")
    out["model.save_model.s"] = total("model.save_model")
    out["model.load_model.s"] = total("model.load_model")

    refits = [s for s in spans("gp_level.fit_level") if s.attrs.get("site", "").startswith("resgp.active.")]
    out["active.sequential_construct.self_s"] = self_total("active.sequential_construct")
    out["active.refit.calls"] = len(refits)
    out["active.refit.s"] = float(sum(s.duration for s in refits))
    out["active.select_next.calls"] = calls("active.select_next")
    out["active.select_next.candidates"] = attr_sum("active.select_next", "candidates")
    out["active.select_next.s"] = total("active.select_next")
    out["active.oracle.s"] = total("active.oracle")

    out["bounds.uniform_bound.calls"] = calls("bounds.uniform_bound")
    out["bounds.uniform_bound.self_s"] = self_total("bounds.uniform_bound")
    out["bounds.mean_lipschitz_bound.s"] = total("bounds.mean_lipschitz_bound")

    out["benchmarks.run_benchmark_case.calls"] = calls("benchmarks.run_benchmark_case")
    out["benchmarks.run_benchmark_case.self_s"] = self_total("benchmarks.run_benchmark_case")
    out["benchmarks.nested_random_data.s"] = total("benchmarks.nested_random_data")
    out["benchmarks.evaluate.calls"] = calls("benchmarks.evaluate")
    out["benchmarks.evaluate.s"] = total("benchmarks.evaluate")
    out["benchmarks.metrics.s"] = total("benchmarks.metrics")

    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_total("cli.main")
    out["cli.exit_nonzero"] = sum(1 for s in spans("cli.main") if s.attrs.get("exit", 0) != 0)
    return out
