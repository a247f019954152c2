"""Command line interface: train, predict, active, bounds, bench.

Configs are JSON files; outputs are written atomically into --out. Exit codes:
0 success, 1 usage or config problems, 2 data problems (malformed CSV, broken
nesting, domain violations), 3 numerical or simulator failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .active import STRATEGIES, OracleError, sequential_construct, write_audit
from .benchmarks import (
    DEFAULT_BUDGETS,
    POOL_SEED_OFFSET,
    TEST_SEED_OFFSET,
    BenchmarkSpec,
    DatasetFormatError,
    design_uniform,
    evaluate,
    get_benchmark,
    read_csv_rows,
    read_dataset_csv,
    run_benchmark_case,
    score,
    score_held_out,
    write_csv,
    write_dataset_csv,
)
from .bounds import (
    BoundConfig,
    ResourceLimitError,
    UnsupportedModelError,
    covering_number_bound,
    empirical_coverage,
    uniform_bound,
)
from .gp_level import IllConditionedError, OptimizerConfig, check_integer, check_real
from .kernel import DEFAULT_JITTER_REL, DomainBox
from .model import NestingError, _atomic_write_text, check_budgets, load_model, predict, save_model, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _jsonable(value):
    """Replace non-finite floats with explicit string sentinels for JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(_jsonable(payload), sort_keys=True, indent=1) + "\n")


def _metrics_dict(m) -> dict:
    return {"rmse": m.rmse, "r2": m.r2, "mnll": m.mnll, "nrmse": m.nrmse}


def _optimizer(config: dict, seed: int) -> OptimizerConfig:
    """The optimizer object of the config, its seed defaulting to the run seed."""
    sub = config.get("optimizer", {})
    if not isinstance(sub, dict):
        raise UsageError(f"optimizer must be a JSON object, got {sub!r}")
    try:
        return OptimizerConfig(**{"seed": seed, **sub})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid optimizer config: {exc}") from exc


def _benchmark(name) -> BenchmarkSpec:
    """The benchmark a config names; a name that is not known is a config problem."""
    if not isinstance(name, str):
        raise UsageError(f"benchmark must be a name, got {name!r}")
    try:
        return get_benchmark(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _domain_from(entry) -> DomainBox:
    """The domain object of a config; its bounds must be lists of JSON numbers."""
    try:
        lower = [check_real(v, "domain lower") for v in entry["lower"]]
        upper = [check_real(v, "domain upper") for v in entry["upper"]]
        return DomainBox(lower, upper)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid domain entry: {exc}") from exc


def _integer(value, name: str) -> int:
    """value as an int; as in OptimizerConfig, a bool, fraction or string is rejected."""
    try:
        return check_integer(value, name)
    except TypeError as exc:
        raise UsageError(str(exc)) from None


def _flag(config: dict, key: str, default: bool) -> bool:
    """A config switch; it must be a JSON boolean."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise UsageError(f"{key} must be true or false, got {value!r}")
    return value


def _count(config: dict, key: str, default: int) -> int:
    """A config field counting something; it must be an integer of at least 1."""
    n = _integer(config.get(key, default), key)
    if n < 1:
        raise UsageError(f"{key} must be at least 1")
    return n


def _budgets(raw, spec) -> list:
    """The budgets of a config for spec, as check_budgets accepts them."""
    if not isinstance(raw, list):
        raise UsageError(f"budgets for {spec.name} must be a list of integers")
    try:
        return check_budgets(raw, spec.n_fidelities)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{spec.name}: {exc}") from None


def _nonnegative(config: dict, key: str, default: float) -> float:
    """A config number such as a jitter or a noise variance: finite and at least 0."""
    value = config.get(key, default)
    message = f"{key} must be a finite number of at least 0, got {value!r}"
    try:
        number = check_real(value, key)
    except TypeError:
        raise UsageError(message) from None
    if not 0 <= number < math.inf:
        raise UsageError(message)
    return number


def _resolve_seed(config: dict, override) -> int:
    seed = _integer(config.get("seed", 0) if override is None else override, "seed")
    if seed < 0:
        raise UsageError(f"seed must be at least 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# train


def cmd_train(config: dict, out_dir: str = ".", seed=None) -> dict:
    """Train a model from a benchmark protocol or a dataset CSV."""
    run_seed = _resolve_seed(config, seed)
    opt = _optimizer(config, run_seed)
    jitter_rel = _nonnegative(config, "jitter_rel", DEFAULT_JITTER_REL)
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.json")
    t0 = time.perf_counter()

    has_bench = "benchmark" in config
    has_dataset = "dataset" in config
    if has_bench == has_dataset:
        raise UsageError("config must name exactly one of 'benchmark' or 'dataset'")

    scale = None
    if has_bench:
        spec = _benchmark(config["benchmark"])
        budgets = _budgets(config.get("budgets", DEFAULT_BUDGETS[spec.name]), spec)
        standardize = _flag(config, "standardize", True)
        case = run_benchmark_case(
            spec,
            budgets=budgets,
            seed=run_seed,
            opt=opt,
            test_points=_count(config, "test_points", 1000),
            standardize=standardize,
            jitter_rel=jitter_rel,
        )
        model = case["model"]
        data = case["data"]
        scored = case["metrics"]
        raw = case["raw_metrics"]
        scale = case["scale"]
        write_dataset_csv(os.path.join(out_dir, "dataset.csv"), data)
        _write_json(
            os.path.join(out_dir, "dataset_meta.json"),
            {
                "benchmark": spec.name,
                "budgets": budgets,
                "design_seed": run_seed,
                "subsample_seeds": [run_seed + f for f in range(2, spec.n_fidelities + 1)],
                "test_seed": run_seed + TEST_SEED_OFFSET,
            },
        )
    else:
        data = read_dataset_csv(config["dataset"])
        domain = _domain_from(config["domain"]) if "domain" in config else None
        standardize = _flag(config, "standardize", False)
        model = train(
            data,
            opt,
            domain=domain,
            jitter_rel=jitter_rel,
            noise=_nonnegative(config, "noise", 0.0),
            learn_noise=_flag(config, "learn_noise", False),
        )
        scored = raw = None
        if "test_dataset" in config:
            test = read_dataset_csv(config["test_dataset"])
            post = predict(model, test.inputs[-1])
            scored, raw, scale = score(post, test.outputs[-1], data, standardize)

    residual_rms = [
        float(np.sqrt(np.mean((lvl.residuals + lvl.column_means) ** 2)))
        for lvl in model.levels
    ]

    save_model(model, model_path)
    record = {
        "command": "train",
        "config_hash": _config_hash(config),
        "seed": run_seed,
        "counts": data.counts,
        "metrics": None if scored is None else _metrics_dict(scored),
        "raw_metrics": None if raw is None else _metrics_dict(raw),
        "standardize": standardize,
        "scale": scale,
        "per_fidelity_nll": [lvl.fit_nll for lvl in model.levels],
        "joint_nll": model.joint_nll,
        "residual_rms": residual_rms,
        "model_path": model_path,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out_dir, "record.json"), record)
    return record


# ---------------------------------------------------------------------------
# predict


def _read_query_csv(path: str, input_dim: int) -> np.ndarray:
    expected = [f"x{i + 1}" for i in range(input_dim)]

    def check_header(header):
        if header != expected:
            raise DatasetFormatError(f"line 1: query header must be {','.join(expected)}")

    return read_csv_rows(path, check_header)[1]


def cmd_predict(
    model_path: str, query_file: str, out_dir: str = ".", fmt: str = "csv"
) -> str:
    """Predict at query points; writes predictions.csv or predictions.json."""
    model = load_model(model_path)
    queries = _read_query_csv(query_file, model.input_dim)
    os.makedirs(out_dir, exist_ok=True)
    post = predict(model, queries)
    if fmt == "structured":
        out_path = os.path.join(out_dir, "predictions.json")
        _write_json(
            out_path,
            {"means": post.mean.tolist(), "variances": post.var.tolist()},
        )
        return out_path
    out_path = os.path.join(out_dir, "predictions.csv")
    write_csv(
        out_path,
        [f"y{j + 1}" for j in range(model.output_dim)] + ["variance"],
        np.column_stack([post.mean, post.var]).tolist(),
    )
    return out_path


# ---------------------------------------------------------------------------
# active


def cmd_active(config: dict, out_dir: str = ".", seed=None) -> dict:
    """Sequential variance-driven design on a benchmark oracle."""
    run_seed = _resolve_seed(config, seed)
    if "benchmark" not in config:
        raise UsageError("active config must name a 'benchmark'")
    spec = _benchmark(config["benchmark"])
    budgets = _budgets(config.get("budgets", DEFAULT_BUDGETS[spec.name]), spec)
    pool_size = _count(config, "pool_size", 200)
    if budgets[0] > pool_size:
        raise UsageError(f"lowest-fidelity budget {budgets[0]} exceeds pool_size {pool_size}")
    strategy = config.get("strategy", "variance")
    if strategy not in STRATEGIES:
        raise UsageError(f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")
    opt = _optimizer(config, run_seed)
    jitter_rel = _nonnegative(config, "jitter_rel", DEFAULT_JITTER_REL)
    os.makedirs(out_dir, exist_ok=True)
    audit_path = os.path.join(out_dir, "audit.jsonl")
    t0 = time.perf_counter()

    test_points = _count(config, "test_points", 1000)
    standardize = _flag(config, "standardize", True)
    pool = design_uniform(spec.domain, pool_size, run_seed + POOL_SEED_OFFSET)

    try:
        result = sequential_construct(
            pool,
            budgets,
            lambda f, x: evaluate(spec, f, x),
            opt,
            run_seed,
            domain=spec.domain,
            jitter_rel=jitter_rel,
            strategy=strategy,
        )
    except OracleError as exc:
        write_audit(exc.audit, audit_path)
        raise
    write_audit(result.audit, audit_path)

    model = result.model
    model_path = os.path.join(out_dir, "model.json")
    save_model(model, model_path)

    held_out = score_held_out(spec, model, result.data, run_seed, test_points, standardize)

    record = {
        "command": "active",
        "config_hash": _config_hash(config),
        "seed": run_seed,
        "strategy": strategy,
        "budgets": budgets,
        "pool_size": pool_size,
        "metrics": _metrics_dict(held_out["metrics"]),
        "raw_metrics": _metrics_dict(held_out["raw_metrics"]),
        "standardize": standardize,
        "scale": held_out["scale"],
        "per_fidelity_nll": [lvl.fit_nll for lvl in model.levels],
        "joint_nll": model.joint_nll,
        "audit_path": audit_path,
        "model_path": model_path,
        "acquisitions": len(result.audit),
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out_dir, "record.json"), record)
    return record


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(model_path: str, config: dict, out_dir: str = ".", seed=None) -> dict:
    """Uniform-bound constants for a saved univariate model, plus a sampled curve."""
    run_seed = _resolve_seed(config, seed)
    model = load_model(model_path)
    constants = {}
    for key in ("delta", "tau", "l_y"):
        if key not in config:
            raise UsageError(f"bounds config requires '{key}'")
        try:
            constants[key] = check_real(config[key], key)
        except TypeError as exc:
            raise UsageError(str(exc)) from None
    domain = _domain_from(config["domain"]) if "domain" in config else model.domain
    try:
        cfg = BoundConfig(**constants, domain=domain)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    bound, bound_fn = uniform_bound(model, cfg)
    os.makedirs(out_dir, exist_ok=True)

    grid_points = _count(config, "grid_points", 512)
    if model.input_dim == 1:
        grid = np.linspace(domain.lower[0], domain.upper[0], grid_points)[:, None]
    else:
        grid = design_uniform(domain, grid_points, run_seed)
    post = predict(model, grid)
    sigma = np.sqrt(np.asarray(post.var))
    g = bound_fn(grid)

    curve_path = os.path.join(out_dir, "curve.csv")
    write_csv(
        curve_path,
        [f"x{i + 1}" for i in range(model.input_dim)] + ["mean", "sigma", "bound"],
        np.column_stack([grid, np.atleast_2d(post.mean)[:, 0], sigma, g]).tolist(),
    )

    coverage = None
    if "truth" in config:
        truth_data = read_dataset_csv(config["truth"])
        tx = truth_data.inputs[-1]
        ty = truth_data.outputs[-1]
        coverage = empirical_coverage(model, bound_fn, tx, ty)

    report = {
        "command": "bounds",
        "config_hash": _config_hash(config),
        "beta": bound.beta,
        "gamma": bound.gamma,
        "l_mu": bound.l_mu,
        "omega_coeff": bound.omega_coeff,
        "covering": bound.covering,
        "covering_consistent": bound.covering == covering_number_bound(domain, cfg.tau),
        "delta": cfg.delta,
        "tau": cfg.tau,
        "l_y": cfg.l_y,
        "coverage": coverage,
        "curve_path": curve_path,
    }
    _write_json(os.path.join(out_dir, "bounds.json"), report)
    return report


# ---------------------------------------------------------------------------
# bench


def cmd_bench(config: dict, out_dir: str = ".", seed=None, fmt: str = "csv") -> list:
    """Run the benchmark suite and write a results table plus summary."""
    run_seed = _resolve_seed(config, seed)
    names = config.get("benchmarks", sorted(DEFAULT_BUDGETS))
    if not isinstance(names, list):
        raise UsageError(f"bench benchmarks must be a list of benchmark names, got {names!r}")
    repeats = _count(config, "repeats", 1)
    test_points = _count(config, "test_points", 1000)
    standardize = _flag(config, "standardize", True)
    budgets_override = config.get("budgets", {})
    if not isinstance(budgets_override, dict):
        raise UsageError("bench budgets must map benchmark names to budget lists")
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()

    runs = []  # every name and budget list is checked before the first run
    for name in names:
        spec = _benchmark(name)
        budgets = _budgets(budgets_override.get(spec.name, DEFAULT_BUDGETS[spec.name]), spec)
        runs.append((spec.name, budgets))

    rows = []
    for name, budgets in runs:
        for rep in range(repeats):
            s = run_seed + rep
            case = run_benchmark_case(
                name,
                budgets=budgets,
                seed=s,
                opt=_optimizer(config, s),
                test_points=test_points,
                standardize=standardize,
            )
            rows.append({
                "benchmark": name,
                "budgets": budgets,
                "repeat": rep,
                "seed": s,
                **_metrics_dict(case["metrics"]),
                "raw_rmse": case["raw_metrics"].rmse,
                "raw_r2": case["raw_metrics"].r2,
                "joint_nll": case["model"].joint_nll,
            })

    header = ["benchmark", "budgets", "repeat", "seed", "rmse", "r2", "mnll", "nrmse"]
    header += ["raw_rmse", "raw_r2", "joint_nll"]
    if fmt == "structured":
        results_path = os.path.join(out_dir, "results.json")
        _write_json(results_path, {"rows": [{k: row[k] for k in header} for row in rows]})
    else:
        results_path = os.path.join(out_dir, "results.csv")
        write_csv(
            results_path,
            header,
            [
                [row["benchmark"], "-".join(str(b) for b in row["budgets"])]
                + [row[k] for k in header[2:]]
                for row in rows
            ],
        )

    summary = {}
    for name in names:
        sub = [r for r in rows if r["benchmark"] == name]
        summary[name] = {
            k: float(np.mean([r[k] for r in sub])) for k in ["rmse", "r2", "mnll", "nrmse"]
        }
        summary[name]["repeats"] = len(sub)
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "command": "bench",
            "config_hash": _config_hash(config),
            "seed": run_seed,
            "standardize": standardize,
            "benchmarks": summary,
            "results_path": results_path,
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return rows


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="resgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=".")

    p_pred = sub.add_parser("predict", help="predict at query points")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--queries", required=True)
    p_pred.add_argument("--out", default=".")
    p_pred.add_argument("--format", choices=["csv", "structured"], default="csv")

    p_act = sub.add_parser("active", help="sequential design on a benchmark")
    p_act.add_argument("--config", required=True)
    p_act.add_argument("--seed", type=int, default=None)
    p_act.add_argument("--out", default=".")

    p_bnd = sub.add_parser("bounds", help="uniform error bound for a saved model")
    p_bnd.add_argument("--model", required=True)
    p_bnd.add_argument("--config", required=True)
    p_bnd.add_argument("--seed", type=int, default=None)
    p_bnd.add_argument("--out", default=".")

    p_bench = sub.add_parser("bench", help="run the benchmark suite")
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=".")
    p_bench.add_argument("--format", choices=["csv", "structured"], default="csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            cmd_train(_load_config(args.config), args.out, args.seed)
        elif args.command == "predict":
            cmd_predict(args.model, args.queries, args.out, args.format)
        elif args.command == "active":
            cmd_active(_load_config(args.config), args.out, args.seed)
        elif args.command == "bounds":
            cmd_bounds(args.model, _load_config(args.config), args.out, args.seed)
        elif args.command == "bench":
            config = _load_config(args.config) if args.config else {}
            cmd_bench(config, args.out, args.seed, args.format)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, NestingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OracleError, IllConditionedError, np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError, UnsupportedModelError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
