"""Command line interface: train, predict, active, bounds, bench.

Configs are JSON files; outputs are written atomically into --out. Exit codes:
0 success, 1 usage or config problems, 2 data problems (malformed CSV, broken
nesting, domain violations), 3 numerical or simulator failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    DatasetFormatError,
    Metrics,
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
    covering_number_bound,
    empirical_coverage,
    uniform_bound,
)
from .gp_level import IllConditionedError, OptimizerConfig
from .kernel import DEFAULT_JITTER_REL, DomainBox, check_integer, check_real
from .model import _atomic_write_text, check_budgets, load_model, predict, save_model, train

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
    # UTF-8, as JSON is, with or without a byte-order mark
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _jsonable(value):
    """Replace non-finite floats with explicit string sentinels for JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()  # no float needs a sentinel: skip the walk over every element
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


# the columns of bench's results table, in order
_BENCH_COLUMNS = ("benchmark", "budgets", "repeat", "seed", *Metrics._fields, "raw_rmse", "raw_r2",
                  "joint_nll")


def _write_record(command: str, config: dict, out_dir: str, fields: dict, t0: float) -> dict:
    """Write command's run record into out_dir and return it: the command, the SHA-256 of the
    canonical config JSON, fields and, timed from the perf_counter reading t0, wall_time_s."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    record = {"command": command, "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
              **fields, "wall_time_s": time.perf_counter() - t0}
    name = {"bench": "summary.json", "bounds": "bounds.json"}.get(command, "record.json")
    _write_json(os.path.join(out_dir, name), record)
    return record


def _write_table(out_dir: str, name: str, fmt: str, payload: dict, header, rows) -> str:
    """Write payload to name.json (--format structured) or header and rows to name.csv."""
    if fmt == "structured":
        path = os.path.join(out_dir, f"{name}.json")
        _write_json(path, payload)
    else:
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, header, rows)
    return path


def _fit_fields(model, standardize: bool, scored, raw, scale) -> dict:
    """The record fields of a fitted model and of its scores (all None when it was not scored)."""
    return {
        "metrics": None if scored is None else scored._asdict(),
        "raw_metrics": None if raw is None else raw._asdict(),
        "standardize": standardize,
        "scale": scale,
        "per_fidelity_nll": [lvl.fit_nll for lvl in model.levels],
        "joint_nll": model.joint_nll,
    }


@contextlib.contextmanager
def _config_faults(context: str = ""):
    """A TypeError or ValueError raised inside becomes a UsageError (exit 1), prefixed by context.

    Each command reads its whole config in one such block, before it touches a file or fits.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{context}{exc}") from exc


def _optimizer(config: dict, seed: int) -> OptimizerConfig:
    """The optimizer object of the config, its seed defaulting to the run seed."""
    sub = config.get("optimizer", {})
    if not isinstance(sub, dict):
        raise TypeError(f"optimizer must be a JSON object, got {sub!r}")
    if unknown := sorted(set(sub) - {"restarts", "seed"}):
        raise ValueError(f"optimizer may set only restarts and seed, got {unknown}")
    with _config_faults("invalid optimizer config: "):
        return OptimizerConfig(**{"seed": seed, **sub})


def _domain(config: dict) -> DomainBox | None:
    """The domain object of a config, or None without one; lower and upper list JSON numbers."""
    if "domain" not in config:
        return None
    entry = config["domain"]
    keys = ("lower", "upper")
    if not (isinstance(entry, dict) and all(isinstance(entry.get(k), list) for k in keys)):
        raise TypeError(f"domain must be an object with lists lower and upper, got {entry!r}")
    return DomainBox(*([check_real(v, f"domain {k}", "(-inf, inf)") for v in entry[k]]
                       for k in keys))


def _path(config: dict, key: str) -> str | None:
    """A file path of a config, or None without one; it must be a JSON string."""
    path = config.get(key)
    if key in config and not isinstance(path, str):
        raise TypeError(f"{key} must be a file path (a JSON string), got {path!r}")
    return path


def _flag(config: dict, key: str, default: bool) -> bool:
    """A config switch; it must be a JSON boolean."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def _budgets(source: dict, key: str, spec) -> list:
    """source[key] (spec's DEFAULT_BUDGETS without it) as budgets for spec; a list is required."""
    raw = source.get(key, DEFAULT_BUDGETS[spec.name])
    if not isinstance(raw, list):
        raise TypeError(f"budgets for {spec.name} must be a list of integers")
    return check_budgets(raw, spec.n_fidelities)


def _seed(config: dict, override) -> int:
    """The run seed: the --seed flag, else the config's seed, else 0."""
    return check_integer(config.get("seed", 0) if override is None else override, "seed", 0)


def _jitter_rel(config: dict) -> float:
    """The relative jitter of every fit, DEFAULT_JITTER_REL unless the config sets it."""
    return check_real(config.get("jitter_rel", DEFAULT_JITTER_REL), "jitter_rel", "[0, inf)")


def _held_out(config: dict) -> tuple[int, bool]:
    """(test_points, standardize) of a run scored on a benchmark's held-out points."""
    return (check_integer(config.get("test_points", 1000), "test_points", 1),
            _flag(config, "standardize", True))


# ---------------------------------------------------------------------------
# train


def cmd_train(config: dict, out_dir: str = ".", seed=None) -> dict:
    """Train a model from a benchmark protocol or a dataset CSV."""
    with _config_faults():
        run_seed = _seed(config, seed)
        opt = _optimizer(config, run_seed)
        jitter_rel = _jitter_rel(config)
        if ("benchmark" in config) == ("dataset" in config):
            raise ValueError("config must name exactly one of 'benchmark' or 'dataset'")
        if "benchmark" in config:
            spec = get_benchmark(config["benchmark"])
            budgets = _budgets(config, "budgets", spec)
            test_points, standardize = _held_out(config)
        else:
            spec = None
            dataset_path = _path(config, "dataset")
            test_path = _path(config, "test_dataset")
            domain = _domain(config)
            standardize = _flag(config, "standardize", False)
            noise = check_real(config.get("noise", 0.0), "noise", "[0, inf)")
            learn_noise = _flag(config, "learn_noise", False)
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.json")
    t0 = time.perf_counter()

    if spec is not None:
        case = run_benchmark_case(
            spec, budgets=budgets, seed=run_seed, opt=opt, test_points=test_points,
            standardize=standardize, jitter_rel=jitter_rel,
        )
        model, data = case["model"], case["data"]
        scored, raw, scale = case["metrics"], case["raw_metrics"], case["scale"]
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
        data = read_dataset_csv(dataset_path)
        model = train(
            data, opt, domain=domain, jitter_rel=jitter_rel, noise=noise, learn_noise=learn_noise
        )
        scored = raw = scale = None
        if test_path is not None:
            test = read_dataset_csv(test_path)
            post = predict(model, test.inputs[-1])
            scored, raw, scale = score(post, test.outputs[-1], data, standardize)

    save_model(model, model_path)
    return _write_record("train", config, out_dir, {
        "seed": run_seed,
        "counts": data.counts,
        **_fit_fields(model, standardize, scored, raw, scale),
        "residual_rms": [float(np.sqrt(np.mean((lvl.residuals + lvl.column_means) ** 2)))
                         for lvl in model.levels],
        "model_path": model_path,
    }, t0)


# ---------------------------------------------------------------------------
# predict


def _read_query_csv(path: str, input_dim: int) -> np.ndarray:
    expected = [f"x{i + 1}" for i in range(input_dim)]

    def check_header(header):
        if header != expected:
            raise DatasetFormatError(f"line 1: query header must be {','.join(expected)}")

    return read_csv_rows(path, check_header)[1]


def cmd_predict(model_path: str, query_file: str, out_dir: str = ".", fmt: str = "csv") -> str:
    """Predict at query points; writes predictions.csv or predictions.json."""
    model = load_model(model_path)
    queries = _read_query_csv(query_file, model.input_dim)
    os.makedirs(out_dir, exist_ok=True)
    post = predict(model, queries)
    return _write_table(out_dir, "predictions", fmt, {"means": post.mean, "variances": post.var},
                        [f"y{j + 1}" for j in range(model.output_dim)] + ["variance"],
                        np.column_stack([post.mean, post.var]))


# ---------------------------------------------------------------------------
# active


def cmd_active(config: dict, out_dir: str = ".", seed=None) -> dict:
    """Sequential design on a benchmark oracle, variance-driven or random (config "strategy")."""
    with _config_faults():
        run_seed = _seed(config, seed)
        if "benchmark" not in config:
            raise ValueError("active config must name a 'benchmark'")
        spec = get_benchmark(config["benchmark"])
        budgets = _budgets(config, "budgets", spec)
        pool_size = check_integer(config.get("pool_size", 200), "pool_size", 1)
        if budgets[0] > pool_size:
            raise ValueError(f"lowest-fidelity budget {budgets[0]} exceeds pool_size {pool_size}")
        strategy = config.get("strategy", "variance")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")
        opt = _optimizer(config, run_seed)
        jitter_rel = _jitter_rel(config)
        test_points, standardize = _held_out(config)
    os.makedirs(out_dir, exist_ok=True)
    audit_path = os.path.join(out_dir, "audit.jsonl")
    t0 = time.perf_counter()

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
    return _write_record("active", config, out_dir, {
        "seed": run_seed,
        "strategy": strategy,
        "budgets": budgets,
        "pool_size": pool_size,
        **_fit_fields(model, standardize, held_out["metrics"], held_out["raw_metrics"],
                      held_out["scale"]),
        "audit_path": audit_path,
        "model_path": model_path,
        "acquisitions": len(result.audit),
    }, t0)


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(model_path: str, config: dict, out_dir: str = ".", seed=None) -> dict:
    """Uniform-bound constants for a saved univariate model, plus a sampled curve."""
    with _config_faults():
        run_seed = _seed(config, seed)
        for key in ("delta", "tau", "l_y"):
            if key not in config:
                raise ValueError(f"bounds config requires '{key}'")
        cfg = BoundConfig(config["delta"], config["tau"], config["l_y"], _domain(config))
        grid_points = check_integer(config.get("grid_points", 512), "grid_points", 1)
        truth_path = _path(config, "truth")
    t0 = time.perf_counter()
    model = load_model(model_path)
    cfg.domain = cfg.domain or model.domain  # the model's own box unless the config names one
    bound = uniform_bound(model, cfg)
    os.makedirs(out_dir, exist_ok=True)

    if model.input_dim == 1:
        grid = np.linspace(cfg.domain.lower[0], cfg.domain.upper[0], grid_points)[:, None]
    else:
        grid = design_uniform(cfg.domain, grid_points, run_seed)
    post = predict(model, grid)
    sigma = np.sqrt(np.asarray(post.var))
    g = bound.envelope(post.var)

    curve_path = os.path.join(out_dir, "curve.csv")
    write_csv(
        curve_path,
        [f"x{i + 1}" for i in range(model.input_dim)] + ["mean", "sigma", "bound"],
        np.column_stack([grid, np.atleast_2d(post.mean)[:, 0], sigma, g]),
    )

    coverage = None
    if truth_path is not None:
        truth = read_dataset_csv(truth_path)
        coverage = empirical_coverage(model, bound, truth.inputs[-1], truth.outputs[-1])

    return _write_record("bounds", config, out_dir, {
        "beta": bound.beta,
        "gamma": bound.gamma,
        "l_mu": bound.l_mu,
        "omega_coeff": bound.omega_coeff,
        "covering": bound.covering,
        "covering_consistent": bound.covering == covering_number_bound(cfg.domain, cfg.tau),
        "delta": cfg.delta,
        "tau": cfg.tau,
        "l_y": cfg.l_y,
        "coverage": coverage,
        "curve_path": curve_path,
    }, t0)


# ---------------------------------------------------------------------------
# bench


def cmd_bench(config: dict, out_dir: str = ".", seed=None, fmt: str = "csv") -> list:
    """Run the benchmark suite and write a results table plus summary."""
    with _config_faults():
        run_seed = _seed(config, seed)
        names = config.get("benchmarks", sorted(DEFAULT_BUDGETS))
        if not isinstance(names, list):
            raise TypeError(f"bench benchmarks must be a list of benchmark names, got {names!r}")
        repeats = check_integer(config.get("repeats", 1), "repeats", 1)
        test_points, standardize = _held_out(config)
        budgets_override = config.get("budgets", {})
        if not isinstance(budgets_override, dict):
            raise TypeError("bench budgets must map benchmark names to budget lists")
        runs = {}  # benchmark name -> budgets
        for name in names:
            spec = get_benchmark(name)
            if spec.name in runs:
                raise ValueError(f"bench benchmarks name {spec.name!r} twice")
            runs[spec.name] = _budgets(budgets_override, spec.name, spec)
        for key in budgets_override:
            if key not in runs:
                raise ValueError(f"bench budgets name {key!r}, which is not a benchmark of this run")
        opts = [_optimizer(config, run_seed + rep) for rep in range(repeats)]
        jitter_rel = _jitter_rel(config)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()

    rows = []
    for name, budgets in runs.items():
        for rep, opt in enumerate(opts):
            case = run_benchmark_case(
                name, budgets=budgets, seed=run_seed + rep, opt=opt, test_points=test_points,
                standardize=standardize, jitter_rel=jitter_rel,
            )
            raw = case["raw_metrics"]
            values = (name, budgets, rep, run_seed + rep, *case["metrics"], raw.rmse, raw.r2,
                      case["model"].joint_nll)
            rows.append(dict(zip(_BENCH_COLUMNS, values)))

    results_path = _write_table(out_dir, "results", fmt, {"rows": rows}, _BENCH_COLUMNS, [
        ["-".join(map(str, v)) if k == "budgets" else v for k, v in row.items()] for row in rows
    ])
    summary = {
        name: {"repeats": repeats,
               **{k: float(np.mean([r[k] for r in rows if r["benchmark"] == name]))
                  for k in Metrics._fields}}
        for name in runs
    }
    _write_record("bench", config, out_dir, {
        "seed": run_seed,
        "standardize": standardize,
        "benchmarks": summary,
        "results_path": results_path,
    }, t0)
    return rows


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # main only reads the parser, so one per process serves every call
def _build_parser() -> _Parser:
    seed, out, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))  # shared options
    seed.add_argument("--seed", type=int, default=None)
    out.add_argument("--out", default=".")
    fmt.add_argument("--format", choices=["csv", "structured"], default="csv")
    parser = _Parser(prog="resgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config", parents=[seed, out])
    p_train.add_argument("--config", required=True)

    p_pred = sub.add_parser("predict", help="predict at query points", parents=[out, fmt])
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--queries", required=True)

    p_act = sub.add_parser("active", help="sequential design on a benchmark", parents=[seed, out])
    p_act.add_argument("--config", required=True)

    p_bnd = sub.add_parser("bounds", help="uniform error bound for a saved model",
                           parents=[seed, out])
    p_bnd.add_argument("--model", required=True)
    p_bnd.add_argument("--config", required=True)

    p_bench = sub.add_parser("bench", help="run the benchmark suite", parents=[seed, out, fmt])
    p_bench.add_argument("--config", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        if args.command == "train":
            cmd_train(config, args.out, args.seed)
        elif args.command == "predict":
            cmd_predict(args.model, args.queries, args.out, args.format)
        elif args.command == "active":
            cmd_active(config, args.out, args.seed)
        elif args.command == "bounds":
            cmd_bounds(args.model, config, args.out, args.seed)
        else:
            cmd_bench(config, args.out, args.seed, args.format)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an array too large to allocate, such as a huge grid_points
        print(f"usage error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleError, IllConditionedError, np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # DatasetFormatError, NestingError and UnsupportedModelError are ValueErrors
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
