"""SHA-256 digests of the results the benchmark workloads compute, one line per artifact.

A change that claims to leave every result bit for bit the same is checked by
running this script on both trees and comparing the outputs:

    PYTHONPATH=<parent>/src python tools/bit_identity.py > parent.txt
    PYTHONPATH=<change>/src python tools/bit_identity.py > change.txt
    diff parent.txt change.txt

The first line names the numpy and scipy versions; every other line is
"<artifact> <sha256>". The artifacts are:

- table2/<benchmark>/seed<s>/level<l>: each level's params, fit_nll, chol and
  alpha, and table2/<benchmark>/seed<s>/posterior: the posterior mean and
  variance on the 1,000 held-out points, for run_benchmark_case on the five
  Table-2 benchmarks at seeds 0-9;
- bounds/<benchmark>/seed<s>: the uniform bound's constants of that Table-2
  model on its own box, bounds._level_constants (L_mu and the omega
  coefficient, which reads each level factor's smallest singular value);
- table2/<benchmark>/seed<s>/level<l>/at_params: the likelihood at that
  level's params, on its inputs and centered residuals: neg_log_likelihood,
  nll_gradient, and the fit_nll, chol and alpha of build_level(params, ...,
  center=False);
- lbfgs/<benchmark>/seed<s>: the x, fun, nit, nfev and success of every
  L-BFGS-B run of that Table-2 case, in call order, taken by wrapping
  gp_level.minimize;
- starts/<benchmark>/seed<s>: the start list of every fit of that Table-2
  case, in call order, taken by wrapping gp_level._start_points, so a change to
  the start recipe shows under its own name;
- nugget/<benchmark>/seed<s>: each level, and its likelihood at its params as
  above, of train(..., learn_noise=True) on the Table-2 data of seeds 0-2,
  each fidelity's outputs perturbed by seeded noise of 5% of their std;
- fixed-nugget/<benchmark>/seed<s>: the same for train(..., noise=1e-3), a
  fixed nugget, on the unperturbed Table-2 data of seeds 0-2;
- design/seed<s>/audit and design/seed<s>/levels: the audit records and the
  final levels of sequential_construct on hartmann3 [40, 15, 5] from a
  1,000-point pool, at seeds 2200-2203, and design/seed2200/random/audit and
  .../levels: the same at seed 2200 with strategy "random";
- design/seed2200/select-blocks: the index and gain select_next picks with the
  first level of the seed-2200 construction from a 2,500-point pool, scored in
  three blocks of PREDICT_ROWS;
- cli/<command>/<file>: what resgp train, predict and bounds write for currin
  [20, 5] at seed 7, without wall_time_s and output paths,
  cli/predict-checked/predictions.csv: predictions.csv of resgp predict on
  the same query rows written with CRLF line ends, one quoted cell and one
  blank line, which the csv reader reads instead of np.loadtxt and which must
  equal cli/predict/predictions.csv,
  cli/predict-blocks/predictions.csv: predictions.csv of resgp predict on
  2,500 query rows, three blocks of PREDICT_ROWS, and
  cli/bounds-truth/bounds.json: bounds.json, without wall_time_s, curve_path
  and config_hash (its config names a temporary file), of resgp bounds with a
  truth CSV of currin's top fidelity at 200 held-out points, which scores
  empirical_coverage;
- pendulum/f<f> and pendulum/trajectory/dt<dt>: the pendulum benchmark at both
  fidelities and pendulum_trajectory;
- pendulum/seed<s>/level<l> and .../at_params: each level of run_benchmark_case
  on the pendulum at seeds 0-1, whose two outputs (d = 2) take the QR path of
  the residual factor, and its likelihood at its params as above, and
  pendulum/seed0/predict-blocks: the posterior of the seed-0 model at 2,500
  points, three blocks of PREDICT_ROWS.

The script sets no thread variable. Linear algebra results are reproducible
at a fixed BLAS thread count only, so both runs must use the same settings.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import scipy

from resgp import active, benchmarks, bounds, cli, gp_level
from resgp.gp_level import (
    OptimizerConfig,
    ResidualDataset,
    build_level,
    neg_log_likelihood,
    nll_gradient,
)
from resgp.model import MultiFidelityData, predict, train

TABLE2 = ("currin", "park", "borehole", "branin3", "hartmann3")
TABLE2_SEEDS = range(10)
NUGGET_SEEDS = range(3)
NUGGET_NOISE = 0.05
FIXED_NUGGET = 1e-3
PENDULUM_SEEDS = range(2)
DESIGN_SEEDS = range(2200, 2204)
DESIGN_BUDGETS = [40, 15, 5]
DESIGN_POOL = 1000
CLI_SEED = 7
CLI_QUERIES = 1000
CLI_TRUTH_POINTS = 200
# query rows of the artifacts that predict in more than one block of PREDICT_ROWS
BLOCK_QUERIES = 2500
PENDULUM_ANGLES = np.linspace(1.25, 1.57, 7)
PENDULUM_STEPS = (0.1, 0.01, 0.37, 5.0)


def digest(*parts) -> str:
    """SHA-256 over each part's shape and float64 bytes, or over a str or bytes part as is."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            p = p.encode()
        if isinstance(p, bytes):
            h.update(p)
            continue
        a = np.ascontiguousarray(p, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def level_digest(level) -> str:
    p = level.params
    return digest(p.amplitude, p.weights, p.noise, level.fit_nll, level.chol, level.alpha)


def at_params_digest(level) -> str:
    """The fixed-params likelihood path at a level's params, on its own data."""
    data = ResidualDataset(level.inputs, level.residuals)
    built = build_level(level.params, data, center=False)
    return digest(neg_log_likelihood(level.params, data), nll_gradient(level.params, data),
                  built.fit_nll, built.chol, built.alpha)


def table2():
    driver, recipe, runs, fits = gp_level.minimize, gp_level._start_points, [], []

    def recording_driver(*args, **kwargs):
        runs.append(driver(*args, **kwargs))
        return runs[-1]

    def recording_recipe(*args, **kwargs):
        fits.append(recipe(*args, **kwargs))
        return fits[-1]

    for name in TABLE2:
        for s in TABLE2_SEEDS:
            runs.clear()
            fits.clear()
            gp_level.minimize, gp_level._start_points = recording_driver, recording_recipe
            try:
                case = benchmarks.run_benchmark_case(name, seed=s)
            finally:
                gp_level.minimize, gp_level._start_points = driver, recipe
            yield f"lbfgs/{name}/seed{s}", digest(
                *(part for r in runs for part in (r.x, r.fun, r.nit, r.nfev, r.success)))
            yield f"starts/{name}/seed{s}", digest(
                *(part for starts in fits for part in (str(len(starts)), *starts)))
            for l, level in enumerate(case["model"].levels, start=1):
                yield f"table2/{name}/seed{s}/level{l}", level_digest(level)
                yield f"table2/{name}/seed{s}/level{l}/at_params", at_params_digest(level)
            post = case["posterior"]
            yield f"table2/{name}/seed{s}/posterior", digest(post.mean, post.var)
            model = case["model"]
            yield f"bounds/{name}/seed{s}", digest(*bounds._level_constants(model, model.domain))


def nugget():
    for name in TABLE2:
        spec = benchmarks.get_benchmark(name)
        for s in NUGGET_SEEDS:
            data = benchmarks.nested_random_data(spec, benchmarks.DEFAULT_BUDGETS[name], s)
            rng = np.random.default_rng(s)
            noisy = MultiFidelityData(data.inputs, [
                y + NUGGET_NOISE * y.std(axis=0) * rng.standard_normal(y.shape) for y in data.outputs
            ])
            model = train(noisy, OptimizerConfig(seed=s), domain=spec.domain, learn_noise=True)
            yield f"nugget/{name}/seed{s}", digest(
                *(level_digest(level) + at_params_digest(level) for level in model.levels))
            model = train(data, OptimizerConfig(seed=s), domain=spec.domain, noise=FIXED_NUGGET)
            yield f"fixed-nugget/{name}/seed{s}", digest(
                *(level_digest(level) + at_params_digest(level) for level in model.levels))


def design():
    spec = benchmarks.get_benchmark("hartmann3")
    runs = [(s, "variance", f"design/seed{s}") for s in DESIGN_SEEDS]
    runs.append((DESIGN_SEEDS[0], "random", f"design/seed{DESIGN_SEEDS[0]}/random"))
    for s, strategy, name in runs:
        pool = benchmarks.design_uniform(spec.domain, DESIGN_POOL, s + benchmarks.POOL_SEED_OFFSET)
        result = active.sequential_construct(
            pool, DESIGN_BUDGETS, lambda f, x: benchmarks.evaluate(spec, f, x),
            OptimizerConfig(seed=s), s, domain=spec.domain, strategy=strategy)
        yield f"{name}/audit", digest("\n".join(json.dumps(r, sort_keys=True)
                                                for r in result.audit))
        yield f"{name}/levels", digest(*map(level_digest, result.model.levels))
        if name == f"design/seed{DESIGN_SEEDS[0]}":
            many = benchmarks.design_uniform(spec.domain, BLOCK_QUERIES, s)
            idx, gain = active.select_next(result.model.levels[0], spec.domain.normalize(many))
            yield f"{name}/select-blocks", digest(idx, gain)


def _without(path: str, *keys) -> str:
    """The JSON file at path, re-serialized without the given top-level keys."""
    with open(path) as fh:
        payload = json.load(fh)
    return json.dumps({k: v for k, v in payload.items() if k not in keys}, sort_keys=True)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_artifacts():
    spec = benchmarks.get_benchmark("currin")
    with tempfile.TemporaryDirectory() as tmp:
        train_cfg, bounds_cfg = os.path.join(tmp, "train.json"), os.path.join(tmp, "bounds.json")
        truth_cfg, truth = os.path.join(tmp, "bounds-truth.json"), os.path.join(tmp, "truth.csv")
        queries, out = os.path.join(tmp, "queries.csv"), os.path.join(tmp, "out")
        checked, checked_out = os.path.join(tmp, "checked.csv"), os.path.join(tmp, "out-checked")
        blocks, blocks_out = os.path.join(tmp, "blocks.csv"), os.path.join(tmp, "out-blocks")
        truth_out = os.path.join(tmp, "out-truth")
        bounds = {"delta": 0.05, "tau": 1e-3, "l_y": 36.0}
        with open(train_cfg, "w") as fh:
            json.dump({"benchmark": "currin", "budgets": [20, 5]}, fh)
        with open(bounds_cfg, "w") as fh:
            json.dump(bounds, fh)
        with open(truth_cfg, "w") as fh:
            json.dump({**bounds, "truth": truth}, fh)
        benchmarks.write_csv(queries, ["x1", "x2"],
                             benchmarks.design_uniform(spec.domain, CLI_QUERIES, CLI_SEED))
        benchmarks.write_csv(blocks, ["x1", "x2"],
                             benchmarks.design_uniform(spec.domain, BLOCK_QUERIES, CLI_SEED))
        held_out = benchmarks.design_uniform(spec.domain, CLI_TRUTH_POINTS,
                                             CLI_SEED + benchmarks.TEST_SEED_OFFSET)
        benchmarks.write_dataset_csv(truth, MultiFidelityData(
            [held_out], [benchmarks.evaluate(spec, spec.n_fidelities, held_out)]))
        lines = _read(queries).decode().splitlines()
        lines[1] = '"' + lines[1].replace(",", '",', 1)  # quote the first cell
        lines.insert(2, "")
        with open(checked, "wb") as fh:
            fh.write("\r\n".join(lines + [""]).encode())
        model = os.path.join(out, "model.json")
        for argv in (["train", "--config", train_cfg, "--seed", str(CLI_SEED), "--out", out],
                     ["predict", "--model", model, "--queries", queries, "--out", out],
                     ["predict", "--model", model, "--queries", checked, "--out", checked_out],
                     ["predict", "--model", model, "--queries", blocks, "--out", blocks_out],
                     ["bounds", "--model", model, "--config", bounds_cfg, "--out", out],
                     ["bounds", "--model", model, "--config", truth_cfg, "--out", truth_out]):
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"resgp {argv[0]} exited {code}")
        files = {
            "train/model.json": _read(model),
            "train/record.json": _without(os.path.join(out, "record.json"),
                                          "wall_time_s", "model_path"),
            "train/dataset.csv": _read(os.path.join(out, "dataset.csv")),
            "train/dataset_meta.json": _read(os.path.join(out, "dataset_meta.json")),
            "predict/predictions.csv": _read(os.path.join(out, "predictions.csv")),
            "predict-checked/predictions.csv": _read(os.path.join(checked_out, "predictions.csv")),
            "predict-blocks/predictions.csv": _read(os.path.join(blocks_out, "predictions.csv")),
            "bounds/bounds.json": _without(os.path.join(out, "bounds.json"),
                                           "wall_time_s", "curve_path"),
            "bounds/curve.csv": _read(os.path.join(out, "curve.csv")),
            "bounds-truth/bounds.json": _without(os.path.join(truth_out, "bounds.json"),
                                                 "wall_time_s", "curve_path", "config_hash"),
        }
    for name, content in files.items():
        yield f"cli/{name}", digest(content)


def pendulum():
    for f in (1, 2):
        yield f"pendulum/f{f}", digest(benchmarks.evaluate("pendulum", f, PENDULUM_ANGLES[:, None]))
    for dt in PENDULUM_STEPS:
        yield f"pendulum/trajectory/dt{dt:g}", digest(*benchmarks.pendulum_trajectory(1.4, dt))
    for s in PENDULUM_SEEDS:
        case = benchmarks.run_benchmark_case("pendulum", seed=s)
        for l, level in enumerate(case["model"].levels, start=1):
            yield f"pendulum/seed{s}/level{l}", level_digest(level)
            yield f"pendulum/seed{s}/level{l}/at_params", at_params_digest(level)
        if s == 0:
            spec = benchmarks.get_benchmark("pendulum")
            post = predict(case["model"], benchmarks.design_uniform(spec.domain, BLOCK_QUERIES, s))
            yield f"pendulum/seed{s}/predict-blocks", digest(post.mean, post.var)


def main() -> int:
    print(f"numpy {np.__version__} scipy {scipy.__version__}")
    for section in (table2, nugget, design, cli_artifacts, pendulum):
        for name, hexdigest in section():
            print(name, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
