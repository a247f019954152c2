"""Acceptance gate: each test prints one pass/fail line for its criterion.

The benchmark reproduction criteria use regenerated random designs, so the
gates encode the agreed desk-scale targets rather than the original splits.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from resgp import (
    DEFAULT_BUDGETS,
    BoundConfig,
    DomainBox,
    KernelHyperparams,
    MultiFidelityData,
    OptimizerConfig,
    ResidualDataset,
    build_level,
    design_uniform,
    empirical_coverage,
    evaluate,
    get_benchmark,
    level_predict,
    metrics,
    nested_random_data,
    predict,
    run_benchmark_case,
    select_next,
    sequential_construct,
    train,
    uniform_bound,
)
from resgp.benchmarks import POOL_SEED_OFFSET, TEST_SEED_OFFSET
from resgp.gp_level import neg_log_likelihood, nll_gradient
from resgp.kernel import gram

TABLE2_BENCHMARKS = ("currin", "park", "borehole", "branin3", "hartmann3")
TABLE2_SEEDS = range(10)


def report(criterion, text, ok):
    print(f"[criterion {criterion}] {text}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# shared fits


@pytest.fixture(scope="session")
def table2():
    """Mean scores of the five analytic benchmarks over ten regenerated seeds."""
    t0 = time.perf_counter()
    scores = {}
    for name in TABLE2_BENCHMARKS:
        cases = [run_benchmark_case(name, DEFAULT_BUDGETS[name], seed=s) for s in TABLE2_SEEDS]
        scores[name] = {
            "r2": float(np.mean([c["metrics"].r2 for c in cases])),
            "rmse": float(np.mean([c["metrics"].rmse for c in cases])),
        }
    return {"scores": scores, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def seed_zero_models():
    """One noise-free fit per benchmark at the default budgets, seed zero."""
    fits = {}
    for name in sorted(DEFAULT_BUDGETS):
        spec = get_benchmark(name)
        data = nested_random_data(spec, DEFAULT_BUDGETS[name], seed=0)
        model = train(data, OptimizerConfig(seed=0), domain=spec.domain)
        fits[name] = (model, data)
    return fits


# ---------------------------------------------------------------------------
# criterion 1: benchmark table reproduction on regenerated designs


@pytest.mark.parametrize(
    "name,r2_gate",
    [("currin", 0.90), ("park", 0.95), ("borehole", 0.99), ("branin3", 0.95), ("hartmann3", 0.95)],
)
def test_criterion_1_mean_r2(table2, name, r2_gate):
    r2 = table2["scores"][name]["r2"]
    assert report(1, f"{name} mean R2 {r2:.4f} >= {r2_gate}", r2 >= r2_gate)


def test_criterion_1_borehole_rmse(table2):
    rmse = table2["scores"]["borehole"]["rmse"]
    assert report(1, f"borehole mean RMSE {rmse:.4f} <= 0.05", rmse <= 0.05)


def test_criterion_1_runtime(table2):
    elapsed = table2["elapsed"]
    assert report(1, f"table runtime {elapsed:.1f}s < 120s", elapsed < 120.0)


# ---------------------------------------------------------------------------
# criterion 2: interpolation at every highest-fidelity training input


def test_criterion_2_interpolation(seed_zero_models):
    ok = True
    detail = []
    for name, (model, data) in seed_zero_models.items():
        x = data.inputs[-1]
        y = data.outputs[-1]
        post = predict(model, x)
        err = np.max(np.abs(np.atleast_2d(post.mean) - y))
        tol = 1e-4 * (1.0 + float(np.linalg.norm(y)))
        var_cap = 10.0 * sum(lvl.jitter for lvl in model.levels)
        var_max = float(np.max(post.var))
        good = err <= tol and var_max <= var_cap
        ok = ok and good
        detail.append(f"{name} err {err:.2e}/{tol:.2e} var {var_max:.2e}/{var_cap:.2e}")
    assert report(2, "; ".join(detail), ok)


# ---------------------------------------------------------------------------
# criterion 3: analytic gradient vs central finite differences


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 11))
        l = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        x = rng.random((n, l))
        r = rng.standard_normal((n, d))
        amp = float(np.exp(rng.uniform(-1.0, 1.0)))
        w = np.exp(rng.uniform(-1.0, 1.0, l))
        noise = float(np.exp(rng.uniform(-2.0, 0.0))) if k % 2 else 0.0
        params = KernelHyperparams(amplitude=amp, weights=w, noise=noise)
        data = ResidualDataset(inputs=x, residuals=r)
        grad = nll_gradient(params, data)
        logs = np.log(np.concatenate([[amp], w, [noise]] if noise > 0 else [[amp], w]))
        fd = np.zeros_like(logs)
        for j in range(logs.size):
            for sign in (1.0, -1.0):
                bumped = logs.copy()
                bumped[j] += sign * 1e-5
                vals = np.exp(bumped)
                p = KernelHyperparams(
                    amplitude=float(vals[0]),
                    weights=vals[1 : 1 + l],
                    noise=float(vals[1 + l]) if noise > 0 else 0.0,
                )
                fd[j] += sign * neg_log_likelihood(p, data)
            fd[j] /= 2e-5
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    assert report(3, f"20 instances, worst relative gradient error {worst:.2e} <= 1e-4", worst <= 1e-4)


# ---------------------------------------------------------------------------
# criterion 4: select_next equals exhaustive argmax


def test_criterion_4_acquisition_matches_brute_force():
    rng = np.random.default_rng(4)
    wins = 0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        l = int(rng.integers(1, 4))
        x = rng.random((n, l))
        r = rng.standard_normal((n, 2))
        amp = float(np.exp(rng.uniform(-1.0, 1.5)))
        w = np.exp(rng.uniform(1.5, 3.5, l))
        level = build_level(KernelHyperparams(amplitude=amp, weights=w, noise=0.0), ResidualDataset(inputs=x, residuals=r))
        pool = rng.random((100, l))
        idx, _ = select_next(level, pool)
        singles = np.array([level_predict(level, pool[j])[1] for j in range(100)])
        # the drawn landscapes must stay above the jitter floor, else argmax is noise
        assert singles.max() > 100.0 * level.jitter
        wins += int(idx == int(np.argmax(singles)))
    assert report(4, f"brute-force argmax agreement {wins}/50", wins == 50)


# ---------------------------------------------------------------------------
# criterion 5: audit replay of the sequential construction


def test_criterion_5_audit_replay():
    spec = get_benchmark("currin")

    def oracle(f, x):
        return evaluate(spec, f, x)

    checked = 0
    matched = 0
    for seed in range(5):
        pool = design_uniform(spec.domain, 200, seed + POOL_SEED_OFFSET)
        result = sequential_construct(
            pool, [20, 5], oracle, OptimizerConfig(seed=seed), seed, domain=spec.domain
        )
        unit = spec.domain.normalize(pool)
        outputs = {
            f: np.array([evaluate(spec, f, pool[i]) for i in range(200)]) for f in (1, 2)
        }
        residual = {1: outputs[1], 2: outputs[2] - outputs[1]}
        chosen: dict = {1: [], 2: []}
        for rec in result.audit:
            f = rec["fidelity"]
            if rec["mode"] == "argmax":
                prior = list(chosen[f])
                source = list(range(200)) if f == 1 else list(result.selected[1])
                taken = set(prior)
                remaining = [i for i in source if i not in taken]
                p = rec["params"]
                level = build_level(
                    KernelHyperparams(
                        amplitude=p["amplitude"], weights=np.array(p["weights"]), noise=p["noise"]
                    ),
                    ResidualDataset(inputs=unit[prior], residuals=residual[f][prior]),
                )
                variances = np.array([level_predict(level, unit[i])[1] for i in remaining])
                brute = remaining[int(np.argmax(variances))]
                checked += 1
                matched += int(brute == rec["pool_index"])
            chosen[f].append(rec["pool_index"])
    assert report(5, f"replayed argmax selections {matched}/{checked} (5 seeds)", matched == checked == 115)


# ---------------------------------------------------------------------------
# criterion 6: active acquisition beats random acquisition


def test_criterion_6_active_beats_random():
    spec = get_benchmark("currin")

    def oracle(f, x):
        return evaluate(spec, f, x)

    scores = {"variance": [], "random": []}
    for seed in range(10):
        pool = design_uniform(spec.domain, 200, seed + 500)
        test_x = design_uniform(spec.domain, 1000, seed + TEST_SEED_OFFSET)
        truth = evaluate(spec, 2, test_x)
        for strategy in ("variance", "random"):
            result = sequential_construct(
                pool,
                [20, 5],
                oracle,
                OptimizerConfig(seed=seed),
                seed,
                domain=spec.domain,
                strategy=strategy,
            )
            post = predict(result.model, test_x)
            scores[strategy].append(metrics(post.mean, post.var, truth).nrmse)
    active = float(np.median(scores["variance"]))
    random = float(np.median(scores["random"]))
    assert report(6, f"median NRMSE active {active:.4f} <= random {random:.4f}", active <= random)


# ---------------------------------------------------------------------------
# criterion 7: uniform bound coverage and modulus dominations


def test_criterion_7_bound_coverage():
    dom = DomainBox(np.array([-5.0]), np.array([10.0]))

    def slice_eval(f, x1):
        pts = np.column_stack([x1, np.full(len(x1), 7.5)])
        return evaluate("branin3", f, pts)

    rng = np.random.default_rng(0)
    x1 = np.sort(rng.uniform(-5.0, 10.0, 30))
    designs = [x1[:, None], x1[:15][:, None], x1[:8][:, None]]
    data = MultiFidelityData(
        inputs=designs, outputs=[slice_eval(f, d[:, 0]) for f, d in enumerate(designs, start=1)]
    )
    model = train(data, OptimizerConfig(seed=0), domain=dom)

    dense = np.linspace(-5.0, 10.0, 100001)
    dense_y = slice_eval(3, dense)[:, 0]
    l_y = float(np.max(np.abs(np.diff(dense_y) / np.diff(dense))))
    cfg = BoundConfig(delta=0.05, tau=1e-3, l_y=l_y, domain=dom)
    bound = uniform_bound(model, cfg)

    grid = np.linspace(-5.0, 10.0, 10_000)[:, None]
    coverage = empirical_coverage(model, bound, grid, slice_eval(3, grid[:, 0]))

    pair_rng = np.random.default_rng(7)
    a = pair_rng.uniform(-5.0, 10.0, 1000)[:, None]
    b = pair_rng.uniform(-5.0, 10.0, 1000)[:, None]
    post_a, post_b = predict(model, a), predict(model, b)
    gap = np.abs(a[:, 0] - b[:, 0])
    mean_viol = int(
        np.sum(
            np.abs(np.atleast_2d(post_a.mean)[:, 0] - np.atleast_2d(post_b.mean)[:, 0])
            > bound.l_mu * gap + 1e-12
        )
    )
    sig_viol = int(
        np.sum(
            np.abs(np.sqrt(post_a.var) - np.sqrt(post_b.var))
            > np.sqrt(bound.omega_coeff * gap) + 1e-12
        )
    )
    ok = coverage >= 0.95 and mean_viol == 0 and sig_viol == 0
    assert report(
        7,
        f"coverage {coverage:.4f} >= 0.95, mean violations {mean_viol}/1000, "
        f"modulus violations {sig_viol}/1000",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 8: joint likelihood separates over levels


def test_criterion_8_likelihood_separability(seed_zero_models):
    worst_gap = 0.0
    worst_oracle = 0.0
    for name, (model, _) in seed_zero_models.items():
        gap = abs(model.joint_nll - sum(lvl.fit_nll for lvl in model.levels))
        worst_gap = max(worst_gap, gap)
        # independent path: one stacked block-diagonal Gaussian over all levels
        blocks = [gram(lvl.params, lvl.inputs, jitter=lvl.jitter) for lvl in model.levels]
        big = scipy.linalg.block_diag(*blocks)
        resid = np.vstack([lvl.residuals for lvl in model.levels])
        _, logdet = np.linalg.slogdet(big)
        d = resid.shape[1]
        quad = float(np.sum(resid * np.linalg.solve(big, resid)))
        stacked = 0.5 * d * logdet + 0.5 * quad + 0.5 * big.shape[0] * d * math.log(2.0 * math.pi)
        rel = abs(stacked - model.joint_nll) / max(1.0, abs(stacked))
        worst_oracle = max(worst_oracle, rel)
    ok = worst_gap <= 1e-10 and worst_oracle <= 1e-6
    assert report(
        8,
        f"max |joint - sum| {worst_gap:.1e} <= 1e-10; stacked-Gaussian oracle "
        f"relative gap {worst_oracle:.1e} <= 1e-6",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 9: cost independent of output dimension


def test_criterion_9_high_dimensional_output_speed():
    rng = np.random.default_rng(3)
    x1 = rng.random((100, 4))
    y1 = rng.standard_normal((100, 5000))
    x2 = x1[:40]
    y2 = y1[:40] + 0.1 * rng.standard_normal((40, 5000))
    data = MultiFidelityData(inputs=[x1, x2], outputs=[y1, y2])
    t0 = time.perf_counter()
    model = train(data, OptimizerConfig(seed=0))
    post = predict(model, rng.random((50, 4)))
    elapsed = time.perf_counter() - t0
    assert np.atleast_2d(post.mean).shape == (50, 5000)
    assert report(9, f"train+predict with d=5000 took {elapsed:.2f}s < 10s", elapsed < 10.0)


# ---------------------------------------------------------------------------
# criterion 10: metrics against an independent reference


def reference_metrics(mean, var, truth):
    n, d = truth.shape
    sq = 0.0
    for i in range(n):
        for j in range(d):
            sq += (mean[i][j] - truth[i][j]) ** 2
    rmse = math.sqrt(sq / (n * d))
    ybar = sum(truth[i][j] for i in range(n) for j in range(d)) / (n * d)
    sst = sum((truth[i][j] - ybar) ** 2 for i in range(n) for j in range(d))
    r2 = 1.0 - sq / sst
    nrmse = math.sqrt(sq / sum(truth[i][j] ** 2 for i in range(n) for j in range(d)))
    total = 0.0
    for i in range(n):
        for j in range(d):
            e = mean[i][j] - truth[i][j]
            total += 0.5 * math.log(2.0 * math.pi * var[i]) + e * e / (2.0 * var[i])
    return rmse, r2, total / (n * d), nrmse


def test_criterion_10_metrics_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        truth = rng.standard_normal((n, d))
        mean = truth + rng.normal(scale=0.5, size=(n, d))
        var = rng.uniform(0.1, 2.0, n)
        got = metrics(mean, var, truth)
        ref = reference_metrics(mean, var, truth)
        for g, r in zip(got, ref):
            worst = max(worst, abs(g - r) / max(1.0, abs(r)))
    assert report(10, f"20 instances, worst metric deviation {worst:.1e} <= 1e-10", worst <= 1e-10)
