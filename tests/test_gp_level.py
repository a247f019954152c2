"""Marginal likelihood, its gradient, hyperparameter fitting, and prediction
for a single residual level."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resgp import (
    DEFAULT_BUDGETS,
    DEFAULT_JITTER_REL,
    IllConditionedError,
    KernelHyperparams,
    MultiFidelityData,
    OptimizerConfig,
    ResidualDataset,
    build_level,
    compute_residuals,
    cross_vec,
    fit_level,
    get_benchmark,
    gp_level,
    gram,
    level_predict,
    neg_log_likelihood,
    nested_random_data,
    nesting_check,
    nll_gradient,
    train,
)
from resgp.kernel import sq_diffs

HALF_LOG_2PI = 0.9189385332046727


def scalar_dataset(x, r):
    return ResidualDataset(
        inputs=np.asarray(x, dtype=float).reshape(-1, 1),
        residuals=np.asarray(r, dtype=float).reshape(-1, 1),
    )


def random_dataset(rng, n, l, d, scale=1.0):
    return ResidualDataset(
        inputs=rng.uniform(size=(n, l)),
        residuals=scale * rng.normal(size=(n, d)),
    )


def smooth_1d_sample(seed, n=40, amplitude=1.5, weight=8.0, d=1, regular=False):
    """Draw residuals exactly from the level prior with known hyperparameters.

    regular=True uses an evenly spaced design; random uniform designs can put
    points arbitrarily close together and push the Gram toward singularity.
    """
    rng = np.random.default_rng(seed)
    if regular:
        x = ((np.arange(n) + 0.5) / n)[:, None]
    else:
        x = rng.uniform(size=(n, 1))
    p = KernelHyperparams(amplitude, np.array([weight]))
    K = gram(p, x, jitter=1e-10 * amplitude)
    chol = np.linalg.cholesky(K)
    r = chol @ rng.normal(size=(n, d))
    return ResidualDataset(inputs=x, residuals=r), p


# --- neg_log_likelihood -----------------------------------------------------


def test_nll_single_zero_residual():
    ds = scalar_dataset([0.3], [0.0])
    p = KernelHyperparams(1.0, np.array([1.0]))
    assert neg_log_likelihood(p, ds) == pytest.approx(HALF_LOG_2PI, abs=1e-14)


def test_nll_single_unit_residual():
    ds = scalar_dataset([0.3], [1.0])
    p = KernelHyperparams(1.0, np.array([1.0]))
    assert neg_log_likelihood(p, ds) == pytest.approx(
        HALF_LOG_2PI + 0.5, abs=1e-14
    )


def test_nll_zero_residuals_leave_logdet_and_constant():
    rng = np.random.default_rng(10)
    n, l, d = 6, 2, 3
    x = rng.uniform(size=(n, l))
    ds = ResidualDataset(inputs=x, residuals=np.zeros((n, d)))
    p = KernelHyperparams(1.4, np.array([2.0, 0.6]))
    K = gram(p, x)
    _, logdet = np.linalg.slogdet(K)
    expected = 0.5 * d * logdet + 0.5 * n * d * math.log(2.0 * math.pi)
    assert neg_log_likelihood(p, ds) == pytest.approx(expected, abs=1e-10)


def test_nll_separates_over_columns():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 7, 2, 4)
    p = KernelHyperparams(0.9, np.array([1.5, 0.4]))
    total = neg_log_likelihood(p, ds)
    by_column = sum(
        neg_log_likelihood(
            p, ResidualDataset(ds.inputs, ds.residuals[:, j : j + 1])
        )
        for j in range(4)
    )
    assert total == pytest.approx(by_column, abs=1e-8)


def test_nll_doubles_under_column_duplication():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 5, 3, 2)
    doubled = ResidualDataset(
        ds.inputs, np.concatenate([ds.residuals, ds.residuals], axis=1)
    )
    p = KernelHyperparams(1.1, np.array([0.8, 2.0, 1.3]))
    assert neg_log_likelihood(p, doubled) == pytest.approx(
        2.0 * neg_log_likelihood(p, ds), rel=1e-12
    )
    np.testing.assert_allclose(
        nll_gradient(p, doubled), 2.0 * nll_gradient(p, ds), rtol=1e-9
    )


def test_nll_dimension_mismatch():
    ds = scalar_dataset([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        neg_log_likelihood(KernelHyperparams(1.0, np.array([1.0, 1.0])), ds)


# --- nll_gradient -----------------------------------------------------------


def central_difference(p, ds, step=1e-5, jitter_rel=0.0):
    """Independent finite-difference gradient in log-parameter space."""
    logv = np.log(np.concatenate(([p.amplitude], p.weights)))
    learn_noise = p.noise > 0
    if learn_noise:
        logv = np.append(logv, math.log(p.noise))

    def unpack(v):
        amp = math.exp(v[0])
        w = np.exp(v[1 : 1 + p.dim])
        tau = math.exp(v[-1]) if learn_noise else 0.0
        return KernelHyperparams(amp, w, tau)

    fd = np.zeros_like(logv)
    for i in range(logv.size):
        hi, lo = logv.copy(), logv.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (
            neg_log_likelihood(unpack(hi), ds, jitter_rel)
            - neg_log_likelihood(unpack(lo), ds, jitter_rel)
        ) / (2.0 * step)
    return fd


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 5, 3, 3)
    p = KernelHyperparams(1.3, np.array([2.0, 0.5, 1.1]))
    g = nll_gradient(p, ds)
    fd = central_difference(p, ds)
    np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)


def test_gradient_matches_finite_differences_with_noise():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, 6, 2, 2)
    p = KernelHyperparams(0.7, np.array([1.4, 0.9]), noise=0.3)
    g = nll_gradient(p, ds)
    assert g.size == 4  # amplitude, two weights, noise
    fd = central_difference(p, ds)
    np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["no-noise", "noise"])
def test_gradient_matches_finite_differences_with_relative_jitter(noise):
    # the jitter scales with the amplitude, so its derivative is part of the
    # log-amplitude component
    rng = np.random.default_rng(15)
    ds = random_dataset(rng, 6, 2, 2)
    p = KernelHyperparams(0.7, np.array([1.4, 0.9]), noise=noise)
    g = nll_gradient(p, ds, jitter_rel=1e-2)
    fd = central_difference(p, ds, jitter_rel=1e-2)
    np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)


def test_gradient_matches_finite_differences_on_repeated_rows():
    # the Gram is exactly singular, so every evaluation escalates the jitter
    x = [0.1, 0.1, 0.5, 0.9, 0.9]
    ds = scalar_dataset(x, np.sin(6.0 * np.array(x)))
    p = KernelHyperparams(1.3, np.array([2.0]))
    nlls = [
        neg_log_likelihood(KernelHyperparams(1.3 * math.exp(s), p.weights), ds)
        for s in (-1e-5, 0.0, 1e-5)
    ]
    assert max(abs(a - b) for a, b in zip(nlls, nlls[1:])) < 1e-3
    np.testing.assert_allclose(nll_gradient(p, ds), central_difference(p, ds), rtol=1e-2)


# --- _nll_core against a dense reference --------------------------------------


def dense_nll_reference(amplitude, weights, shift, sq_diffs, factor, n_outputs):
    """NLL and gradient from slogdet, an explicit inverse and one dK per parameter.

    The residual factor F enters through R R^T = F F^T. Gradient order is
    [log amplitude, log w_1 .. log w_l, shift], each component
    0.5 tr((d K^-1 - K^-1 R R^T K^-1) dK) (Rasmussen & Williams 2006, 5.4.1).
    """
    n, d, sq = len(sq_diffs), n_outputs, sq_diffs
    outer = factor @ factor.T
    C = amplitude * np.exp(-sq @ weights)
    K = C + shift * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    kinv = np.linalg.inv(K)
    nll = 0.5 * d * logdet + 0.5 * np.trace(kinv @ outer) + d * n * HALF_LOG_2PI
    B = d * kinv - kinv @ outer @ kinv
    dKs = [C] + [-w * sq[:, :, i] * C for i, w in enumerate(weights)] + [np.eye(n)]
    return nll, np.array([0.5 * np.trace(B @ dK) for dK in dKs])


def core_case(n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    r = rng.normal(size=(n, d))
    r -= r.mean(axis=0)
    # a diagonal shift of 5% of the amplitude keeps K well conditioned, so the
    # dense inverse is accurate to far better than the test tolerance
    return dict(
        amplitude=1.7,
        weights=np.array([3.0, 0.8]),
        shift=0.085,
        sq_diffs=sq_diffs(x, x),
        factor=r,
        n_outputs=d,
    )


@pytest.mark.parametrize("n", [1, 2, 10, 80])
@pytest.mark.parametrize("d_of_n", [lambda n: 1, lambda n: 3, lambda n: n + 5], ids=["d1", "d3", "dN+5"])
def test_nll_core_matches_dense_reference(n, d_of_n):
    from resgp.gp_level import _nll_core

    kw = core_case(n, d_of_n(n))
    ref_nll, ref_grad = dense_nll_reference(**kw)
    nll, grad = _nll_core(**kw)
    assert nll == pytest.approx(ref_nll, rel=1e-9)
    # components can cancel to near zero, so they are compared on the gradient's scale
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref_grad)))


@pytest.mark.parametrize("n", [10, 80])
@pytest.mark.parametrize("d_of_n", [lambda n: 1, lambda n: 3, lambda n: n + 5], ids=["d1", "d3", "dN+5"])
def test_residual_factor_gives_same_nll_as_full_residuals(n, d_of_n):
    from resgp.gp_level import _nll_core, _residual_factor

    kw = core_case(n, d_of_n(n), seed=3)
    factor = _residual_factor(kw["factor"])
    assert factor.shape == (n, min(n, kw["n_outputs"]))
    nll, grad = _nll_core(**kw)
    nll_f, grad_f = _nll_core(**{**kw, "factor": factor})
    assert nll_f == pytest.approx(nll, rel=1e-10)
    np.testing.assert_allclose(grad_f, grad, rtol=1e-10)


def test_no_subnormal_kernel_values_at_short_length_scales():
    # log w = 8 puts most pairwise kernel values of 80 points in [0, 1]^3 far
    # below the smallest normal double
    from resgp.gp_level import _nll_core

    rng = np.random.default_rng(8)
    x = rng.uniform(size=(80, 3))
    p = KernelHyperparams(1.7, np.full(3, math.exp(8.0)))

    def subnormal(a):
        return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(float).tiny)))

    assert subnormal(gram(p, x)) == 0
    assert subnormal(cross_vec(p, rng.uniform(size=(1000, 3)), x)) == 0
    r = rng.normal(size=(80, 1))
    kw = dict(
        amplitude=p.amplitude,
        weights=p.weights,
        shift=0.085,
        sq_diffs=sq_diffs(x, x),
        factor=r - r.mean(axis=0),
        n_outputs=1,
    )
    ref_nll, ref_grad = dense_nll_reference(**kw)
    nll, grad = _nll_core(**kw)
    assert nll == pytest.approx(ref_nll, rel=1e-9)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref_grad)))


@st.composite
def permuted_core_cases(draw):
    """A core problem whose diagonal shift of at least 1% of the amplitude keeps K
    well conditioned (duplicate rows included), and a permutation of its rows."""
    n = draw(st.integers(1, 40))
    l = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    amplitude = math.exp(draw(st.floats(-3.0, 3.0)))
    r = draw(arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)))
    return dict(
        amplitude=amplitude,
        weights=np.exp(draw(arrays(np.float64, l, elements=st.floats(-5.0, 5.0)))),
        shift=amplitude * draw(st.floats(1e-2, 1.0)),
        x=draw(arrays(np.float64, (n, l), elements=st.floats(0.0, 1.0))),
        residuals=r - r.mean(axis=0),
        perm=np.array(draw(st.permutations(range(n)))),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(permuted_core_cases())
def test_nll_core_is_invariant_under_row_permutation(case):
    from resgp.gp_level import _nll_core

    def core(x, r):
        return _nll_core(
            amplitude=case["amplitude"],
            weights=case["weights"],
            shift=case["shift"],
            sq_diffs=sq_diffs(x, x),
            factor=r,
            n_outputs=r.shape[1],
        )

    perm = case["perm"]
    nll, grad = core(case["x"], case["residuals"])
    nll_p, grad_p = core(case["x"][perm], case["residuals"][perm])
    assert nll_p == pytest.approx(nll, rel=1e-10)
    np.testing.assert_allclose(grad_p, grad, rtol=1e-10, atol=1e-10 * np.max(np.abs(grad)))


@pytest.mark.parametrize(
    "points, shift",
    [([[0.2, 0.4], [0.2, 0.4]], 0.0), ([[0.1, 0.1], [0.5, 0.9], [0.7, 0.3]], -2.0)],
    ids=["duplicate-rows", "negative-shift"],
)
def test_nll_core_not_positive_definite_is_inf(points, shift):
    from resgp.gp_level import _nll_core

    x = np.array(points)
    nll, grad = _nll_core(
        amplitude=1.0,
        weights=np.array([1.0, 2.0]),
        shift=shift,
        sq_diffs=sq_diffs(x, x),
        factor=np.ones((len(x), 1)),
        n_outputs=1,
    )
    assert nll == np.inf
    np.testing.assert_array_equal(grad, np.zeros(4))


# --- fit_level --------------------------------------------------------------


def test_fit_recovers_known_length_scale():
    ds, truth = smooth_1d_sample(seed=20)
    level = fit_level(ds, OptimizerConfig(seed=0))
    # weight = 1/(2 len^2), so +-0.5 in log length-scale is +-1.0 in log weight
    assert abs(
        math.log(level.params.weights[0]) - math.log(truth.weights[0])
    ) <= 1.0


def test_fit_result_not_worse_than_any_start_and_idempotent():
    ds, _ = smooth_1d_sample(seed=21)
    level = fit_level(ds, OptimizerConfig(seed=0))
    again = fit_level(ds, OptimizerConfig(seed=0), init=level.params)
    assert again.fit_nll <= level.fit_nll + 1e-6


def no_search(*args, **kwargs):
    raise AssertionError("the likelihood search ran")


@pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
def test_fit_rejects_init_of_another_dimension_before_searching(monkeypatch, weights):
    monkeypatch.setattr(gp_level, "minimize", no_search)
    ds = random_dataset(np.random.default_rng(0), 12, 2, 1)
    with pytest.raises(ValueError, match="init has .* weights, but the data have 2 inputs"):
        fit_level(ds, init=KernelHyperparams(1.0, weights))


def test_init_cannot_hold_a_nan():
    with pytest.raises(ValueError, match="finite"):
        KernelHyperparams(1.0, [float("nan"), 1.0])


def record_start_points(monkeypatch):
    """Patch _start_points to append (unit, centre, warm, starts) of each fit to a list."""
    start_points, calls = gp_level._start_points, []

    def recorder(opt, unit, centre, warm=None):
        starts = start_points(opt, unit, centre, warm)
        calls.append((unit, centre, warm, starts))
        return starts

    monkeypatch.setattr(gp_level, "_start_points", recorder)
    return calls


def test_learned_noise_warm_start_maps_init_noise(monkeypatch):
    ds, _ = smooth_1d_sample(seed=26, n=25)
    noisy = ResidualDataset(
        ds.inputs, ds.residuals + 0.05 * np.random.default_rng(26).normal(size=ds.residuals.shape)
    )
    cold = fit_level(noisy, OptimizerConfig(seed=0), learn_noise=True)
    calls = record_start_points(monkeypatch)
    warm_opt = OptimizerConfig(seed=0, restarts=1)
    # a zero init.noise, which has no log, takes the unit start's noise entry; a
    # positive one is the warm start's noise entry. Warnings fail the suite.
    p = cold.params
    for init in (KernelHyperparams(p.amplitude, p.weights), p):
        level = fit_level(noisy, warm_opt, learn_noise=True, init=init)
        assert np.isfinite(level.fit_nll) and level.params.noise > 0
    (unit, _, _, zero_starts), (_, _, _, starts) = calls
    np.testing.assert_array_equal(zero_starts[0], [*np.log([p.amplitude, *p.weights]), unit[-1]])
    np.testing.assert_array_equal(starts[0], [*np.log([p.amplitude, *p.weights]), math.log(p.noise)])


def test_start_recipe_draws_around_the_clipped_centre(monkeypatch):
    ds, _ = smooth_1d_sample(seed=27)
    big = ResidualDataset(ds.inputs, 1e5 * ds.residuals)
    calls = record_start_points(monkeypatch)
    opt = OptimizerConfig(seed=0)
    fit_level(big, opt, init=KernelHyperparams(1.0, [2.0]))
    [(unit, centre, _, starts)] = calls
    bound, spread = gp_level.LOG_BOUND, math.log(gp_level.START_SPREAD)
    # the moment-matched log amplitude lies above the box
    assert centre[0] > bound
    clipped = np.clip(centre, -bound, bound)
    assert len(starts) == 3 + opt.restarts - 1
    np.testing.assert_array_equal(starts[0], np.log([1.0, 2.0]))
    np.testing.assert_array_equal(starts[1], clipped)
    np.testing.assert_array_equal(starts[2], unit)
    assert all(np.all(np.abs(x) <= bound) for x in starts)
    draws = np.array(starts[3:])
    assert np.all(np.abs(draws - clipped) <= spread)
    # draws around the unclipped centre would all put log amplitude on the ceiling
    assert np.any(draws[:, 0] < bound)


def test_fit_gradient_small_at_interior_optimum():
    # first-order condition of the objective the optimizer actually minimized,
    # whose diagonal jitter scales with the amplitude parameter
    ds, _ = smooth_1d_sample(seed=22, n=15, weight=30.0, d=2, regular=True)
    level = fit_level(ds, OptimizerConfig(seed=0))
    centered = ds.residuals - ds.residuals.mean(axis=0)
    p = level.params
    _, g = gp_level._level_objective(
        p.amplitude, p.weights, 0.0, 1e-8 * p.amplitude, sq_diffs(ds.inputs, ds.inputs),
        centered, centered.shape[1], False,
    )
    assert np.linalg.norm(g) < 1e-3


def benchmark_level(name, seed, level):
    """Residual dataset of one level of a Table-2 benchmark case, as train fits it."""
    spec = get_benchmark(name)
    data = nested_random_data(spec, DEFAULT_BUDGETS[name], seed)
    norm = MultiFidelityData(
        inputs=[spec.domain.normalize(x) for x in data.inputs], outputs=data.outputs
    )
    return compute_residuals(norm, nesting_check(norm))[level - 1]


@pytest.mark.parametrize("name", ["currin", "park", "borehole", "branin3", "hartmann3"])
def test_train_keeps_the_search_jitter_on_every_table2_level(name):
    # the polish returns a point whose Gram factored at jitter_rel * amplitude, and
    # gram rebuilds that matrix bit for bit, so the finalize Cholesky never escalates
    spec = get_benchmark(name)
    data = nested_random_data(spec, DEFAULT_BUDGETS[name], 0)
    model = train(data, OptimizerConfig(seed=0), domain=spec.domain)
    for level in model.levels:
        assert level.jitter == DEFAULT_JITTER_REL * level.params.amplitude


@pytest.mark.parametrize("name,seed,level", [("currin", 6, 1), ("park", 8, 2)])
def test_fit_reaches_multistart_optimum_on_benchmark_levels(name, seed, level):
    # both levels have a better likelihood basin that few random starts reach
    ds = benchmark_level(name, seed, level)
    level_fit = fit_level(ds)
    reference = fit_level(ds, OptimizerConfig(restarts=60, seed=1))
    assert level_fit.fit_nll <= reference.fit_nll + 1e-2


def fit_against_scipy(monkeypatch, ds, opt=None, **kwargs):
    """fit_level with every L-BFGS-B run checked against scipy's minimize on the same problem.

    Returns the fitted level and the driver's results, one per run.
    """
    driver = gp_level.minimize
    runs = []

    def recorder(objective, x0, *, ftol, gtol, maxiter):
        ours = driver(objective, x0, ftol=ftol, gtol=gtol, maxiter=maxiter)
        ref = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(-gp_level.LOG_BOUND, gp_level.LOG_BOUND)] * x0.size,
            options={"maxiter": maxiter, "gtol": gtol, "ftol": ftol},
        )
        np.testing.assert_array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
        runs.append(ours)
        return ours

    monkeypatch.setattr(gp_level, "minimize", recorder)
    return fit_level(ds, opt, **kwargs), runs


def test_lbfgsb_driver_matches_scipy_on_currin_level(monkeypatch):
    level, runs = fit_against_scipy(monkeypatch, benchmark_level("currin", 0, 1))
    # moment-matched start, unit start, 11 random restarts, then the polish run
    assert len(runs) == 14
    assert level.fit_nll == pytest.approx(runs[-1].fun, rel=1e-9)


def test_lbfgsb_driver_matches_scipy_with_amplitude_on_the_box(monkeypatch):
    level, runs = fit_against_scipy(monkeypatch, benchmark_level("borehole", 0, 1))
    assert len(runs) == 14
    assert runs[-1].x[0] == gp_level.LOG_BOUND
    assert math.log(level.params.amplitude) == pytest.approx(gp_level.LOG_BOUND)


def test_lbfgsb_driver_matches_scipy_with_learned_noise(monkeypatch):
    ds, _ = smooth_1d_sample(seed=26, n=25)
    noisy = ResidualDataset(
        ds.inputs, ds.residuals + 0.05 * np.random.default_rng(26).normal(size=ds.residuals.shape)
    )
    _, runs = fit_against_scipy(monkeypatch, noisy, OptimizerConfig(seed=0), learn_noise=True)
    assert len(runs) == 14
    # log amplitude, log weight and log noise
    assert all(r.x.size == 3 for r in runs)


def test_lbfgsb_driver_stops_at_the_iteration_cap_like_scipy(monkeypatch):
    _, runs = fit_against_scipy(
        monkeypatch, benchmark_level("currin", 0, 1), OptimizerConfig(max_iters=3)
    )
    assert len(runs) == 14
    assert all(r.nit == 3 and not r.success for r in runs)


def ds_centered(ds):
    return ResidualDataset(ds.inputs, ds.residuals - ds.residuals.mean(axis=0))


def test_fit_zero_residuals_collapses_amplitude():
    rng = np.random.default_rng(23)
    ds = ResidualDataset(rng.uniform(size=(8, 2)), np.zeros((8, 1)))
    level = fit_level(ds, OptimizerConfig(seed=0))
    assert level.params.amplitude <= math.exp(-10.0) * (1.0 + 1e-9)
    assert np.isfinite(level.fit_nll)


def test_fit_caches_consistent_factorization():
    ds, _ = smooth_1d_sample(seed=24, d=2)
    level = fit_level(ds, OptimizerConfig(seed=0))
    K = gram(level.params, level.inputs, level.jitter)
    np.testing.assert_allclose(level.chol @ level.chol.T, K, atol=1e-10)
    np.testing.assert_allclose(K @ level.alpha, level.residuals, atol=1e-6)


def test_fit_nll_matches_recomputation():
    ds, _ = smooth_1d_sample(seed=25)
    level = fit_level(ds, OptimizerConfig(seed=0))
    recomputed = neg_log_likelihood(
        level.params,
        ResidualDataset(level.inputs, level.residuals),
        jitter_rel=level.jitter / level.params.amplitude,
    )
    assert recomputed == pytest.approx(level.fit_nll, abs=1e-6)


def test_fit_steps_over_kernel_matrices_that_are_not_positive_definite(monkeypatch):
    # rows 1e-4 apart make the Gram singular to rounding at long length scales;
    # with no jitter some trial points there fail to factor, and the objective
    # hands L-BFGS-B a huge value with a zero gradient
    x = np.array([0.1, 0.1 + 1e-4, 0.5, 0.9, 0.9 + 1e-4])
    ds = scalar_dataset(x, np.sin(6.0 * x))
    core, driver = gp_level._nll_core, gp_level.minimize
    core_nlls, objective_values = [], []

    def recording_core(**kwargs):
        nll, grad = core(**kwargs)
        core_nlls.append(nll)
        return nll, grad

    def recording_driver(objective, x0, **kwargs):
        def recorded(x):
            f, g = objective(x)
            objective_values.append((f, g.copy()))
            return f, g

        return driver(recorded, x0, **kwargs)

    monkeypatch.setattr(gp_level, "_nll_core", recording_core)
    monkeypatch.setattr(gp_level, "minimize", recording_driver)
    level = fit_level(ds, OptimizerConfig(seed=0), jitter_rel=0.0)
    assert math.inf in core_nlls and any(map(math.isfinite, core_nlls))
    assert [f == gp_level.NOT_PD_NLL and not g.any() for f, g in objective_values] == [
        nll == math.inf for nll in core_nlls
    ]
    # the search steps back to shorter length scales, where the Gram factors
    assert np.isfinite(level.fit_nll)
    recomputed = neg_log_likelihood(
        level.params,
        ResidualDataset(level.inputs, level.residuals),
        jitter_rel=level.jitter / level.params.amplitude,
    )
    assert recomputed == pytest.approx(level.fit_nll, abs=1e-6)


def test_fit_rejects_a_factor_of_a_singular_gram():
    # with repeated rows dpotrf can factor the exactly singular Gram at zero jitter
    # by rounding; the pivot rule rejects that factor, so the finalize escalates (a
    # fit here raises: test_fit_raises_when_no_start_reaches_a_gram_that_factors)
    x = [0.1, 0.1, 0.5, 0.9, 0.9]
    ds = scalar_dataset(x, np.sin(6.0 * np.array(x)))
    # the fit's moment-matched start
    p = KernelHyperparams(float(np.mean((ds.residuals - ds.residuals.mean()) ** 2)), np.array([6.25]))
    level = build_level(p, ds, jitter_rel=0.0)
    assert level.jitter == pytest.approx(1e-8 * level.params.amplitude)
    recomputed = neg_log_likelihood(
        level.params,
        ResidualDataset(level.inputs, level.residuals),
        jitter_rel=level.jitter / level.params.amplitude,
    )
    assert recomputed == pytest.approx(level.fit_nll, abs=1e-8)


@pytest.mark.parametrize("y", ["sine", "identity"])
def test_fit_raises_when_no_start_reaches_a_gram_that_factors(y):
    # repeated rows at zero jitter: every Gram the search tries is singular, so the
    # fit has no optimum to return, not even the moment-matched start it never moved
    x = np.array([0.1, 0.1, 0.5, 0.9, 0.9])
    ds = scalar_dataset(x, np.sin(6.0 * x) if y == "sine" else x)
    with pytest.raises(IllConditionedError, match="jitter_rel 0.000e"):
        fit_level(ds, OptimizerConfig(seed=0), jitter_rel=0.0)
    # the same design fits at the default jitter
    assert np.isfinite(fit_level(ds, OptimizerConfig(seed=0)).fit_nll)


def test_fit_rejects_negative_noise():
    ds = scalar_dataset([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        fit_level(ds, noise=-0.1)


@pytest.mark.parametrize(
    "key, value",
    [("jitter_rel", float("nan")), ("jitter_rel", -1e-8), ("jitter_rel", float("inf")),
     ("noise", float("nan")), ("noise", float("inf"))],
    ids=["jitter-nan", "jitter-negative", "jitter-inf", "noise-nan", "noise-inf"],
)
def test_fit_rejects_bad_jitter_or_noise_before_searching(monkeypatch, key, value):
    monkeypatch.setattr(gp_level, "minimize", no_search)
    with pytest.raises(ValueError, match=f"{key} must be finite and at least 0"):
        fit_level(scalar_dataset([0.0, 1.0], [0.0, 1.0]), **{key: value})


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=float("nan"))
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    with pytest.raises(TypeError):
        OptimizerConfig(restarts=2.5)
    with pytest.raises(TypeError):
        OptimizerConfig(seed="x")


# --- level_predict ----------------------------------------------------------


def test_predict_interpolates_training_rows():
    ds, _ = smooth_1d_sample(seed=30, n=15, weight=30.0, d=3, regular=True)
    level = fit_level(ds, OptimizerConfig(seed=0))
    mean, var = level_predict(level, ds.inputs)
    scale = np.abs(ds.residuals) + 1.0
    assert np.max(np.abs(mean - ds.residuals) / scale) < 1e-5
    assert np.all(var <= 10.0 * level.jitter)


def test_predict_prior_limit_far_from_data():
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(6, 1))
    r = rng.normal(size=(6, 2))
    r -= r.mean(axis=0)  # zero column means isolate the prior limit
    p = KernelHyperparams(1.8, np.array([3.0]))
    level = build_level(p, ResidualDataset(x, r), jitter_rel=0.0)
    mean, var = level_predict(level, np.array([50.0]))
    np.testing.assert_allclose(mean, 0.0, atol=1e-10)
    assert var == pytest.approx(1.8, abs=1e-10)


def test_predict_far_field_restores_column_means():
    rng = np.random.default_rng(32)
    x = rng.uniform(size=(5, 2))
    r = rng.normal(size=(5, 2)) + np.array([3.0, -1.0])
    p = KernelHyperparams(1.0, np.array([2.0, 2.0]))
    level = build_level(p, ResidualDataset(x, r), jitter_rel=0.0)
    mean, _ = level_predict(level, np.array([60.0, 60.0]))
    np.testing.assert_allclose(mean, r.mean(axis=0), atol=1e-10)


def test_predict_two_point_closed_form():
    # explicit 2x2 inversion, no centering
    theta0, w = 1.3, 0.7
    r1, r2, q = 0.5, -0.2, 0.35
    rho = theta0 * math.exp(-w)
    det = theta0**2 - rho**2
    k1 = theta0 * math.exp(-w * q**2)
    k2 = theta0 * math.exp(-w * (q - 1.0) ** 2)
    a1 = (theta0 * r1 - rho * r2) / det
    a2 = (-rho * r1 + theta0 * r2) / det
    expected_mean = k1 * a1 + k2 * a2
    quad = (
        theta0 * (k1**2 + k2**2) - 2.0 * rho * k1 * k2
    ) / det
    expected_var = theta0 - quad

    p = KernelHyperparams(theta0, np.array([w]))
    level = build_level(
        p, scalar_dataset([0.0, 1.0], [r1, r2]), jitter_rel=0.0, center=False
    )
    mean, var = level_predict(level, np.array([q]))
    assert mean[0] == pytest.approx(expected_mean, abs=1e-12)
    assert var == pytest.approx(expected_var, abs=1e-12)


def test_predict_single_noisy_point_closed_form():
    # K = theta0 + tau, so the training-point mean shrinks to r/2
    theta0 = 2.4
    p = KernelHyperparams(theta0, np.array([1.0]), noise=theta0)
    level = build_level(
        p, scalar_dataset([0.5], [0.8]), jitter_rel=0.0, center=False
    )
    mean, var = level_predict(level, np.array([0.5]))
    assert mean[0] == pytest.approx(0.4, abs=1e-12)
    assert var == pytest.approx(theta0 / 2.0, abs=1e-12)


def test_predict_variance_shrinks_with_more_data():
    p = KernelHyperparams(1.0, np.array([4.0]))
    x_small = np.array([[0.1], [0.9]])
    x_big = np.array([[0.1], [0.9], [0.5]])
    small = build_level(p, ResidualDataset(x_small, np.zeros((2, 1))))
    big = build_level(p, ResidualDataset(x_big, np.zeros((3, 1))))
    grid = np.linspace(0.0, 1.0, 50)[:, None]
    _, v_small = level_predict(small, grid)
    _, v_big = level_predict(big, grid)
    assert np.all(v_big <= v_small + 1e-10)


# --- dataset validation -----------------------------------------------------


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ResidualDataset(np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ResidualDataset(np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        ResidualDataset(np.zeros(3), np.zeros((3, 1)))


def test_dataset_rejects_non_finite():
    x = np.zeros((2, 1))
    with pytest.raises(ValueError):
        ResidualDataset(x, np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError):
        ResidualDataset(np.array([[np.inf], [0.0]]), np.zeros((2, 1)))
