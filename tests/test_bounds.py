"""Lipschitz/modulus constants, covering numbers, and the uniform error bound
for univariate models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from resgp import (
    BoundConfig,
    DomainBox,
    KernelHyperparams,
    MultiFidelityData,
    OptimizerConfig,
    ResGPModel,
    ResidualDataset,
    UnsupportedModelError,
    bounds,
    build_level,
    covering_number_bound,
    empirical_coverage,
    evaluate,
    kernel_lipschitz,
    mean_lipschitz_bound,
    predict,
    run_benchmark_case,
    train,
    uniform_bound,
)

UNIT = DomainBox.unit(1)


def univariate_model(seed=0, n=25):
    """Model fit to a smooth 1-d two-fidelity problem on [0, 1]."""
    rng = np.random.default_rng(seed)
    x1 = np.sort(rng.uniform(size=n))[:, None]
    x2 = x1[: n // 2]
    y1 = np.sin(6.0 * x1) + 0.5 * x1
    y2 = y1[: n // 2] + 0.2 * np.cos(3.0 * x2)
    data = MultiFidelityData([x1, x2], [y1, y2])
    return train(data, OptimizerConfig(seed=0), domain=UNIT)


def flat_model(amplitude=1.0, weight=2.0, residual=1.0, n=1):
    x = np.linspace(0.2, 0.8, n)[:, None]
    level = build_level(
        KernelHyperparams(amplitude, np.array([weight])),
        ResidualDataset(x, np.full((n, 1), residual)),
        center=False,
    )
    return ResGPModel([level], UNIT)


# --- covering_number_bound --------------------------------------------------


def test_covering_unit_square():
    assert covering_number_bound(DomainBox.unit(2), 1.0) == 4


def test_covering_unit_interval_tenth():
    assert covering_number_bound(UNIT, 0.1) == 11


def test_covering_single_ball_limit():
    # any finite radius still upper-bounds by at least one extra ball
    assert covering_number_bound(UNIT, 1e9) == 2


def test_covering_requires_hypercube():
    box = DomainBox(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        covering_number_bound(box, 0.5)


def test_covering_rejects_non_positive_radius():
    with pytest.raises(ValueError):
        covering_number_bound(UNIT, 0.0)


@pytest.mark.parametrize("dim, tau", [(2, 1e-300), (1, 5e-324)], ids=["power", "ceiling"])
def test_covering_overflow_names_tau(dim, tau):
    # (1 + 1/tau)^2 overflows in the power; at 5e-324 the power is infinite and its ceiling overflows
    with pytest.raises(OverflowError, match=f"^covering number at tau {tau:g} too large to represent$"):
        covering_number_bound(DomainBox.unit(dim), tau)


# --- mean_lipschitz_bound and the deviation's continuity modulus ------------


def test_mean_lipschitz_zero_for_zero_residuals():
    model = flat_model(residual=0.0, n=3)
    assert mean_lipschitz_bound(model) == 0.0


def test_mean_lipschitz_single_point_matches_kernel_constant():
    # N=1: alpha = r/(theta0 + jitter), so the bound collapses to about L_k
    model = flat_model(amplitude=1.0, weight=2.0, residual=1.0, n=1)
    l_k = kernel_lipschitz(KernelHyperparams(1.0, np.array([2.0])), UNIT)
    assert mean_lipschitz_bound(model) == pytest.approx(l_k, rel=1e-6)


def test_mean_lipschitz_dominates_sampled_slopes():
    model = univariate_model(seed=1)
    bound = mean_lipschitz_bound(model)
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(1000, 1))
    b = rng.uniform(size=(1000, 1))
    mu_a = np.asarray(predict(model, a).mean).reshape(-1)
    mu_b = np.asarray(predict(model, b).mean).reshape(-1)
    gaps = np.abs(a - b).reshape(-1)
    assert np.all(np.abs(mu_a - mu_b) <= bound * gaps + 1e-12)


def test_sigma_modulus_dominates_sampled_deviations():
    # omega(r) = sqrt(coeff * r), with coeff the omega coefficient of the bound constants
    model = univariate_model(seed=4)
    coeff = bounds._level_constants(model, model.domain)[1]
    rng = np.random.default_rng(5)
    a = rng.uniform(size=(1000, 1))
    b = rng.uniform(size=(1000, 1))
    sd_a = np.sqrt(np.asarray(predict(model, a).var))
    sd_b = np.sqrt(np.asarray(predict(model, b).var))
    for da, db, r in zip(sd_a, sd_b, np.abs(a - b).reshape(-1)):
        assert abs(da - db) <= math.sqrt(coeff * float(r)) + 1e-12


def test_multi_output_model_rejected():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(10, 1))
    y = np.column_stack([np.sin(4.0 * x[:, 0]), np.cos(4.0 * x[:, 0])])
    data = MultiFidelityData([x], [y])
    model = train(data, OptimizerConfig(seed=0), domain=UNIT)
    with pytest.raises(UnsupportedModelError):
        mean_lipschitz_bound(model)
    with pytest.raises(UnsupportedModelError):
        uniform_bound(model, BoundConfig(delta=0.1, tau=0.1, l_y=1.0, domain=UNIT))


# --- the singular values behind |K^-1|_2 -------------------------------------


def assert_singular_values_are_svdvals(factor):
    # _level_constants takes sigma_min of each level's factor from numpy's svd
    np.testing.assert_array_equal(np.linalg.svd(factor, compute_uv=False), svdvals(factor),
                                  strict=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)).map(sorted))
def test_singular_values_are_svdvals_bit_for_bit(n, seed, exponents):
    # a lower-triangular, Fortran-ordered factor with entries of either sign whose
    # magnitudes run log-uniformly between 10**lo and 10**hi
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(*exponents, size=(n, n))
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    assert_singular_values_are_svdvals(np.asfortranarray(np.tril(signs * magnitudes)))


@pytest.mark.parametrize("name", ["currin", "park", "borehole", "branin3", "hartmann3"])
def test_table2_factors_singular_values_are_svdvals(name):
    for seed in (0, 1):
        for level in run_benchmark_case(name, seed=seed)["model"].levels:
            assert_singular_values_are_svdvals(level.chol)


# --- uniform_bound ----------------------------------------------------------


def test_beta_frozen_value():
    # tau = 1/99 gives a covering number of exactly 100; with delta = 0.01
    # beta = 2 log(100 / 0.01) = 2 log(1e4)
    model = univariate_model(seed=7)
    cfg = BoundConfig(delta=0.01, tau=1.0 / 99.0, l_y=1.0, domain=UNIT)
    ub = uniform_bound(model, cfg)
    assert ub.covering == 100
    assert ub.beta == pytest.approx(18.420680743952367, abs=1e-12)


def test_beta_decreases_when_delta_doubles():
    model = univariate_model(seed=7)
    betas = []
    for delta in (0.025, 0.05, 0.1):
        cfg = BoundConfig(delta=delta, tau=1e-3, l_y=1.0, domain=UNIT)
        betas.append(uniform_bound(model, cfg).beta)
    assert betas[0] > betas[1] > betas[2]


def test_bound_curve_grows_when_delta_halves():
    model = univariate_model(seed=7)
    grid = np.linspace(0.0, 1.0, 200)[:, None]
    loose = uniform_bound(
        model, BoundConfig(delta=0.1, tau=1e-3, l_y=1.0, domain=UNIT)
    )
    tight = uniform_bound(
        model, BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=UNIT)
    )
    var = predict(model, grid).var
    assert np.all(tight.envelope(var) > loose.envelope(var))


def test_gamma_decays_with_tau_and_modulus_term_dominates():
    model = univariate_model(seed=8)
    l_y = 10.0
    l_mu = mean_lipschitz_bound(model)
    taus = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    gammas = []
    for tau in taus:
        ub = uniform_bound(
            model, BoundConfig(delta=0.05, tau=tau, l_y=l_y, domain=UNIT)
        )
        gammas.append(ub.gamma)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    # at small tau the sqrt(beta) * omega(tau) term is the survivor
    tau = taus[-1]
    ub = uniform_bound(
        model, BoundConfig(delta=0.05, tau=tau, l_y=l_y, domain=UNIT)
    )
    lipschitz_part = (l_mu + l_y) * tau
    assert lipschitz_part < math.sqrt(ub.beta) * math.sqrt(ub.omega_coeff * tau)


def test_report_covering_consistent():
    model = univariate_model(seed=9)
    cfg = BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=UNIT)
    ub = uniform_bound(model, cfg)
    assert ub.covering == covering_number_bound(UNIT, 1e-3)


def test_bound_fn_vectorized_and_positive():
    model = univariate_model(seed=9)
    bound = uniform_bound(
        model, BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=UNIT)
    )
    grid = np.linspace(0.0, 1.0, 64)[:, None]
    g = np.asarray(bound.envelope(predict(model, grid).var))
    assert g.shape == (64,)
    assert np.all(g > 0)


def branin3_slice_model():
    """Criterion 7's model: branin3 at x2 = 7.5 on nested designs [30, 15, 8] in x1."""
    x1 = np.sort(np.random.default_rng(0).uniform(-5.0, 10.0, 30))
    designs = [x1[:, None], x1[:15][:, None], x1[:8][:, None]]
    outputs = [
        evaluate("branin3", f, np.column_stack([d[:, 0], np.full(len(d), 7.5)]))
        for f, d in enumerate(designs, start=1)
    ]
    return train(
        MultiFidelityData(designs, outputs),
        OptimizerConfig(seed=0),
        domain=DomainBox(np.array([-5.0]), np.array([10.0])),
    )


BRANIN3_BOUND = BoundConfig(
    delta=0.05, tau=1e-3, l_y=200.0, domain=DomainBox(np.array([-5.0]), np.array([10.0]))
)


def test_bound_constants_are_pinned():
    bound = uniform_bound(branin3_slice_model(), BRANIN3_BOUND)
    assert bound.covering == 15001
    np.testing.assert_allclose(
        [bound.beta, bound.gamma, bound.l_mu, bound.omega_coeff],
        [25.22320883616576, 343190.6664831025, 847338.4781434592, 4646467388565.436],
        rtol=1e-12,
    )


def test_bound_constants_are_python_floats():
    bound = uniform_bound(univariate_model(), BoundConfig(0.05, 1e-3, 1.0, None))
    for value in (bound.beta, bound.gamma, bound.l_mu, bound.omega_coeff):
        assert type(value) is float


def test_uniform_bound_without_a_domain_takes_the_model_box():
    model = univariate_model()
    implicit = uniform_bound(model, BoundConfig(0.05, 1e-3, 1.0, None))
    explicit = uniform_bound(model, BoundConfig(0.05, 1e-3, 1.0, model.domain))
    assert implicit == explicit
    var = predict(model, np.linspace(0.0, 1.0, 11)[:, None]).var
    np.testing.assert_array_equal(implicit.envelope(var), explicit.envelope(var))


def test_uniform_bound_takes_each_level_lipschitz_constant_once(monkeypatch):
    model = branin3_slice_model()
    calls = []

    def counting(params, domain):
        calls.append(params)
        return kernel_lipschitz(params, domain)

    monkeypatch.setattr(bounds, "kernel_lipschitz", counting)
    uniform_bound(model, BRANIN3_BOUND)
    assert len(calls) == len(model.levels) == 3


def test_config_domain_must_be_a_hypercube():
    rect = DomainBox(np.zeros(2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="requires a hypercubic domain"):
        BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=rect)
    assert BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=None).domain is None


def test_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(delta=0.0, tau=1e-3, l_y=1.0, domain=UNIT)
    with pytest.raises(ValueError):
        BoundConfig(delta=1.5, tau=1e-3, l_y=1.0, domain=UNIT)
    with pytest.raises(ValueError):
        BoundConfig(delta=0.05, tau=0.0, l_y=1.0, domain=UNIT)
    with pytest.raises(ValueError):
        BoundConfig(delta=0.05, tau=1e-3, l_y=-1.0, domain=UNIT)


# --- empirical_coverage -----------------------------------------------------


def test_coverage_on_well_fit_function():
    model = univariate_model(seed=10)
    grid = np.linspace(0.0, 1.0, 2000)[:, None]
    truth = (np.sin(6.0 * grid) + 0.5 * grid + 0.2 * np.cos(3.0 * grid)).reshape(-1)
    bound = uniform_bound(
        model, BoundConfig(delta=0.05, tau=1e-3, l_y=10.0, domain=UNIT)
    )
    cov = empirical_coverage(model, bound, grid, truth)
    assert 0.95 <= cov <= 1.0


def test_coverage_zero_for_shifted_truth():
    model = univariate_model(seed=10)
    grid = np.linspace(0.0, 1.0, 200)[:, None]
    bound = uniform_bound(
        model, BoundConfig(delta=0.05, tau=1e-3, l_y=10.0, domain=UNIT)
    )
    post = predict(model, grid)
    huge = np.asarray(bound.envelope(post.var)).max() + np.abs(post.mean).max()
    truth = np.full(200, 10.0 * huge)
    assert empirical_coverage(model, bound, grid, truth) == 0.0


def test_coverage_length_mismatch():
    model = univariate_model(seed=10)
    bound = uniform_bound(
        model, BoundConfig(delta=0.05, tau=1e-3, l_y=1.0, domain=UNIT)
    )
    with pytest.raises(ValueError):
        empirical_coverage(model, bound, np.zeros((5, 1)), np.zeros(4))
    # a NaN truth would otherwise count as one point outside the bound
    with pytest.raises(ValueError, match="truth must be finite"):
        empirical_coverage(model, bound, np.zeros((2, 1)), [0.0, math.nan])


def test_coverage_scores_mean_and_envelope_from_one_predict(monkeypatch):
    model = univariate_model(seed=10)
    grid = np.linspace(0.0, 1.0, 50)[:, None]
    truth = (np.sin(6.0 * grid) + 0.5 * grid + 0.2 * np.cos(3.0 * grid)).reshape(-1)
    bound = uniform_bound(model, BoundConfig(delta=0.05, tau=1e-3, l_y=10.0, domain=UNIT))
    calls = []

    def counting(model, query):
        calls.append(query)
        return predict(model, query)

    monkeypatch.setattr(bounds, "predict", counting)
    cov = empirical_coverage(model, bound, grid, truth)
    assert len(calls) == 1
    post = predict(model, grid)
    expected = np.abs(truth - post.mean.reshape(-1)) <= bound.envelope(post.var)
    assert cov == float(np.mean(expected))
