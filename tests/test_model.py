"""Nesting checks, residual construction, and the additive multi-fidelity
model: training, prediction, and serialization."""

import math

import numpy as np
import pytest

from resgp import (
    DomainBox,
    KernelHyperparams,
    MultiFidelityData,
    NestingError,
    OptimizerConfig,
    ResGPModel,
    ResidualDataset,
    build_level,
    compute_residuals,
    fit_level,
    level_predict,
    load_model,
    nesting_check,
    predict,
    predict_fidelity,
    save_model,
    train,
)


def column(*values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def two_level_data(seed=0, n1=20, n2=7, l=2, d=2):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(size=(n1, l))
    x2 = x1[:n2]
    y1 = np.column_stack(
        [np.sin(3.0 * x1.sum(axis=1)) + j for j in range(d)]
    )
    y2 = y1[:n2] + 0.3 * np.cos(2.0 * x2[:, :1]) * np.ones((1, d))
    return MultiFidelityData([x1, x2], [y1, y2])


# --- nesting_check ----------------------------------------------------------


def test_extraction_index_of_simple_subset():
    data = MultiFidelityData(
        [column(0.0, 0.5, 1.0), column(0.5)],
        [column(1.0, 2.0, 3.0), column(2.5)],
    )
    rows = nesting_check(data)
    assert len(rows) == 1
    np.testing.assert_array_equal(rows[0], [1])


def test_extraction_index_identity_when_equal():
    x = column(0.0, 0.5, 1.0)
    data = MultiFidelityData([x, x.copy()], [column(1, 2, 3), column(4, 5, 6)])
    np.testing.assert_array_equal(nesting_check(data)[0], [0, 1, 2])


def test_nesting_violation_raises():
    # the message names the first child point with no match
    data = MultiFidelityData(
        [column(0.0, 0.5, 1.0), column(0.5, 0.25, 0.75)],
        [column(1.0, 2.0, 3.0), column(2.0, 1.0, 0.0)],
    )
    with pytest.raises(NestingError, match=r"fidelity 2 point \[0\.25\] not found in fidelity 1"):
        nesting_check(data)


def test_nesting_first_matching_row_wins():
    # parent rows 1 and 3 both lie within atol of the child's first point
    data = MultiFidelityData(
        [column(0.0, 0.5, 1.0, 0.5 + 1e-13), column(0.5, 1.0)],
        [column(1.0, 2.0, 3.0, 4.0), column(2.5, 3.5)],
    )
    np.testing.assert_array_equal(nesting_check(data)[0], [1, 2])


# --- compute_residuals ------------------------------------------------------


def test_residual_arithmetic():
    data = MultiFidelityData(
        [column(0.0, 0.5, 1.0), column(0.5)],
        [column(1.0, 2.0, 3.0), column(2.5)],
    )
    levels = compute_residuals(data, nesting_check(data))
    np.testing.assert_array_equal(levels[0].residuals, column(1.0, 2.0, 3.0))
    np.testing.assert_allclose(levels[1].residuals, [[0.5]])


def test_residuals_vanish_for_identical_fidelities():
    x = column(0.0, 0.3, 0.9)
    y = column(1.0, -2.0, 4.0)
    data = MultiFidelityData([x, x.copy()], [y, y.copy()])
    levels = compute_residuals(data, nesting_check(data))
    np.testing.assert_array_equal(levels[1].residuals, np.zeros((3, 1)))


def test_residual_chain_telescopes():
    rng = np.random.default_rng(40)
    x1 = rng.uniform(size=(9, 2))
    x2, x3 = x1[:5], x1[:3]
    y1 = rng.normal(size=(9, 2))
    y2 = rng.normal(size=(5, 2))
    y3 = rng.normal(size=(3, 2))
    data = MultiFidelityData([x1, x2, x3], [y1, y2, y3])
    e2, e3 = nesting_check(data)
    levels = compute_residuals(data, [e2, e3])
    rebuilt = levels[0].residuals[e2][e3] + levels[1].residuals[e3] + levels[2].residuals
    np.testing.assert_allclose(rebuilt, y3, atol=1e-12)


# --- train ------------------------------------------------------------------


def test_single_fidelity_matches_direct_level_fit():
    rng = np.random.default_rng(41)
    x = rng.uniform(size=(12, 1))
    y = np.sin(5.0 * x)
    data = MultiFidelityData([x], [y])
    model = train(data, OptimizerConfig(seed=0), domain=DomainBox.unit(1))
    direct = fit_level(ResidualDataset(x, y), OptimizerConfig(seed=0))
    assert model.n_fidelities == 1
    assert model.levels[0].params.amplitude == direct.params.amplitude
    np.testing.assert_array_equal(model.levels[0].params.weights, direct.params.weights)


def test_identical_fidelities_collapse_to_single_level_model():
    rng = np.random.default_rng(42)
    x = rng.uniform(size=(15, 2))
    y = np.column_stack([np.sin(4.0 * x[:, 0]), np.cos(3.0 * x[:, 1])])
    stacked = MultiFidelityData([x, x[:8]], [y, y[:8]])
    model = train(stacked, OptimizerConfig(seed=0), domain=DomainBox.unit(2))
    single = train(
        MultiFidelityData([x], [y]), OptimizerConfig(seed=0), domain=DomainBox.unit(2)
    )
    assert model.levels[1].params.amplitude <= math.exp(-10.0) * (1.0 + 1e-9)
    q = rng.uniform(size=(30, 2))
    a, b = predict(model, q), predict(single, q)
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-4 * (1 + np.abs(b.mean)).max())


def test_train_rejects_mismatched_domain():
    data = two_level_data()
    with pytest.raises(ValueError):
        train(data, domain=DomainBox.unit(3))


def test_train_rejects_non_nested_inputs():
    rng = np.random.default_rng(44)
    x1 = rng.uniform(size=(6, 1))
    x2 = rng.uniform(size=(2, 1))  # fresh draws, not a subset
    data = MultiFidelityData([x1, x2], [np.ones((6, 1)), np.ones((2, 1))])
    with pytest.raises(NestingError):
        train(data)


# --- prediction -------------------------------------------------------------


def fixed_model(seed=45, f=3, l=2, d=2, n=12):
    """Hand-assembled model with fixed hyperparameters, no optimization."""
    rng = np.random.default_rng(seed)
    levels = []
    x = rng.uniform(size=(n, l))
    for k in range(f):
        p = KernelHyperparams(
            float(rng.uniform(0.5, 2.0)), rng.uniform(0.5, 4.0, size=l)
        )
        r = rng.normal(size=(x.shape[0], d)) + rng.normal(size=(1, d))
        levels.append(build_level(p, ResidualDataset(x, r)))
        x = x[: max(2, x.shape[0] - 4)]
    return ResGPModel(levels=levels, domain=DomainBox.unit(l), input_dim=l, output_dim=d)


def test_prediction_is_sum_of_levels():
    model = fixed_model()
    rng = np.random.default_rng(46)
    q = rng.uniform(size=(25, 2))
    post = predict(model, q)
    mean = np.zeros_like(post.mean)
    var = np.zeros(25)
    for lvl in model.levels:
        m, v = level_predict(lvl, q)
        mean += m
        var += v
    np.testing.assert_allclose(post.mean, mean, atol=1e-12)
    np.testing.assert_allclose(post.var, var, atol=1e-12)


def test_prediction_invariant_under_row_permutation():
    rng = np.random.default_rng(47)
    x = ((np.arange(10) + 0.5) / 10)[:, None]
    r = rng.normal(size=(10, 2))
    p = KernelHyperparams(1.2, np.array([8.0]))
    perm = rng.permutation(10)
    a = build_level(p, ResidualDataset(x, r))
    b = build_level(p, ResidualDataset(x[perm], r[perm]))
    model_a = ResGPModel([a], DomainBox.unit(1), 1, 2)
    model_b = ResGPModel([b], DomainBox.unit(1), 1, 2)
    q = rng.uniform(size=(20, 1))
    pa, pb = predict(model_a, q), predict(model_b, q)
    np.testing.assert_allclose(pa.mean, pb.mean, atol=1e-10)
    np.testing.assert_allclose(pa.var, pb.var, atol=1e-10)


def test_predict_fidelity_partial_sums():
    model = fixed_model()
    rng = np.random.default_rng(48)
    q = rng.uniform(size=(8, 2))
    top = predict_fidelity(model, q, model.n_fidelities)
    full = predict(model, q)
    np.testing.assert_array_equal(top.mean, full.mean)
    np.testing.assert_array_equal(top.var, full.var)

    first = predict_fidelity(model, q, 1)
    m1, v1 = level_predict(model.levels[0], q)
    np.testing.assert_allclose(first.mean, m1, atol=1e-12)
    np.testing.assert_allclose(first.var, v1, atol=1e-12)

    prev = np.zeros(8)
    for f in range(1, model.n_fidelities + 1):
        v = predict_fidelity(model, q, f).var
        assert np.all(v >= prev - 1e-12)
        prev = v


def test_predict_fidelity_range_check():
    model = fixed_model()
    with pytest.raises(ValueError):
        predict_fidelity(model, np.zeros((1, 2)), 0)
    with pytest.raises(ValueError):
        predict_fidelity(model, np.zeros((1, 2)), model.n_fidelities + 1)


def test_far_field_prior_limit():
    model = fixed_model()
    far = np.array([[80.0, -60.0]])
    post = predict(model, far)
    expected_mean = sum(lvl.column_means for lvl in model.levels)
    expected_var = sum(lvl.params.amplitude for lvl in model.levels)
    np.testing.assert_allclose(post.mean[0], expected_mean, atol=1e-10)
    assert post.var[0] == pytest.approx(expected_var, abs=1e-10)


def test_two_fidelity_closed_form_oracle():
    # 3 low points plus 1 high point, fixed hyperparameters, explicit algebra
    x1 = column(0.0, 0.5, 1.0)
    y1 = column(1.0, 2.0, 1.5)
    x2 = column(0.5)
    y2 = column(2.4)
    p1 = KernelHyperparams(1.0, np.array([2.0]))
    p2 = KernelHyperparams(0.5, np.array([1.0]))
    lvl1 = build_level(p1, ResidualDataset(x1, y1), jitter_rel=0.0, center=False)
    lvl2 = build_level(
        p2, ResidualDataset(x2, y2 - y1[1:2]), jitter_rel=0.0, center=False
    )
    model = ResGPModel([lvl1, lvl2], DomainBox.unit(1), 1, 1)

    q = 0.3
    k1 = 1.0 * np.exp(-2.0 * (q - x1[:, 0]) ** 2)
    K1 = 1.0 * np.exp(-2.0 * (x1[:, 0, None] - x1[None, :, 0]) ** 2)
    mean1 = k1 @ np.linalg.inv(K1) @ y1[:, 0]
    var1 = 1.0 - k1 @ np.linalg.inv(K1) @ k1
    k2 = 0.5 * np.exp(-1.0 * (q - 0.5) ** 2)
    mean2 = k2 * (2.4 - 2.0) / 0.5
    var2 = 0.5 - k2 * k2 / 0.5

    post = predict(model, np.array([q]))
    assert post.mean[0] == pytest.approx(mean1 + mean2, abs=1e-10)
    assert post.var == pytest.approx(var1 + var2, abs=1e-10)


def test_huge_noise_washes_out_a_level():
    rng = np.random.default_rng(50)
    x = rng.uniform(size=(6, 1))
    r = rng.normal(size=(6, 1))
    r -= r.mean(axis=0)
    p = KernelHyperparams(1.4, np.array([2.0]), noise=1e12)
    level = build_level(p, ResidualDataset(x, r), jitter_rel=0.0)
    model = ResGPModel([level], DomainBox.unit(1), 1, 1)
    post = predict(model, x[:1])
    assert abs(post.mean[0, 0]) < 1e-9
    assert post.var[0] == pytest.approx(1.4, abs=1e-9)


def test_query_dimension_validation():
    model = fixed_model()
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 5)))


# --- serialization ----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    data = two_level_data(seed=51)
    model = train(data, OptimizerConfig(seed=0))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.n_fidelities == model.n_fidelities
    assert back.input_dim == model.input_dim
    assert back.output_dim == model.output_dim
    np.testing.assert_allclose(back.domain.lower, model.domain.lower, atol=1e-15)
    rng = np.random.default_rng(52)
    q = rng.uniform(size=(40, 2))
    a, b = predict(model, q), predict(back, q)
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
    np.testing.assert_allclose(a.var, b.var, atol=1e-10)


def test_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        load_model(str(path))


# --- MultiFidelityData validation -------------------------------------------


def test_data_counts_and_dims():
    data = two_level_data(n1=9, n2=4, l=3, d=2)
    assert data.counts == [9, 4]
    assert data.n_fidelities == 2
    assert data.input_dim == 3
    assert data.output_dim == 2


def test_data_rejects_growing_designs():
    with pytest.raises(ValueError):
        MultiFidelityData(
            [np.zeros((2, 1)), np.zeros((3, 1))],
            [np.zeros((2, 1)), np.zeros((3, 1))],
        )


def test_data_rejects_ragged_shapes():
    with pytest.raises(ValueError):
        MultiFidelityData([np.zeros((3, 1))], [np.zeros((2, 1))])
    with pytest.raises(ValueError):
        MultiFidelityData([np.zeros((3, 1)), np.zeros((2, 2))],
                          [np.zeros((3, 1)), np.zeros((2, 1))])
    with pytest.raises(ValueError):
        MultiFidelityData([], [])
