"""Tests for the benchmark functions, designs, metrics, and dataset files."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resgp import (
    BENCHMARKS,
    DEFAULT_BUDGETS,
    DatasetFormatError,
    MultiFidelityData,
    design_uniform,
    evaluate,
    get_benchmark,
    metrics,
    nested_random_data,
    nested_subsample,
    nesting_check,
    pendulum_energy,
    pendulum_solve,
    pendulum_trajectory,
    read_dataset_csv,
    run_benchmark_case,
    standardization_scale,
    write_dataset_csv,
)
from resgp.benchmarks import POOL_SEED_OFFSET, TEST_SEED_OFFSET, read_csv_rows, write_csv

HALF_LOG_2PI = 0.9189385332046727


# ---------------------------------------------------------------------------
# registry


def test_registry_contents():
    assert sorted(BENCHMARKS) == [
        "borehole",
        "branin3",
        "currin",
        "hartmann3",
        "park",
        "pendulum",
    ]
    dims = {name: (s.input_dim, s.output_dim, s.n_fidelities) for name, s in BENCHMARKS.items()}
    assert dims == {
        "currin": (2, 1, 2),
        "park": (4, 1, 2),
        "borehole": (8, 1, 2),
        "branin3": (2, 1, 3),
        "hartmann3": (3, 1, 3),
        "pendulum": (1, 2, 2),
    }


def test_get_benchmark_passthrough_and_unknown():
    spec = get_benchmark("currin")
    assert get_benchmark(spec) is spec
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_benchmark("rosenbrock")


def test_spec_is_frozen():
    spec = get_benchmark("park")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.output_dim = 3


def test_default_budgets_match_registry():
    assert sorted(DEFAULT_BUDGETS) == sorted(BENCHMARKS)
    for name, budgets in DEFAULT_BUDGETS.items():
        spec = get_benchmark(name)
        assert len(budgets) == spec.n_fidelities
        assert all(b >= 1 for b in budgets)
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))
    assert DEFAULT_BUDGETS["currin"] == [20, 5]
    assert DEFAULT_BUDGETS["pendulum"] == [41, 14]


def test_seed_offsets_are_distinct_primes():
    assert TEST_SEED_OFFSET == 104729
    assert POOL_SEED_OFFSET == 15485863


# ---------------------------------------------------------------------------
# analytic functions


def test_currin_high_center_value():
    # damp = 1 - e^{-1}, numerator 1868.5, denominator 159.5 at (0.5, 0.5)
    expected = (1.0 - math.exp(-1.0)) * 1868.5 / 159.5
    got = evaluate("currin", 2, np.array([0.5, 0.5]))
    assert got.shape == (1,)
    assert abs(got[0] - expected) < 1e-12
    assert abs(expected - 7.40512391329881) < 1e-14


def test_currin_low_is_four_point_average():
    spec = get_benchmark("currin")
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 0.9, size=(30, 2))
    high = spec.funcs[1]
    up = x + np.array([0.05, 0.05])
    up_dn = np.column_stack([x[:, 0] + 0.05, np.maximum(0.0, x[:, 1] - 0.05)])
    dn_up = np.column_stack([x[:, 0] - 0.05, x[:, 1] + 0.05])
    dn = np.column_stack([x[:, 0] - 0.05, np.maximum(0.0, x[:, 1] - 0.05)])
    expected = (high(up) + high(up_dn) + high(dn_up) + high(dn)) / 4.0
    got = evaluate(spec, 1, x)
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_park_matches_reference_formulas():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.05, 1.0, size=(25, 4))
    x1, x2, x3, x4 = x.T
    high = 0.5 * x1 * (np.sqrt(1.0 + (x2 + x3**2) * x4 / x1**2) - 1.0)
    high = high + (x1 + 3.0 * x4) * np.exp(1.0 + np.sin(x3))
    low = (1.0 + np.sin(x1) / 10.0) * high - 2.0 * x1 + x2**2 + x3**2 + 0.5
    np.testing.assert_allclose(evaluate("park", 2, x)[:, 0], high, rtol=1e-13)
    np.testing.assert_allclose(evaluate("park", 1, x)[:, 0], low, rtol=1e-13)


def test_borehole_matches_reference_formula():
    # Harper & Gupta (1983) high fidelity and Xiong et al. (2013) low fidelity:
    # f = c Tu (Hu - Hl) / (ln(r/rw) [b + 2 L Tu / (ln(r/rw) rw^2 Kw) + Tu/Tl])
    spec = get_benchmark("borehole")
    np.testing.assert_array_equal(
        spec.domain.lower, [0.05, 100.0, 63070.0, 990.0, 63.1, 700.0, 1120.0, 9855.0]
    )
    np.testing.assert_array_equal(
        spec.domain.upper, [0.15, 50000.0, 115600.0, 1110.0, 116.0, 820.0, 1680.0, 12045.0]
    )
    x = design_uniform(spec.domain, 200, 3)
    rw, r, tu, hu, tl, hl, length, kw = x.T
    lr = np.log(r / rw)
    high = 2.0 * np.pi * tu * (hu - hl) / (
        lr * (1.0 + 2.0 * length * tu / (lr * rw**2 * kw) + tu / tl)
    )
    low = 5.0 * tu * (hu - hl) / (
        lr * (1.5 + 2.0 * length * tu / (lr * rw**2 * kw) + tu / tl)
    )
    np.testing.assert_allclose(evaluate(spec, 2, x)[:, 0], high, rtol=1e-13)
    np.testing.assert_allclose(evaluate(spec, 1, x)[:, 0], low, rtol=1e-13)


def test_borehole_positive_with_nonzero_fidelity_gap():
    spec = get_benchmark("borehole")
    x = design_uniform(spec.domain, 1000, 19)
    low = evaluate(spec, 1, x)
    high = evaluate(spec, 2, x)
    assert np.all(low > 0)
    assert np.all(high > 0)
    assert np.max(np.abs(high - low)) > 1.0


def test_branin_highest_fidelity_known_minimum():
    # the plain two-dimensional test function attains 5/(4*pi) at (pi, 2.275)
    got = evaluate("branin3", 3, np.array([math.pi, 2.275]))
    assert abs(got[0] - 5.0 / (4.0 * math.pi)) < 1e-12


def test_branin_chain_matches_reference():
    # three-fidelity Branin of Perdikaris et al. (2017): target f3 is the plain
    # function, f2(x) = 10 sqrt(f3(x - 2)) + ..., f1(x) = f2(1.2 (x + 2)) - 3 x2 + 1
    rng = np.random.default_rng(23)
    x = np.column_stack([rng.uniform(-5, 10, 40), rng.uniform(0, 15, 40)])

    def f3(x1, x2):
        quad = -1.275 * x1**2 / math.pi**2 + 5.0 * x1 / math.pi + x2 - 6.0
        return quad**2 + (10.0 - 5.0 / (4.0 * math.pi)) * np.cos(x1) + 10.0

    def f2(x1, x2):
        return 10.0 * np.sqrt(f3(x1 - 2.0, x2 - 2.0)) + 2.0 * (x1 - 0.5) - 3.0 * (3.0 * x2 - 1.0) - 1.0

    x1, x2 = x.T
    f1 = f2(1.2 * (x1 + 2.0), 1.2 * (x2 + 2.0)) - 3.0 * x2 + 1.0
    np.testing.assert_allclose(evaluate("branin3", 3, x)[:, 0], f3(x1, x2), rtol=1e-13)
    np.testing.assert_allclose(evaluate("branin3", 2, x)[:, 0], f2(x1, x2), rtol=1e-13)
    np.testing.assert_allclose(evaluate("branin3", 1, x)[:, 0], f1, rtol=1e-13)


def test_hartmann_matches_reference():
    A = np.array([[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]])
    P = np.array(
        [
            [0.3689, 0.1170, 0.2673],
            [0.4699, 0.4387, 0.7470],
            [0.1091, 0.8732, 0.5547],
            [0.0381, 0.5743, 0.8828],
        ]
    )
    alpha = np.array([1.0, 1.2, 3.0, 3.2])
    shift = np.array([0.01, -0.01, -0.1, 0.1])
    rng = np.random.default_rng(31)
    x = rng.random((15, 3))
    for f in (1, 2, 3):
        af = alpha + (3 - f) * shift
        expected = np.zeros(15)
        for i in range(4):
            expo = sum(A[i, j] * (x[:, j] - P[i, j]) ** 2 for j in range(3))
            expected += af[i] * np.exp(-expo)
        np.testing.assert_allclose(evaluate("hartmann3", f, x)[:, 0], expected, rtol=1e-12)


def test_hartmann_highest_fidelity_uses_unshifted_weights():
    x = np.array([[0.3, 0.6, 0.9]])
    v3 = evaluate("hartmann3", 3, x)
    v2 = evaluate("hartmann3", 2, x)
    assert abs(v3[0, 0] - v2[0, 0]) > 1e-4


# ---------------------------------------------------------------------------
# double pendulum


def test_pendulum_initial_state_and_shapes():
    times, path = pendulum_trajectory(1.4, dt=0.1)
    assert times.shape == (51,)
    assert path.shape == (51, 4)
    np.testing.assert_allclose(path[0], [1.4, 2.2, 0.0, 0.0], atol=0)
    assert times[0] == 0.0 and times[-1] == 5.0


def test_pendulum_energy_nearly_conserved_at_fine_step():
    _, path = pendulum_trajectory(1.4, dt=0.01)
    energy = pendulum_energy(path)
    drift = np.max(np.abs(energy - energy[0]))
    assert drift < 1e-3 * (1.0 + abs(energy[0]))


def test_pendulum_energy_drift_shrinks_with_step():
    _, coarse = pendulum_trajectory(1.4, dt=0.1)
    _, fine = pendulum_trajectory(1.4, dt=0.01)
    drift = lambda p: np.max(np.abs(pendulum_energy(p) - pendulum_energy(p)[0]))
    assert drift(fine) < drift(coarse)


def test_pendulum_initial_energy_closed_form():
    # at rest: purely potential, -(m1+m2) g l1 cos(th1) - m2 g l2 cos(th2)
    state = np.array([1.4, 2.2, 0.0, 0.0])
    expected = -3.0 * 9.81 * 1.0 * math.cos(1.4) - 1.0 * 9.81 * 2.0 * math.cos(2.2)
    assert abs(pendulum_energy(state) - expected) < 1e-12


def test_pendulum_solver_self_convergence():
    coarse = pendulum_solve(1.4, dt=0.1)[0]
    mid = pendulum_solve(1.4, dt=0.01)[0]
    fine = pendulum_solve(1.4, dt=0.001)[0]
    assert abs(mid - fine) < abs(coarse - mid)
    assert abs(mid - fine) < 1e-4


def test_pendulum_finite_sensitivity_to_release_angle():
    base = pendulum_solve(1.4, dt=0.01)
    bumped = pendulum_solve(1.4 + 1e-6, dt=0.01)
    delta = abs(bumped[0] - base[0])
    assert math.isfinite(delta)
    assert delta < 1e-2


def test_pendulum_step_validation():
    with pytest.raises(ValueError, match="dt"):
        pendulum_solve(1.4, dt=0.0)
    with pytest.raises(ValueError, match="dt"):
        pendulum_solve(1.4, dt=6.0)


def test_pendulum_benchmark_outputs_both_angles():
    out = evaluate("pendulum", 2, np.array([1.4]))
    assert out.shape == (2,)
    th1, th2 = pendulum_solve(1.4, dt=0.01)
    np.testing.assert_allclose(out, [th1, th2], atol=0)
    low = evaluate("pendulum", 1, np.array([[1.3], [1.5]]))
    assert low.shape == (2, 2)


# ---------------------------------------------------------------------------
# evaluate validation


def test_evaluate_fidelity_out_of_range():
    with pytest.raises(ValueError, match="fidelities 1..2"):
        evaluate("currin", 0, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="fidelities 1..2"):
        evaluate("currin", 3, np.array([0.5, 0.5]))


@pytest.mark.parametrize("fidelity", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_evaluate_fidelity_must_be_an_integer(fidelity):
    with pytest.raises(TypeError, match="fidelity must be an integer"):
        evaluate("currin", fidelity, np.array([0.5, 0.5]))


def test_evaluate_takes_numpy_integer_fidelity():
    x = np.array([math.pi, 2.275])
    assert evaluate("branin3", np.int64(3), x) == evaluate("branin3", 3, x)


def test_evaluate_rejects_wrong_input_dimension():
    with pytest.raises(ValueError, match="2-dimensional"):
        evaluate("currin", 1, np.array([0.5, 0.5, 0.5]))


def test_evaluate_rejects_points_outside_domain():
    with pytest.raises(ValueError, match="outside"):
        evaluate("currin", 1, np.array([0.5, 1.5]))
    # corners are inside
    evaluate("currin", 1, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_evaluate_single_and_batch_shapes():
    single = evaluate("currin", 2, np.array([0.25, 0.75]))
    batch = evaluate("currin", 2, np.array([[0.25, 0.75]]))
    assert single.shape == (1,)
    assert batch.shape == (1, 1)
    assert single[0] == batch[0, 0]


# ---------------------------------------------------------------------------
# designs


def test_design_uniform_deterministic_and_in_bounds():
    spec = get_benchmark("borehole")
    a = design_uniform(spec.domain, 50, 5)
    b = design_uniform(spec.domain, 50, 5)
    c = design_uniform(spec.domain, 50, 6)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
    assert np.all(a >= spec.domain.lower) and np.all(a <= spec.domain.upper)


def test_design_uniform_mean_near_center():
    spec = get_benchmark("currin")
    n = 10_000
    x = design_uniform(spec.domain, n, 0)
    mid = 0.5 * (spec.domain.lower + spec.domain.upper)
    se = spec.domain.width / math.sqrt(12 * n)
    assert np.all(np.abs(x.mean(axis=0) - mid) < 3 * se)


def test_design_uniform_requires_points():
    spec = get_benchmark("currin")
    with pytest.raises(ValueError):
        design_uniform(spec.domain, 0, 0)


def test_nested_subsample_rows_come_from_parent():
    design = design_uniform(get_benchmark("park").domain, 40, 2)
    sub, idx = nested_subsample(design, 15, 9)
    assert sub.shape == (15, 4)
    assert len(set(idx.tolist())) == 15
    np.testing.assert_array_equal(sub, design[idx])


def test_nested_subsample_full_size_keeps_every_row():
    design = design_uniform(get_benchmark("currin").domain, 12, 4)
    sub, idx = nested_subsample(design, 12, 0)
    np.testing.assert_array_equal(np.sort(idx), np.arange(12))
    np.testing.assert_array_equal(sub[np.argsort(idx)], design)


def test_nested_subsample_validation():
    design = design_uniform(get_benchmark("currin").domain, 5, 0)
    with pytest.raises(ValueError, match=r"\[1, 5\]"):
        nested_subsample(design, 0, 0)
    with pytest.raises(ValueError, match=r"\[1, 5\]"):
        nested_subsample(design, 6, 0)
    with pytest.raises(ValueError, match="2-d"):
        nested_subsample(design[:, 0], 2, 0)


def test_nested_random_data_produces_nested_designs():
    data = nested_random_data("branin3", [9, 5, 2], seed=8)
    assert [x.shape[0] for x in data.inputs] == [9, 5, 2]
    for f, rows in enumerate(nesting_check(data), start=2):
        np.testing.assert_array_equal(data.inputs[f - 1], data.inputs[f - 2][rows])
    for f in (1, 2, 3):
        np.testing.assert_array_equal(data.outputs[f - 1], evaluate("branin3", f, data.inputs[f - 1]))


def test_nested_random_data_deterministic():
    a = nested_random_data("currin", [10, 3], seed=5)
    b = nested_random_data("currin", [10, 3], seed=5)
    for xa, xb in zip(a.inputs, b.inputs):
        np.testing.assert_array_equal(xa, xb)


def test_nested_random_data_budget_length_checked():
    with pytest.raises(ValueError, match="2 budgets"):
        nested_random_data("currin", [10, 5, 2], seed=0)


@pytest.mark.parametrize(
    "budgets", [[6.7, 2.2], [True, True], [6, 2.0]], ids=["fraction", "bool", "float"]
)
def test_nested_random_data_rejects_non_integer_budgets(budgets):
    # int() would build a [6, 2] design from [6.7, 2.2] and a [1, 1] one from booleans
    with pytest.raises(TypeError, match="every budget must be an integer"):
        nested_random_data("currin", budgets, seed=0)


def test_nested_random_data_takes_numpy_integer_budgets():
    data = nested_random_data("currin", np.array([6, 2]), seed=0)
    assert [len(x) for x in data.inputs] == [6, 2]


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_prediction():
    y = np.array([[1.0], [2.0], [4.0]])
    m = metrics(y, np.ones(3), y)
    assert m.rmse == 0.0
    assert m.r2 == 1.0
    assert m.nrmse == 0.0
    assert abs(m.mnll - HALF_LOG_2PI) < 1e-15


def test_metrics_two_point_hand_values():
    truth = np.array([0.0, 2.0])
    pred = np.zeros(2)
    m = metrics(pred, np.ones(2), truth)
    assert abs(m.rmse - math.sqrt(2.0)) < 1e-15
    assert abs(m.r2 - (-1.0)) < 1e-15
    assert abs(m.nrmse - 1.0) < 1e-15
    assert abs(m.mnll - (HALF_LOG_2PI + 1.0)) < 1e-15


def test_metrics_multi_output_pools_entries():
    truth = np.array([[0.0, 1.0], [2.0, 0.0]])
    pred = np.array([[1.0, 1.0], [2.0, 2.0]])
    m = metrics(pred, np.ones(2), truth)
    assert abs(m.rmse - math.sqrt(5.0 / 4.0)) < 1e-15
    sst = np.sum((truth - truth.mean()) ** 2)
    assert abs(m.r2 - (1.0 - 5.0 / sst)) < 1e-15


def test_metrics_zero_variance_sentinels():
    truth = np.array([1.0, 2.0])
    exact = metrics(truth, np.zeros(2), truth)
    assert exact.mnll == -math.inf
    missed = metrics(truth + 0.5, np.zeros(2), truth)
    assert missed.mnll == math.inf


def test_metrics_invariances():
    rng = np.random.default_rng(13)
    truth = rng.normal(size=(50, 2))
    pred = truth + rng.normal(scale=0.3, size=(50, 2))
    var = rng.uniform(0.1, 1.0, 50)
    base = metrics(pred, var, truth)
    # r2 is invariant under affine maps applied to both signals
    aff = metrics(3.0 * pred - 2.0, 9.0 * var, 3.0 * truth - 2.0)
    assert abs(aff.r2 - base.r2) < 1e-12
    # nrmse is invariant under pure scaling
    scl = metrics(3.0 * pred, 9.0 * var, 3.0 * truth)
    assert abs(scl.nrmse - base.nrmse) < 1e-12


def test_metrics_validation():
    truth = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="shapes differ"):
        metrics(np.zeros(3), np.ones(3), truth)
    with pytest.raises(ValueError, match="one entry per prediction row"):
        metrics(truth, np.ones((2, 1)), truth)
    with pytest.raises(ValueError, match="non-negative"):
        metrics(truth, np.array([1.0, -1.0]), truth)
    with pytest.raises(ValueError, match="zero variance"):
        metrics(truth, np.ones(2), np.array([3.0, 3.0]))


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_csv_round_trip(tmp_path):
    data = nested_random_data("branin3", [7, 4, 2], seed=1)
    path = tmp_path / "data.csv"
    write_dataset_csv(str(path), data)
    back = read_dataset_csv(str(path))
    assert back.n_fidelities == 3
    for f in range(3):
        np.testing.assert_array_equal(back.inputs[f], data.inputs[f])
        np.testing.assert_array_equal(back.outputs[f], data.outputs[f])


def test_dataset_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset_csv(str(path))
    path.write_text("x1,y1,weight\n0.0,1.0,1\n")
    with pytest.raises(DatasetFormatError, match="fidelity"):
        read_dataset_csv(str(path))
    path.write_text("y1,x1,fidelity\n0.0,1.0,1\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset_csv(str(path))


def test_dataset_csv_row_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y1,fidelity\n0.0,1.0,1\n0.5,2.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_dataset_csv(str(path))
    path.write_text("x1,y1,fidelity\n0.0,1.0,1\n0.5,oops,1\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_dataset_csv(str(path))
    path.write_text("x1,y1,fidelity\n0.0,1.0,0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset_csv(str(path))


@pytest.mark.parametrize(
    "row, message",
    [("0.5,nan,1", "line 4: values must be finite"), ("-inf,2.0,1", "line 4: values must be finite"),
     ("0.5,2.0,inf", "line 4: values must be finite"), ("0.5,2.0,1.5", "line 4: fidelity must be an integer"),
     ("1" * 200_000 + ",2.0,1", "line 4: field larger than field limit")],
    ids=["nan-output", "inf-input", "inf-fidelity", "fractional-fidelity", "oversized-field"],
)
def test_dataset_csv_value_errors_name_the_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x1,y1,fidelity\n0.0,1.0,1\n\n{row}\n")
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset_csv(str(path))


def test_dataset_csv_unreadable_file_is_format_error(tmp_path):
    with pytest.raises(DatasetFormatError, match="cannot read"):
        read_dataset_csv(str(tmp_path / "absent.csv"))
    # not UTF-8: unreadable under a UTF-8 locale, a bad number under a Latin-1 one
    (tmp_path / "latin1.csv").write_bytes(b"x1,y1,fidelity\n0.5,\xff,1\n")
    with pytest.raises(DatasetFormatError):
        read_dataset_csv(str(tmp_path / "latin1.csv"))


# any finite double: -0.0, subnormals and +-1.8e308 included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1]


@st.composite
def datasets(draw):
    """1-4 fidelities of 1-6 rows each, non-increasing, with l, d <= 3."""
    l, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    counts = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)), reverse=True)
    return MultiFidelityData(
        inputs=[draw(arrays(np.float64, (n, l), elements=FINITE)) for n in counts],
        outputs=[draw(arrays(np.float64, (n, d), elements=FINITE)) for n in counts],
    )


@example(MultiFidelityData([np.array([EDGE_VALUES[:3], EDGE_VALUES[3:]])] * 2,
                           [np.array([[EDGE_VALUES[1]], [EDGE_VALUES[0]]])] * 2))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(datasets())
def test_dataset_csv_round_trips_bit_exactly(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    write_dataset_csv(path, data)
    back = read_dataset_csv(path)
    assert back.counts == data.counts
    for f in range(data.n_fidelities):
        assert back.inputs[f].tobytes() == data.inputs[f].tobytes()
        assert back.outputs[f].tobytes() == data.outputs[f].tobytes()


def reference_csv(header, rows) -> str:
    """What csv.writer makes of the rows, each float cell written as repr(float(v))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


CELLS = st.one_of(
    st.floats(),  # subnormals, -0.0, +-inf and nan included
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64),
    st.integers(-10**20, 10**20),
    st.sampled_from(sorted(BENCHMARKS)),
)


ARRAY_CELLS = st.one_of(
    st.floats(),  # subnormals, -0.0, +-inf and nan included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=8),
       arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 5)), elements=ARRAY_CELLS))
def test_write_csv_matches_csv_writer(tmp_path_factory, rows, table):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = ["benchmark", "x1", "y1"]
    write_csv(str(path), header, rows)
    assert path.read_text() == reference_csv(header, rows)
    # a 2-D array is written as its rows of Python floats would be
    write_csv(str(path), header, table)
    assert path.read_text() == reference_csv(header, table.tolist())


def per_line_read_csv_rows(path: str, check_header) -> tuple[list, np.ndarray, list]:
    """The per-line reader read_csv_rows replaced: the reference for its results and messages."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("line 1: empty file")
            header = [h.strip() for h in header]
            check_header(header)
            n = len(header)
            rows, lines = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n:
                    raise DatasetFormatError(f"line {lineno}: expected {n} fields, got {len(row)}")
                try:
                    rows.append(list(map(float, row)))
                except ValueError as exc:
                    raise DatasetFormatError(f"line {lineno}: {exc}") from None
                lines.append(lineno)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DatasetFormatError(f"line {reader.line_num}: {exc}") from None
    values = np.array(rows).reshape(len(rows), n)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(f"line {lines[np.argmin(finite)]}: values must be finite")
    return header, values, lines


def reject_a_headers(header):
    if "a" in header:
        raise DatasetFormatError("line 1: header names a")


def read_outcome(reader, path):
    """What a reader makes of a file: its results, or the message of its DatasetFormatError."""
    try:
        header, values, lines = reader(path, reject_a_headers)
    except DatasetFormatError as exc:
        return "error", str(exc)
    assert values.dtype == np.float64
    return header, values.shape, values.tobytes(), lines


OVERSIZED = "2" * 140_000  # above csv.field_size_limit()
NUMBERS = st.one_of(
    st.floats().map(repr),  # nan, +-inf, -0.0 and subnormals included
    st.sampled_from(["1_0", "infinity", "-Infinity", "NaN", " 0.5", "0.5 ", "\t2e3", "1e999", "+.5"]),
)
FIELDS = st.one_of(
    NUMBERS,
    NUMBERS,
    NUMBERS.map(lambda v: f'"{v}"'),  # quoted
    st.sampled_from(['"1\n"', '"0,5"', '""']),  # a quoted line break, comma, empty field
    st.sampled_from(["", "abc", "1.2.3", "1__0", "0x10", "--1", OVERSIZED]),
)
RECORDS = st.one_of(
    st.lists(FIELDS, min_size=2, max_size=2).map(",".join),
    st.lists(FIELDS, min_size=2, max_size=2).map(",".join),
    st.lists(FIELDS, min_size=1, max_size=3).map(",".join),  # often ragged
    st.sampled_from(["", " "]),  # a blank line, a line of one blank field
)
LAYOUTS = [
    "x1,x2\n0.5,abc\n\n0.1," + OVERSIZED + "\n",  # a bad value before an oversized field
    "x1,x2\n0.1,0.2\n0.5\n\n" + OVERSIZED + ",1\n",  # a ragged row before it
    "x1,x2\n0.1,nan\n0.5," + OVERSIZED + "\n",  # an oversized field after a non-finite one
    'x1,x2\n"0.1\n",0.2\n\n0.3,x\n',  # lines are record numbers, not physical lines
    "x1,x2\n0.1,0.2\n1_0, inf \n",
    "a,b\n0.1,0.2\n",
    "",
    "\n\n0.1,0.2\n",
]


@example(LAYOUTS[0], b"")
@example(LAYOUTS[1], b"")
@example(LAYOUTS[2], b"")
@example(LAYOUTS[3], b"")
@example(LAYOUTS[4], b"")
@example(LAYOUTS[5], b"")
@example(LAYOUTS[6], b"")
@example(LAYOUTS[7], b"")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.builds(
        lambda header, records, newline, last: newline.join([header, *records]) + last,
        st.sampled_from(["x1,x2", " x1 , x2 ", "x1", "x1,x2,x3", "a,b", ""]),
        st.lists(RECORDS, max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from(["\n", ""]),
    ),
    st.sampled_from([b"", b"", b"", b"0.1,\xff\n"]),  # bytes that do not decode, appended
)
def test_read_csv_rows_matches_the_per_line_reader(tmp_path_factory, text, tail):
    path = str(tmp_path_factory.mktemp("csv") / "rows.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode() + tail)
    assert read_outcome(read_csv_rows, path) == read_outcome(per_line_read_csv_rows, path)


@pytest.mark.parametrize("fault, message", [
    ("0.5,abc\n", "could not convert string to float: 'abc'"),
    ("0.5\n", "expected 2 fields, got 1"),
    (None, None),
], ids=["bad-value", "ragged", "none"])
@pytest.mark.parametrize("stream_fault", ["oversized", "undecodable"])
def test_a_record_fault_before_a_mid_file_stream_fault_wins(tmp_path, fault, message, stream_fault):
    # 2,000 good records fill more than one 8 kB decode chunk, so the reader yields
    # the record fault before it meets the stream fault
    good = "".join(f"{i / 2000!r},0.5\n" for i in range(2000)).encode()
    later = (f"0.1,{OVERSIZED}\n").encode() if stream_fault == "oversized" else b"0.1,\xff\n"
    path = tmp_path / "rows.csv"
    path.write_bytes(b"x1,x2\n" + good + (fault or "").encode() + good + later)
    outcome = read_outcome(read_csv_rows, str(path))
    assert outcome == read_outcome(per_line_read_csv_rows, str(path))
    if fault is not None:
        assert outcome == ("error", f"line 2002: {message}")
    elif stream_fault == "oversized":
        assert outcome == ("error", "line 4002: field larger than field limit (131072)")
    else:
        assert outcome[0] == "error" and outcome[1].startswith("cannot read")


def test_dataset_csv_fidelity_labels_must_be_contiguous(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y1,fidelity\n0.0,1.0,1\n0.2,1.1,1\n0.0,2.0,3\n")
    with pytest.raises(DatasetFormatError, match="contiguous"):
        read_dataset_csv(str(path))
    path.write_text("x1,y1,fidelity\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        read_dataset_csv(str(path))


# ---------------------------------------------------------------------------
# benchmark harness


def test_standardization_scale_values():
    data = nested_random_data("currin", [6, 2], seed=0)
    m, s = standardization_scale(data)
    flat = data.outputs[0].ravel()
    assert abs(m - flat.mean()) < 1e-15
    assert abs(s - flat.std()) < 1e-15


def test_standardization_scale_guards_constant_outputs():
    from resgp import MultiFidelityData

    data = MultiFidelityData(
        inputs=[np.array([[0.1], [0.9]])], outputs=[np.array([[2.0], [2.0]])]
    )
    assert standardization_scale(data) == (2.0, 1.0)


def test_run_benchmark_case_fields_and_determinism():
    out = run_benchmark_case("currin", [12, 4], seed=0, test_points=40)
    assert out["name"] == "currin"
    assert out["budgets"] == [12, 4]
    assert out["seed"] == 0
    assert out["metrics"].r2 > 0.0
    assert math.isfinite(out["metrics"].mnll)
    assert out["test_inputs"].shape == (40, 2)
    assert out["fit_seconds"] >= 0.0
    again = run_benchmark_case("currin", [12, 4], seed=0, test_points=40)
    assert again["metrics"] == out["metrics"]


def test_run_benchmark_case_standardization_toggle():
    raw = run_benchmark_case("currin", [12, 4], seed=1, test_points=40, standardize=False)
    assert raw["scale"] is None
    assert raw["metrics"] == raw["raw_metrics"]
    std = run_benchmark_case("currin", [12, 4], seed=1, test_points=40)
    assert std["scale"] is not None
    # standardization moves rmse but leaves the fit itself alone
    assert std["raw_metrics"] == raw["raw_metrics"]
    assert abs(std["metrics"].r2 - std["raw_metrics"].r2) < 1e-10


def test_run_benchmark_case_default_budgets():
    out = run_benchmark_case("currin", None, seed=2, test_points=30)
    assert out["budgets"] == DEFAULT_BUDGETS["currin"]
    assert [x.shape[0] for x in out["data"].inputs] == [20, 5]
