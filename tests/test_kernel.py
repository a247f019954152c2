"""Kernel evaluation, Gram assembly, and the Lipschitz constant estimate."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resgp import (
    DEFAULT_JITTER_REL,
    BoundConfig,
    DomainBox,
    IllConditionedError,
    KernelHyperparams,
    MultiFidelityData,
    OptimizerConfig,
    ResGPModel,
    ResidualDataset,
    build_level,
    covering_number_bound,
    cross_vec,
    design_uniform,
    evaluate,
    fit_level,
    gram,
    kernel_lipschitz,
    neg_log_likelihood,
    nested_subsample,
    pendulum_trajectory,
    predict_fidelity,
    sequential_construct,
    train,
)
from resgp.gp_level import cholesky_with_escalation
from resgp.kernel import (
    DIST_CUT,
    _grad_norm_sup,
    check_array,
    check_integer,
    check_real,
    sq_diffs,
    unit_kernel,
)


def params_1d(amplitude=1.0, weight=1.0, noise=0.0):
    return KernelHyperparams(amplitude, np.array([weight]), noise)


# --- kernel values (cross_vec) ---------------------------------------------


def test_zero_distance_returns_amplitude():
    p = KernelHyperparams(2.0, np.array([3.0, 0.1, 7.0]))
    a = np.array([0.4, -1.0, 2.5])
    assert cross_vec(p, a, a[None, :])[0] == 2.0


def test_unit_separation_frozen_value():
    # amplitude 2, weight 1, points 0 and 1: 2 * exp(-1)
    v = cross_vec(params_1d(amplitude=2.0), np.array([0.0]), np.array([[1.0]]))[0]
    assert v == pytest.approx(0.7357588823428847, abs=1e-15)


def test_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    p = KernelHyperparams(1.3, rng.uniform(0.1, 5.0, size=4))
    for _ in range(100):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert cross_vec(p, a, b[None, :])[0] == cross_vec(p, b, a[None, :])[0]


def test_bounded_by_amplitude():
    rng = np.random.default_rng(1)
    p = KernelHyperparams(0.8, rng.uniform(0.1, 5.0, size=3))
    for _ in range(100):
        v = cross_vec(p, rng.normal(size=3), rng.normal(size=(1, 3)))[0]
        assert 0.0 < v <= 0.8


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        cross_vec(params_1d(), np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))


# --- gram -------------------------------------------------------------------


def test_gram_single_point():
    p = params_1d(amplitude=2.0, noise=0.25)
    K = gram(p, np.array([[0.3]]), jitter=1e-8)
    np.testing.assert_allclose(K, [[2.0 + 1e-8 + 0.25]])


def test_gram_diagonal_constant():
    rng = np.random.default_rng(2)
    p = KernelHyperparams(1.7, rng.uniform(0.1, 2.0, size=3), 0.04)
    K = gram(p, rng.normal(size=(6, 3)), jitter=1e-6)
    np.testing.assert_allclose(np.diag(K), 1.7 + 1e-6 + 0.04)


def test_gram_cholesky_succeeds_with_jitter():
    rng = np.random.default_rng(3)
    p = KernelHyperparams(1.0, np.array([2.0, 0.5]))
    K = gram(p, rng.uniform(size=(3, 2)), jitter=1e-8)
    np.linalg.cholesky(K)  # raises LinAlgError if not positive definite


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(4)
    for trial in range(10):
        l = int(rng.integers(1, 5))
        p = KernelHyperparams(
            float(rng.uniform(0.1, 5.0)), rng.uniform(0.05, 4.0, size=l)
        )
        pts = rng.uniform(size=(int(rng.integers(2, 12)), l))
        w = np.linalg.eigvalsh(gram(p, pts, jitter=0.0))
        assert w.min() >= -1e-10 * p.amplitude


def test_gram_symmetric():
    rng = np.random.default_rng(5)
    p = KernelHyperparams(2.2, rng.uniform(0.1, 3.0, size=2))
    K = gram(p, rng.normal(size=(8, 2)))
    np.testing.assert_array_equal(K, K.T)


@pytest.mark.parametrize("jitter", [-1e-8, float("nan"), float("inf")])
def test_gram_rejects_bad_jitter(jitter):
    p = KernelHyperparams(1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="jitter must be finite and at least 0"):
        gram(p, np.array([[0.0], [1.0]]), jitter)


# --- cross_vec --------------------------------------------------------------


def test_cross_vec_at_training_point():
    rng = np.random.default_rng(6)
    p = KernelHyperparams(1.9, rng.uniform(0.1, 2.0, size=2))
    pts = rng.uniform(size=(5, 2))
    k = cross_vec(p, pts[3], pts)
    assert k[3] == 1.9
    assert np.all(k <= 1.9)


def test_cross_vec_far_query_decays():
    p = params_1d()
    pts = np.linspace(0.0, 1.0, 7)[:, None]
    k = cross_vec(p, np.array([40.0]), pts)
    assert np.all(k < 1e-12 * p.amplitude)


def test_cross_vec_two_point_frozen():
    k = cross_vec(params_1d(), np.array([0.0]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(k, [1.0, 0.36787944117144233], atol=1e-15)


def test_cross_vec_of_no_queries_is_empty():
    # BLAS refuses zero-length products, so the empty case has its own path
    k = cross_vec(KernelHyperparams(1.0, np.ones(2)), np.zeros((0, 2)), np.ones((3, 2)))
    assert k.shape == (0, 3)


# --- kernel_lipschitz -------------------------------------------------------


def test_lipschitz_exceeds_analytic_sup():
    # sup |d/dr exp(-r^2)| = sqrt(2/e), attained at r = 1/sqrt(2)
    L = kernel_lipschitz(params_1d(), DomainBox.unit(1))
    assert L >= 0.8577638849607068


def test_lipschitz_linear_in_amplitude():
    dom = DomainBox.unit(1)
    base = kernel_lipschitz(params_1d(amplitude=1.0, weight=2.5), dom)
    scaled = kernel_lipschitz(params_1d(amplitude=3.5, weight=2.5), dom)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_lipschitz_dominates_sampled_differences():
    rng = np.random.default_rng(7)
    p = KernelHyperparams(1.4, np.array([3.0, 0.7]))
    dom = DomainBox(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    L = kernel_lipschitz(p, dom)
    lo, hi = dom.lower, dom.upper
    for _ in range(1000):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        c = rng.uniform(lo, hi)
        lhs = abs(cross_vec(p, a, c[None, :])[0] - cross_vec(p, b, c[None, :])[0])
        assert lhs <= L * np.linalg.norm(a - b) + 1e-12


def _grid_sup(params, domain, grid_points=10_000):
    """Largest kernel gradient norm over a dense grid of the offset box."""
    per_dim = max(2, int(round(grid_points ** (1.0 / domain.dim))))
    axes = [np.linspace(0.0, w, per_dim) for w in domain.width]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
    v = mesh**2 * params.weights
    norms = 2.0 * params.amplitude * np.exp(-v.sum(axis=1)) * np.sqrt((v * params.weights).sum(axis=1))
    return float(norms.max())


def test_lipschitz_is_analytic_sup_and_dominates_grid():
    rng = np.random.default_rng(11)
    for trial in range(400):
        dim = 1 + trial % 4
        p = KernelHyperparams(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3, size=dim))
        lower = rng.uniform(-5.0, 5.0, size=dim)
        dom = DomainBox(lower, lower + 10.0 ** rng.uniform(-1, 1, size=dim))
        analytic = _grad_norm_sup(p, dom.width)
        assert _grid_sup(p, dom) <= analytic * (1.0 + 1e-12)
        assert kernel_lipschitz(p, dom) == 1.01 * analytic


# --- DomainBox --------------------------------------------------------------


def test_domain_box_rejects_degenerate_edge():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_domain_box_round_trip():
    dom = DomainBox(np.array([-5.0, 0.0]), np.array([10.0, 15.0]))
    rng = np.random.default_rng(8)
    x = rng.uniform(dom.lower, dom.upper, size=(20, 2))
    u = dom.normalize(x)
    np.testing.assert_allclose(dom.lower + u * dom.width, x, atol=1e-12)
    assert np.all(u >= 0.0) and np.all(u <= 1.0)


def test_domain_box_hypercube_flag():
    assert DomainBox.unit(3).is_hypercube()
    assert not DomainBox(np.array([0.0, 0.0]), np.array([1.0, 2.0])).is_hypercube()


def test_default_jitter_value():
    assert DEFAULT_JITTER_REL == 1e-8


# --- properties of the one pairwise routine ------------------------------------


@st.composite
def kernel_cases(draw):
    """Points, a query block, residuals and hyperparameters with log-weights in [-10, 10]."""
    n = draw(st.integers(1, 60))
    l = draw(st.integers(1, 8))
    unit = st.floats(0.0, 1.0)
    log_w = draw(arrays(np.float64, l, elements=st.floats(-10.0, 10.0)))
    amplitude = math.exp(draw(st.floats(-5.0, 5.0)))
    params = KernelHyperparams(amplitude, np.exp(log_w), draw(st.sampled_from([0.0, 1e-3])))
    return dict(
        params=params,
        x=draw(arrays(np.float64, (n, l), elements=unit)),
        query=draw(arrays(np.float64, (draw(st.integers(1, 10)), l), elements=unit)),
        residuals=draw(arrays(np.float64, (n, 2), elements=st.floats(-10.0, 10.0))),
        jitter=draw(st.sampled_from([0.0, DEFAULT_JITTER_REL])) * amplitude,
    )


def fixed_kernel_case(n, l, seed):
    """One kernel case with log-weights uniform in [-10, 10], for explicit examples."""
    rng = np.random.default_rng(seed)
    weights = np.exp(rng.uniform(-10.0, 10.0, size=l))
    x = rng.uniform(size=(n, l))
    return dict(
        params=KernelHyperparams(1.3, weights),
        x=x,
        query=rng.uniform(size=(3, l)),
        residuals=rng.normal(size=(n, 2)),
        jitter=0.0,
    )


# one input dimension, and eight, where numpy's x @ w can round weighted
# distances differently from scipy's dgemv (5 of this case's 100 with
# OpenBLAS 0.3.31 on x86-64)
@example(fixed_kernel_case(10, 1, seed=10))
@example(fixed_kernel_case(10, 8, seed=10))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases())
def test_kernel_matrices_come_from_one_pairwise_routine(case):
    p, x, jitter = case["params"], case["x"], case["jitter"]
    n = len(x)
    K = gram(p, x, jitter)
    np.testing.assert_array_equal(K, K.T)
    # the upper triangle is the one the likelihood core factors at the same shift
    core = p.amplitude * unit_kernel(sq_diffs(x, x), p.weights)
    core.flat[:: n + 1] += jitter + p.noise
    np.testing.assert_array_equal(np.triu(K), np.triu(core))

    ref = np.array(
        [
            [
                p.amplitude * math.exp(-min(math.fsum(p.weights * (q - b) ** 2), DIST_CUT))
                for b in x
            ]
            for q in case["query"]
        ]
    )
    np.testing.assert_allclose(cross_vec(p, case["query"], x), ref, rtol=1e-12, atol=0)

    try:
        chol = cholesky_with_escalation(p, x, jitter)
    except IllConditionedError:
        # only a Gram with nothing on its diagonal can be singular
        assert jitter + p.noise == 0
        assume(False)
    assert not np.triu(chol, 1).any()
    data = ResidualDataset(x, case["residuals"])
    assert math.isfinite(neg_log_likelihood(p, data, jitter_rel=jitter / p.amplitude))


@st.composite
def pairwise_inputs(draw):
    """Two float arrays of l columns, M and N rows from 0 to 60, each C-ordered,
    Fortran-ordered or a column slice of a wider array."""
    l = draw(st.integers(1, 8))
    values = st.floats(-1e3, 1e3, allow_subnormal=False)

    def one(rows):
        layout = draw(st.sampled_from(["C", "F", "sliced"]))
        if layout == "sliced":
            wide = draw(arrays(np.float64, (rows, 2 * l + 1), elements=values))
            return wide[:, 1::2]
        return np.asarray(draw(arrays(np.float64, (rows, l), elements=values)), order=layout)

    return one(draw(st.integers(0, 60))), one(draw(st.integers(0, 60)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairwise_inputs())
def test_sq_diffs_is_the_broadcast_square_in_c_order(ab):
    a, b = ab
    sq = sq_diffs(a, b)
    np.testing.assert_array_equal(sq, np.square(a[:, None, :] - b[None, :, :]), strict=True)
    # unit_kernel reads the tensor through a reshape that must not copy; the
    # broadcast gives a Fortran-ordered tensor for Fortran-ordered inputs
    assert sq.flags.c_contiguous and sq.shape == (len(a), len(b), a.shape[1])


# --- one check per input kind -----------------------------------------------

UNIT1 = DomainBox.unit(1)
P1 = KernelHyperparams(1.0, [1.0])


def two_points():
    return ResidualDataset([[0.0], [1.0]], [[0.0], [1.0]])


def one_level_model():
    return ResGPModel([build_level(P1, two_points())], UNIT1)


# (field, kind, call, value just out of range): call(value) passes value as that
# field alone. None as the last entry means every finite value is in range.
NUMBER_FIELDS = {
    "OptimizerConfig-restarts": ("restarts", int, lambda v: OptimizerConfig(restarts=v), 0),
    "OptimizerConfig-seed": ("seed", int, lambda v: OptimizerConfig(seed=v), -1),
    "KernelHyperparams-amplitude": ("amplitude", float, lambda v: KernelHyperparams(v, [1.0]), 0.0),
    "KernelHyperparams-noise": ("noise", float, lambda v: KernelHyperparams(1.0, [1.0], v), -1e-300),
    "BoundConfig-delta": ("delta", float, lambda v: BoundConfig(v, 1e-3, 1.0, UNIT1), 1.0),
    "BoundConfig-tau": ("tau", float, lambda v: BoundConfig(0.05, v, 1.0, UNIT1), 0.0),
    "BoundConfig-l_y": ("l_y", float, lambda v: BoundConfig(0.05, 1e-3, v, UNIT1), -1e-300),
    "fit_level-jitter_rel": ("jitter_rel", float, lambda v: fit_level(two_points(), jitter_rel=v),
                             -1e-300),
    "fit_level-noise": ("noise", float, lambda v: fit_level(two_points(), noise=v), -1e-300),
    "train-jitter_rel": ("jitter_rel", float,
                         lambda v: train(MultiFidelityData([[[0.0], [1.0]]], [[[0.0], [1.0]]]),
                                         jitter_rel=v), -1e-300),
    "train-noise": ("noise", float,
                    lambda v: train(MultiFidelityData([[[0.0], [1.0]]], [[[0.0], [1.0]]]), noise=v),
                    -1e-300),
    "neg_log_likelihood-jitter_rel": ("jitter_rel", float,
                                      lambda v: neg_log_likelihood(P1, two_points(), v), -1e-300),
    "gram-jitter": ("jitter", float, lambda v: gram(P1, [[0.0]], v), -1e-300),
    "design_uniform-n": ("n", int, lambda v: design_uniform(UNIT1, v, 0), 0),
    "design_uniform-seed": ("seed", int, lambda v: design_uniform(UNIT1, 3, v), -1),
    "nested_subsample-n_sub": ("n_sub", int, lambda v: nested_subsample(np.zeros((3, 1)), v, 0), 4),
    "nested_subsample-seed": ("seed", int, lambda v: nested_subsample(np.zeros((3, 1)), 2, v), -1),
    "sequential_construct-seed": ("seed", int, lambda v: sequential_construct(
        [[0.0], [1.0]], [2], lambda f, x: x, seed=v), -1),
    "covering_number_bound-tau": ("tau", float, lambda v: covering_number_bound(UNIT1, v), 0.0),
    "pendulum_trajectory-theta1_0": ("theta1_0", float, lambda v: pendulum_trajectory(v, dt=1.0),
                                     None),
    "pendulum_trajectory-dt": ("dt", float, lambda v: pendulum_trajectory(1.4, dt=v),
                               5.000000000000001),
    "predict_fidelity-fidelity": ("fidelity", int,
                                  lambda v: predict_fidelity(one_level_model(), [[0.5]], v), 2),
    "evaluate-fidelity": ("fidelity", int, lambda v: evaluate("currin", v, [0.5, 0.5]), 3),
}
BAD_VALUES = {"bool": True, "string": "1", "none": None, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf, "out-of-range": "out"}


@pytest.mark.parametrize(
    "case, bad",
    [(case, bad) for case, entry in NUMBER_FIELDS.items() for bad in BAD_VALUES
     if not (bad == "out-of-range" and entry[3] is None)],
)
def test_every_number_field_has_one_check(case, bad):
    """A bad type is a TypeError, a bad value a ValueError, and the message names the field.

    For an integer field a float, NaN and the infinities included, is a bad type.
    """
    field, kind, call, out_of_range = NUMBER_FIELDS[case]
    value = out_of_range if bad == "out-of-range" else BAD_VALUES[bad]
    bad_type = isinstance(value, (bool, str, type(None))) or (kind is int and isinstance(value, float))
    with pytest.raises(TypeError if bad_type else ValueError, match=f"^{field} must be "):
        call(value)


def test_checks_state_their_bounds_in_one_format():
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        check_integer(-1, "seed", 0)
    with pytest.raises(ValueError, match=r"^n_sub must be in \[1, 5\], got 6$"):
        check_integer(6, "n_sub", 1, 5)
    with pytest.raises(ValueError, match=r"^noise must be finite and at least 0, got -1.0$"):
        check_real(-1, "noise", "[0, inf)")
    with pytest.raises(ValueError, match=r"^tau must be finite and above 0, got 0.0$"):
        check_real(0, "tau", "(0, inf)")
    with pytest.raises(ValueError, match=r"^dt must be finite and in \(0, 5\], got 6.0$"):
        check_real(6, "dt", "(0, 5]")
    with pytest.raises(ValueError, match=r"^x must be finite, got inf$"):
        check_real(math.inf, "x", "(-inf, inf)")
    with pytest.raises(ValueError, match=r"^weights must be finite and above 0$"):
        check_array([1.0, 0.0], "weights", 1, "(0, inf)")
    with pytest.raises(ValueError, match=r"^points must be 2-dimensional, got shape \(2,\)$"):
        check_array([1.0, 0.0], "points", 2)
    for entries in (["1"], [True], [None]):
        with pytest.raises(TypeError, match="^a must be an array of numbers"):
            check_array(entries, "a", 1)
    with pytest.raises(ValueError, match="^a must be a regular array"):
        check_array([[1.0], [1.0, 2.0]], "a", 2)


def test_checks_keep_numpy_numbers_and_their_values():
    assert check_integer(np.int64(3), "n", 1) == 3 and type(check_integer(np.int64(3), "n", 1)) is int
    assert check_real(np.float32(0.5), "x", "(0, 1)") == 0.5
    assert type(check_real(np.float64(0.1), "x", "(0, 1)")) is float
    assert check_real(5, "dt", "(0, 5]") == 5.0  # a closed end is in range
    x = np.array([[0.1, 2.0]])
    assert check_array(x, "x", 2) is x  # a float array is not copied
    np.testing.assert_array_equal(check_array([[1, 2]], "x", 2), [[1.0, 2.0]])
