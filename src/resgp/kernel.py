"""ARD squared-exponential kernel, input domains, and kernel Lipschitz constants.

The kernel is parameterized by an amplitude and one positive weight per input
dimension, the weights acting as inverse squared length scales:

    k(a, b) = amplitude * exp(-sum_i w_i * (a_i - b_i)^2)

with the weighted squared distance capped at DIST_CUT, so that no kernel value
falls below amplitude * e^-230.

All Gram-matrix construction, normalization boxes, and the analytic gradient
supremum used by the error-bound module live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

# Relative jitter: each level factors its Gram once, with jitter_rel * amplitude on
# the diagonal; a Gram that does not factor there is ill-conditioned.
DEFAULT_JITTER_REL = 1e-8
# Weighted squared distances are capped here before exponentiation, so every
# kernel value is at least amplitude * e^-230 (about 1e-100 * amplitude). The
# cap keeps subnormal numbers, which slow floating-point arithmetic many times
# over, out of every Gram, cross-covariance and likelihood evaluation.
DIST_CUT = 230.0


def check_nonnegative(value: float, name: str) -> None:
    """ValueError unless value is finite and at least 0 (a NaN is neither)."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and at least 0, got {value}")


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class DomainBox:
    """Axis-aligned box of admissible inputs, used for normalization and bounds.

    lower and upper are length-l vectors with lower < upper in every dimension.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _as_float_array(self.lower, "lower", 1)
        self.upper = _as_float_array(self.upper, "upper", 1)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same length")
        if self.lower.size == 0:
            raise ValueError("domain must have at least one dimension")
        if not np.all(self.lower < self.upper):
            raise ValueError("domain requires lower < upper in every dimension")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def normalize(self, x) -> np.ndarray:
        """Affinely map raw coordinates onto [0, 1]^l."""
        x = np.asarray(x, dtype=float)
        return (x - self.lower) / self.width

    def is_hypercube(self, atol: float = 1e-12) -> bool:
        w = self.width
        return bool(np.all(np.abs(w - w[0]) <= atol))

    @staticmethod
    def unit(dim: int) -> "DomainBox":
        return DomainBox(np.zeros(dim), np.ones(dim))


@dataclass
class KernelHyperparams:
    """Amplitude, per-dimension weights, and optional observation noise variance."""

    amplitude: float
    weights: np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        self.amplitude = float(self.amplitude)
        self.weights = _as_float_array(self.weights, "weights", 1)
        self.noise = float(self.noise)
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError("amplitude must be positive and finite")
        if self.weights.size == 0 or not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise variance must be non-negative and finite")

    @property
    def dim(self) -> int:
        return self.weights.size


def sq_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b), l) tensor of squared per-coordinate differences of row pairs.

    This is the one pairwise routine: every kernel matrix is
    kernel_values(amplitude, weighted_sq_dists(sq_diffs(a, b), weights)).
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.square(diff, out=diff)


def weighted_sq_dists(sq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(M, N) weighted squared distances sum_i w_i sq[..., i] of a sq_diffs tensor.

    The product runs in scipy's BLAS (dgemv) on the Fortran-ordered (l, M N)
    view of the C-ordered tensor, so nothing is copied, and the Gram, the
    cross-covariances and the likelihood core round it the same way.
    """
    m, n, l = sq.shape
    if m * n == 0:
        return np.zeros((m, n))
    return dgemv(1.0, sq.reshape(m * n, l).T, weights, trans=1).reshape(m, n)


def kernel_values(amplitude: float, sq_dists: np.ndarray) -> np.ndarray:
    """amplitude * exp(-min(sq_dists, DIST_CUT)), elementwise, in one new array."""
    k = np.minimum(sq_dists, DIST_CUT)
    np.exp(np.negative(k, out=k), out=k)
    k *= amplitude
    return k


def ard_eval(params: KernelHyperparams, a, b) -> float:
    """Kernel value amplitude * exp(-sum_i w_i (a_i - b_i)^2) for two points."""
    a = _as_float_array(a, "a", 1)
    b = _as_float_array(b, "b", 1)
    if a.size != params.dim or b.size != params.dim:
        raise ValueError("point dimension does not match kernel weights")
    return float(cross_vec(params, a, b[None, :])[0])


def gram(params: KernelHyperparams, points, jitter: float = 0.0) -> np.ndarray:
    """Gram matrix of the kernel over N points plus (jitter + noise) on the diagonal.

    jitter is an absolute value added to the diagonal; callers that want the
    relative policy pass jitter_rel * amplitude.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
    if pts.shape[1] != params.dim:
        raise ValueError("point dimension does not match kernel weights")
    check_nonnegative(jitter, "jitter")
    K = kernel_values(params.amplitude, weighted_sq_dists(sq_diffs(pts, pts), params.weights))
    # mirror the upper triangle, the one the Cholesky factorization reads, so the
    # matrix is exactly symmetric and equal to the likelihood core's
    lower = np.tril_indices_from(K, -1)
    K[lower] = K.T[lower]
    diag = jitter + params.noise
    if diag > 0:
        K[np.diag_indices_from(K)] += diag
    return K


def cross_vec(params: KernelHyperparams, query, points) -> np.ndarray:
    """Kernel values between query point(s) and N training points, noise-free.

    query of shape (l,) gives a length-N vector; shape (M, l) gives an (M, N)
    matrix. No jitter or noise enters the cross covariances.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.shape[1] != params.dim or pts.shape[1] != params.dim:
        raise ValueError("point dimension does not match kernel weights")
    out = kernel_values(params.amplitude, weighted_sq_dists(sq_diffs(q, pts), params.weights))
    return out[0] if single else out


def _grad_norm_sup(params: KernelHyperparams, max_offsets: np.ndarray) -> float:
    """Exact supremum of the kernel gradient norm over the given offset box.

    With v_i = w_i * delta_i^2 the squared-distance budget, the gradient norm is
    2 * amplitude * exp(-sum v) * sqrt(sum w_i v_i). For a fixed budget the sum
    is maximized by loading the largest weights first, and the exponential decay
    caps the useful budget at the point where sum w_i v_i reaches w_i / 2, so a
    greedy fill over weights in decreasing order attains the supremum.
    """
    caps = params.weights * max_offsets**2
    order = np.argsort(params.weights)[::-1]
    weighted_sum = 0.0
    budget = 0.0
    for i in order:
        w = params.weights[i]
        if w <= 2.0 * weighted_sum:
            break
        v_to_target = (0.5 * w - weighted_sum) / w
        v = min(caps[i], v_to_target)
        weighted_sum += w * v
        budget += v
        if v == v_to_target:
            break
    return 2.0 * params.amplitude * np.exp(-budget) * np.sqrt(weighted_sum)


def kernel_lipschitz(params: KernelHyperparams, domain: DomainBox) -> float:
    """Upper estimate of sup |grad_a k(a, b)| over the domain, with 1% headroom.

    Returns 1.01 times the exact supremum of _grad_norm_sup over the offset box
    spanned by the domain widths. The test suite checks that a dense grid over
    that box never exceeds it.
    """
    if domain.dim != params.dim:
        raise ValueError("domain dimension does not match kernel weights")
    hw = domain.width
    if np.any(hw <= 0):
        raise ValueError("degenerate domain: zero width dimension")
    return 1.01 * _grad_norm_sup(params, hw)
