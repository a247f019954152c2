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
import numbers
from dataclasses import dataclass

import numpy as np

from ._scipy import dgemv

# Relative jitter: each level factors its Gram once, with jitter_rel * amplitude on
# the diagonal; a Gram that does not factor there is ill-conditioned.
DEFAULT_JITTER_REL = 1e-8
# Weighted squared distances are capped here before exponentiation, so every
# kernel value is at least amplitude * e^-230 (about 1e-100 * amplitude). The
# cap keeps subnormal numbers, which slow floating-point arithmetic many times
# over, out of every Gram, cross-covariance and likelihood evaluation.
DIST_CUT = 230.0
# edges equal within this absolute tolerance make a hypercube
HYPERCUBE_ATOL = 1e-12


def _inside(value, bounds: str):
    """Whether value, a float or an array (elementwise), lies in an interval such as "(0, 5]"."""
    low, high = map(float, bounds[1:-1].split(","))
    above = low < value if bounds[0] == "(" else low <= value
    return above & (value < high if bounds[-1] == ")" else value <= high)


def _must_be(bounds: str, finite: bool = True) -> str:
    """What a check says a value must be: "finite and at least 0", "in [1, 5]" and so on."""
    low, high = (end.strip() for end in bounds[1:-1].split(","))
    if high != "inf":
        words = [f"in {bounds}"]
    else:
        words = [] if low == "-inf" else [f"{'above' if bounds[0] == '(' else 'at least'} {low}"]
    return " and ".join(["finite"] * finite + words)


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int in [low, high], with no upper end when high is None.

    A bool, a fraction, a string or None is a TypeError, never truncated; a numpy
    integer is an integer. An integer out of range is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bounds = f"[{low}, inf)" if high is None else f"[{low}, {high}]"
        raise ValueError(f"{name} must be {_must_be(bounds, finite=False)}, got {value}")
    return value


def check_real(value, name: str, bounds: str) -> float:
    """value as a float, finite and within bounds, an interval such as "[0, inf)" or "(0, 1)".

    A bool, a string or None is a TypeError; a NaN, an infinity or a number
    outside bounds is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and _inside(value, bounds)):
        raise ValueError(f"{name} must be {_must_be(bounds)}, got {value}")
    return value


def check_array(x, name: str, ndim: int, bounds: str | None = None) -> np.ndarray:
    """x as a float array of ndim dimensions, every entry finite and within bounds (if given).

    Entries that are not integers or floats (bools, strings, None) are a
    TypeError; a ragged nesting, a wrong dimension count, a NaN, an infinity or
    an entry outside bounds is a ValueError.
    """
    try:
        arr = np.asarray(x)
    except ValueError:
        raise ValueError(f"{name} must be a regular array, not a ragged nesting") from None
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be an array of numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not (np.isfinite(arr).all() and (bounds is None or _inside(arr, bounds).all())):
        raise ValueError(f"{name} must be {_must_be(bounds or '(-inf, inf)')}")
    return arr


@dataclass
class DomainBox:
    """Axis-aligned box of admissible inputs, used for normalization and bounds.

    lower and upper are length-l vectors with lower < upper in every dimension.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = check_array(self.lower, "lower", 1)
        self.upper = check_array(self.upper, "upper", 1)
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

    def is_hypercube(self) -> bool:
        w = self.width
        return bool(np.all(np.abs(w - w[0]) <= HYPERCUBE_ATOL))

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
        self.amplitude = check_real(self.amplitude, "amplitude", "(0, inf)")
        self.weights = check_array(self.weights, "weights", 1, "(0, inf)")
        self.noise = check_real(self.noise, "noise", "[0, inf)")
        if self.weights.size == 0:
            raise ValueError("weights must not be empty")

    @property
    def dim(self) -> int:
        return self.weights.size


def sq_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b), l) tensor of squared per-coordinate differences of row pairs.

    This is the one pairwise routine: every kernel matrix is
    amplitude * unit_kernel(sq_diffs(a, b), weights). a and
    b are float arrays of any memory order; the result is a new C-ordered array,
    equal bit for bit to np.square(a[:, None, :] - b[None, :, :]).
    """
    m, (n, l) = a.shape[0], b.shape
    # each row of a repeated N times, then b's flattened rows subtracted from every
    # contiguous block of N l values: one pass with a long inner loop, where the
    # broadcast a[:, None, :] - b[None, :, :] runs an inner loop of length l
    out = np.repeat(a, n, axis=0).reshape(m, n * l)
    out -= b.reshape(n * l)
    return np.square(out, out=out).reshape(m, n, l)


def unit_kernel(sq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(M, N) unit-amplitude kernel values exp(-min(sum_i w_i sq[..., i], DIST_CUT)).

    sq is a sq_diffs tensor. One dgemv with alpha -1 on the Fortran-ordered
    (l, M N) view of the C-ordered tensor, which copies nothing, gives the
    negated weighted squared distances, and the cap and the exponential are taken
    over that array in place. The Gram, the cross-covariances and the likelihood
    core all round the distances this way.
    """
    m, n, l = sq.shape
    if m * n == 0:
        return np.zeros((m, n))
    k = dgemv(-1.0, sq.reshape(m * n, l).T, weights, trans=1).reshape(m, n)
    np.maximum(k, -DIST_CUT, out=k)
    return np.exp(k, out=k)


def gram(params: KernelHyperparams, points, jitter: float = 0.0) -> np.ndarray:
    """Gram matrix of the kernel over N points plus (jitter + noise) on the diagonal.

    jitter is an absolute value added to the diagonal; callers that want the
    relative policy pass jitter_rel * amplitude.
    """
    pts = check_array(points, "points", 2)
    if pts.shape[1] != params.dim:
        raise ValueError("point dimension does not match kernel weights")
    jitter = check_real(jitter, "jitter", "[0, inf)")
    K = unit_kernel(sq_diffs(pts, pts), params.weights) * params.amplitude
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
    # the product is a new array, allocated once the tensor is freed: with the
    # tensor still live below it, glibc trims and refaults the heap on every call
    # at 10,000 x 20 points (1,530 page faults, about 3 ms, per level_predict)
    out = unit_kernel(sq_diffs(q, pts), params.weights) * params.amplitude
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
    return float(2.0 * params.amplitude * np.exp(-budget) * np.sqrt(weighted_sum))


def kernel_lipschitz(params: KernelHyperparams, domain: DomainBox) -> float:
    """Upper estimate of sup |grad_a k(a, b)| over the domain, with 1% headroom.

    Returns 1.01 times the exact supremum of _grad_norm_sup over the offset box
    spanned by the domain widths. The test suite checks that a dense grid over
    that box never exceeds it.
    """
    if domain.dim != params.dim:
        raise ValueError("domain dimension does not match kernel weights")
    return 1.01 * _grad_norm_sup(params, domain.width)
