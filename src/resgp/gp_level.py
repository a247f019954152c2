"""Single-level zero-mean GP regression on a residual dataset.

One level owns an ARD kernel, a set of training inputs, and a matrix of
residual outputs sharing that kernel across all output columns. Fitting
maximizes the marginal likelihood over log-hyperparameters with a quasi-Newton
method and analytic gradients; the resulting Cholesky factor and dual weights
are cached for prediction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm, dgemv, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize._lbfgsb import setulb

from .kernel import (
    DEFAULT_JITTER_REL,
    JITTER_GROWTH,
    MAX_JITTER_REL,
    KernelHyperparams,
    cross_vec,
    gram,
    kernel_values,
    sq_diffs,
    weighted_sq_dists,
)

# optimization runs in log-parameter space, clipped to this symmetric box
LOG_BOUND = 10.0
LOG2PI = math.log(2.0 * math.pi)
EPS = float(np.finfo(float).eps)
# random restarts lie within this factor either way of the moment-matched start
START_SPREAD = 100.0
# every start runs to these loose L-BFGS-B tolerances; only the best is polished
# further, to POLISH_FTOL and the configured gradient tolerance
LOOSE_FTOL = 1e-4
LOOSE_GTOL = 1e-5
POLISH_FTOL = 1e-13
# L-BFGS-B memory pairs and line-search steps per iteration, as in scipy's minimize
LBFGS_MEMORY = 10
LBFGS_MAXLS = 20
# what a fit's objective hands L-BFGS-B where the Gram does not factor
NOT_PD_NLL = 1e25


class IllConditionedError(RuntimeError):
    """Cholesky failed even at the maximum admissible jitter."""

    def __init__(self, message: str, params: KernelHyperparams | None = None):
        super().__init__(message)
        self.params = params


def check_integer(value, name: str) -> int:
    """value as an int; a bool, a fraction or a string is a TypeError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str) -> float:
    """value as a float; a bool, a string or None is a TypeError. Ranges are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class OptimizerConfig:
    """Multi-start quasi-Newton settings for hyperparameter fitting.

    restarts counts the recipe starts of _start_points (unit scales plus
    random restarts around the moment-matched start). Every start runs
    L-BFGS-B for at most max_iters iterations to the loose tolerances
    LOOSE_FTOL and LOOSE_GTOL; only the best result is then polished, to a
    projected-gradient norm of grad_tol. seed fixes the random restarts.
    """

    restarts: int = 12
    max_iters: int = 200
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            check_integer(getattr(self, name), name)
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        check_real(self.grad_tol, "grad_tol")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")


@dataclass
class ResidualDataset:
    """Training inputs (N, l) paired with residual outputs (N, d)."""

    inputs: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-d array (N, l)")
        if self.residuals.ndim != 2:
            raise ValueError("residuals must be a 2-d array (N, d)")
        if self.inputs.shape[0] != self.residuals.shape[0]:
            raise ValueError("inputs and residuals disagree on N")
        if self.inputs.shape[0] == 0:
            raise ValueError("dataset must contain at least one row")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs must be finite")
        if not np.all(np.isfinite(self.residuals)):
            raise ValueError("residuals must be finite")

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.residuals.shape[1]


@dataclass
class TrainedLevel:
    """Frozen state of one fitted residual GP.

    residuals holds the column-centered residual matrix actually regressed on;
    column_means restores the raw residuals at prediction time. chol is the
    lower Cholesky factor of the Gram plus (noise + jitter) diagonal, alpha the
    dual weights solving K alpha = residuals, and jitter the absolute diagonal
    shift that made the factorization succeed.
    """

    params: KernelHyperparams
    inputs: np.ndarray
    residuals: np.ndarray
    column_means: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    fit_nll: float

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.residuals.shape[1]


def _cholesky(K: np.ndarray, shift: float) -> np.ndarray | None:
    """Lower Cholesky factor of K with a zero upper triangle, or None.

    Only the upper triangle of K is read, and K may be overwritten. shift is the
    diagonal K carries on top of the kernel. None means K is not positive
    definite: dpotrf failed, or a squared pivot is at most n eps K[0, 0], where
    dpotrf can succeed on an exactly singular K by rounding alone. A shift above
    twice that floor rules this out, so the pivots are then not read.
    """
    n = K.shape[0]
    floor = n * EPS * K.item(0)  # K[0, 0]
    # K's transpose is the Fortran-ordered array LAPACK factors in place; its lower
    # triangle is K's upper one
    chol, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
    if info != 0 or (shift <= 2.0 * floor and chol.diagonal().min() ** 2 <= floor):
        return None
    return chol


def cholesky_with_escalation(
    params: KernelHyperparams, points: np.ndarray, jitter: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the Gram, escalating jitter x10 on failure.

    jitter is absolute. Escalation stops at MAX_JITTER_REL * amplitude; beyond
    that the Gram is declared ill-conditioned.
    """
    amp = params.amplitude
    j = float(jitter)
    while True:
        chol = _cholesky(gram(params, points, j), j + params.noise)
        if chol is not None:
            return chol, j
        if j >= MAX_JITTER_REL * amp:
            raise IllConditionedError(
                f"Gram matrix not positive definite at jitter {j:.3e} "
                f"(amplitude {amp:.3e})",
                params=params,
            )
        j = max(DEFAULT_JITTER_REL * amp, j * JITTER_GROWTH)
        j = min(j, MAX_JITTER_REL * amp)


def _residual_factor(residuals: np.ndarray) -> np.ndarray:
    """(N, min(N, d)) factor F of the residual matrix R with F F^T = R R^T.

    F is the transposed triangular factor of a QR decomposition of R^T; for
    d = 1 that is R itself.
    """
    return np.linalg.qr(residuals.T, mode="r").T


def _nll_core(
    *,
    amplitude: float,
    weights: np.ndarray,
    shift: float,
    sq_diffs: np.ndarray,
    factor: np.ndarray,
    n_outputs: int,
) -> tuple[float, np.ndarray]:
    """NLL and its gradient for K = C + shift I, C the kernel matrix behind sq_diffs.

    sq_diffs is kernel.sq_diffs of the inputs with themselves, and
    C = kernel_values(amplitude, weighted_sq_dists(sq_diffs, weights)). shift is the
    absolute diagonal (noise plus jitter); K's upper triangle, the one factored,
    is the one gram returns at the same shift. factor is an (N, r) matrix F with
    F F^T = R R^T for the centered residual matrix R (see _residual_factor), so
    r = min(N, d) bounds the cost per call whatever the number of output
    columns. The gradient is taken with respect to [log amplitude,
    log w_1 .. log w_l, shift]: the amplitude component holds the kernel term
    only, and _level_objective maps the last component onto noise and jitter. A
    K that is not positive definite gives (inf, zeros). Every product runs in
    scipy's BLAS, none of them in numpy's.
    """
    n = sq_diffs.shape[0]
    d = n_outputs
    C = kernel_values(amplitude, weighted_sq_dists(sq_diffs, weights))
    K = C.copy()
    K.ravel()[:: n + 1] += shift
    chol = _cholesky(K, shift)
    if chol is None:
        return np.inf, np.zeros(weights.size + 2)
    logdet = 2.0 * float(np.log(chol.diagonal()).sum())
    linv, _ = dtrtri(chol, lower=1, overwrite_c=1)  # L^-1, written over chol
    # K^-1 = L^-T L^-1 as a triangular product; linv's upper triangle is zero, so
    # the full K^-1 comes out
    kinv = dtrmm(1.0, linv, linv, lower=1, trans_a=1)
    alpha = dgemm(1.0, kinv, factor)  # K^-1 F
    nll = 0.5 * d * logdet + 0.5 * float((factor * alpha).sum()) + 0.5 * n * d * LOG2PI
    # B = d K^-1 - alpha alpha^T = d K^-1 - K^-1 R R^T K^-1, written over kinv
    B = dgemm(-1.0, alpha, alpha, beta=float(d), c=kinv, trans_b=1, overwrite_c=1)
    # each component is 0.5 tr(B dK) = 0.5 sum(B^T * dK), with dK = C for the
    # amplitude, -w_i sq_diffs[..., i] * C for weight i and I for the shift;
    # B^T is the C-ordered view of the Fortran-ordered B
    bc = B.T
    grad = np.empty(weights.size + 2)
    grad[-1] = 0.5 * bc.trace()
    bc *= C
    grad[0] = 0.5 * bc.sum()
    grad[1:-1] = -0.5 * weights * dgemv(1.0, sq_diffs.reshape(n * n, -1).T, bc.ravel())
    return nll, grad


def _level_objective(amplitude, weights, noise, jitter, sq, factor, n_outputs, learn_noise):
    """NLL and gradient over [log amplitude, log w_1 .. log w_l (, log noise)].

    The one map from hyperparameters to what a fit minimizes: _nll_core at
    shift jitter + noise, with the jitter proportional to the amplitude, as fits
    and the escalation always choose it. The log-noise component is there with
    learn_noise. A K that is not positive definite gives (inf, zeros).
    """
    nll, grad = _nll_core(amplitude=amplitude, weights=weights, shift=jitter + noise,
                          sq_diffs=sq, factor=factor, n_outputs=n_outputs)
    # the jitter is amplitude-proportional, so its derivative folds into log amplitude
    grad[0] += jitter * grad[-1]
    if learn_noise:
        grad[-1] *= noise
        return nll, grad
    return nll, grad[:-1]


def _nll_at(params: KernelHyperparams, data: ResidualDataset, jitter_rel: float):
    """_level_objective at fixed hyperparameters and the escalated jitter."""
    if data.input_dim != params.dim:
        raise ValueError("data dimension does not match kernel weights")
    _, j = cholesky_with_escalation(params, data.inputs, jitter_rel * params.amplitude)
    sq, factor = sq_diffs(data.inputs, data.inputs), _residual_factor(data.residuals)
    return _level_objective(params.amplitude, params.weights, params.noise, j, sq, factor,
                            data.output_dim, params.noise > 0)


def neg_log_likelihood(
    params: KernelHyperparams, data: ResidualDataset, jitter_rel: float = 0.0
) -> float:
    """Negative log marginal likelihood of the residual matrix under the level GP.

    Equals the sum over output columns of the negated Gaussian log-density:
    (d/2) log|K| + (1/2) tr(R^T K^-1 R) + (N d / 2) log 2pi, with K the Gram
    plus (noise + jitter) diagonal. The jitter starts at jitter_rel * amplitude,
    as in fit_level, and escalates like cholesky_with_escalation before an
    ill-conditioned error is raised.
    """
    return float(_nll_at(params, data, jitter_rel)[0])


def nll_gradient(
    params: KernelHyperparams, data: ResidualDataset, jitter_rel: float = 0.0
) -> np.ndarray:
    """Gradient of neg_log_likelihood with respect to log-hyperparameters.

    Component order is [log amplitude, log w_1 .. log w_l] with a trailing
    log-noise component when params.noise > 0. The jitter it escalates to
    scales with the amplitude, so its derivative is part of the log-amplitude
    component; this is the gradient fit_level's objective hands L-BFGS-B.
    """
    return _nll_at(params, data, jitter_rel)[1]


def _finalize_level(
    params: KernelHyperparams,
    inputs: np.ndarray,
    centered: np.ndarray,
    means: np.ndarray,
    jitter_rel: float,
) -> TrainedLevel:
    chol, j = cholesky_with_escalation(params, inputs, jitter_rel * params.amplitude)
    n, d = centered.shape
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    white = solve_triangular(chol, centered, lower=True)
    alpha = solve_triangular(chol, white, lower=True, trans="T")
    nll = 0.5 * d * logdet + 0.5 * float(np.sum(white * white)) + 0.5 * n * d * LOG2PI
    return TrainedLevel(
        params=params,
        inputs=np.array(inputs, dtype=float, copy=True),
        residuals=centered,
        column_means=means,
        chol=chol,
        alpha=alpha,
        jitter=j,
        fit_nll=nll,
    )


def build_level(
    params: KernelHyperparams,
    data: ResidualDataset,
    jitter_rel: float = DEFAULT_JITTER_REL,
    center: bool = True,
) -> TrainedLevel:
    """Construct a TrainedLevel with fixed hyperparameters, no optimization."""
    if data.input_dim != params.dim:
        raise ValueError("data dimension does not match kernel weights")
    if center:
        means = data.residuals.mean(axis=0)
    else:
        means = np.zeros(data.output_dim)
    centered = data.residuals - means
    return _finalize_level(params, data.inputs, centered, means, jitter_rel)


@dataclass
class LbfgsResult:
    """Outcome of one L-BFGS-B run: the final point, its NLL and the work done."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def minimize(objective, x0: np.ndarray, *, ftol: float, gtol: float, maxiter: int) -> LbfgsResult:
    """L-BFGS-B over the [-LOG_BOUND, LOG_BOUND] box on scipy's setulb.

    objective(x) returns (f, grad). The loop is the one scipy's
    minimize(method="L-BFGS-B", jac=True) runs, with the same memory, line-search
    length, factr = ftol / eps and an iteration cap counted on each new
    iteration; the objective is called once at x0 and then only where setulb
    asks for a point other than the last one evaluated. So x, fun, nit, nfev
    and success equal minimize's bit for bit, without its wrapper objects
    (scipy's 15,000-evaluation cap is left out: below about 375 iterations it
    cannot bind). setulb is private scipy API with this signature since 1.15.
    The name is the one bench/layers.py wraps to time each run.
    """
    x = np.clip(np.asarray(x0, dtype=float), -LOG_BOUND, LOG_BOUND)
    n = x.size
    # the last point evaluated, as a list: lists of floats compare elementwise like
    # the arrays do, in a tenth of the time at these sizes
    x_eval = x.tolist()
    f, g = objective(x.copy())
    nfev, nit = 1, 0
    m = LBFGS_MEMORY
    lower, upper = np.full(n, -LOG_BOUND), np.full(n, LOG_BOUND)
    nbd = np.full(n, 2, dtype=np.int32)  # bounded on both sides
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / EPS
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave,
               dsave, LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # evaluate f and g at x
            point = x.tolist()
            if point != x_eval:
                x_eval = point
                f, g = objective(x.copy())
                nfev += 1
        elif task[0] == 1:  # new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # stop: iteration limit
        else:
            return LbfgsResult(x=x, fun=f, nit=nit, nfev=nfev, success=bool(task[0] == 4))


def _start_points(
    opt: OptimizerConfig,
    n_free: int,
    init: np.ndarray | None,
    tau_index: int | None,
    tau_init_log: float,
    heuristic: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Warm start, moment-matched start, then the opt.restarts recipe starts.

    The recipe is one start at unit scales (noise at tau_init_log) plus
    opt.restarts - 1 random restarts drawn log-uniformly within a factor
    START_SPREAD either way of the moment-matched heuristic start in every
    parameter (of the unit start when the data give no heuristic), so the
    restarts follow the scale of the residuals rather than raw output units.
    The heuristic and an explicit init are extras ahead of the recipe.
    """
    rng = np.random.default_rng(opt.seed)
    unit = np.zeros(n_free)
    if tau_index is not None:
        unit[tau_index] = tau_init_log
    centre = unit if heuristic is None else np.clip(heuristic, -LOG_BOUND, LOG_BOUND)
    spread = math.log(START_SPREAD)
    starts = [unit]
    while len(starts) < opt.restarts:
        draw = centre + rng.uniform(-spread, spread, size=n_free)
        starts.append(np.clip(draw, -LOG_BOUND, LOG_BOUND))
    if heuristic is not None:
        starts = [centre] + starts
    if init is not None:
        init = np.clip(np.asarray(init, dtype=float), -LOG_BOUND, LOG_BOUND)
        starts = [init] + starts
    return starts


def fit_level(
    data: ResidualDataset,
    opt: OptimizerConfig | None = None,
    *,
    jitter_rel: float = DEFAULT_JITTER_REL,
    noise: float = 0.0,
    learn_noise: bool = False,
    init: np.ndarray | None = None,
) -> TrainedLevel:
    """Fit hyperparameters by maximum likelihood and cache prediction state.

    Residual columns are centered before fitting; the means are stored on the
    level and restored by level_predict. Optimization runs over log-parameters
    in [-LOG_BOUND, LOG_BOUND] from an explicit init (a warm start), the
    moment-matched start (amplitude at the mean squared residual, every weight
    at the inverse median pairwise squared distance) and the opt.restarts
    recipe starts of _start_points. Each start runs L-BFGS-B only to the loose
    tolerances LOOSE_FTOL and LOOSE_GTOL; the best result is then polished to
    a projected-gradient norm of opt.grad_tol. noise fixes the observation
    variance; with learn_noise it is optimized as an additional log-parameter
    instead. The objective does not escalate the jitter: when no start reaches
    a Gram that factors at jitter_rel, the fit raises IllConditionedError.
    """
    if opt is None:
        opt = OptimizerConfig()
    for name, value in (("jitter_rel", jitter_rel), ("noise", noise)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and at least 0, got {value}")
    n, l = data.inputs.shape
    d = data.output_dim
    means = data.residuals.mean(axis=0)
    centered = data.residuals - means
    factor = _residual_factor(centered)
    sq = sq_diffs(data.inputs, data.inputs)

    n_free = 1 + l + (1 if learn_noise else 0)
    tau_index = n_free - 1 if learn_noise else None
    if learn_noise:
        tau0 = noise if noise > 0 else max(1e-6, 1e-3 * float(np.mean(centered**2)))
        tau_init_log = float(np.clip(math.log(tau0), -LOG_BOUND, LOG_BOUND))
    else:
        tau_init_log = 0.0

    def unpack(logvec: np.ndarray):
        tau = math.exp(logvec[tau_index]) if learn_noise else noise
        return math.exp(logvec[0]), np.exp(logvec[1 : 1 + l]), tau

    def objective(logvec: np.ndarray):
        amp, w, tau = unpack(logvec)
        nll, grad = _level_objective(amp, w, tau, jitter_rel * amp, sq, factor, d, learn_noise)
        return (nll, grad) if math.isfinite(nll) else (NOT_PD_NLL, grad)

    amp0 = float(np.mean(centered**2))
    med = 0.0
    if n > 1:
        med = float(np.median(sq.sum(axis=2)[np.triu_indices(n, k=1)]))
    heuristic = None
    if amp0 > 0 and med > 0:
        heuristic = np.full(n_free, math.log(1.0 / med))
        heuristic[0] = math.log(amp0)
        if learn_noise:
            heuristic[tau_index] = tau_init_log

    def descend(x0: np.ndarray, ftol: float, gtol: float) -> LbfgsResult:
        return minimize(objective, x0, ftol=ftol, gtol=gtol, maxiter=opt.max_iters)

    starts = _start_points(opt, n_free, init, tau_index, tau_init_log, heuristic)
    best = min((descend(x0, LOOSE_FTOL, LOOSE_GTOL) for x0 in starts), key=lambda r: r.fun)
    if best.fun >= NOT_PD_NLL:  # L-BFGS-B only descends, so no start left that value
        raise IllConditionedError(
            f"no start of the fit reached a positive definite Gram matrix at jitter_rel "
            f"{jitter_rel:.3e}; a design with repeated rows needs jitter_rel above 0"
        )
    best_x = descend(best.x, POLISH_FTOL, opt.grad_tol).x

    params = KernelHyperparams(*unpack(best_x))
    return _finalize_level(params, data.inputs, centered, means, jitter_rel)


def level_predict(level: TrainedLevel, query):
    """Posterior mean and variance of the residual at query point(s).

    For a (l,) query returns (mean (d,), var float); for (M, l) returns
    (means (M, d), vars (M,)). The variance is the latent-function posterior
    variance, clamped at zero, identical across output columns.
    """
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    k = cross_vec(level.params, q, level.inputs)  # (M, N)
    mean = k @ level.alpha + level.column_means
    white = solve_triangular(level.chol, k.T, lower=True)  # (N, M)
    var = level.params.amplitude - np.sum(white * white, axis=0)
    var = np.maximum(var, 0.0)
    if single:
        return mean[0], float(var[0])
    return mean, var
