"""Single-level zero-mean GP regression on a residual dataset.

One level owns an ARD kernel, a set of training inputs, and a matrix of
residual outputs sharing that kernel across all output columns. Fitting
maximizes the marginal likelihood over log-hyperparameters with a quasi-Newton
method and analytic gradients; the resulting Cholesky factor and dual weights
are cached for prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm, dgemv, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize._lbfgsb import setulb

from .kernel import (
    DEFAULT_JITTER_REL,
    KernelHyperparams,
    check_array,
    check_integer,
    check_real,
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
    """A level's Gram matrix does not factor at its jitter, jitter_rel * amplitude."""

    def __init__(self, message: str, params: KernelHyperparams | None = None):
        super().__init__(message)
        self.params = params


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
        self.restarts = check_integer(self.restarts, "restarts", 1)
        self.max_iters = check_integer(self.max_iters, "max_iters", 1)
        self.seed = check_integer(self.seed, "seed", 0)
        self.grad_tol = check_real(self.grad_tol, "grad_tol", "(0, inf)")


@dataclass
class ResidualDataset:
    """Training inputs (N, l) paired with residual outputs (N, d)."""

    inputs: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        self.inputs = check_array(self.inputs, "inputs", 2)
        self.residuals = check_array(self.residuals, "residuals", 2)
        if self.inputs.shape[0] != self.residuals.shape[0]:
            raise ValueError("inputs and residuals disagree on N")
        if self.inputs.shape[0] == 0:
            raise ValueError("dataset must contain at least one row")

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
    shift, jitter_rel * amplitude. fit_nll is neg_log_likelihood there, bit for bit.
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
) -> np.ndarray:
    """Lower Cholesky factor of the Gram plus the absolute jitter and the noise.

    A Gram that does not factor there raises IllConditionedError. The name is
    older than the single jitter; it stays because bench/layers.py times this
    function as the gp_level.cholesky layer.
    """
    chol = _cholesky(gram(params, points, jitter), jitter + params.noise)
    if chol is None:
        raise IllConditionedError(f"Gram matrix not positive definite at jitter {jitter:.3e} "
                                  f"(amplitude {params.amplitude:.3e})", params=params)
    return chol


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

    The one map from hyperparameters to a level's NLL, for the fit's search,
    its fit_nll and neg_log_likelihood alike: _nll_core at shift jitter + noise,
    with the jitter proportional to the amplitude. The log-noise component is
    there with learn_noise. A K that is not positive definite gives (inf, zeros).
    """
    nll, grad = _nll_core(amplitude=amplitude, weights=weights, shift=jitter + noise,
                          sq_diffs=sq, factor=factor, n_outputs=n_outputs)
    # the jitter is amplitude-proportional, so its derivative folds into log amplitude
    grad[0] += jitter * grad[-1]
    if learn_noise:
        grad[-1] *= noise
        return nll, grad
    return nll, grad[:-1]


def _nll_at(params: KernelHyperparams, inputs: np.ndarray, residuals: np.ndarray,
            jitter_rel: float):
    """_level_objective at fixed params and jitter_rel * amplitude, where K must factor."""
    jitter_rel = check_real(jitter_rel, "jitter_rel", "[0, inf)")
    if inputs.shape[1] != params.dim:
        raise ValueError("data dimension does not match kernel weights")
    sq, factor = sq_diffs(inputs, inputs), _residual_factor(residuals)
    nll, grad = _level_objective(params.amplitude, params.weights, params.noise,
                                 jitter_rel * params.amplitude, sq, factor,
                                 residuals.shape[1], params.noise > 0)
    if not math.isfinite(nll):
        raise IllConditionedError(f"Gram matrix not positive definite at jitter_rel "
                                  f"{jitter_rel:.3e}", params=params)
    return nll, grad


def neg_log_likelihood(
    params: KernelHyperparams, data: ResidualDataset, jitter_rel: float = 0.0
) -> float:
    """Negative log marginal likelihood of the residual matrix under the level GP.

    Equals the sum over output columns of the negated Gaussian log-density:
    (d/2) log|K| + (1/2) tr(R^T K^-1 R) + (N d / 2) log 2pi, with K the Gram
    plus (noise + jitter) diagonal and the jitter jitter_rel * amplitude, as in
    fit_level. A K that does not factor raises IllConditionedError.
    """
    return float(_nll_at(params, data.inputs, data.residuals, jitter_rel)[0])


def nll_gradient(
    params: KernelHyperparams, data: ResidualDataset, jitter_rel: float = 0.0
) -> np.ndarray:
    """Gradient of neg_log_likelihood with respect to log-hyperparameters.

    Component order is [log amplitude, log w_1 .. log w_l] with a trailing
    log-noise component when params.noise > 0. The jitter scales with the
    amplitude, so its derivative is part of the log-amplitude component; this is
    the gradient fit_level's objective hands L-BFGS-B.
    """
    return _nll_at(params, data.inputs, data.residuals, jitter_rel)[1]


def _finalize_level(
    params: KernelHyperparams,
    inputs: np.ndarray,
    centered: np.ndarray,
    means: np.ndarray,
    jitter_rel: float,
    fit_nll: float,
) -> TrainedLevel:
    """Factor the Gram at jitter_rel * amplitude and solve for alpha; fit_nll is the caller's."""
    j = jitter_rel * params.amplitude
    chol = cholesky_with_escalation(params, inputs, j)
    white = solve_triangular(chol, centered, lower=True)
    alpha = solve_triangular(chol, white, lower=True, trans="T")
    return TrainedLevel(
        params=params,
        inputs=np.array(inputs, dtype=float, copy=True),
        residuals=centered,
        column_means=means,
        chol=chol,
        alpha=alpha,
        jitter=j,
        fit_nll=fit_nll,
    )


def build_level(
    params: KernelHyperparams,
    data: ResidualDataset,
    jitter_rel: float = DEFAULT_JITTER_REL,
    center: bool = True,
) -> TrainedLevel:
    """Construct a TrainedLevel with fixed hyperparameters, no optimization."""
    means = data.residuals.mean(axis=0) if center else np.zeros(data.output_dim)
    centered = data.residuals - means
    fit_nll = _nll_at(params, data.inputs, centered, jitter_rel)[0]
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, fit_nll)


@dataclass
class LbfgsResult:
    """Outcome of one L-BFGS-B run: the final point, an NLL and the work done.

    fun is the objective at the last point evaluated. That is x itself except
    after an abnormal line-search stop (success False below the iteration cap),
    where setulb restores x to the previous iterate; fun then is not f(x).
    fit_level takes fit_nll from one more objective call at the x it keeps.
    """

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
    and success equal minimize's bit for bit (fun, as there, may not be f(x):
    see LbfgsResult), without its wrapper objects
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
    opt: OptimizerConfig, unit: np.ndarray, centre: np.ndarray, warm: np.ndarray | None = None
) -> list[np.ndarray]:
    """Warm start, moment-matched centre, unit start, then opt.restarts - 1 draws.

    The draws are log-uniform within a factor START_SPREAD either way of the
    clipped centre in every parameter, so the restarts follow the scale of the
    residuals rather than raw output units. Every start lies in the
    [-LOG_BOUND, LOG_BOUND] box. warm is left out when None, and the centre
    when it is the unit start (the data give no moment match).
    """
    rng = np.random.default_rng(opt.seed)
    centre = np.clip(centre, -LOG_BOUND, LOG_BOUND)
    spread = math.log(START_SPREAD)
    draws = [
        np.clip(centre + rng.uniform(-spread, spread, size=centre.size), -LOG_BOUND, LOG_BOUND)
        for _ in range(opt.restarts - 1)
    ]
    starts = [] if warm is None else [np.clip(warm, -LOG_BOUND, LOG_BOUND)]
    if not np.array_equal(centre, unit):
        starts.append(centre)
    return starts + [unit] + draws


def fit_level(
    data: ResidualDataset,
    opt: OptimizerConfig | None = None,
    *,
    jitter_rel: float = DEFAULT_JITTER_REL,
    noise: float = 0.0,
    learn_noise: bool = False,
    init: KernelHyperparams | None = None,
) -> TrainedLevel:
    """Fit hyperparameters by maximum likelihood and cache prediction state.

    Residual columns are centered before fitting; the means are stored on the
    level and restored by level_predict. The search runs over [log amplitude,
    log w_1 .. log w_l (, log noise)] in [-LOG_BOUND, LOG_BOUND] from the starts
    of _start_points: init (a warm start, such as the previous fit's params),
    the moment-matched centre (amplitude at the mean squared residual, every
    weight at the inverse median pairwise squared distance), the unit start and
    draws around the centre. Each runs L-BFGS-B to LOOSE_FTOL and LOOSE_GTOL;
    the best is polished to a projected-gradient norm of opt.grad_tol. noise
    fixes the observation variance; with learn_noise it is searched too, from
    noise (or 1e-3 of the mean squared residual when noise is 0) and, in the warm
    start, from init.noise when that is positive. The jitter stays at
    jitter_rel * amplitude: when no start reaches a Gram that factors there, the
    fit raises IllConditionedError.
    """
    if opt is None:
        opt = OptimizerConfig()
    jitter_rel = check_real(jitter_rel, "jitter_rel", "[0, inf)")
    noise = check_real(noise, "noise", "[0, inf)")
    n, l = data.inputs.shape
    if init is not None and init.dim != l:
        raise ValueError(f"init has {init.dim} weights, but the data have {l} inputs")
    d = data.output_dim
    means = data.residuals.mean(axis=0)
    centered = data.residuals - means
    factor = _residual_factor(centered)
    sq = sq_diffs(data.inputs, data.inputs)
    amp0 = float(np.mean(centered**2))

    unit = np.zeros(l + 2 if learn_noise else l + 1)
    if learn_noise:
        tau0 = noise if noise > 0 else max(1e-6, 1e-3 * amp0)
        unit[-1] = np.clip(math.log(tau0), -LOG_BOUND, LOG_BOUND)
    centre = unit.copy()
    med = float(np.median(sq.sum(axis=2)[np.triu_indices(n, k=1)])) if n > 1 else 0.0
    if amp0 > 0 and med > 0:
        centre[0], centre[1 : 1 + l] = math.log(amp0), math.log(1.0 / med)
    warm = None
    if init is not None:
        warm = unit.copy()
        warm[: 1 + l] = np.log([init.amplitude, *init.weights])
        if learn_noise and init.noise > 0:
            warm[-1] = math.log(init.noise)

    def unpack(logvec: np.ndarray):
        tau = math.exp(logvec[-1]) if learn_noise else noise
        return math.exp(logvec[0]), np.exp(logvec[1 : 1 + l]), tau

    def objective(logvec: np.ndarray):
        amp, w, tau = unpack(logvec)
        nll, grad = _level_objective(amp, w, tau, jitter_rel * amp, sq, factor, d, learn_noise)
        return (nll, grad) if math.isfinite(nll) else (NOT_PD_NLL, grad)

    def descend(x0: np.ndarray, ftol: float, gtol: float) -> LbfgsResult:
        return minimize(objective, x0, ftol=ftol, gtol=gtol, maxiter=opt.max_iters)

    starts = _start_points(opt, unit, centre, warm)
    best = min((descend(x0, LOOSE_FTOL, LOOSE_GTOL) for x0 in starts), key=lambda r: r.fun)
    if best.fun >= NOT_PD_NLL:  # L-BFGS-B only descends, so no start left that value
        raise IllConditionedError(
            f"no start of the fit reached a positive definite Gram matrix at jitter_rel "
            f"{jitter_rel:.3e}; a design with repeated rows needs jitter_rel above 0"
        )
    best_x = descend(best.x, POLISH_FTOL, opt.grad_tol).x

    params = KernelHyperparams(*unpack(best_x))
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, objective(best_x)[0])


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
