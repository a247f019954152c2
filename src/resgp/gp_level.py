"""Single-level zero-mean GP regression on a residual dataset.

One level owns an ARD kernel, a set of training inputs, and a matrix of
residual outputs sharing that kernel across all output columns. Fitting
maximizes the marginal likelihood with the amplitude profiled out, over log
weights (and a relative nugget), by a quasi-Newton method with analytic
gradients; the resulting Cholesky factor and dual weights are cached for
prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import ddot, dgemm, dgemv, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
from scipy.optimize._lbfgsb import setulb

from .kernel import (
    DEFAULT_JITTER_REL,
    KernelHyperparams,
    check_array,
    check_integer,
    check_real,
    cross_vec,
    gram,
    sq_diffs,
    unit_kernel,
)

# optimization runs in log-parameter space, clipped to this symmetric box
LOG_BOUND = 10.0
# the profiled amplitude of a constant residual column (S = 0), which has no maximizer
AMP_FLOOR = math.exp(-LOG_BOUND)
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
    column_means restores the raw residuals at prediction time. chol is a lower
    Cholesky factor of K, the Gram plus (noise + jitter) diagonal: sqrt(amplitude)
    times the factor of the unit-amplitude matrix the likelihood core factors. A
    fitted level takes it from the search's last likelihood evaluation, a built one
    from its own likelihood evaluation and a loaded one from
    cholesky_with_escalation. alpha holds the dual weights solving K alpha =
    residuals, and jitter the absolute diagonal shift, jitter_rel * amplitude.
    fit_nll is neg_log_likelihood there. All three are bit for bit those of the
    level built at params, with one exception: the search factors the diagonal
    1 + (jitter_rel + g) for its relative nugget g, the built level
    1 + (jitter_rel + (g * amplitude) / amplitude), and for a g that is not small
    next to 1 the two can round one unit apart, which moves chol, alpha and fit_nll
    by about as much.
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


def _shift(params: KernelHyperparams, jitter_rel: float) -> float:
    """Diagonal of a level's unit-amplitude matrix: jitter_rel plus noise / amplitude."""
    return jitter_rel + params.noise / params.amplitude


def cholesky_with_escalation(params: KernelHyperparams, points: np.ndarray, jitter_rel: float):
    """Lower Cholesky factor of the Gram plus jitter_rel * amplitude and the noise.

    It is sqrt(amplitude) times the factor of the unit-amplitude matrix _nll_core
    factors at the same params, so both agree on whether it exists; where it does
    not, IllConditionedError. load_model factors through it, as it evaluates no
    likelihood; a fit and build_level keep the factor of their own last likelihood
    evaluation instead. The name is older than the single jitter; it stays because
    bench/layers.py times this function as the gp_level.cholesky layer.
    """
    s = _shift(params, jitter_rel)
    chol = _cholesky(gram(KernelHyperparams(1.0, params.weights), points, s), s)
    if chol is None:
        raise IllConditionedError(f"Gram matrix not positive definite at jitter_rel "
                                  f"{jitter_rel:.3e} (amplitude {params.amplitude:.3e})",
                                  params=params)
    chol *= math.sqrt(params.amplitude)
    return chol


def _residual_factor(residuals: np.ndarray) -> np.ndarray:
    """(N, min(N, d)) factor F of the residual matrix R with F F^T = R R^T.

    F is the transposed triangular factor of a QR decomposition of R^T; for
    d = 1 that is R itself.
    """
    return np.linalg.qr(residuals.T, mode="r").T


def _nll_core(*, weights, shift, sq_diffs, factor, n_outputs, amplitude=None):
    """NLL, gradient, amplitude a and factor L for the Gram a (C + shift I).

    C = unit_kernel(sq_diffs, weights), sq_diffs that of the inputs with
    themselves; shift is jitter_rel plus noise / a. The upper triangle of
    K = C + shift I, the one factored, is gram's at unit amplitude, and L is its
    lower Cholesky factor (see _cholesky): sqrt(a) L factors the Gram. factor is
    an (N, r) F with F F^T = R R^T for the centered residuals R (see
    _residual_factor), r = min(N, d). With S = tr(F^T K^-1 F) the NLL is
    (N d / 2) log a + (d / 2) log|K| + S / (2 a) + (N d / 2) log 2pi. amplitude
    None profiles a out: S / (N d), or AMP_FLOOR where that is not positive. grad
    is over [log a, log w_1 .. log w_l, shift]: N d / 2 - S / (2 a), then
    0.5 tr(B dK) with B = d K^-1 - alpha alpha^T / a, alpha = K^-1 F. At the
    profiled a the weight and shift components are the profiled NLL's gradient
    (the envelope theorem). A K that is not positive definite, or an S that is
    not finite, gives (inf, zeros, amplitude, None). Every product runs in
    scipy's BLAS.
    """
    n = sq_diffs.shape[0]
    d = n_outputs
    C = unit_kernel(sq_diffs, weights)
    K = C.copy()
    K.ravel()[:: n + 1] += shift
    chol = _cholesky(K, shift)
    if chol is None:
        return np.inf, np.zeros(weights.size + 2), amplitude, None
    logdet = 2.0 * float(np.log(chol.diagonal()).sum())
    linv, _ = dtrtri(chol, lower=1)  # L^-1, in a new array: the fit keeps L
    # K^-1 = L^-T L^-1 as a triangular product; linv's upper triangle is zero, so
    # the full K^-1 comes out
    kinv = dtrmm(1.0, linv, linv, lower=1, trans_a=1)
    alpha = dgemm(1.0, kinv, factor)  # K^-1 F
    # a BLAS dot product, which unlike numpy's products overflows without a warning
    S = ddot(factor.ravel("F"), alpha.ravel("F"))
    if not math.isfinite(S):
        return np.inf, np.zeros(weights.size + 2), amplitude, None
    if amplitude is None:
        amplitude = S / (n * d) if S / (n * d) > 0 else AMP_FLOOR
    nll = 0.5 * (n * d * math.log(amplitude) + d * logdet + S / amplitude + n * d * LOG2PI)
    # B = d K^-1 - u u^T over kinv, with alpha scaled in place to u = alpha / sqrt(a)
    # (alpha alpha^T can overflow)
    alpha *= 1.0 / math.sqrt(amplitude)
    B = dgemm(-1.0, alpha, alpha, beta=float(d), c=kinv, trans_b=1, overwrite_c=1)
    # 0.5 tr(B dK) = 0.5 sum(B^T * dK), dK = -w_i sq_diffs[..., i] * C for weight i
    # and I for the shift; B^T is the C-ordered view of the Fortran-ordered B
    bc = B.T
    flat = bc.ravel()
    grad = np.empty(weights.size + 2)
    grad[0] = 0.5 * (n * d - S / amplitude)
    grad[-1] = 0.5 * flat[:: n + 1].sum()
    bc *= C
    # -0.5 w_i v_i: scaling the product by -0.5 afterwards rounds the same
    np.multiply(weights, dgemv(1.0, sq_diffs.reshape(n * n, -1).T, flat), out=grad[1:-1])
    grad[1:-1] *= -0.5
    return nll, grad, amplitude, chol


def _level_objective(x, sq, factor, n_outputs, jitter_rel, nugget, learn_nugget):
    """fit_level's objective: profiled NLL, gradient over [log w (, log g)], amplitude, L.

    _nll_core at the profiled amplitude and shift jitter_rel + g, the nugget g
    relative to the amplitude: exp(x[-1]) with learn_nugget, nugget otherwise. L
    is the core's unit-amplitude factor, None where the Gram does not factor.
    """
    g = math.exp(x[-1]) if learn_nugget else nugget
    nll, grad, amplitude, chol = _nll_core(weights=np.exp(x[: sq.shape[2]]), shift=jitter_rel + g,
                                           sq_diffs=sq, factor=factor, n_outputs=n_outputs)
    if not learn_nugget:
        return nll, grad[1:-1], amplitude, chol
    grad[-1] *= g
    return nll, grad[1:], amplitude, chol


def _nll_at(params: KernelHyperparams, sq: np.ndarray, factor: np.ndarray, n_outputs: int,
            jitter_rel):
    """NLL, gradient over [log amplitude, log w (, log noise)] and L at fixed params.

    _nll_core at params.amplitude and _shift(params, jitter_rel), on the sq_diffs
    tensor sq of the inputs and the residual factor (see _residual_factor); the
    noise is absolute, so its share of the shift falls as the amplitude grows. L
    is the core's unit-amplitude factor. A Gram that does not factor raises
    IllConditionedError.
    """
    jitter_rel = check_real(jitter_rel, "jitter_rel", "[0, inf)")
    if sq.shape[2] != params.dim:
        raise ValueError("data dimension does not match kernel weights")
    nll, grad, _, chol = _nll_core(weights=params.weights, shift=_shift(params, jitter_rel),
                                   sq_diffs=sq, factor=factor, n_outputs=n_outputs,
                                   amplitude=params.amplitude)
    if not math.isfinite(nll):
        raise IllConditionedError(f"Gram matrix not positive definite at jitter_rel "
                                  f"{jitter_rel:.3e}", params=params)
    if params.noise == 0:
        return nll, grad[:-1], chol
    grad[-1] *= params.noise / params.amplitude
    grad[0] -= grad[-1]
    return nll, grad, chol


def _data_nll_at(params: KernelHyperparams, data: ResidualDataset, jitter_rel):
    """_nll_at on a dataset's own inputs and residuals."""
    return _nll_at(params, sq_diffs(data.inputs, data.inputs), _residual_factor(data.residuals),
                   data.output_dim, jitter_rel)


def neg_log_likelihood(params: KernelHyperparams, data: ResidualDataset, jitter_rel=0.0) -> float:
    """Negative log marginal likelihood of the residual matrix under the level GP.

    Equals the sum over output columns of the negated Gaussian log-density:
    (d/2) log|K| + (1/2) tr(R^T K^-1 R) + (N d / 2) log 2pi, with K the Gram
    plus (noise + jitter) diagonal and the jitter jitter_rel * amplitude, as in
    fit_level. A K that does not factor raises IllConditionedError.
    """
    return float(_data_nll_at(params, data, jitter_rel)[0])


def nll_gradient(params: KernelHyperparams, data: ResidualDataset, jitter_rel=0.0) -> np.ndarray:
    """Gradient of neg_log_likelihood with respect to log-hyperparameters.

    Component order is [log amplitude, log w_1 .. log w_l] with a trailing
    log-noise component when params.noise > 0. The noise stays fixed as the
    amplitude moves, and the jitter scales with it. fit_level profiles the
    amplitude out; at its optimum the weight components are its objective's.
    """
    return _data_nll_at(params, data, jitter_rel)[1]


def _finalize_level(params: KernelHyperparams, inputs, centered, means, jitter_rel: float,
                    fit_nll: float, chol: np.ndarray) -> TrainedLevel:
    """The level whose Gram, at jitter_rel * amplitude, has the lower Cholesky factor chol.

    chol is the caller's, Fortran-ordered as LAPACK returns it: fit_level's comes
    from its search, build_level's from its likelihood evaluation and load_model's
    from cholesky_with_escalation.
    alpha comes from two LAPACK triangular solves (dtrtrs, which solve_triangular
    calls on such a factor); chol's diagonal is positive, so neither can fail.
    fit_nll is the caller's too.
    """
    white, _ = dtrtrs(chol, centered, lower=1)
    alpha, _ = dtrtrs(chol, white, lower=1, trans=1, overwrite_b=1)
    return TrainedLevel(params, np.array(inputs, dtype=float, copy=True), centered, means, chol,
                        alpha, jitter_rel * params.amplitude, fit_nll)


def build_level(
    params: KernelHyperparams,
    data: ResidualDataset,
    jitter_rel: float = DEFAULT_JITTER_REL,
    center: bool = True,
) -> TrainedLevel:
    """Construct a TrainedLevel with fixed hyperparameters, no optimization.

    One likelihood evaluation at params gives fit_nll and, scaled by
    sqrt(amplitude), the Cholesky factor cholesky_with_escalation would return.
    """
    means = data.residuals.mean(axis=0) if center else np.zeros(data.output_dim)
    centered = data.residuals - means
    fit_nll, _, chol = _nll_at(params, sq_diffs(data.inputs, data.inputs),
                               _residual_factor(centered), data.output_dim, jitter_rel)
    chol *= math.sqrt(params.amplitude)
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, fit_nll, chol)


@dataclass
class LbfgsResult:
    """Outcome of one L-BFGS-B run: the final point, an NLL and the work done.

    fun is the objective at the last point evaluated. That is x itself except
    after an abnormal line-search stop (success False below the iteration cap),
    where setulb restores x to the previous iterate; fun then is not f(x).
    fit_level profiles the amplitude and takes fit_nll at the x it keeps.
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
    # a warm refit (restarts 1) makes no draws, so it constructs no generator
    rng = np.random.default_rng(opt.seed) if opt.restarts > 1 else None
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
    level and restored by level_predict. The amplitude is profiled out (see
    _nll_core), so the search runs over [log w_1 .. log w_l (, log g)] in
    [-LOG_BOUND, LOG_BOUND] from the starts of _start_points: init (a warm
    start, such as the previous fit's params), the moment-matched centre (every
    weight at the inverse median pairwise squared distance), the unit start and
    draws around the centre. Each runs L-BFGS-B to LOOSE_FTOL and LOOSE_GTOL;
    the best is polished to a projected-gradient norm of opt.grad_tol. noise is
    a nugget g relative to the amplitude (params.noise is g * amplitude), fixed
    unless learn_noise searches it from noise, or 1e-3 when noise is 0, and from
    a positive init.noise / init.amplitude in the warm start. The jitter stays at
    jitter_rel * amplitude: when no start reaches a Gram that factors there, the
    fit raises IllConditionedError, as it does for residuals whose squares sum
    beyond the float range. The objective remembers its last evaluation, so the
    polish's first point (the best start's last) costs no likelihood evaluation
    of its own, and the level is finished from the evaluation at the polish's
    end: its amplitude, its NLL as fit_nll and its Cholesky factor, scaled by
    sqrt(amplitude), with alpha from two triangular solves. The fit builds no
    Gram and calls no cholesky_with_escalation.
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
    # where the sum of the squared residuals, tr(F^T F), overflows, S = tr(F^T K^-1 F)
    # overflows at nearly every point, which the search cannot tell from a Gram that
    # does not factor (ddot, unlike numpy, overflows without a warning)
    if not math.isfinite(ddot(factor.ravel("F"), factor.ravel("F"))):
        raise IllConditionedError(
            "the residuals overflow: the sum of their squares exceeds the largest float "
            f"({np.finfo(float).max:.3e}); rescale the outputs"
        )
    sq = sq_diffs(data.inputs, data.inputs)

    unit = np.zeros(l + 1 if learn_noise else l)
    if learn_noise:
        unit[-1] = np.clip(math.log(noise if noise > 0 else 1e-3), -LOG_BOUND, LOG_BOUND)
    centre = unit.copy()
    med = float(np.median(sq.sum(axis=2)[np.triu_indices(n, k=1)])) if n > 1 else 0.0
    if med > 0:
        centre[:l] = math.log(1.0 / med)
    warm = None
    if init is not None:
        warm = unit.copy()
        warm[:l] = np.log(init.weights)
        if learn_noise and init.noise > 0:
            warm[-1] = math.log(init.noise / init.amplitude)

    # the last evaluation: (x as a list, (f, grad), (nll, amplitude, unit-amplitude factor))
    latest = None

    def objective(x: np.ndarray):
        # a Gram that does not factor gives NOT_PD_NLL with a zero gradient; a point
        # equal to the last one evaluated is not evaluated again
        nonlocal latest
        point = x.tolist()
        if latest is None or point != latest[0]:
            nll, grad, amplitude, chol = _level_objective(x, sq, factor, d, jitter_rel, noise,
                                                          learn_noise)
            latest = point, (min(nll, NOT_PD_NLL), grad), (nll, amplitude, chol)
        return latest[1]

    def descend(x0: np.ndarray, ftol: float, gtol: float):
        """One L-BFGS-B run and the last evaluation it made."""
        result = minimize(objective, x0, ftol=ftol, gtol=gtol, maxiter=opt.max_iters)
        return result, latest

    starts = _start_points(opt, unit, centre, warm)
    best, latest = min((descend(x0, LOOSE_FTOL, LOOSE_GTOL) for x0 in starts),
                       key=lambda run: run[0].fun)
    if best.fun >= NOT_PD_NLL:  # L-BFGS-B only descends, so no start left that value
        raise IllConditionedError(
            f"no start of the fit reached a positive definite Gram matrix at jitter_rel "
            f"{jitter_rel:.3e}; a design with repeated rows needs jitter_rel above 0"
        )
    # the polish starts where the best start stopped, which that start evaluated last
    # (unless its line search stopped abnormally: see LbfgsResult)
    polish, latest = descend(best.x, POLISH_FTOL, opt.grad_tol)
    objective(polish.x)  # evaluates only after an abnormal stop of the polish
    # the level is that evaluation's: L-BFGS-B only descends from the best start's
    # finite value, so the Gram at polish.x factored
    fit_nll, amplitude, chol = latest[2]
    chol *= math.sqrt(amplitude)
    g = math.exp(polish.x[-1]) if learn_noise else noise
    params = KernelHyperparams(amplitude, np.exp(polish.x[:l]), g * amplitude)
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, fit_nll, chol)


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
