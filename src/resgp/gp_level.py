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

from ._scipy import ddot, dgemm, dgemv, dpotrf, dtrmm, dtrtri, dtrtrs, setulb
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
# further, to POLISH_FTOL and POLISH_GTOL
LOOSE_FTOL = 1e-4
LOOSE_GTOL = 1e-5
POLISH_FTOL = 1e-13
POLISH_GTOL = 1e-8
# L-BFGS-B iterations per run. minimize leaves out scipy's 15,000-evaluation cap,
# which cannot bind below about 375 iterations, so this must stay below that
MAX_ITERS = 200
# L-BFGS-B memory pairs and line-search steps per iteration, as in scipy's minimize
LBFGS_MEMORY = 10
LBFGS_MAXLS = 20
# what a fit's objective hands L-BFGS-B where the Gram does not factor
NOT_PD_NLL = 1e25
# query rows per level_predict call in _predict_levels, which predict and select_next
# share: a block's sq_diffs tensor and cross-covariances are PREDICT_ROWS x N (x l)
# whatever the query count
PREDICT_ROWS = 1024


class IllConditionedError(RuntimeError):
    """A level's Gram matrix does not factor at its jitter, jitter_rel * amplitude."""


@dataclass
class OptimizerConfig:
    """Multi-start quasi-Newton settings for hyperparameter fitting.

    restarts counts the recipe starts of _start_points (unit scales plus
    random restarts around the moment-matched start); seed fixes the random
    restarts. Every L-BFGS-B setting is a module constant (MAX_ITERS,
    LOOSE_FTOL, LOOSE_GTOL, POLISH_FTOL and POLISH_GTOL; see fit_level).
    """

    restarts: int = 12
    seed: int = 0

    def __post_init__(self):
        self.restarts = check_integer(self.restarts, "restarts", 1)
        self.seed = check_integer(self.seed, "seed", 0)


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
        if self.input_dim == 0 or self.output_dim == 0:
            raise ValueError("inputs and residuals must each have at least one column")

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
    fitted level takes it from the likelihood evaluation at the polish's end, which
    the L-BFGS-B driver keeps (LbfgsResult.last), a built one from its own
    likelihood evaluation and a loaded one from cholesky_with_escalation. alpha
    holds the dual weights solving K alpha = residuals, and jitter the absolute
    diagonal shift, jitter_rel * amplitude. fit_nll is neg_log_likelihood there.
    All three are bit for bit those of the level built at params, with one
    exception: the search factors the diagonal 1 + (jitter_rel + g) for its
    relative nugget g, the built level 1 + (jitter_rel + (g * amplitude) /
    amplitude), and for a g that is not small next to 1 the two can round one unit
    apart, which moves chol, alpha and fit_nll by about as much.
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

    It is sqrt(amplitude) times the factor of the unit-amplitude matrix _Likelihood
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
                                  f"{jitter_rel:.3e} (amplitude {params.amplitude:.3e})")
    chol *= math.sqrt(params.amplitude)
    return chol


class _Likelihood:
    """The likelihood core of one level's inputs (N, l) and centered residuals R (N, d).

    Built once per fit, it holds what the search does not change: sq, the
    sq_diffs of the inputs with themselves, and its Fortran-ordered (l, N^2) view;
    the (N, r) residual factor F with F F^T = R R^T, r = min(N, d), and its flat
    Fortran-ordered form; and N d. F is the transposed triangular factor of a QR
    decomposition of R^T, which for d = 1 is R itself, so it is taken as is there.
    """

    def __init__(self, inputs: np.ndarray, residuals: np.ndarray):
        self.sq = sq_diffs(inputs, inputs)
        self.n, self.d = residuals.shape
        self.sq_t = self.sq.reshape(self.n * self.n, -1).T
        self.factor = residuals if self.d == 1 else np.linalg.qr(residuals.T, mode="r").T
        self.factor_flat = self.factor.ravel("F")
        self.nd = self.n * self.d

    def __call__(self, weights: np.ndarray, shift: float, amplitude: float | None = None,
                 shift_scale: float | None = None):
        """NLL, gradient, amplitude a and factor L for the Gram a (C + shift I).

        C = unit_kernel(sq, weights); shift is jitter_rel plus noise / a. The
        upper triangle of K = C + shift I, the one factored, is gram's at unit
        amplitude, and L is its lower Cholesky factor (see _cholesky): sqrt(a) L
        factors the Gram. With S = tr(F^T K^-1 F) the NLL is
        (N d / 2) log a + (d / 2) log|K| + S / (2 a) + (N d / 2) log 2pi.
        amplitude None profiles a out: S / (N d), or AMP_FLOOR where that is not
        positive. grad is over [log a, log w_1 .. log w_l]: N d / 2 - S / (2 a),
        then 0.5 tr(B dK) with B = d K^-1 - alpha alpha^T / a, alpha = K^-1 F. A
        shift_scale appends shift_scale times the shift's component, so a shift
        of jitter_rel + g gives the one over log g for shift_scale g. At the
        profiled a the weight and shift components are the profiled NLL's gradient
        (the envelope theorem). A K that is not positive definite, or an S that is
        not finite, gives (inf, zeros, amplitude, None). Every product runs in
        scipy's BLAS.
        """
        n, d, nd = self.n, self.d, self.nd
        C = unit_kernel(self.sq, weights)
        K = C.copy()
        K.ravel()[:: n + 1] += shift
        chol = _cholesky(K, shift)
        size = weights.size + (1 if shift_scale is None else 2)
        if chol is None:
            return np.inf, np.zeros(size), amplitude, None
        logdet = 2.0 * float(np.log(chol.diagonal()).sum())
        linv, _ = dtrtri(chol, lower=1)  # L^-1, in a new array: the fit keeps L
        # K^-1 = L^-T L^-1 as a triangular product; linv's upper triangle is zero, so
        # the full K^-1 comes out
        kinv = dtrmm(1.0, linv, linv, lower=1, trans_a=1)
        alpha = dgemm(1.0, kinv, self.factor)  # K^-1 F
        # a BLAS dot product, which unlike numpy's products overflows without a warning
        S = ddot(self.factor_flat, alpha.ravel("F"))
        if not math.isfinite(S):
            return np.inf, np.zeros(size), amplitude, None
        if amplitude is None:
            amplitude = S / nd if S / nd > 0 else AMP_FLOOR
        nll = 0.5 * (nd * math.log(amplitude) + d * logdet + S / amplitude + nd * LOG2PI)
        # B = d K^-1 - u u^T over kinv, with alpha scaled in place to u = alpha / sqrt(a)
        # (alpha alpha^T can overflow)
        alpha *= 1.0 / math.sqrt(amplitude)
        B = dgemm(-1.0, alpha, alpha, beta=float(d), c=kinv, trans_b=1, overwrite_c=1)
        # 0.5 tr(B dK) = 0.5 sum(B^T * dK), dK = -w_i sq[..., i] * C for weight i and I
        # for the shift; B^T is the C-ordered view of the Fortran-ordered B
        bc = B.T
        flat = bc.ravel()
        grad = np.empty(size)
        grad[0] = 0.5 * (nd - S / amplitude)
        if shift_scale is not None:
            grad[-1] = 0.5 * flat[:: n + 1].sum() * shift_scale
        bc *= C
        # -0.5 w_i v_i: scaling the product by -0.5 afterwards rounds the same
        w = grad[1 : weights.size + 1]
        np.multiply(weights, dgemv(1.0, self.sq_t, flat), out=w)
        w *= -0.5
        return nll, grad, amplitude, chol


def _nll_at(params: KernelHyperparams, inputs: np.ndarray, residuals: np.ndarray, jitter_rel):
    """NLL, gradient over [log amplitude, log w (, log noise)] and L at fixed params.

    The likelihood core of the inputs and residuals at params.amplitude and
    _shift(params, jitter_rel); the noise is absolute, so its share of the shift
    falls as the amplitude grows. L is the core's unit-amplitude factor. A Gram
    that does not factor raises IllConditionedError.
    """
    jitter_rel = check_real(jitter_rel, "jitter_rel", "[0, inf)")
    if inputs.shape[1] != params.dim:
        raise ValueError("data dimension does not match kernel weights")
    noisy = params.noise > 0
    nll, grad, _, chol = _Likelihood(inputs, residuals)(
        params.weights, _shift(params, jitter_rel), params.amplitude,
        params.noise / params.amplitude if noisy else None)
    if not math.isfinite(nll):
        raise IllConditionedError(f"Gram matrix not positive definite at jitter_rel "
                                  f"{jitter_rel:.3e}")
    if noisy:
        grad[0] -= grad[-1]
    return nll, grad, chol


def neg_log_likelihood(params: KernelHyperparams, data: ResidualDataset,
                       jitter_rel=DEFAULT_JITTER_REL) -> float:
    """Negative log marginal likelihood of the residual matrix under the level GP.

    Equals the sum over output columns of the negated Gaussian log-density:
    (d/2) log|K| + (1/2) tr(R^T K^-1 R) + (N d / 2) log 2pi, with K the Gram
    plus (noise + jitter) diagonal and the jitter jitter_rel * amplitude, as in
    fit_level. A K that does not factor raises IllConditionedError.
    """
    return float(_nll_at(params, data.inputs, data.residuals, jitter_rel)[0])


def nll_gradient(params: KernelHyperparams, data: ResidualDataset,
                 jitter_rel=DEFAULT_JITTER_REL) -> np.ndarray:
    """Gradient of neg_log_likelihood with respect to log-hyperparameters.

    Component order is [log amplitude, log w_1 .. log w_l] with a trailing
    log-noise component when params.noise > 0. The noise stays fixed as the
    amplitude moves, and the jitter scales with it. fit_level profiles the
    amplitude out; at its optimum the weight components are its objective's.
    """
    return _nll_at(params, data.inputs, data.residuals, jitter_rel)[1]


def _finalize_level(params: KernelHyperparams, inputs, centered, means, jitter_rel: float,
                    fit_nll: float, chol: np.ndarray) -> TrainedLevel:
    """The level whose Gram, at jitter_rel * amplitude, has the lower Cholesky factor chol.

    chol is the caller's, Fortran-ordered as LAPACK returns it: fit_level's comes
    from its search, build_level's from its likelihood evaluation and load_model's
    from cholesky_with_escalation.
    alpha comes from two LAPACK triangular solves (dtrtrs, as in level_predict);
    chol's diagonal is positive, so neither can fail.
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
    fit_nll, _, chol = _nll_at(params, data.inputs, centered, jitter_rel)
    chol *= math.sqrt(params.amplitude)
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, fit_nll, chol)


@dataclass
class LbfgsResult:
    """Outcome of one L-BFGS-B run: the final point, an NLL, the work done and an evaluation.

    fun is the objective at the last point evaluated, and last is the objective's
    whole return there. That point is x itself except after an abnormal
    line-search stop (success False below the iteration cap), where setulb
    restores x to the previous iterate; fun then is not f(x), and last is None.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    last: tuple | None


def minimize(objective, x0: np.ndarray, *, ftol: float, gtol: float, maxiter: int,
             start: tuple | None = None) -> LbfgsResult:
    """L-BFGS-B over the [-LOG_BOUND, LOG_BOUND] box on scipy's setulb.

    objective(x) returns a tuple that begins (f, grad); the run keeps the tuple
    of its last evaluation as LbfgsResult.last. The loop is the one scipy's
    minimize(method="L-BFGS-B", jac=True) runs, with the same memory, line-search
    length, factr = ftol / eps and an iteration cap counted on each new
    iteration; the objective is called at x0, unless start holds its return
    there (counted in nfev all the same), and then only where setulb asks for a
    point other than the last one evaluated. So x, fun, nit, nfev and success
    equal minimize's bit for bit (fun, as there, may not be f(x): see
    LbfgsResult), without its wrapper objects. scipy's 15,000-evaluation cap is
    left out, so maxiter must stay below about 375, where it cannot bind (see
    MAX_ITERS). setulb (scipy.optimize._lbfgsb, loaded by resgp._scipy) is private
    scipy API with this signature since 1.15. bench/layers.py wraps this name.
    """
    x = np.asarray(x0, dtype=float).clip(-LOG_BOUND, LOG_BOUND)
    n = x.size
    # the last point evaluated, as a list: lists of floats compare elementwise like
    # the arrays do, in a tenth of the time at these sizes
    x_eval = x.tolist()
    last = objective(x.copy()) if start is None else start
    f, g = last[:2]
    nfev, nit = 1, 0
    m = LBFGS_MEMORY
    lower, upper = np.array([-LOG_BOUND] * n), np.array([LOG_BOUND] * n)
    nbd = np.array([2] * n, dtype=np.int32)  # bounded on both sides
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
                last = objective(x.copy())
                f, g = last[:2]
                nfev += 1
        elif task[0] == 1:  # new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # stop: iteration limit
        else:
            return LbfgsResult(x=x, fun=f, nit=nit, nfev=nfev, success=bool(task[0] == 4),
                               last=last if x.tolist() == x_eval else None)


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
    _Likelihood), so the search runs over [log w_1 .. log w_l (, log g)] in
    [-LOG_BOUND, LOG_BOUND] from the starts of _start_points: init (a warm
    start, such as the previous fit's params), the moment-matched centre (every
    weight at the inverse median pairwise squared distance), the unit start and
    draws around the centre. Each runs L-BFGS-B to LOOSE_FTOL and LOOSE_GTOL;
    the best is polished to POLISH_FTOL and POLISH_GTOL. noise is
    a nugget g relative to the amplitude (params.noise is g * amplitude), fixed
    unless learn_noise searches it from noise, or 1e-3 when noise is 0, and from
    a positive init.noise / init.amplitude in the warm start. The jitter stays at
    jitter_rel * amplitude: when no start reaches a Gram that factors there, the
    fit raises IllConditionedError, as it does for residuals whose squares sum
    beyond the float range. One _Likelihood serves every start. Each run's
    LbfgsResult keeps the objective's return where the run stopped (last). The
    polish is handed the best start's, so that point costs no second evaluation,
    and the level is finished from the polish's own: its amplitude, its NLL as
    fit_nll and its Cholesky factor, scaled by sqrt(amplitude), with alpha from
    two triangular solves. A run that stopped away from its last evaluation (see
    LbfgsResult) has its end evaluated again, by the polish at its start or, for
    the polish itself, by the finish. The fit builds no Gram and calls no
    cholesky_with_escalation.
    """
    if opt is None:
        opt = OptimizerConfig()
    jitter_rel = check_real(jitter_rel, "jitter_rel", "[0, inf)")
    noise = check_real(noise, "noise", "[0, inf)")
    n, l = data.inputs.shape
    if init is not None and init.dim != l:
        raise ValueError(f"init has {init.dim} weights, but the data have {l} inputs")
    means = data.residuals.mean(axis=0)
    centered = data.residuals - means
    core = _Likelihood(data.inputs, centered)
    # where the sum of the squared residuals, tr(F^T F), overflows, S = tr(F^T K^-1 F)
    # overflows at nearly every point, which the search cannot tell from a Gram that
    # does not factor (ddot, unlike numpy, overflows without a warning)
    if not math.isfinite(ddot(core.factor_flat, core.factor_flat)):
        raise IllConditionedError(
            "the residuals overflow: the sum of their squares exceeds the largest float "
            f"({np.finfo(float).max:.3e}); rescale the outputs"
        )

    unit = np.zeros(l + 1 if learn_noise else l)
    if learn_noise:
        unit[-1] = np.clip(math.log(noise if noise > 0 else 1e-3), -LOG_BOUND, LOG_BOUND)
    centre = unit.copy()
    rows = np.arange(n)
    med = float(np.median(core.sq.sum(axis=2)[rows[:, None] < rows])) if n > 1 else 0.0
    if med > 0:
        centre[:l] = math.log(1.0 / med)
    warm = None
    if init is not None:
        warm = unit.copy()
        warm[:l] = np.log(init.weights)
        if learn_noise and init.noise > 0:
            warm[-1] = math.log(init.noise / init.amplitude)

    def objective(x: np.ndarray):
        # the profiled NLL and its gradient over [log w (, log g)] at shift
        # jitter_rel + g, for the nugget g relative to the amplitude, then the NLL,
        # amplitude and unit-amplitude factor the level is built from, and g; a Gram
        # that does not factor gives NOT_PD_NLL with a zero gradient
        g = math.exp(x[-1]) if learn_noise else noise
        nll, grad, amplitude, chol = core(np.exp(x[:l]), jitter_rel + g, None,
                                          g if learn_noise else None)
        return min(nll, NOT_PD_NLL), grad[1:], nll, amplitude, chol, g

    # the first of the best runs; min lets go of every other run before the next
    # starts, so its factor does not stay alive
    best = min((minimize(objective, x0, ftol=LOOSE_FTOL, gtol=LOOSE_GTOL, maxiter=MAX_ITERS)
                for x0 in _start_points(opt, unit, centre, warm)), key=lambda run: run.fun)
    if best.fun >= NOT_PD_NLL:  # L-BFGS-B only descends, so no start left that value
        raise IllConditionedError(
            f"no start of the fit reached a positive definite Gram matrix at jitter_rel "
            f"{jitter_rel:.3e}; a design with repeated rows needs jitter_rel above 0"
        )
    polish = minimize(objective, best.x, ftol=POLISH_FTOL, gtol=POLISH_GTOL, maxiter=MAX_ITERS,
                      start=best.last)
    # L-BFGS-B only descends from the best start's finite value, so the Gram at
    # polish.x factored
    _, _, fit_nll, amplitude, chol, g = polish.last or objective(polish.x)
    chol *= math.sqrt(amplitude)
    params = KernelHyperparams(amplitude, np.exp(polish.x[:l]), g * amplitude)
    return _finalize_level(params, data.inputs, centered, means, jitter_rel, fit_nll, chol)


def level_predict(level: TrainedLevel, query):
    """Posterior mean and variance of the residual at query point(s).

    For a (l,) query returns (mean (d,), var float); for (M, l) returns
    (means (M, d), vars (M,)). The variance is the latent-function posterior
    variance, clamped at zero, identical across output columns. The call holds
    (M, N, l) and (M, N) temporaries; _predict_levels, which predict and
    select_next share, calls it on blocks of at most PREDICT_ROWS rows.
    """
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    k = cross_vec(level.params, q, level.inputs)  # (M, N)
    mean = k @ level.alpha + level.column_means
    white, _ = dtrtrs(level.chol, k.T, lower=1, overwrite_b=1)  # (N, M), in k's memory
    var = level.params.amplitude - np.sum(white * white, axis=0)
    var = np.maximum(var, 0.0)
    if single:
        return mean[0], float(var[0])
    return mean, var


def _predict_levels(levels, rows: np.ndarray):
    """Summed posterior mean (M, d) and variance (M,) of levels at the (M, l) rows.

    The rows go through every level in blocks of PREDICT_ROWS, each level's
    level_predict of a block added into that block's rows, so no level makes a
    full (M, d) temporary and memory is O(PREDICT_ROWS N l + M d). The variances
    are clamped at zero, so one level's sum is its level_predict bit for bit.
    """
    mean = np.zeros((rows.shape[0], levels[0].output_dim))
    var = np.zeros(rows.shape[0])
    for lo in range(0, rows.shape[0], PREDICT_ROWS):
        block = slice(lo, lo + PREDICT_ROWS)
        for lvl in levels:
            m, v = level_predict(lvl, rows[block])
            mean[block] += m
            var[block] += v
    return mean, var
