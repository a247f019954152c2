"""Multi-fidelity benchmark functions, designs, metrics, and dataset files.

Every benchmark exposes fidelities 1 (cheapest) .. F (target) over a fixed
input box. Each fidelity is one formula of the input columns, vectorized over
query rows; the double pendulum integrates its equations of motion with a
fixed-step RK4 whose step size sets the fidelity. BENCHMARKS holds one row per
benchmark.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .gp_level import OptimizerConfig
from .kernel import DEFAULT_JITTER_REL, DomainBox, check_array, check_integer, check_real
from .model import MultiFidelityData, Posterior, _atomic_write_text, check_budgets, predict, train

# seed offsets keeping test designs and pools disjoint from training designs
TEST_SEED_OFFSET = 104729
POOL_SEED_OFFSET = 15485863

DEFAULT_BUDGETS = {
    "currin": [20, 5],
    "park": [30, 5],
    "borehole": [60, 10],
    "branin3": [80, 30, 10],
    "hartmann3": [80, 30, 10],
    "pendulum": [41, 14],
}


class DatasetFormatError(ValueError):
    """A dataset CSV failed to parse; the message names the offending line."""


# ---------------------------------------------------------------------------
# analytic benchmark functions: each maps its input columns to one value per row


def _currin_high(x1, x2):
    with np.errstate(divide="ignore"):
        damp = 1.0 - np.exp(-1.0 / (2.0 * x2))
    num = 2300.0 * x1**3 + 1900.0 * x1**2 + 2092.0 * x1 + 60.0
    den = 100.0 * x1**3 + 500.0 * x1**2 + 4.0 * x1 + 20.0
    return damp * num / den


def _currin_low(x1, x2):
    up = x2 + 0.05
    dn = np.maximum(0.0, x2 - 0.05)
    return (
        _currin_high(x1 + 0.05, up)
        + _currin_high(x1 + 0.05, dn)
        + _currin_high(x1 - 0.05, up)
        + _currin_high(x1 - 0.05, dn)
    ) / 4.0


def _park_high(x1, x2, x3, x4):
    first = 0.5 * x1 * (np.sqrt(1.0 + (x2 + x3**2) * x4 / x1**2) - 1.0)
    second = (x1 + 3.0 * x4) * np.exp(1.0 + np.sin(x3))
    return first + second


def _park_low(x1, x2, x3, x4):
    high = _park_high(x1, x2, x3, x4)
    return (1.0 + np.sin(x1) / 10.0) * high - 2.0 * x1 + x2**2 + x3**2 + 0.5


def _borehole(top_coef, base, rw, r, tu, hu, tl, hl, length, kw):
    logratio = np.log(r / rw)
    bracket = base + 2.0 * length * tu / (logratio * rw**2 * kw) + tu / tl
    return top_coef * tu * (hu - hl) / (logratio * bracket)


def _branin_high(x1, x2):
    quad = -1.275 * x1**2 / math.pi**2 + 5.0 * x1 / math.pi + x2 - 6.0
    return quad**2 + (10.0 - 5.0 / (4.0 * math.pi)) * np.cos(x1) + 10.0


def _branin_mid(x1, x2):
    inner = _branin_high(x1 - 2.0, x2 - 2.0)
    return 10.0 * np.sqrt(inner) + 2.0 * (x1 - 0.5) - 3.0 * (3.0 * x2 - 1.0) - 1.0


def _branin_low(x1, x2):
    return _branin_mid(1.2 * (x1 + 2.0), 1.2 * (x2 + 2.0)) - 3.0 * x2 + 1.0


_HARTMANN_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMANN_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
)
_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN_SHIFT = np.array([0.01, -0.01, -0.1, 0.1])


def _hartmann(f, *cols):
    """Fidelity f of 3, whose weights shift away from the standard ones as f falls."""
    alpha = _HARTMANN_ALPHA + (3 - f) * _HARTMANN_SHIFT
    diff = np.stack(cols, axis=1)[:, None, :] - _HARTMANN_P[None, :, :]
    expo = np.einsum("nij,ij->ni", diff * diff, _HARTMANN_A)
    # a row sum, not `@ alpha`: BLAS sums a lone row in another order than the rows of a batch
    return (np.exp(-expo) * alpha).sum(axis=1)


# ---------------------------------------------------------------------------
# double pendulum

_PEND_M1 = 2.0
_PEND_M2 = 1.0
_PEND_L1 = 1.0
_PEND_L2 = 2.0
_PEND_G = 9.81
_PEND_THETA2_0 = 2.2
_PEND_T_END = 5.0


def _pendulum_rhs(state):
    """Time derivative of (theta1, theta2, omega1, omega2), vectorized."""
    th1, th2, w1, w2 = state
    delta = th1 - th2
    sin_d = np.sin(delta)
    cos_d = np.cos(delta)
    m11 = (_PEND_M1 + _PEND_M2) * _PEND_L1
    m12 = _PEND_M2 * _PEND_L2 * cos_d
    m21 = _PEND_M2 * _PEND_L1 * cos_d
    m22 = _PEND_M2 * _PEND_L2
    b1 = -_PEND_M2 * _PEND_L2 * w2**2 * sin_d - (_PEND_M1 + _PEND_M2) * _PEND_G * np.sin(th1)
    b2 = _PEND_M2 * _PEND_L1 * w1**2 * sin_d - _PEND_M2 * _PEND_G * np.sin(th2)
    det = m11 * m22 - m12 * m21
    a1 = (m22 * b1 - m12 * b2) / det
    a2 = (m11 * b2 - m21 * b1) / det
    return np.stack([w1, w2, a1, a2])


def _pendulum_integrate(theta1_0, dt):
    """Fixed-step RK4 from t=0 to t=5; yields the (4, M) state at t=0 and after each step."""
    th0 = np.atleast_1d(np.asarray(theta1_0, dtype=float))
    dt = check_real(dt, "dt", f"(0, {_PEND_T_END:g}]")
    n_steps = max(1, int(round(_PEND_T_END / dt)))
    h = _PEND_T_END / n_steps
    zero = np.zeros_like(th0)
    state = np.stack([th0, np.full_like(th0, _PEND_THETA2_0), zero, zero])
    yield state
    for _ in range(n_steps):
        k1 = _pendulum_rhs(state)
        k2 = _pendulum_rhs(state + 0.5 * h * k1)
        k3 = _pendulum_rhs(state + 0.5 * h * k2)
        k4 = _pendulum_rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield state


def pendulum_trajectory(theta1_0: float, dt: float = 0.01):
    """Times and full (theta1, theta2, omega1, omega2) path, for diagnostics."""
    path = np.stack(list(_pendulum_integrate(check_real(theta1_0, "theta1_0", "(-inf, inf)"), dt)))
    return np.linspace(0.0, _PEND_T_END, path.shape[0]), path[:, :, 0]


def pendulum_energy(states) -> np.ndarray:
    """Total mechanical energy of trajectory states (..., 4)."""
    s = np.asarray(states, dtype=float)
    th1, th2, w1, w2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    kinetic = (
        0.5 * (_PEND_M1 + _PEND_M2) * _PEND_L1**2 * w1**2
        + 0.5 * _PEND_M2 * _PEND_L2**2 * w2**2
        + _PEND_M2 * _PEND_L1 * _PEND_L2 * w1 * w2 * np.cos(th1 - th2)
    )
    potential = -(_PEND_M1 + _PEND_M2) * _PEND_G * _PEND_L1 * np.cos(th1) - (
        _PEND_M2 * _PEND_G * _PEND_L2 * np.cos(th2)
    )
    return kinetic + potential


def _pendulum(dt, theta1_0):
    """Angles (theta1, theta2) at t=5, one row per release angle, integrated at step dt."""
    for state in _pendulum_integrate(theta1_0, dt):  # keeps one state at a time
        pass
    return np.stack([state[0], state[1]], axis=1)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class BenchmarkSpec:
    """Name, input box, output dimension, and per-fidelity evaluators."""

    name: str
    domain: DomainBox
    output_dim: int
    funcs: tuple

    @property
    def n_fidelities(self) -> int:
        return len(self.funcs)

    @property
    def input_dim(self) -> int:
        return self.domain.dim


def _rows(formula, x):
    """formula of the columns of an (M, l) array x, as an (M, d) array."""
    out = formula(*x.T)
    return out if out.ndim == 2 else out[:, None]


# one row per benchmark: name, input box, output dimension, fidelity formulas coarsest first
BENCHMARKS = {
    name: BenchmarkSpec(name, domain, output_dim, tuple(partial(_rows, f) for f in formulas))
    for name, domain, output_dim, formulas in [
        ("currin", DomainBox.unit(2), 1, [_currin_low, _currin_high]),
        ("park", DomainBox.unit(4), 1, [_park_low, _park_high]),
        ("borehole",
         DomainBox(np.array([0.05, 100.0, 63070.0, 990.0, 63.1, 700.0, 1120.0, 9855.0]),
                   np.array([0.15, 50000.0, 115600.0, 1110.0, 116.0, 820.0, 1680.0, 12045.0])),
         1, [partial(_borehole, 5.0, 1.5), partial(_borehole, 2.0 * np.pi, 1.0)]),
        ("branin3", DomainBox(np.array([-5.0, 0.0]), np.array([10.0, 15.0])), 1,
         [_branin_low, _branin_mid, _branin_high]),
        ("hartmann3", DomainBox.unit(3), 1, [partial(_hartmann, f) for f in (1, 2, 3)]),
        ("pendulum", DomainBox(np.array([1.25]), np.array([1.57])), 2,
         [partial(_pendulum, 0.1), partial(_pendulum, 0.01)]),
    ]
}


def get_benchmark(bench) -> BenchmarkSpec:
    """The spec bench names, or bench itself when it is a BenchmarkSpec."""
    if isinstance(bench, BenchmarkSpec):
        return bench
    if not isinstance(bench, str):
        raise TypeError(f"benchmark must be a name or a BenchmarkSpec, got {bench!r}")
    try:
        return BENCHMARKS[bench]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {bench!r}; known: {sorted(BENCHMARKS)}"
        ) from None


def evaluate(bench, fidelity: int, query) -> np.ndarray:
    """Evaluate a benchmark fidelity at query point(s) inside its domain.

    A (l,) query returns a (d,) output; an (M, l) query returns (M, d). A
    fidelity that is not an integer (a bool, a float, a string) is a TypeError.
    """
    spec = get_benchmark(bench)
    fidelity = check_integer(fidelity, "fidelity", 1, spec.n_fidelities)
    q = np.asarray(query)
    single = q.ndim == 1
    q = check_array(q[None, :] if single else q, "query", 2)
    if q.shape[1] != spec.input_dim:
        raise ValueError(f"{spec.name} expects {spec.input_dim}-dimensional inputs")
    lo, hi = spec.domain.lower, spec.domain.upper
    bad = np.any(q < lo - 1e-12, axis=1) | np.any(q > hi + 1e-12, axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"{spec.name}: point {q[i].tolist()} outside the benchmark domain"
        )
    out = spec.funcs[fidelity - 1](q)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# designs


def design_uniform(domain: DomainBox, n: int, seed: int) -> np.ndarray:
    """n uniform random points inside the box, deterministic per seed."""
    n = check_integer(n, "n", 1)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    return domain.lower + rng.random((n, domain.dim)) * domain.width


def nested_subsample(design, n_sub: int, seed: int):
    """Exact-row subsample without replacement; returns (subset, indices)."""
    pts = check_array(design, "design", 2)
    n_sub = check_integer(n_sub, "n_sub", 1, pts.shape[0])
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    idx = rng.choice(pts.shape[0], size=n_sub, replace=False)
    return pts[idx], idx


def nested_random_data(bench, budgets, seed: int) -> MultiFidelityData:
    """Uniform random nested designs evaluated at every fidelity."""
    spec = get_benchmark(bench)
    budgets = check_budgets(budgets, spec.n_fidelities)
    designs = [design_uniform(spec.domain, budgets[0], seed)]
    for f in range(2, spec.n_fidelities + 1):
        sub, _ = nested_subsample(designs[-1], budgets[f - 1], seed + f)
        designs.append(sub)
    outputs = [evaluate(spec, f + 1, designs[f]) for f in range(spec.n_fidelities)]
    return MultiFidelityData(inputs=designs, outputs=outputs)


# ---------------------------------------------------------------------------
# metrics


class Metrics(NamedTuple):
    rmse: float
    r2: float
    mnll: float
    nrmse: float


def metrics(pred_mean, pred_var, truth) -> Metrics:
    """Error metrics of predictions against ground truth.

    rmse over all N*d entries; r2 about the flattened truth mean; mnll the
    mean negative log Gaussian density using the per-point shared variance
    (+inf when a zero-variance prediction misses); nrmse normalized by the
    truth's root sum of squares.
    """
    mean, var, y = np.asarray(pred_mean), np.asarray(pred_var), np.asarray(truth)
    mean = check_array(mean[:, None] if mean.ndim == 1 else mean, "pred_mean", 2)
    y = check_array(y[:, None] if y.ndim == 1 else y, "truth", 2)
    if mean.shape != y.shape:
        raise ValueError("prediction and truth shapes differ")
    if var.shape != (mean.shape[0],):
        raise ValueError("pred_var must have one entry per prediction row")
    var = check_array(var, "pred_var", 1, "[0, inf)")
    err = mean - y
    rmse = float(np.sqrt(np.mean(err**2)))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0:
        raise ValueError("truth has zero variance; r2 undefined")
    r2 = 1.0 - float(np.sum(err**2)) / sst
    denom = float(np.sum(y**2))
    if denom == 0:
        raise ValueError("truth has zero norm; nrmse undefined")
    nrmse = float(np.sqrt(np.sum(err**2) / denom))

    zero = var == 0
    safe = np.where(zero, 1.0, var)
    terms = 0.5 * np.log(2.0 * math.pi * safe)[:, None] + err**2 / (2.0 * safe[:, None])
    if np.any(zero):
        exact = err[zero] == 0
        terms[zero] = np.where(exact, -np.inf, np.inf)
    mnll = float(np.mean(terms))
    return Metrics(rmse=rmse, r2=r2, mnll=mnll, nrmse=nrmse)


# ---------------------------------------------------------------------------
# dataset files


def _dataset_header(l: int, d: int) -> list:
    return [f"x{i + 1}" for i in range(l)] + [f"y{j + 1}" for j in range(d)] + ["fidelity"]


def write_csv(path: str, header: list, rows) -> None:
    """Write a CSV atomically, each cell as its str.

    rows is a list of rows or a 2-D array of at least one column. A float's str
    is its shortest repr, so it reads back exactly. Cells are numbers and names,
    which need no quoting. A list is joined row by row; an array's body is built
    by one %-format over its flat cells, as %r of a Python float is its str.
    """
    if isinstance(rows, np.ndarray):
        line = ",".join(["%r"] * rows.shape[1]) + "\n"
        text = ",".join(header) + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    else:
        text = "\n".join([",".join(header), *(",".join(map(str, row)) for row in rows), ""])
    _atomic_write_text(path, text)


def write_dataset_csv(path: str, data: MultiFidelityData) -> None:
    """One CSV across all fidelities: columns x1..xl, y1..yd, fidelity."""
    rows = [
        xi + yi + [f]
        for f, (X, Y) in enumerate(zip(data.inputs, data.outputs), start=1)
        for xi, yi in zip(X.tolist(), Y.tolist())
    ]
    write_csv(path, _dataset_header(data.input_dim, data.output_dim), rows)


def _read_plain_csv(path: str, check_header):
    """read_csv_rows by np.loadtxt for a plain file: ASCII, with no blank line, no line above
    csv.field_size_limit() and no '"', CR, NUL or \\x1c-\\x1f (numpy strips those four as
    whitespace; float() refuses them). None for any other file, and when loadtxt fails or gives
    another shape or a non-finite value."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.removesuffix("\n").split("\n")
    limit = csv.field_size_limit()
    if ("" in lines or not text.isascii() or any(c in text for c in '"\r\0\x1c\x1d\x1e\x1f')
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    header = [h.strip() for h in lines[0].split(",")]
    check_header(header)
    shape = (len(lines) - 1, len(header))
    if not shape[0]:
        return header, np.empty(shape), []  # loadtxt would warn of an empty input
    try:
        values = np.loadtxt(lines[1:], float, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != shape or not np.isfinite(values).all():
        return None
    return header, values, list(range(2, len(lines) + 1))


def read_csv_rows(path: str, check_header) -> tuple[list, np.ndarray, list]:
    """Header, (rows, fields) values and 1-based row lines of a CSV of finite numbers.

    The file is UTF-8, and a leading byte-order mark is skipped. check_header
    gets the stripped header fields and raises DatasetFormatError if it rejects
    them. Blank lines are skipped; every other line must hold one finite number
    per header field. Faults, an unreadable file included, raise
    DatasetFormatError naming the line where there is one; of several, the first
    in the file wins. Two paths give the same results: a plain file with finite
    values (_read_plain_csv) is parsed by np.loadtxt; every other file, and every
    fault, by csv.reader, one record at a time.
    """
    plain = _read_plain_csv(path, check_header)
    if plain is not None:
        return plain
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("line 1: empty file")
            header = [h.strip() for h in header]
            check_header(header)
            n = len(header)
            rows, lines = [], []
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != n:
                    raise DatasetFormatError(f"line {lineno}: expected {n} fields, got {len(record)}")
                try:
                    rows.append(list(map(float, record)))
                except ValueError as exc:
                    raise DatasetFormatError(f"line {lineno}: {exc}") from None
                lines.append(lineno)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # such as a field above csv.field_size_limit()
        raise DatasetFormatError(f"line {reader.line_num}: {exc}") from None
    values = np.array(rows).reshape(len(rows), n)
    # one finiteness check over the whole array is cheaper than one per row
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(f"line {lines[np.argmin(finite)]}: values must be finite")
    return header, values, lines


def _check_dataset_header(header: list) -> None:
    if not header or header[-1] != "fidelity":
        raise DatasetFormatError("line 1: last column must be 'fidelity'")
    l = sum(1 for h in header if h.startswith("x"))
    d = sum(1 for h in header if h.startswith("y"))
    if l == 0 or d == 0 or header != _dataset_header(l, d):
        raise DatasetFormatError("line 1: header must be x1..xl, y1..yd, fidelity")


def read_dataset_csv(path: str) -> MultiFidelityData:
    """Parse a dataset CSV back into per-fidelity arrays.

    Malformed content raises DatasetFormatError naming the 1-based line.
    """
    header, values, lines = read_csv_rows(path, _check_dataset_header)
    if not lines:
        raise DatasetFormatError("line 2: no data rows")
    l = sum(1 for h in header if h.startswith("x"))
    labels = values[:, -1]
    bad = (labels < 1) | (labels != np.floor(labels))
    if bad.any():
        raise DatasetFormatError(f"line {lines[np.argmax(bad)]}: fidelity must be an integer >= 1")
    fids = sorted(set(map(int, labels.tolist())))
    if fids != list(range(1, len(fids) + 1)):
        raise DatasetFormatError(f"fidelity labels must be contiguous from 1, got {fids}")
    return MultiFidelityData(
        inputs=[values[labels == f, :l] for f in fids],
        outputs=[values[labels == f, l:-1] for f in fids],
    )


# ---------------------------------------------------------------------------
# benchmark harness


def standardization_scale(data: MultiFidelityData) -> tuple[float, float]:
    """Scalar mean and std of the lowest-fidelity training outputs."""
    flat = data.outputs[0].ravel()
    m = float(flat.mean())
    s = float(flat.std())
    if s <= 0:
        s = 1.0
    return m, s


def score(
    post: Posterior, truth, data: MultiFidelityData, standardize: bool
) -> tuple[Metrics, Metrics, tuple[float, float] | None]:
    """Metrics of a posterior against the truth: (scored, raw, scale).

    With standardize, scored is computed after shifting and scaling predictions
    and truth by scale = standardization_scale(data), so scores are comparable
    across benchmarks with different output scales. Otherwise scored is raw and
    scale is None.
    """
    raw = metrics(post.mean, post.var, truth)
    if not standardize:
        return raw, raw, None
    m, s = standardization_scale(data)
    scored = metrics((post.mean - m) / s, post.var / s**2, (truth - m) / s)
    return scored, raw, (m, s)


def score_held_out(spec, model, data: MultiFidelityData, seed: int, test_points: int,
                   standardize: bool) -> dict:
    """Score a model of spec on test_points uniform points drawn at seed + TEST_SEED_OFFSET.

    Returns the test inputs and truth, the posterior and score's metrics,
    raw_metrics and scale.
    """
    test_x = design_uniform(spec.domain, test_points, seed + TEST_SEED_OFFSET)
    truth = evaluate(spec, spec.n_fidelities, test_x)
    post = predict(model, test_x)
    scored, raw, scale = score(post, truth, data, standardize)
    return {"metrics": scored, "raw_metrics": raw, "scale": scale,
            "test_inputs": test_x, "test_truth": truth, "posterior": post}


def run_benchmark_case(
    bench,
    budgets=None,
    seed: int = 0,
    opt: OptimizerConfig | None = None,
    test_points: int = 1000,
    standardize: bool = True,
    jitter_rel: float = DEFAULT_JITTER_REL,
) -> dict:
    """Train on a random nested design and score on fresh test points.

    metrics, raw_metrics and scale come from score, which standardizes by the
    lowest-fidelity training outputs when standardize is set.
    """
    spec = get_benchmark(bench)
    if budgets is None:
        budgets = DEFAULT_BUDGETS[spec.name]
    if opt is None:
        opt = OptimizerConfig(seed=seed)
    data = nested_random_data(spec, budgets, seed)
    t0 = time.perf_counter()
    model = train(data, opt, domain=spec.domain, jitter_rel=jitter_rel)
    fit_seconds = time.perf_counter() - t0
    return {
        "name": spec.name,
        "budgets": list(budgets),
        "seed": seed,
        "model": model,
        "data": data,
        "fit_seconds": fit_seconds,
        **score_held_out(spec, model, data, seed, test_points, standardize),
    }
