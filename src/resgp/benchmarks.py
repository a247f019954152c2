"""Multi-fidelity benchmark functions, designs, metrics, and dataset files.

Every benchmark exposes fidelities 1 (cheapest) .. F (target) over a fixed
input box. The analytic functions are vectorized over query rows; the double
pendulum integrates its equations of motion with a fixed-step RK4 whose step
size sets the fidelity.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import NamedTuple

import numpy as np

from .gp_level import OptimizerConfig, check_integer
from .kernel import DEFAULT_JITTER_REL, DomainBox
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
# analytic benchmark functions


def _currin_high_vals(x1, x2):
    with np.errstate(divide="ignore"):
        damp = 1.0 - np.exp(-1.0 / (2.0 * x2))
    num = 2300.0 * x1**3 + 1900.0 * x1**2 + 2092.0 * x1 + 60.0
    den = 100.0 * x1**3 + 500.0 * x1**2 + 4.0 * x1 + 20.0
    return damp * num / den


def _currin_high(x):
    return _currin_high_vals(x[:, 0], x[:, 1])[:, None]


def _currin_low(x):
    x1, x2 = x[:, 0], x[:, 1]
    up = x2 + 0.05
    dn = np.maximum(0.0, x2 - 0.05)
    vals = (
        _currin_high_vals(x1 + 0.05, up)
        + _currin_high_vals(x1 + 0.05, dn)
        + _currin_high_vals(x1 - 0.05, up)
        + _currin_high_vals(x1 - 0.05, dn)
    ) / 4.0
    return vals[:, None]


def _park_high_vals(x1, x2, x3, x4):
    first = 0.5 * x1 * (np.sqrt(1.0 + (x2 + x3**2) * x4 / x1**2) - 1.0)
    second = (x1 + 3.0 * x4) * np.exp(1.0 + np.sin(x3))
    return first + second


def _park_high(x):
    return _park_high_vals(x[:, 0], x[:, 1], x[:, 2], x[:, 3])[:, None]


def _park_low(x):
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    high = _park_high_vals(x1, x2, x3, x4)
    vals = (1.0 + np.sin(x1) / 10.0) * high - 2.0 * x1 + x2**2 + x3**2 + 0.5
    return vals[:, None]


def _borehole_frac(x, top_coef, base):
    rw, r, tu, hu, tl, hl, length, kw = (x[:, i] for i in range(8))
    logratio = np.log(r / rw)
    bracket = base + 2.0 * length * tu / (logratio * rw**2 * kw) + tu / tl
    return top_coef * tu * (hu - hl) / (logratio * bracket)


def _borehole_high(x):
    return _borehole_frac(x, 2.0 * np.pi, 1.0)[:, None]


def _borehole_low(x):
    return _borehole_frac(x, 5.0, 1.5)[:, None]


def _branin_vals(x1, x2):
    quad = -1.275 * x1**2 / math.pi**2 + 5.0 * x1 / math.pi + x2 - 6.0
    return quad**2 + (10.0 - 5.0 / (4.0 * math.pi)) * np.cos(x1) + 10.0


def _branin_high(x):
    return _branin_vals(x[:, 0], x[:, 1])[:, None]


def _branin_mid_vals(x1, x2):
    inner = _branin_vals(x1 - 2.0, x2 - 2.0)
    return 10.0 * np.sqrt(inner) + 2.0 * (x1 - 0.5) - 3.0 * (3.0 * x2 - 1.0) - 1.0


def _branin_mid(x):
    return _branin_mid_vals(x[:, 0], x[:, 1])[:, None]


def _branin_low(x):
    x1, x2 = x[:, 0], x[:, 1]
    vals = _branin_mid_vals(1.2 * (x1 + 2.0), 1.2 * (x2 + 2.0)) - 3.0 * x2 + 1.0
    return vals[:, None]


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


def _hartmann_vals(x, alpha):
    diff = x[:, None, :] - _HARTMANN_P[None, :, :]
    expo = np.einsum("nij,ij->ni", diff * diff, _HARTMANN_A)
    return np.exp(-expo) @ alpha


def _hartmann_level(f):
    alpha = _HARTMANN_ALPHA + (3 - f) * _HARTMANN_SHIFT

    def fn(x):
        return _hartmann_vals(x, alpha)[:, None]

    return fn


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


def _pendulum_integrate(theta1_0, dt, keep_path=False):
    """Classic four-stage RK4 with fixed step from t=0 to t=5."""
    th0 = np.atleast_1d(np.asarray(theta1_0, dtype=float))
    if dt <= 0 or dt > _PEND_T_END:
        raise ValueError("dt must lie in (0, 5]")
    n_steps = max(1, int(round(_PEND_T_END / dt)))
    h = _PEND_T_END / n_steps
    state = np.stack(
        [th0, np.full_like(th0, _PEND_THETA2_0), np.zeros_like(th0), np.zeros_like(th0)]
    )
    path = [state.copy()] if keep_path else None
    for _ in range(n_steps):
        k1 = _pendulum_rhs(state)
        k2 = _pendulum_rhs(state + 0.5 * h * k1)
        k3 = _pendulum_rhs(state + 0.5 * h * k2)
        k4 = _pendulum_rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if keep_path:
            path.append(state.copy())
    if keep_path:
        times = np.linspace(0.0, _PEND_T_END, n_steps + 1)
        return times, np.stack(path)
    return state


def pendulum_solve(theta1_0: float, dt: float = 0.01) -> tuple[float, float]:
    """Angles (theta1, theta2) at t=5 for the given release angle and step."""
    state = _pendulum_integrate(float(theta1_0), dt)
    return float(state[0, 0]), float(state[1, 0])


def pendulum_trajectory(theta1_0: float, dt: float = 0.01):
    """Times and full (theta1, theta2, omega1, omega2) path, for diagnostics."""
    times, path = _pendulum_integrate(float(theta1_0), dt, keep_path=True)
    return times, path[:, :, 0]


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


def _pendulum_level(dt):
    def fn(x):
        state = _pendulum_integrate(x[:, 0], dt)
        return np.stack([state[0], state[1]], axis=1)

    return fn


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


def _make_registry() -> dict:
    unit2 = DomainBox(np.zeros(2), np.ones(2))
    unit3 = DomainBox(np.zeros(3), np.ones(3))
    unit4 = DomainBox(np.zeros(4), np.ones(4))
    borehole_box = DomainBox(
        np.array([0.05, 100.0, 63070.0, 990.0, 63.1, 700.0, 1120.0, 9855.0]),
        np.array([0.15, 50000.0, 115600.0, 1110.0, 116.0, 820.0, 1680.0, 12045.0]),
    )
    branin_box = DomainBox(np.array([-5.0, 0.0]), np.array([10.0, 15.0]))
    pend_box = DomainBox(np.array([1.25]), np.array([1.57]))
    return {
        "currin": BenchmarkSpec("currin", unit2, 1, (_currin_low, _currin_high)),
        "park": BenchmarkSpec("park", unit4, 1, (_park_low, _park_high)),
        "borehole": BenchmarkSpec(
            "borehole", borehole_box, 1, (_borehole_low, _borehole_high)
        ),
        "branin3": BenchmarkSpec(
            "branin3", branin_box, 1, (_branin_low, _branin_mid, _branin_high)
        ),
        "hartmann3": BenchmarkSpec(
            "hartmann3", unit3, 1, tuple(_hartmann_level(f) for f in (1, 2, 3))
        ),
        "pendulum": BenchmarkSpec(
            "pendulum", pend_box, 2, (_pendulum_level(0.1), _pendulum_level(0.01))
        ),
    }


BENCHMARKS = _make_registry()


def get_benchmark(bench) -> BenchmarkSpec:
    if isinstance(bench, BenchmarkSpec):
        return bench
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
    fidelity = check_integer(fidelity, "fidelity")
    if not 1 <= fidelity <= spec.n_fidelities:
        raise ValueError(
            f"{spec.name} has fidelities 1..{spec.n_fidelities}, got {fidelity}"
        )
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != spec.input_dim:
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
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return domain.lower + rng.random((n, domain.dim)) * domain.width


def nested_subsample(design, n_sub: int, seed: int):
    """Exact-row subsample without replacement; returns (subset, indices)."""
    pts = np.asarray(design, dtype=float)
    if pts.ndim != 2:
        raise ValueError("design must be a 2-d array")
    if not 1 <= n_sub <= pts.shape[0]:
        raise ValueError(f"n_sub must lie in [1, {pts.shape[0]}], got {n_sub}")
    rng = np.random.default_rng(seed)
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
    mean = np.asarray(pred_mean, dtype=float)
    var = np.asarray(pred_var, dtype=float)
    y = np.asarray(truth, dtype=float)
    if mean.ndim == 1:
        mean = mean[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if mean.shape != y.shape:
        raise ValueError("prediction and truth shapes differ")
    if var.shape != (mean.shape[0],):
        raise ValueError("pred_var must have one entry per prediction row")
    if np.any(var < 0):
        raise ValueError("predictive variances must be non-negative")
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
    which need no quoting.
    """
    if isinstance(rows, np.ndarray):
        # one str map over the flat cells, regrouped into rows of rows.shape[1] cells
        cells = iter(map(str, rows.ravel().tolist()))
        rows = zip(*[cells] * rows.shape[1])
    else:
        rows = (map(str, row) for row in rows)
    _atomic_write_text(path, "\n".join([",".join(header), *map(",".join, rows), ""]))


def write_dataset_csv(path: str, data: MultiFidelityData) -> None:
    """One CSV across all fidelities: columns x1..xl, y1..yd, fidelity."""
    rows = [
        xi + yi + [f]
        for f, (X, Y) in enumerate(zip(data.inputs, data.outputs), start=1)
        for xi, yi in zip(X.tolist(), Y.tolist())
    ]
    write_csv(path, _dataset_header(data.input_dim, data.output_dim), rows)


def _check_records(records: list, n: int) -> None:
    """Raise DatasetFormatError at the first record, in file order, that is not n numbers.

    Blank records pass; records[0] is line 2.
    """
    for lineno, record in enumerate(records, start=2):
        if record and len(record) != n:
            raise DatasetFormatError(f"line {lineno}: expected {n} fields, got {len(record)}")
        try:
            list(map(float, record))
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from None


def read_csv_rows(path: str, check_header) -> tuple[list, np.ndarray, list]:
    """Header, (rows, fields) values and 1-based row lines of a CSV of finite numbers.

    check_header gets the stripped header fields and raises DatasetFormatError
    if it rejects them. Blank lines are skipped; every other line must hold one
    finite number per header field. Faults, an unreadable file included, raise
    DatasetFormatError naming the line where there is one; of several, the first
    in the file wins. The records are read in one pass and converted by one
    float map; the per-record checks run only when that fails.
    """
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("line 1: empty file")
            header = [h.strip() for h in header]
            check_header(header)
            try:
                for record in reader:  # an explicit loop keeps the records read before a fault
                    records.append(record)
            except (OSError, UnicodeDecodeError, csv.Error):
                _check_records(records, len(header))  # a fault among them comes first
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # such as a field above csv.field_size_limit()
        raise DatasetFormatError(f"line {reader.line_num}: {exc}") from None
    n = len(header)
    lines = list(compress(count(2), records))  # the line of each record that is not blank
    try:
        if not set(map(len, records)) <= {0, n}:
            raise ValueError("a record has the wrong number of fields")
        # blank records add no fields to the chain
        values = np.fromiter(map(float, chain.from_iterable(records)), float, count=len(lines) * n)
    except ValueError:
        _check_records(records, n)
        raise
    values = values.reshape(len(lines), n)
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
