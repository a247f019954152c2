"""Additive multi-fidelity GP model over inter-fidelity residuals.

Fidelity 1 is the cheapest simulator, fidelity F the most accurate. The model
assumes nested designs (every fidelity-f input also ran at fidelity f-1) and
regresses one independent GP per level on the residual between consecutive
fidelities. The highest-fidelity posterior is the sum of the level posteriors,
so training and prediction decompose level by level.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .gp_level import (
    OptimizerConfig,
    ResidualDataset,
    cholesky_with_escalation,
    fit_level,
    _finalize_level,
    _predict_levels,
)
from .kernel import (
    DEFAULT_JITTER_REL,
    DomainBox,
    KernelHyperparams,
    check_array,
    check_integer,
    check_real,
    sq_diffs,
)

MODEL_FORMAT = "resgp-model"
MODEL_VERSION = 1
# a higher-fidelity input matches a lower-fidelity row within this absolute tolerance per coordinate
NESTING_ATOL = 1e-12


class NestingError(ValueError):
    """A higher-fidelity input has no match in the level below."""


@dataclass
class MultiFidelityData:
    """Per-fidelity input and output arrays, cheapest level first.

    inputs[f] has shape (N_f, l) and outputs[f] shape (N_f, d), with
    N_1 >= N_2 >= ... >= N_F >= 1.
    """

    inputs: list
    outputs: list

    def __post_init__(self):
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must list the same number of fidelities")
        if len(self.inputs) == 0:
            raise ValueError("at least one fidelity is required")
        self.inputs = [check_array(x, f"fidelity {f} inputs", 2)
                       for f, x in enumerate(self.inputs, start=1)]
        self.outputs = [check_array(y, f"fidelity {f} outputs", 2)
                        for f, y in enumerate(self.outputs, start=1)]
        l = None
        d = None
        prev_n = None
        for f, (x, y) in enumerate(zip(self.inputs, self.outputs), start=1):
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"fidelity {f}: inputs and outputs disagree on N")
            if x.shape[0] < 1:
                raise ValueError(f"fidelity {f}: at least one point required")
            l = x.shape[1] if l is None else l
            d = y.shape[1] if d is None else d
            if x.shape[1] != l or y.shape[1] != d:
                raise ValueError(f"fidelity {f}: inconsistent input or output dimension")
            if prev_n is not None and x.shape[0] > prev_n:
                raise ValueError(
                    f"fidelity {f}: more points ({x.shape[0]}) than fidelity {f - 1} ({prev_n})"
                )
            prev_n = x.shape[0]
        if self.input_dim == 0 or self.output_dim == 0:
            raise ValueError("inputs and outputs must each have at least one column")

    @property
    def n_fidelities(self) -> int:
        return len(self.inputs)

    @property
    def input_dim(self) -> int:
        return self.inputs[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs[0].shape[1]

    @property
    def counts(self) -> list:
        return [x.shape[0] for x in self.inputs]


def check_budgets(budgets, n_fidelities: int | None = None) -> list:
    """Per-fidelity design sizes as ints, cheapest fidelity first.

    A budget that is not an integer is a TypeError, as in check_integer. No
    budgets, a budget below 1 or above the one below it, or a count other than
    n_fidelities (when given) is a ValueError.
    """
    budgets = [check_integer(b, "every budget", 1) for b in budgets]
    if not budgets:
        raise ValueError("budgets must name at least one fidelity")
    if n_fidelities is not None and len(budgets) != n_fidelities:
        raise ValueError(f"{n_fidelities} budgets needed, one per fidelity, got {len(budgets)}")
    if any(hi > lo for lo, hi in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must not increase with fidelity, got {budgets}")
    return budgets


@dataclass
class Posterior:
    """Predictive mean and variance; variance is shared across output columns."""

    mean: np.ndarray
    var: np.ndarray | float


def nesting_check(data: MultiFidelityData) -> list:
    """Verify each fidelity's inputs appear in the fidelity below, within NESTING_ATOL.

    Returns one row map per fidelity f >= 2: rows[f - 2][i] is the row of
    fidelity f-1 matching row i of fidelity f. Matching is coordinate-wise
    absolute; the first matching row wins. Raises NestingError naming the
    offending fidelity and point otherwise.
    """
    rows = []
    for f in range(2, data.n_fidelities + 1):
        child = data.inputs[f - 1]
        parent = data.inputs[f - 2]
        with np.errstate(over="ignore"):  # a square past the float range is inf: no match
            close = np.all(sq_diffs(child, parent) <= NESTING_ATOL**2, axis=2)
        found = close.any(axis=1)
        if not found.all():
            missing = child[np.argmin(found)]
            raise NestingError(
                f"fidelity {f} point {missing.tolist()} not found in fidelity {f - 1}"
            )
        rows.append(close.argmax(axis=1))
    return rows


def compute_residuals(data: MultiFidelityData, rows: list) -> list:
    """Per-level residual datasets: level 1 is the raw lowest-fidelity output,
    level f >= 2 the difference to the fidelity f-1 rows that rows[f - 2] maps to."""
    out = [ResidualDataset(inputs=data.inputs[0], residuals=data.outputs[0])]
    for f in range(2, data.n_fidelities + 1):
        resid = data.outputs[f - 1] - data.outputs[f - 2][rows[f - 2]]
        out.append(ResidualDataset(inputs=data.inputs[f - 1], residuals=resid))
    return out


def _infer_domain(points: np.ndarray) -> DomainBox:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    flat = hi - lo <= 0
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    return DomainBox(lo, hi)


@dataclass
class ResGPModel:
    """Trained residual-GP stack. Levels store normalized [0, 1]^l inputs;
    domain maps raw coordinates onto that space."""

    levels: list
    domain: DomainBox

    @property
    def input_dim(self) -> int:
        return self.domain.dim

    @property
    def output_dim(self) -> int:
        return self.levels[0].output_dim

    @property
    def n_fidelities(self) -> int:
        return len(self.levels)

    @property
    def joint_nll(self) -> float:
        return float(sum(lvl.fit_nll for lvl in self.levels))


def train(
    data: MultiFidelityData,
    opt: OptimizerConfig | None = None,
    *,
    domain: DomainBox | None = None,
    jitter_rel: float = DEFAULT_JITTER_REL,
    noise: float = 0.0,
    learn_noise: bool = False,
) -> ResGPModel:
    """Fit every residual level by maximum likelihood and assemble the model.

    Inputs are normalized onto [0, 1]^l using domain (default: the bounding box
    of the lowest-fidelity inputs) before any kernel evaluation; nesting is
    checked on normalized coordinates. noise and learn_noise go to every
    level's fit_level: a nugget relative to the level's amplitude.
    """
    if opt is None:
        opt = OptimizerConfig()
    if domain is None:
        domain = _infer_domain(data.inputs[0])
    if domain.dim != data.input_dim:
        raise ValueError("domain dimension does not match data")
    norm = MultiFidelityData(
        inputs=[domain.normalize(x) for x in data.inputs],
        outputs=data.outputs,
    )
    residuals = compute_residuals(norm, nesting_check(norm))

    levels = [
        fit_level(ds, opt, jitter_rel=jitter_rel, noise=noise, learn_noise=learn_noise)
        for ds in residuals
    ]
    return ResGPModel(levels=levels, domain=domain)


def _accumulate(model: ResGPModel, query, n_levels: int) -> Posterior:
    q = np.asarray(query)
    if q.ndim not in (1, 2):
        raise ValueError(f"query must have shape (l,) or (M, l), got {q.shape}")
    single = q.ndim == 1
    q = check_array(q[None, :] if single else q, "query", 2)
    if q.shape[1] != model.input_dim:
        raise ValueError("query dimension does not match model")
    mean, var = _predict_levels(model.levels[:n_levels], model.domain.normalize(q))
    if single:
        return Posterior(mean=mean[0], var=float(var[0]))
    return Posterior(mean=mean, var=var)


def predict(model: ResGPModel, query) -> Posterior:
    """Highest-fidelity posterior: level means and variances summed.

    The query rows go through the levels in blocks of gp_level.PREDICT_ROWS (1,024) by
    gp_level._predict_levels, so for M query rows of l inputs, d outputs and at most N
    training points a level, memory is O(PREDICT_ROWS N l + M (l + d)); a query of at most
    PREDICT_ROWS rows is one block. A row's result can differ in its last bits with the
    block it is in: its kernel values are the same, but BLAS sums k @ alpha and the
    triangular solve in an order that depends on the block's size (by up to 1.7e-14 on a
    hartmann3 model). select_next scores its candidates through the same routine.
    """
    return _accumulate(model, query, model.n_fidelities)


def predict_fidelity(model: ResGPModel, query, fidelity: int) -> Posterior:
    """Posterior of the fidelity-f surrogate (partial sum of levels 1..f)."""
    return _accumulate(model, query, check_integer(fidelity, "fidelity", 1, model.n_fidelities))


def _atomic_write_text(path: str, text: str) -> None:
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")  # a new file, made as open() makes one, so the umask sets its mode
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: ResGPModel, path: str) -> None:
    """Serialize the model to a self-describing JSON file (atomic write)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "input_dim": model.input_dim,
        "output_dim": model.output_dim,
        "domain": {
            "lower": model.domain.lower.tolist(),
            "upper": model.domain.upper.tolist(),
        },
        "levels": [
            {
                "amplitude": lvl.params.amplitude,
                "weights": lvl.params.weights.tolist(),
                "noise": lvl.params.noise,
                "jitter": lvl.jitter,
                "fit_nll": lvl.fit_nll,
                "column_means": lvl.column_means.tolist(),
                "inputs": lvl.inputs.tolist(),
                "residuals": lvl.residuals.tolist(),
            }
            for lvl in model.levels
        ],
    }
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def load_model(path: str) -> ResGPModel:
    """Rebuild a model from save_model output, refactorizing each level.

    Cholesky factors and dual weights are recomputed from the stored inputs,
    hyperparameters, and jitter, so loaded predictions match the saved model
    to tight tolerance; fit_nll is kept as stored. Every field is read through
    the checks of kernel.py: a field that is missing or fails its check, shapes
    that disagree, and stored input_dim or output_dim other than the domain's
    and the first level's raise one ValueError naming the file and the field. A
    Gram that does not factor at its stored jitter raises IllConditionedError.
    The file is read as UTF-8, with or without a byte-order mark; text that is
    not UTF-8 or not JSON raises a ValueError naming the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"model file {path}: not UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    where = ""  # the part of the file being read, for the message of a fault
    try:
        check_integer(payload["version"], "version", MODEL_VERSION, MODEL_VERSION)
        where = "domain: "
        domain = DomainBox(payload["domain"]["lower"], payload["domain"]["upper"])
        where = ""
        if not (isinstance(payload["levels"], list) and payload["levels"]):
            raise TypeError(f"levels must be a non-empty list, got {payload['levels']!r}")
        levels = []
        for i, entry in enumerate(payload["levels"], start=1):
            where = f"level {i}: "
            params = KernelHyperparams(entry["amplitude"], entry["weights"], entry["noise"])
            inputs = check_array(entry["inputs"], "inputs", 2)
            centered = check_array(entry["residuals"], "residuals", 2)
            means = check_array(entry["column_means"], "column_means", 1)
            jitter = check_real(entry["jitter"], "jitter", "[0, inf)")
            fit_nll = check_real(entry["fit_nll"], "fit_nll", "(-inf, inf)")
            d = levels[0].output_dim if levels else centered.shape[1]
            if (params.dim, inputs.shape[1], centered.shape, means.size) != (
                domain.dim, domain.dim, (inputs.shape[0], d), d
            ):
                raise ValueError(
                    f"{params.dim} weights, inputs of shape {inputs.shape}, residuals of shape "
                    f"{centered.shape} and {means.size} column_means do not fit a "
                    f"{domain.dim}-dimensional domain and {d} output columns"
                )
            jitter_rel = jitter / params.amplitude
            chol = cholesky_with_escalation(params, inputs, jitter_rel)
            levels.append(_finalize_level(params, inputs, centered, means, jitter_rel, fit_nll, chol))
        where = ""
        model = ResGPModel(levels, domain)
        for key in ("input_dim", "output_dim"):
            stored, derived = check_integer(payload[key], key, 1), getattr(model, key)
            if stored != derived:
                raise ValueError(f"{key} is {stored}, but the domain and levels give {derived}")
    except KeyError as exc:
        raise ValueError(f"model file {path}: {where}missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: {where}{exc}") from exc
    return model
