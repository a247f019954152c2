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
import tempfile
from dataclasses import dataclass

import numpy as np

from .gp_level import (
    OptimizerConfig,
    ResidualDataset,
    check_integer,
    fit_level,
    level_predict,
    _finalize_level,
)
from .kernel import DEFAULT_JITTER_REL, DomainBox, KernelHyperparams

MODEL_FORMAT = "resgp-model"
MODEL_VERSION = 1


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
        self.inputs = [np.asarray(x, dtype=float) for x in self.inputs]
        self.outputs = [np.asarray(y, dtype=float) for y in self.outputs]
        l = None
        d = None
        prev_n = None
        for f, (x, y) in enumerate(zip(self.inputs, self.outputs), start=1):
            if x.ndim != 2 or y.ndim != 2:
                raise ValueError(f"fidelity {f}: inputs and outputs must be 2-d arrays")
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"fidelity {f}: inputs and outputs disagree on N")
            if x.shape[0] < 1:
                raise ValueError(f"fidelity {f}: at least one point required")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValueError(f"fidelity {f}: non-finite values")
            l = x.shape[1] if l is None else l
            d = y.shape[1] if d is None else d
            if x.shape[1] != l or y.shape[1] != d:
                raise ValueError(f"fidelity {f}: inconsistent input or output dimension")
            if prev_n is not None and x.shape[0] > prev_n:
                raise ValueError(
                    f"fidelity {f}: more points ({x.shape[0]}) than fidelity {f - 1} ({prev_n})"
                )
            prev_n = x.shape[0]

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
    budgets = [check_integer(b, "every budget") for b in budgets]
    if not budgets:
        raise ValueError("budgets must name at least one fidelity")
    if n_fidelities is not None and len(budgets) != n_fidelities:
        raise ValueError(f"{n_fidelities} budgets needed, one per fidelity, got {len(budgets)}")
    if min(budgets) < 1:
        raise ValueError(f"every budget must be at least 1, got {budgets}")
    if any(hi > lo for lo, hi in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must not increase with fidelity, got {budgets}")
    return budgets


@dataclass
class Posterior:
    """Predictive mean and variance; variance is shared across output columns."""

    mean: np.ndarray
    var: np.ndarray | float


def nesting_check(data: MultiFidelityData, atol: float = 1e-12) -> list:
    """Verify each fidelity's inputs appear in the fidelity below, within atol.

    Returns one row map per fidelity f >= 2: rows[f - 2][i] is the row of
    fidelity f-1 matching row i of fidelity f. Matching is coordinate-wise
    absolute; the first matching row wins. Raises NestingError naming the
    offending fidelity and point otherwise.
    """
    rows = []
    for f in range(2, data.n_fidelities + 1):
        child = data.inputs[f - 1]
        parent = data.inputs[f - 2]
        close = np.all(
            np.abs(child[:, None, :] - parent[None, :, :]) <= atol, axis=2
        )
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
    input_dim: int
    output_dim: int

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
    checked on normalized coordinates.
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
    return ResGPModel(
        levels=levels,
        domain=domain,
        input_dim=data.input_dim,
        output_dim=data.output_dim,
    )


def _accumulate(model: ResGPModel, query, n_levels: int) -> Posterior:
    q = np.asarray(query, dtype=float)
    if q.ndim not in (1, 2):
        raise ValueError(f"query must have shape (l,) or (M, l), got {q.shape}")
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.shape[1] != model.input_dim:
        raise ValueError("query dimension does not match model")
    u = model.domain.normalize(q)
    mean = np.zeros((q.shape[0], model.output_dim))
    var = np.zeros(q.shape[0])
    for lvl in model.levels[:n_levels]:
        m, v = level_predict(lvl, u)
        mean += m
        var += v
    if single:
        return Posterior(mean=mean[0], var=float(var[0]))
    return Posterior(mean=mean, var=var)


def predict(model: ResGPModel, query) -> Posterior:
    """Highest-fidelity posterior: level means and variances summed."""
    return _accumulate(model, query, model.n_fidelities)


def predict_fidelity(model: ResGPModel, query, fidelity: int) -> Posterior:
    """Posterior of the fidelity-f surrogate (partial sum of levels 1..f)."""
    fidelity = check_integer(fidelity, "fidelity")
    if not 1 <= fidelity <= model.n_fidelities:
        raise ValueError(
            f"fidelity must be in [1, {model.n_fidelities}], got {fidelity}"
        )
    return _accumulate(model, query, fidelity)


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
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
    to tight tolerance; fit_nll is kept as stored. A Gram that does not factor
    at its stored jitter raises IllConditionedError.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    domain = DomainBox(
        np.array(payload["domain"]["lower"]), np.array(payload["domain"]["upper"])
    )
    levels = []
    for entry in payload["levels"]:
        params = KernelHyperparams(
            amplitude=entry["amplitude"],
            weights=np.array(entry["weights"]),
            noise=entry["noise"],
        )
        inputs = np.array(entry["inputs"], dtype=float)
        centered = np.array(entry["residuals"], dtype=float)
        means = np.array(entry["column_means"], dtype=float)
        jitter_rel = entry["jitter"] / params.amplitude
        lvl = _finalize_level(params, inputs, centered, means, jitter_rel, entry["fit_nll"])
        levels.append(lvl)
    return ResGPModel(
        levels=levels,
        domain=domain,
        input_dim=int(payload["input_dim"]),
        output_dim=int(payload["output_dim"]),
    )
