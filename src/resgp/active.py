"""Variance-driven sequential design over a fixed candidate pool.

Each fidelity is built in turn: a random seed point, then repeated cycles of
fit, pick the candidate with the largest posterior variance, simulate, append.
Higher fidelities draw their candidates from the points already simulated one
level below, so the constructed designs are nested by construction. Every
simulation is recorded in an audit log that suffices to replay and verify the
selections without refitting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gp_level import (
    OptimizerConfig,
    ResidualDataset,
    TrainedLevel,
    check_integer,
    fit_level,
    level_predict,
)
from .kernel import DEFAULT_JITTER_REL, DomainBox
from .model import MultiFidelityData, ResGPModel, _atomic_write_text, _infer_domain

# "variance" picks the argmax-variance candidate, "random" a uniform one (the baseline)
STRATEGIES = ("variance", "random")


class OracleError(RuntimeError):
    """The simulator failed mid-construction; audit holds the partial log."""

    def __init__(self, message: str, audit: list):
        super().__init__(message)
        self.audit = audit


@dataclass
class CandidatePool:
    """Finite set of admissible inputs."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("pool must be a non-empty (M, l) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("pool points must be finite")

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class ConstructionResult:
    """Output of sequential_construct: final model, audit log, chosen pool
    indices per fidelity, and the nested design with its simulator outputs."""

    model: ResGPModel
    audit: list
    selected: dict
    data: MultiFidelityData


def select_next(level: TrainedLevel, candidates) -> tuple[int, float]:
    """Index of the highest-variance candidate and its gain.

    A candidate's gain is its level_predict variance, the entropy-reduction
    score the acquisition maximizes. Gains indistinguishable from the jitter
    floor are snapped to zero so a degenerate pool (every candidate already
    interpolated) resolves to index 0; exact ties break to the lowest index.
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim != 2 or cands.shape[0] == 0:
        raise ValueError("candidates must be a non-empty (M, l) array")
    _, gains = level_predict(level, cands)
    snapped = np.where(gains < 10.0 * level.jitter, 0.0, gains)
    idx = int(np.argmax(snapped))
    return idx, float(gains[idx])


def _log_params(level: TrainedLevel) -> np.ndarray:
    return np.log(np.concatenate(([level.params.amplitude], level.params.weights)))


def _validate_budgets(budgets, pool_size: int) -> list:
    budgets = [check_integer(b, "every budget") for b in budgets]
    if len(budgets) == 0:
        raise ValueError("budgets must name at least one fidelity")
    if any(b < 1 for b in budgets):
        raise ValueError("every fidelity budget must be at least 1")
    for f in range(1, len(budgets)):
        if budgets[f] > budgets[f - 1]:
            raise ValueError(
                f"budget {budgets[f]} at fidelity {f + 1} exceeds the level below"
            )
    if budgets[0] > pool_size:
        raise ValueError("lowest-fidelity budget exceeds the pool size")
    return budgets


def sequential_construct(
    pool,
    budgets,
    oracle,
    opt: OptimizerConfig | None = None,
    seed: int = 0,
    *,
    domain: DomainBox | None = None,
    jitter_rel: float = DEFAULT_JITTER_REL,
    strategy: str = "variance",
) -> ConstructionResult:
    """Build nested designs fidelity by fidelity under the given budgets.

    oracle(fidelity, point) returns the length-d simulator output; it is called
    once per (fidelity, point) pair and cached. strategy "variance" picks the
    argmax-variance candidate each step, "random" picks uniformly (the paired
    baseline). Hyperparameters are refit after every acquisition, warm-started
    at the previous optimum; a final refit follows the last acquisition of each
    fidelity. Identical inputs and seed reproduce the construction exactly.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if opt is None:
        opt = OptimizerConfig()
    if not isinstance(pool, CandidatePool):
        pool = CandidatePool(points=pool)
    raw = pool.points
    if domain is None:
        domain = _infer_domain(raw)
    if domain.dim != raw.shape[1]:
        raise ValueError("domain dimension does not match pool")
    budgets = _validate_budgets(budgets, pool.size)
    unit = domain.normalize(raw)
    rng = np.random.default_rng(seed)
    warm_opt = OptimizerConfig(
        restarts=1, max_iters=opt.max_iters, grad_tol=opt.grad_tol, seed=opt.seed
    )

    cache: dict = {}
    audit: list = []

    def simulate(f: int, i: int) -> np.ndarray:
        key = (f, i)
        if key in cache:
            return cache[key]
        try:
            y = np.asarray(oracle(f, raw[i]), dtype=float).reshape(-1)
        except Exception as exc:
            raise OracleError(
                f"oracle failed at fidelity {f}, point {raw[i].tolist()}: {exc}",
                audit,
            ) from exc
        if y.size == 0 or not np.all(np.isfinite(y)):
            raise OracleError(
                f"oracle returned invalid output at fidelity {f}, "
                f"point {raw[i].tolist()}",
                audit,
            )
        cache[key] = y
        return y

    def residual_row(f: int, i: int) -> np.ndarray:
        y = simulate(f, i)
        if f == 1:
            return y
        return y - cache[(f - 1, i)]

    levels: list[TrainedLevel] = []
    selected: dict = {}
    for f in range(1, len(budgets) + 1):
        if f == 1:
            source = list(range(pool.size))
        else:
            source = list(selected[f - 1])
        seed_pos = int(rng.integers(len(source)))
        chosen = [source[seed_pos]]
        rows = [residual_row(f, chosen[0])]
        pending = {
            "fidelity": f,
            "step": 1,
            "pool_index": int(chosen[0]),
            "point": raw[chosen[0]].tolist(),
            "mode": "seed",
            "gain": None,
            "params": None,
            "nll": None,
        }
        audit.append(pending)

        warm = None
        while True:
            ds = ResidualDataset(inputs=unit[chosen], residuals=np.array(rows))
            level = fit_level(
                ds,
                warm_opt if warm is not None else opt,
                jitter_rel=jitter_rel,
                init=warm,
            )
            pending["nll"] = level.fit_nll
            if len(chosen) == budgets[f - 1]:
                break
            warm = _log_params(level)
            chosen_set = set(chosen)
            remaining = [i for i in source if i not in chosen_set]
            if strategy == "variance":
                local, gain = select_next(level, unit[remaining])
                pick = remaining[local]
                mode = "argmax"
                gain_value: float | None = gain
            else:
                pick = remaining[int(rng.integers(len(remaining)))]
                mode = "random"
                gain_value = None
            rows.append(residual_row(f, pick))
            chosen.append(pick)
            pending = {
                "fidelity": f,
                "step": len(chosen),
                "pool_index": int(pick),
                "point": raw[pick].tolist(),
                "mode": mode,
                "gain": gain_value,
                "params": {
                    "amplitude": level.params.amplitude,
                    "weights": level.params.weights.tolist(),
                    "noise": level.params.noise,
                },
                "nll": None,
            }
            audit.append(pending)
        levels.append(level)
        selected[f] = chosen

    data = MultiFidelityData(
        inputs=[raw[selected[f]] for f in selected],
        outputs=[np.array([cache[(f, i)] for i in selected[f]]) for f in selected],
    )
    model = ResGPModel(
        levels=levels,
        domain=domain,
        input_dim=data.input_dim,
        output_dim=data.output_dim,
    )
    return ConstructionResult(model=model, audit=audit, selected=selected, data=data)


def write_audit(audit: list, path: str) -> None:
    """Write audit records as line-delimited JSON (atomic)."""
    lines = [json.dumps(rec, sort_keys=True) for rec in audit]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_audit(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
