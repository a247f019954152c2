"""Variance-driven sequential design over a fixed candidate pool.

Each fidelity is built in turn by one loop: simulate the pick, record it,
refit, then pick the candidate with the largest posterior variance (the first
pick of a fidelity is a random seed point). Higher fidelities draw their
candidates from the points already simulated one level below, so the
constructed designs are nested by construction. Every simulation is recorded
in an audit log that suffices to replay and verify the selections without
refitting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .gp_level import OptimizerConfig, ResidualDataset, TrainedLevel, _predict_levels, fit_level
from .kernel import DEFAULT_JITTER_REL, DomainBox, check_array, check_integer
from .model import MultiFidelityData, ResGPModel, _atomic_write_text, _infer_domain, check_budgets

# "variance" picks the argmax-variance candidate, "random" a uniform one (the baseline)
STRATEGIES = ("variance", "random")


class OracleError(RuntimeError):
    """The simulator failed mid-construction; audit holds the partial log."""

    def __init__(self, message: str, audit: list):
        super().__init__(message)
        self.audit = audit


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
    score the acquisition maximizes, taken by gp_level._predict_levels as in
    predict. Gains indistinguishable from the jitter floor are snapped to zero
    so a degenerate pool (every candidate already interpolated) resolves to
    index 0; exact ties break to the lowest index.
    """
    cands = check_array(candidates, "candidates", 2)
    if cands.shape[0] == 0:
        raise ValueError("candidates must hold at least one point")
    gains = _predict_levels([level], cands)[1]
    snapped = np.where(gains < 10.0 * level.jitter, 0.0, gains)
    idx = int(np.argmax(snapped))
    return idx, float(gains[idx])


def sequential_construct(
    pool: np.ndarray,
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
    once per (fidelity, point) pair, and every output must have the length of
    the first. strategy "variance" picks the argmax-variance candidate each
    step, "random" picks uniformly (the paired baseline). Hyperparameters are
    refit after every acquisition, warm-started at the previous optimum; a
    final refit follows the last acquisition of each fidelity. Identical inputs
    and seed reproduce the construction exactly.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if opt is None:
        opt = OptimizerConfig()
    raw = check_array(pool, "pool points", 2)
    if raw.shape[0] == 0:
        raise ValueError("pool must hold at least one point")
    if domain is None:
        domain = _infer_domain(raw)
    if domain.dim != raw.shape[1]:
        raise ValueError("domain dimension does not match pool")
    budgets = check_budgets(budgets)
    if budgets[0] > raw.shape[0]:
        raise ValueError("lowest-fidelity budget exceeds the pool size")
    unit = domain.normalize(raw)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    warm_opt = replace(opt, restarts=1)

    outputs: dict = {}
    audit: list = []

    def simulate(f: int, i: int) -> np.ndarray:
        where = f"at fidelity {f}, point {raw[i].tolist()}"
        try:
            y = np.asarray(oracle(f, raw[i]), dtype=float).reshape(-1)
        except Exception as exc:
            raise OracleError(f"oracle failed {where}: {exc}", audit) from exc
        if y.size == 0 or not np.all(np.isfinite(y)):
            raise OracleError(f"oracle returned invalid output {where}", audit)
        first = next(iter(outputs.values()), y)
        if y.size != first.size:
            raise OracleError(
                f"oracle returned {y.size} outputs {where}; the first output had {first.size}",
                audit,
            )
        outputs[f, i] = y
        return y

    levels: list[TrainedLevel] = []
    selected: dict = {}
    for f in range(1, len(budgets) + 1):
        # the pool indices still to choose from: pool order at fidelity 1, selection order above
        remaining = list(range(raw.shape[0])) if f == 1 else list(selected[f - 1])
        k, mode, gain = int(rng.integers(len(remaining))), "seed", None
        chosen, rows, level = [], [], None
        while True:
            pick = remaining.pop(k)
            y = simulate(f, pick)
            rows.append(y if f == 1 else y - outputs[f - 1, pick])
            chosen.append(pick)
            # params are those of the level that chose the pick; nll is the fit after it
            record = {
                "fidelity": f,
                "step": len(chosen),
                "pool_index": pick,
                "point": raw[pick].tolist(),
                "mode": mode,
                "gain": gain,
                "params": None if level is None else {
                    "amplitude": level.params.amplitude,
                    "weights": level.params.weights.tolist(),
                    "noise": level.params.noise,
                },
                "nll": None,
            }
            audit.append(record)
            ds = ResidualDataset(inputs=unit[chosen], residuals=np.array(rows))
            # a fidelity's first fit runs the full opt, later ones start at the last optimum
            warm = None if level is None else level.params
            level = fit_level(ds, opt if warm is None else warm_opt, jitter_rel=jitter_rel, init=warm)
            record["nll"] = level.fit_nll
            if len(chosen) == budgets[f - 1]:
                break
            if strategy == "variance":
                k, gain = select_next(level, unit[remaining])
                mode = "argmax"
            else:
                k, mode = int(rng.integers(len(remaining))), "random"
        levels.append(level)
        selected[f] = chosen

    data = MultiFidelityData(
        inputs=[raw[selected[f]] for f in selected],
        outputs=[np.array([outputs[f, i] for i in selected[f]]) for f in selected],
    )
    model = ResGPModel(levels, domain)
    return ConstructionResult(model=model, audit=audit, selected=selected, data=data)


def write_audit(audit: list, path: str) -> None:
    """Write audit records as line-delimited JSON (atomic)."""
    lines = [json.dumps(rec, sort_keys=True) for rec in audit]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_audit(path: str) -> list:
    """The records of a UTF-8 audit file, with or without a byte-order mark. Text that is
    not UTF-8 or a non-blank line that is not JSON raises a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"audit file {path}: not UTF-8 JSON lines: {exc}") from exc
