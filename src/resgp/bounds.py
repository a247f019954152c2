"""Deterministic uniform error bounds for univariate-output models.

These constants turn the pointwise posterior deviation into a guarantee over a
whole box: a Lipschitz constant for the posterior mean, a continuity modulus
for the posterior deviation, a covering number of the domain at grid constant
tau, and the resulting high-probability envelope

    |y(x) - mean(x)| <= sqrt(beta) * sigma(x) + gamma    for all x,

holding with probability at least 1 - delta under the model prior. All
quantities are computed in the raw coordinates of the caller's domain; kernel
weights are converted out of the model's normalized space first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals
from scipy.spatial import cKDTree

from .kernel import DomainBox, KernelHyperparams, check_array, check_integer, check_real, kernel_lipschitz
from .model import ResGPModel, predict

GRID_POINT_CAP = 10_000_000


class UnsupportedModelError(ValueError):
    """The bound machinery covers single-output models only."""


class ResourceLimitError(RuntimeError):
    """A requested grid would exceed the evaluation cap."""


@dataclass
class BoundConfig:
    """User inputs for the uniform bound.

    delta is the failure probability, tau the grid constant of the covering,
    l_y a Lipschitz constant of the true function on the domain (raw units),
    domain a hypercube (None stands for the model's own box).
    """

    delta: float
    tau: float
    l_y: float
    domain: DomainBox | None

    def __post_init__(self):
        self.delta = check_real(self.delta, "delta", "(0, 1)")
        self.tau = check_real(self.tau, "tau", "(0, inf)")
        self.l_y = check_real(self.l_y, "l_y", "[0, inf)")
        if self.domain is not None:  # the model's own box is checked when the bound is built
            _require_hypercube(self.domain)


@dataclass
class UniformBound:
    """Constants of the envelope sqrt(beta) * sigma(x) + gamma."""

    beta: float
    gamma: float
    l_mu: float
    omega_coeff: float
    covering: int

    def envelope(self, var):
        """sqrt(beta) * sigma + gamma for posterior variances var = sigma^2."""
        return math.sqrt(self.beta) * np.sqrt(np.asarray(var, dtype=float)) + self.gamma


def _require_hypercube(domain: DomainBox) -> None:
    if not domain.is_hypercube(1e-12):
        raise ValueError("covering bound requires a hypercubic domain (equal edge lengths)")


def _require_univariate(model: ResGPModel) -> None:
    if model.output_dim != 1:
        raise UnsupportedModelError(
            f"bounds require a single-output model, got d={model.output_dim}"
        )


def _level_constants(model: ResGPModel, domain: DomainBox) -> tuple[float, float]:
    """(L_mu, omega coefficient) summed over the levels in one pass, with each level's kernel
    Lipschitz constant L_k computed once in raw coordinates; |K^-1|_2 = 1 / sigma_min(L)^2."""
    l_mu = coeff = 0.0
    for lvl in model.levels:
        p = lvl.params
        raw = KernelHyperparams(p.amplitude, p.weights / model.domain.width**2, p.noise)
        l_k = kernel_lipschitz(raw, domain)
        l_mu += l_k * math.sqrt(lvl.n_points) * float(np.linalg.norm(lvl.alpha))
        inv_norm = 1.0 / float(np.min(svdvals(lvl.chol))) ** 2
        coeff += 2.0 * l_k * (1.0 + lvl.n_points * p.amplitude * inv_norm)
    return l_mu, coeff


def mean_lipschitz_bound(model: ResGPModel, domain: DomainBox | None = None) -> float:
    """Lipschitz constant of the posterior mean: sum over levels of
    L_k * sqrt(N) * |dual weights|."""
    _require_univariate(model)
    return _level_constants(model, domain or model.domain)[0]


def sigma_modulus(model: ResGPModel, r: float, domain: DomainBox | None = None) -> float:
    """Continuity modulus of the posterior deviation: omega(r) with
    omega(r)^2 = sum over levels of 2 L_k (1 + N * max_k * |K^-1|_2) * r."""
    _require_univariate(model)
    r = check_real(r, "r", "[0, inf)")
    return math.sqrt(_level_constants(model, domain or model.domain)[1] * r)


def covering_number_bound(domain: DomainBox, tau: float) -> int:
    """Upper bound ceil((1 + e/tau)^l) on the tau-covering number of a
    hypercube with edge length e."""
    if tau != math.inf:  # an infinite radius covers the box with one ball
        tau = check_real(tau, "tau", "(0, inf)")
    _require_hypercube(domain)
    edge = float(domain.width[0])
    value = (1.0 + edge / tau) ** domain.dim
    if not math.isfinite(value):
        raise OverflowError("covering number too large to represent")
    return int(math.ceil(value))


def fill_distance(design, domain: DomainBox, grid_resolution: int = 101) -> float:
    """Largest distance from a regular evaluation grid to the design.

    A lower estimate of the true fill distance; it improves as the grid
    refines. Grids beyond GRID_POINT_CAP points are refused.
    """
    pts = check_array(design, "design", 2)
    if pts.shape[0] == 0:
        raise ValueError("design must hold at least one point")
    if pts.shape[1] != domain.dim:
        raise ValueError("design dimension does not match domain")
    grid_resolution = check_integer(grid_resolution, "grid_resolution", 2)
    total = grid_resolution**domain.dim
    if total > GRID_POINT_CAP:
        raise ResourceLimitError(
            f"grid of {total} points exceeds the cap of {GRID_POINT_CAP}"
        )
    axes = [
        np.linspace(domain.lower[i], domain.upper[i], grid_resolution)
        for i in range(domain.dim)
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
    dists, _ = cKDTree(pts).query(mesh)
    return float(np.max(dists))


def uniform_bound(model: ResGPModel, cfg: BoundConfig):
    """Assemble the envelope constants and the pointwise bound function.

    The box is cfg.domain, or the model's own box when that is None. Returns
    (UniformBound, bound_fn) with bound_fn(x) = sqrt(beta) * sigma(x) + gamma
    for raw-coordinate queries, vectorized over rows.
    """
    _require_univariate(model)
    domain = cfg.domain or model.domain
    if domain.dim != model.input_dim:
        raise ValueError("config domain dimension does not match model")
    m_cov = covering_number_bound(domain, cfg.tau)
    beta = 2.0 * (math.log(m_cov) - math.log(cfg.delta))
    l_mu, omega_coeff = _level_constants(model, domain)
    omega_tau = math.sqrt(omega_coeff * cfg.tau)
    gamma = (l_mu + cfg.l_y) * cfg.tau + math.sqrt(beta) * omega_tau
    bound = UniformBound(beta=beta, gamma=gamma, l_mu=l_mu, omega_coeff=omega_coeff, covering=m_cov)
    return bound, lambda query: bound.envelope(predict(model, query).var)


def empirical_coverage(model: ResGPModel, bound_fn, query, truth) -> float:
    """Fraction of points where |truth - posterior mean| <= bound_fn."""
    _require_univariate(model)
    q = np.asarray(query, dtype=float)
    y = check_array(np.asarray(truth).reshape(-1), "truth", 1)
    post = predict(model, q)
    mean = np.asarray(post.mean, dtype=float).reshape(-1)
    g = np.asarray(bound_fn(q), dtype=float).reshape(-1)
    if mean.size != y.size:
        raise ValueError("truth length does not match query count")
    return float(np.mean(np.abs(y - mean) <= g))
