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
    l_y a Lipschitz constant of the true function on the domain (raw units).
    """

    delta: float
    tau: float
    l_y: float
    domain: DomainBox

    def __post_init__(self):
        self.delta = check_real(self.delta, "delta", "(0, 1)")
        self.tau = check_real(self.tau, "tau", "(0, inf)")
        self.l_y = check_real(self.l_y, "l_y", "[0, inf)")


@dataclass
class UniformBound:
    """Constants of the envelope sqrt(beta) * sigma(x) + gamma."""

    beta: float
    gamma: float
    l_mu: float
    omega_coeff: float
    covering: int


def _raw_params(model: ResGPModel, level) -> KernelHyperparams:
    """Level hyperparameters re-expressed in raw (unnormalized) coordinates."""
    width = model.domain.width
    return KernelHyperparams(
        amplitude=level.params.amplitude,
        weights=level.params.weights / width**2,
        noise=level.params.noise,
    )


def _require_univariate(model: ResGPModel) -> None:
    if model.output_dim != 1:
        raise UnsupportedModelError(
            f"bounds require a single-output model, got d={model.output_dim}"
        )


def mean_lipschitz_bound(model: ResGPModel, domain: DomainBox | None = None) -> float:
    """Lipschitz constant of the posterior mean: sum over levels of
    L_k * sqrt(N) * |dual weights|."""
    _require_univariate(model)
    if domain is None:
        domain = model.domain
    total = 0.0
    for lvl in model.levels:
        raw = _raw_params(model, lvl)
        l_k = kernel_lipschitz(raw, domain)
        total += l_k * math.sqrt(lvl.n_points) * float(np.linalg.norm(lvl.alpha))
    return total


def _modulus_coefficient(model: ResGPModel, domain: DomainBox) -> float:
    coeff = 0.0
    for lvl in model.levels:
        raw = _raw_params(model, lvl)
        l_k = kernel_lipschitz(raw, domain)
        sigma_min = float(np.min(svdvals(lvl.chol))) ** 2
        inv_norm = 1.0 / sigma_min
        coeff += 2.0 * l_k * (1.0 + lvl.n_points * lvl.params.amplitude * inv_norm)
    return coeff


def sigma_modulus(model: ResGPModel, r: float, domain: DomainBox | None = None) -> float:
    """Continuity modulus of the posterior deviation: omega(r) with
    omega(r)^2 = sum over levels of 2 L_k (1 + N * max_k * |K^-1|_2) * r."""
    _require_univariate(model)
    r = check_real(r, "r", "[0, inf)")
    if domain is None:
        domain = model.domain
    return math.sqrt(_modulus_coefficient(model, domain) * r)


def covering_number_bound(domain: DomainBox, tau: float) -> int:
    """Upper bound ceil((1 + e/tau)^l) on the tau-covering number of a
    hypercube with edge length e."""
    if tau != math.inf:  # an infinite radius covers the box with one ball
        tau = check_real(tau, "tau", "(0, inf)")
    if not domain.is_hypercube(1e-12):
        raise ValueError(
            "covering bound requires a hypercubic domain (equal edge lengths)"
        )
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

    Returns (UniformBound, bound_fn) with bound_fn(x) = sqrt(beta) * sigma(x)
    + gamma for raw-coordinate queries, vectorized over rows.
    """
    _require_univariate(model)
    if cfg.domain.dim != model.input_dim:
        raise ValueError("config domain dimension does not match model")
    m_cov = covering_number_bound(cfg.domain, cfg.tau)
    beta = 2.0 * (math.log(m_cov) - math.log(cfg.delta))
    l_mu = mean_lipschitz_bound(model, cfg.domain)
    omega_coeff = _modulus_coefficient(model, cfg.domain)
    omega_tau = math.sqrt(omega_coeff * cfg.tau)
    gamma = (l_mu + cfg.l_y) * cfg.tau + math.sqrt(beta) * omega_tau
    result = UniformBound(
        beta=beta, gamma=gamma, l_mu=l_mu, omega_coeff=omega_coeff, covering=m_cov
    )
    sqrt_beta = math.sqrt(beta)

    def bound_fn(query):
        post = predict(model, query)
        sigma = np.sqrt(np.asarray(post.var, dtype=float))
        return sqrt_beta * sigma + gamma

    return result, bound_fn


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
