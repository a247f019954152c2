"""
Uniform error bounds for a univariate model
===========================================

Fit a three-fidelity model to a one-dimensional slice of the Branin chain
and compute a bound g with |y - mean| <= g everywhere on the domain with
probability 1 - delta. Emits a plot-ready curve as CSV.
"""

import csv

import numpy as np

from resgp import (
    BoundConfig,
    DomainBox,
    MultiFidelityData,
    OptimizerConfig,
    empirical_coverage,
    evaluate,
    predict,
    train,
    uniform_bound,
)

domain = DomainBox(np.array([-5.0]), np.array([10.0]))


def slice_eval(fidelity, x1):
    # freeze the second coordinate at mid-domain
    pts = np.column_stack([x1, np.full(len(x1), 7.5)])
    return evaluate("branin3", fidelity, pts)


rng = np.random.default_rng(0)
x1 = np.sort(rng.uniform(-5.0, 10.0, 30))
designs = [x1[:, None], x1[:15][:, None], x1[:8][:, None]]
data = MultiFidelityData(
    inputs=designs,
    outputs=[slice_eval(f, d[:, 0]) for f, d in enumerate(designs, start=1)],
)
model = train(data, OptimizerConfig(seed=0), domain=domain)

# the output Lipschitz constant comes from a dense finite-difference sweep
dense = np.linspace(-5.0, 10.0, 100001)
dense_y = slice_eval(3, dense)[:, 0]
l_y = float(np.max(np.abs(np.diff(dense_y) / np.diff(dense))))

cfg = BoundConfig(delta=0.05, tau=1e-3, l_y=l_y, domain=domain)
bound = uniform_bound(model, cfg)
print(f"output Lipschitz estimate L_y = {l_y:.2f}")
print(f"covering number M = {bound.covering}, beta = {bound.beta:.2f}")
print(f"mean Lipschitz bound L_mu = {bound.l_mu:.3g}, gamma = {bound.gamma:.3g}")

grid = np.linspace(-5.0, 10.0, 10_000)[:, None]
truth = slice_eval(3, grid[:, 0])
coverage = empirical_coverage(model, bound, grid, truth)
print(f"empirical coverage on a 10^4 grid: {coverage:.4f} (target >= 0.95)")

post = predict(model, grid)
g = bound.envelope(post.var)
with open("bound_curve.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x1", "truth", "mean", "bound"])
    for i in range(0, grid.shape[0], 20):
        writer.writerow(
            [grid[i, 0], truth[i, 0], np.atleast_2d(post.mean)[i, 0], g[i]]
        )
print("wrote bound_curve.csv (x, truth, mean, bound)")
