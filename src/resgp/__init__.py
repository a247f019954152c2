"""Multi-fidelity Gaussian process regression via additive residual levels.

A surrogate at fidelity f is the sum of independent GPs fitted to the
per-level residuals of a nested design. The package covers exact inference
with an ARD squared-exponential kernel, marginal likelihood fitting,
variance-driven sequential design, uniform error bounds for single-output
models of any input dimension, and a suite of synthetic benchmarks.
"""

from .active import (
    ConstructionResult,
    OracleError,
    read_audit,
    select_next,
    sequential_construct,
    write_audit,
)
from .benchmarks import (
    BENCHMARKS,
    DEFAULT_BUDGETS,
    BenchmarkSpec,
    DatasetFormatError,
    Metrics,
    design_uniform,
    evaluate,
    get_benchmark,
    metrics,
    nested_random_data,
    nested_subsample,
    pendulum_energy,
    pendulum_trajectory,
    read_dataset_csv,
    run_benchmark_case,
    standardization_scale,
    write_dataset_csv,
)
from .bounds import (
    BoundConfig,
    UniformBound,
    UnsupportedModelError,
    covering_number_bound,
    empirical_coverage,
    mean_lipschitz_bound,
    uniform_bound,
)
from .gp_level import (
    IllConditionedError,
    OptimizerConfig,
    ResidualDataset,
    TrainedLevel,
    build_level,
    fit_level,
    level_predict,
    neg_log_likelihood,
    nll_gradient,
)
from .kernel import (
    DEFAULT_JITTER_REL,
    DomainBox,
    KernelHyperparams,
    cross_vec,
    gram,
    kernel_lipschitz,
)
from .model import (
    MultiFidelityData,
    NestingError,
    Posterior,
    ResGPModel,
    compute_residuals,
    load_model,
    nesting_check,
    predict,
    predict_fidelity,
    save_model,
    train,
)

__version__ = "0.1.0"
