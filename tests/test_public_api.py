"""The names the package exports: a change to this list is a change to the API."""

import dataclasses
import types

import resgp
from resgp import OptimizerConfig

PUBLIC_NAMES = {
    # active
    "ConstructionResult", "OracleError", "read_audit", "select_next",
    "sequential_construct", "write_audit",
    # benchmarks
    "BENCHMARKS", "DEFAULT_BUDGETS", "BenchmarkSpec", "DatasetFormatError", "Metrics",
    "design_uniform", "evaluate", "get_benchmark", "metrics", "nested_random_data",
    "nested_subsample", "pendulum_energy", "pendulum_trajectory", "read_dataset_csv",
    "run_benchmark_case", "standardization_scale", "write_dataset_csv",
    # bounds
    "BoundConfig", "UniformBound", "UnsupportedModelError", "covering_number_bound",
    "empirical_coverage", "mean_lipschitz_bound", "uniform_bound",
    # gp_level
    "IllConditionedError", "OptimizerConfig", "ResidualDataset", "TrainedLevel", "build_level",
    "fit_level", "level_predict", "neg_log_likelihood", "nll_gradient",
    # kernel
    "DEFAULT_JITTER_REL", "DomainBox", "KernelHyperparams", "cross_vec", "gram",
    "kernel_lipschitz",
    # model
    "MultiFidelityData", "NestingError", "Posterior", "ResGPModel", "compute_residuals",
    "load_model", "nesting_check", "predict", "predict_fidelity", "save_model", "train",
}


def test_package_exports_exactly_the_listed_names():
    exported = {name for name, value in vars(resgp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_optimizer_config_sets_only_restarts_and_seed():
    # every L-BFGS-B setting is a constant of resgp.gp_level
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["restarts", "seed"]
