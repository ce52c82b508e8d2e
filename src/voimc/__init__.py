"""Monte Carlo estimation of the expected value of perfect and partial
perfect information for finite-decision models, with nested and randomized
multilevel estimators, a closed-form Gaussian benchmark, and a
convergence-study harness.

Result types and helpers that callers only receive or that serve the
library itself (`EstimateResult`, `ConvergenceReport`, `nested_allocation`,
`fit_slope`, ...) stay importable from their modules."""

from .estimators import evpi_mlmc, evpi_nested, evppi_mlmc, evppi_nested
from .experiment import ESTIMATOR_NAMES, ExperimentPlan, render_csv, run_plan
from .gaussian import (
    ConfigError,
    GaussianLinearModel,
    analytic_evppi,
    load_model_config,
    make_gaussian_model,
)
from .levels import (
    BudgetExhaustedError,
    LevelDistribution,
    draws_for_budget,
    optimal_ratio,
)
from .model import (
    DecisionModel,
    FactoredSampler,
    PayoffEvaluationError,
    PriorSampler,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "ConfigError",
    "DecisionModel",
    "ESTIMATOR_NAMES",
    "ExperimentPlan",
    "FactoredSampler",
    "GaussianLinearModel",
    "LevelDistribution",
    "PayoffEvaluationError",
    "PriorSampler",
    "RngStream",
    "analytic_evppi",
    "draws_for_budget",
    "evpi_mlmc",
    "evpi_nested",
    "evppi_mlmc",
    "evppi_nested",
    "load_model_config",
    "make_gaussian_model",
    "optimal_ratio",
    "render_csv",
    "run_plan",
]
