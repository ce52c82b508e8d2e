"""Monte Carlo estimation of the expected value of perfect and partial
perfect information for finite-decision models, with nested and randomized
multilevel estimators, a closed-form Gaussian benchmark, and a
convergence-study harness."""

from .estimators import (
    EstimateResult,
    LevelStats,
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    nested_allocation,
)
from .experiment import (
    ESTIMATOR_NAMES,
    BudgetSummary,
    ConvergenceReport,
    ExperimentPlan,
    ReplicateRecord,
    fit_slope,
    render_csv,
    run_plan,
    summarize,
    write_csv,
)
from .gaussian import (
    ConfigError,
    GaussianLinearModel,
    analytic_evpi,
    analytic_evppi,
    evppi_from_moments,
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
    "BudgetSummary",
    "ConfigError",
    "ConvergenceReport",
    "DecisionModel",
    "ESTIMATOR_NAMES",
    "EstimateResult",
    "ExperimentPlan",
    "FactoredSampler",
    "GaussianLinearModel",
    "LevelDistribution",
    "LevelStats",
    "PayoffEvaluationError",
    "PriorSampler",
    "ReplicateRecord",
    "RngStream",
    "analytic_evpi",
    "analytic_evppi",
    "draws_for_budget",
    "evpi_mlmc",
    "evpi_nested",
    "evppi_from_moments",
    "evppi_mlmc",
    "evppi_nested",
    "fit_slope",
    "load_model_config",
    "make_gaussian_model",
    "nested_allocation",
    "optimal_ratio",
    "render_csv",
    "run_plan",
    "summarize",
    "write_csv",
]
