"""Monte Carlo estimation of the expected value of perfect and partial
perfect information for finite-decision models, with nested and randomized
multilevel estimators, a closed-form Gaussian benchmark, and a
convergence-study harness.

Result types and helpers that callers only receive or that serve the
library itself (`EstimateResult`, `ConvergenceReport`, `nested_allocation`,
`fit_slope`, ...) stay importable from their modules."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported on
# first use (PEP 562), so `import voimc` loads no submodule and no numpy.
_MODULE_OF = {
    "BudgetExhaustedError": "levels",
    "ConfigError": "gaussian",
    "DecisionModel": "model",
    "ESTIMATOR_NAMES": "validate",
    "ExperimentPlan": "experiment",
    "FactoredSampler": "model",
    "GaussianLinearModel": "gaussian",
    "LevelDistribution": "levels",
    "PayoffEvaluationError": "model",
    "PriorSampler": "model",
    "RngStream": "rng",
    "analytic_evppi": "gaussian",
    "draws_for_budget": "levels",
    "evpi_mlmc": "estimators",
    "evpi_nested": "estimators",
    "evppi_mlmc": "estimators",
    "evppi_nested": "estimators",
    "load_model_config": "gaussian",
    "make_gaussian_model": "gaussian",
    "optimal_ratio": "levels",
    "render_csv": "experiment",
    "run_plan": "experiment",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
