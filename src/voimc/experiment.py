"""Replication engine: budget grids, summary statistics, plot-ready CSV.

A plan names one estimator, a budget grid and a replication count; running it
executes every (budget, replication) cell on its own random stream (keyed by
budget value and replication index, never by execution order), summarizes each
budget against the model's closed-form truth, and fits a log-log slope of
RMSE against budget.  Output is deterministic for a fixed seed, byte for byte,
regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import (
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    nested_allocation,
)
from .gaussian import (
    GaussianLinearModel,
    analytic_evppi,
    load_model_config,
    make_gaussian_model,
)
from .levels import BudgetExhaustedError, LevelDistribution, optimal_ratio
from .rng import RngStream

__all__ = [
    "ESTIMATOR_NAMES",
    "ExperimentPlan",
    "ReplicateRecord",
    "BudgetSummary",
    "ConvergenceReport",
    "summarize",
    "fit_slope",
    "run_plan",
    "run_replication",
    "render_csv",
    "write_csv",
]

ESTIMATOR_NAMES = (
    "evpi-nested",
    "evpi-single",
    "evpi-coupled",
    "evppi-nested",
    "evppi-single",
    "evppi-coupled",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """One estimator swept over a budget grid with repeated runs."""

    estimator: str
    budgets: tuple[int, ...]
    replications: int
    model_config: str
    subset: tuple[int, ...] | None = None
    base: int = 2
    ratio: float | None = None  # None: optimal_ratio(base, 1)
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(
                f"estimator must be one of {ESTIMATOR_NAMES}, got {self.estimator!r}"
            )
        if len(self.budgets) == 0:
            raise ValueError("at least one budget is required")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        if self.budgets[0] < 1:
            raise ValueError("budgets must be positive")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        # checked for every estimator, so a bad level law fails before any
        # worker starts or any CSV is written
        LevelDistribution(self.base, self.level_ratio)

    @property
    def level_ratio(self) -> float:
        return optimal_ratio(self.base, 1.0) if self.ratio is None else self.ratio

    @property
    def needs_subset(self) -> bool:
        return self.estimator.startswith("evppi")


@dataclass(frozen=True)
class ReplicateRecord:
    """One replication's outcome; ``estimate`` is None if the budget was
    exhausted before the first draw."""

    replication: int
    estimate: float | None
    cost_used: int
    n_draws: int


@dataclass(frozen=True)
class BudgetSummary:
    """Spread and accuracy of one budget's replication estimates."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    rmse: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything `run_plan` produces: truth, per-budget summaries, records,
    the fitted RMSE-vs-budget slope (nan with fewer than two usable points),
    and the revealed subset the plan or its model file names (None if
    neither does)."""

    truth: float
    per_budget: dict[int, BudgetSummary]
    records: dict[int, tuple[ReplicateRecord, ...]]
    slope: float
    subset: tuple[int, ...] | None


def summarize(estimates, truth: float) -> BudgetSummary:
    """Quantiles (linear interpolation, type-7), mean, and RMSE against truth."""
    values = np.asarray(list(estimates), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one estimate to summarize")
    qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    rmse = math.sqrt(float(np.mean((values - truth) ** 2)))
    return BudgetSummary(
        minimum=float(qs[0]),
        q1=float(qs[1]),
        median=float(qs[2]),
        q3=float(qs[3]),
        maximum=float(qs[4]),
        mean=float(np.mean(values)),
        rmse=rmse,
    )


def fit_slope(points) -> float:
    """Least-squares slope of log RMSE on log budget, negated so bigger is better.

    Points with non-positive RMSE are dropped; nan if fewer than two remain.
    """
    usable = [(c, e) for c, e in points if e > 0.0]
    if len(usable) < 2:
        return float("nan")
    logs_c = np.log([c for c, _ in usable])
    logs_e = np.log([e for _, e in usable])
    slope = np.polyfit(logs_c, logs_e, 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class _ReplicationTask:
    """Everything one worker needs; picklable so pools can run it anywhere."""

    plan: ExperimentPlan
    config: GaussianLinearModel
    subset: tuple[int, ...]
    budget: int
    replication: int


def run_replication(task: _ReplicationTask) -> ReplicateRecord:
    """Run one (budget, replication) cell on its own stream.

    Multilevel cells spend their budget through the prefix rule, so a
    replication never costs more than its budget.
    """
    plan = task.plan
    model, prior, factored = make_gaussian_model(task.config, task.subset)
    stream = RngStream(plan.seed).child(task.budget, task.replication)
    try:
        if plan.estimator == "evpi-nested":
            result = evpi_nested(
                model,
                prior,
                outer_draws=task.budget,
                baseline_draws=task.budget,
                rng=stream,
            )
        elif plan.estimator == "evppi-nested":
            inner, outer = nested_allocation(task.budget, plan.gamma)
            result = evppi_nested(
                model,
                factored,
                prior,
                outer_draws=outer,
                inner_draws=inner,
                baseline_draws=task.budget,
                rng=stream,
            )
        else:
            dist = LevelDistribution(plan.base, plan.level_ratio)
            variant = plan.estimator.rsplit("-", 1)[1]
            if plan.estimator.startswith("evpi-"):
                result = evpi_mlmc(
                    model,
                    prior,
                    dist,
                    task.budget,
                    variant,
                    stream,
                    budget_rule="prefix",
                )
            else:
                result = evppi_mlmc(
                    model,
                    factored,
                    prior,
                    dist,
                    task.budget,
                    variant_y=variant,
                    variant_z=variant,
                    rng=stream,
                    budget_rule="prefix",
                )
    except BudgetExhaustedError:
        return ReplicateRecord(task.replication, None, 0, 0)
    return ReplicateRecord(
        task.replication, result.estimate, result.cost_used, result.n_draws
    )


def _resolve_model(plan: ExperimentPlan):
    """Model config, the subset the run reveals, its truth, and the subset to
    record: ``plan.subset`` if given, else the model file's."""
    config, file_subset = load_model_config(plan.model_config)
    named = plan.subset if plan.subset is not None else file_subset
    if not plan.needs_subset:
        subset = range(1, config.dimension + 1)  # perfect information
    elif named:
        subset = named
    else:
        raise ValueError(
            f"estimator {plan.estimator!r} needs a non-empty revealed subset"
        )
    return config, tuple(subset), analytic_evppi(config, subset), named


def run_plan(plan: ExperimentPlan, workers: int = 1) -> ConvergenceReport:
    """Execute a plan; deterministic for a fixed seed at any worker count.

    Raises ValueError when ``workers`` is below 1, and BudgetExhaustedError
    when every replication of some budget ran out before its first draw.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config, subset, truth, named = _resolve_model(plan)
    tasks = [
        _ReplicationTask(plan, config, subset, budget, rep)
        for budget in plan.budgets
        for rep in range(1, plan.replications + 1)
    ]
    if workers == 1:
        outcomes = [run_replication(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            outcomes = list(pool.map(run_replication, tasks, chunksize=chunk))

    records: dict[int, tuple[ReplicateRecord, ...]] = {}
    per_budget: dict[int, BudgetSummary] = {}
    for i, budget in enumerate(plan.budgets):
        rows = tuple(outcomes[i * plan.replications : (i + 1) * plan.replications])
        records[budget] = rows
        estimates = [r.estimate for r in rows if r.estimate is not None]
        if not estimates:
            raise BudgetExhaustedError(
                f"all {plan.replications} replication(s) at budget {budget} "
                "were exhausted before their first draw"
            )
        per_budget[budget] = summarize(estimates, truth)

    slope = fit_slope((b, s.rmse) for b, s in per_budget.items())
    return ConvergenceReport(
        truth=truth, per_budget=per_budget, records=records, slope=slope, subset=named
    )


def _fmt(value) -> str:
    """Full-precision, locale-free rendering of one CSV field."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: ConvergenceReport, plan: ExperimentPlan) -> str:
    """Render one plan's report in the stable CSV layout.

    Leading ``#CONFIG`` lines record the run configuration (including the
    note that nested runs price their baseline term on top of the budget),
    then one row per replication, a ``#SUMMARY`` line per budget, and a final
    ``#SLOPE`` line.  Identical plans produce identical bytes.
    """
    lines: list[str] = []
    meta = [
        ("estimator", plan.estimator),
        ("budgets", "|".join(str(b) for b in plan.budgets)),
        ("replications", plan.replications),
        ("model", Path(plan.model_config).name),
        ("subset", "|".join(str(s) for s in report.subset or ())),
        ("base", plan.base),
        ("ratio", repr(plan.level_ratio)),
        ("gamma", repr(float(plan.gamma))),
        ("seed", plan.seed),
        ("truth", repr(report.truth)),
    ]
    if plan.estimator.endswith("nested"):
        meta.append(
            (
                "note",
                "nested runs price the baseline term separately;"
                " cost_used exceeds the nominal budget",
            )
        )
    for key, value in meta:
        lines.append(f"#CONFIG,{key},{value}")
    lines.append("estimator,budget,replication,estimate,truth,cost_used,n_draws")
    for budget in plan.budgets:
        for row in report.records[budget]:
            lines.append(
                ",".join(
                    [
                        plan.estimator,
                        str(budget),
                        str(row.replication),
                        _fmt(row.estimate),
                        _fmt(report.truth),
                        str(row.cost_used),
                        str(row.n_draws),
                    ]
                )
            )
    for budget in plan.budgets:
        s = report.per_budget[budget]
        lines.append(
            ",".join(
                [
                    "#SUMMARY",
                    str(budget),
                    _fmt(s.minimum),
                    _fmt(s.q1),
                    _fmt(s.median),
                    _fmt(s.q3),
                    _fmt(s.maximum),
                    _fmt(s.mean),
                    _fmt(s.rmse),
                ]
            )
        )
    lines.append(f"#SLOPE,{_fmt(report.slope)}")
    return "\n".join(lines) + "\n"


def write_csv(report: ConvergenceReport, plan: ExperimentPlan, path) -> None:
    """Write `render_csv` output to ``path`` with stable newlines."""
    with open(path, "w", newline="\n") as handle:
        handle.write(render_csv(report, plan))
