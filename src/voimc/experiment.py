"""Replication engine: budget grids, summary statistics, plot-ready CSV.

A plan names one estimator, a budget grid and a replication count; running it
executes every (budget, replication) cell on its own random stream (keyed by
budget value and replication index, never by execution order), summarizes each
budget against the model's closed-form truth, and fits a log-log slope of
RMSE against budget.  Output is deterministic for a fixed seed, byte for byte,
regardless of the worker count.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import (
    EstimateResult,
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    nested_allocation,
)
from .gaussian import (
    _validate_subset,
    analytic_evppi,
    load_model_config,
    make_gaussian_model,
)
from .levels import BudgetExhaustedError, LevelDistribution, optimal_ratio
from .rng import RngStream
from .validate import ESTIMATOR_NAMES, _check_choice, _check_int

__all__ = [
    "ExperimentPlan",
    "ReplicateRecord",
    "BudgetSummary",
    "ConvergenceReport",
    "summarize",
    "fit_slope",
    "run_plan",
    "run_estimator",
    "run_replication",
    "render_csv",
]

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
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice(self.estimator, "estimator", ESTIMATOR_NAMES)
        if len(self.budgets) == 0:
            raise ValueError("at least one budget is required")
        for budget in self.budgets:
            _check_int(budget, "budget", 1)
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        _check_int(self.replications, "replications", 1)
        _check_int(self.seed, "seed", 0)
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


def _quartiles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, [0, .25, .5, .75, 1])`` bit for bit: numpy
    2.4's linear method, with its ``kth`` set built as a sorted list, since
    the ``np.unique`` that numpy builds it with loads ``numpy.ma``.

    The same partition of a copy, the same neighbours (both the last entry
    from the last index on) and the same two-sided lerp; a NaN, partitioned
    last, makes every quantile NaN.
    """
    last = values.shape[0] - 1
    virtual = last * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    top = virtual >= last
    below[top] = above[top] = -1
    arr = values.copy()
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    lo, hi, t = arr[below], arr[above], virtual - below
    diff = hi - lo
    qs = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=qs, where=t >= 0.5)
    if np.isnan(arr[-1]):
        qs[:] = arr[-1]
    return qs


def summarize(estimates, truth: float) -> BudgetSummary:
    """Quantiles (linear interpolation, type-7), mean, and RMSE against truth."""
    values = np.asarray(list(estimates), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one estimate to summarize")
    qs = _quartiles(values)
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


def run_estimator(
    estimator: str, models: tuple, dist: LevelDistribution, budget: int,
    rng: RngStream, *, budget_rule: str,
) -> EstimateResult:
    """One call of ``estimator`` on ``models`` (model, prior, factored), with
    ``budget`` split as a study splits it: evpi-nested takes ``budget`` outer
    and baseline draws, evppi-nested the `nested_allocation` of ``budget`` and
    a ``budget``-draw baseline, and a multilevel name spends ``budget`` on
    levels of ``dist`` under ``budget_rule``, one variant for both parts."""
    _check_choice(estimator, "estimator", ESTIMATOR_NAMES)
    model, prior, factored = models
    kind, variant = estimator.split("-")
    if estimator == "evpi-nested":
        return evpi_nested(
            model, prior, outer_draws=budget, baseline_draws=budget, rng=rng
        )
    if estimator == "evppi-nested":
        inner, outer = nested_allocation(budget)
        return evppi_nested(
            model, factored, prior, outer_draws=outer, inner_draws=inner,
            baseline_draws=budget, rng=rng,
        )
    if kind == "evpi":
        return evpi_mlmc(
            model, prior, dist, budget, variant, rng, budget_rule=budget_rule
        )
    return evppi_mlmc(
        model, factored, prior, dist, budget, variant, variant, rng=rng,
        budget_rule=budget_rule,
    )


def run_replication(
    plan: ExperimentPlan, models: tuple, budget: int, replication: int
) -> ReplicateRecord:
    """One (budget, replication) cell of ``plan`` on its own stream and the
    ``models`` `run_plan` builds once, run by `run_estimator` under the prefix
    rule, so that it never costs more than its budget."""
    stream = RngStream(plan.seed).child(budget, replication)
    dist = LevelDistribution(plan.base, plan.level_ratio)
    try:
        result = run_estimator(
            plan.estimator, models, dist, budget, stream, budget_rule="prefix"
        )
    except BudgetExhaustedError:
        return ReplicateRecord(replication, None, 0, 0)
    return ReplicateRecord(
        replication, result.estimate, result.cost_used, result.n_draws
    )


def _resolve_model(plan: ExperimentPlan):
    """Model config, the subset the run reveals, its truth, and the subset to
    record: ``plan.subset`` if given, else the model file's, in increasing
    order.  A named subset must fit the model for every estimator, since the
    CSV records it."""
    config, file_subset = load_model_config(plan.model_config)
    named = plan.subset if plan.subset is not None else file_subset
    if named is not None:
        named = _validate_subset(config, named)
    if not plan.needs_subset:
        subset = range(1, config.dimension + 1)  # perfect information
    elif named:
        subset = named
    else:
        raise ValueError(
            f"estimator {plan.estimator!r} needs a non-empty revealed subset"
        )
    return config, tuple(subset), analytic_evppi(config, subset), named


def _child(cell, jobs, fd: int) -> None:
    """A forked child's life: run ``jobs``, write ``(True, outcomes)`` or
    ``(False, exc)`` pickled to ``fd``, and leave through ``os._exit``, so
    no atexit handler runs and no inherited stdio buffer is flushed.  A
    payload that fails to pickle is not written."""
    code = 1
    try:
        try:
            payload = (True, [cell(*job) for job in jobs])
        except BaseException as exc:
            payload = (False, exc)
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def _reap(children: list[tuple[int, int]], kill: bool = False) -> int:
    """Close the first child's pipe, kill the child if ``kill``, wait for
    it, and return its exit code (a signal that ended it, negated)."""
    pid, fd = children.pop(0)
    os.close(fd)
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_cells(cell, jobs: list[tuple], workers: int) -> list:
    """``[cell(*job) for job in jobs]``, with job i run in process i % workers.

    The caller is process 0: it forks the other ``workers - 1``, runs its
    own share, then reads each child's pickled outcomes from a pipe and
    reaps the child.  A child's cell error is raised here with its type and
    message; a child that sends no readable outcomes raises a RuntimeError
    that names it.  Whatever fails, in the caller or in a child, every child
    not yet reaped is killed and reaped and every pipe is closed before the
    error leaves.  Where ``os.fork`` is missing the caller runs every job.
    """
    if not hasattr(os, "fork"):
        workers = 1
    children: list[tuple[int, int]] = []  # (pid, read end), not yet reaped
    try:
        for first in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(cell, jobs[first::workers], write)  # never returns
            children.append((pid, read))
            os.close(write)
        shares = [[cell(*job) for job in jobs[::workers]]]
        while children:
            pid, fd = children[0]
            data = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
            code = _reap(children)
            try:
                ok, value = pickle.loads(data)
            except Exception:
                raise RuntimeError(
                    f"study worker process {pid} exited with code {code} "
                    "without sending readable outcomes"
                ) from None
            if not ok:
                raise value
            shares.append(value)
    finally:
        while children:
            _reap(children, kill=True)
    return [shares[i % workers][i // workers] for i in range(len(jobs))]


def run_plan(plan: ExperimentPlan, workers: int = 1) -> ConvergenceReport:
    """Execute a plan; deterministic for a fixed seed at any worker count.

    The plan's model is built once, before any fork, and shared by every
    cell.  The cells run in `_run_cells` over at most one process per cell:
    the calling process and ``workers - 1`` forked children, each cell on
    its own (budget, replication) stream, so the outcomes do not depend on
    the split.  It forks while its own call runs no other thread, since a
    nested estimator call joins its helper thread before it returns; a
    caller that runs threads of its own should pass ``workers=1``.
    Raises ValueError unless ``workers`` is a positive integer, and
    BudgetExhaustedError when every replication of some budget ran out
    before its first draw.
    """
    workers = _check_int(workers, "workers", 1)
    config, subset, truth, named = _resolve_model(plan)
    models = make_gaussian_model(config, subset)
    cell = functools.partial(run_replication, plan, models)
    reps = range(1, plan.replications + 1)
    jobs = [(budget, rep) for budget in plan.budgets for rep in reps]
    outcomes = _run_cells(cell, jobs, min(workers, len(jobs)))

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
            fields = (plan.estimator, budget, row.replication, row.estimate)
            fields += (report.truth, row.cost_used, row.n_draws)
            lines.append(",".join(map(_fmt, fields)))
    for budget in plan.budgets:
        s = report.per_budget[budget]
        fields = ("#SUMMARY", budget, s.minimum, s.q1, s.median, s.q3, s.maximum)
        lines.append(",".join(map(_fmt, fields + (s.mean, s.rmse))))
    lines.append(f"#SLOPE,{_fmt(report.slope)}")
    return "\n".join(lines) + "\n"
