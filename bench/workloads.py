"""The benchmark's workloads: fixed lists of operations built from a seed.

An operation is either an in-process estimator call (`EstimatorOp`) or one
`voimc` command run as a child process (`CliOp`).  Each returns an `Outcome`
carrying the payoff evaluations it consumed, whether it failed, and the
errors its output checks found.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from voimc import (
    BudgetExhaustedError,
    ExperimentPlan,
    LevelDistribution,
    RngStream,
    evpi_mlmc,
    evpi_nested,
    evppi_mlmc,
    evppi_nested,
    load_model_config,
    make_gaussian_model,
)

import checks
from tracing import TracedFactored, TracedLevels, TracedModel, TracedPrior, TracedStream, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
OFFSET_MODEL = BENCH_DIR / "models" / "offset.json"
TIE_MODEL = ROOT / "scripts" / "benchmark_model.json"

BASE = 2
RATIO = 2.0**-1.5
SUBSET = (1, 2)

ESTIMATORS = (
    "evpi-nested",
    "evpi-single",
    "evpi-coupled",
    "evppi-nested",
    "evppi-single",
    "evppi-coupled",
)
STUDY_ESTIMATORS = ("evppi-nested", "evppi-coupled")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `FULL` is the benchmark, `TINY` the smoke tests."""

    mlmc_budget: int = 2**16
    nested_budget: int = 2**22
    study_budgets: tuple[int, ...] = (256, 1024, 4096)
    study_reps: int = 16
    probe_mlmc_budget: int = 2**14
    probe_nested_budget: int = 2**18
    draws_for_budget_budget: int = 2**15
    setup_repeats: int = 7
    timing_repeats: int = 5
    trace_pairs: int = 2


FULL = Sizes()
TINY = Sizes(
    mlmc_budget=2**8,
    nested_budget=2**10,
    study_budgets=(16, 64),
    study_reps=2,
    probe_mlmc_budget=2**8,
    probe_nested_budget=2**10,
    draws_for_budget_budget=2**10,
    setup_repeats=1,
    timing_repeats=1,
    trace_pairs=1,
)


@dataclass
class Outcome:
    # Payoff evaluations the operation is credited with: its realized
    # cost_used, except that an expected-rule multilevel run is credited its
    # expected cost.  At ratio 2**-1.5 the realized cost of such a run has
    # infinite variance (ratio * base**2 > 1), so one rare deep level would
    # swing a throughput figure by tens of percent between seeds.
    evals: float = 0
    failed: bool = False
    errors: list[str] = field(default_factory=list)
    fingerprint: object = None  # equal across repeats of a deterministic op
    peak_rss_kib: int = 0


@dataclass(frozen=True)
class Inputs:
    """The model objects one workload hands to the estimators."""

    config: object
    model: object
    prior: object
    factored: object
    dist: object

    @classmethod
    def load(cls, path: Path) -> "Inputs":
        config, _ = load_model_config(path)
        model, prior, factored = make_gaussian_model(config, SUBSET)
        return cls(config, model, prior, factored, LevelDistribution(BASE, RATIO))

    def traced(self, tracer: Tracer) -> "Inputs":
        return Inputs(
            self.config,
            TracedModel(self.model, tracer),
            TracedPrior(self.prior, tracer),
            TracedFactored(self.factored, tracer),
            TracedLevels(self.dist, tracer),
        )


@dataclass(frozen=True)
class EstimatorOp:
    """One estimator call.

    Multilevel ops spend ``budget`` under ``rule``; nested ops take
    ``outer`` outer draws (``inner`` inner draws each for evppi-nested) and a
    ``baseline``-draw baseline term.
    """

    estimator: str
    stream: RngStream
    budget: int = 0
    rule: str = "expected"
    outer: int = 0
    inner: int = 0
    baseline: int = 0

    def call(self, inputs: Inputs, stream):
        if self.estimator == "evpi-nested":
            return evpi_nested(
                inputs.model,
                inputs.prior,
                outer_draws=self.outer,
                baseline_draws=self.baseline,
                rng=stream,
            )
        if self.estimator == "evppi-nested":
            return evppi_nested(
                inputs.model,
                inputs.factored,
                inputs.prior,
                outer_draws=self.outer,
                inner_draws=self.inner,
                baseline_draws=self.baseline,
                rng=stream,
            )
        variant = self.estimator.rsplit("-", 1)[1]
        if self.estimator.startswith("evpi-"):
            return evpi_mlmc(
                inputs.model,
                inputs.prior,
                inputs.dist,
                self.budget,
                variant,
                stream,
                budget_rule=self.rule,
            )
        return evppi_mlmc(
            inputs.model,
            inputs.factored,
            inputs.prior,
            inputs.dist,
            self.budget,
            variant,
            variant,
            rng=stream,
            budget_rule=self.rule,
        )

    def run(self, inputs: Inputs, tracer: Tracer | None = None) -> Outcome:
        try:
            if tracer is None:
                result = self.call(inputs, self.stream)
            else:
                sid = tracer.open(f"estimators.{self.estimator}")
                try:
                    result = self.call(inputs.traced(tracer), TracedStream(self.stream, tracer))
                finally:
                    tracer.close(sid)
        except BudgetExhaustedError:
            if self.rule != "prefix":
                raise
            # The study records such a cell as an empty row; so does the replay.
            return Outcome(fingerprint="exhausted")
        if self.rule == "expected" and not self.estimator.endswith("nested"):
            parts = 1 if self.estimator.startswith("evpi-") else 2
            evals = result.n_draws * parts * checks.expected_levels_cost(BASE, RATIO)
        else:
            evals = result.cost_used
        return Outcome(
            evals=evals,
            errors=self.check(inputs, result),
            fingerprint=(result.estimate, result.cost_used, result.n_draws),
        )

    def check(self, inputs: Inputs, result) -> list[str]:
        label = f"{self.estimator}@{self.stream.path}"
        perfect = self.estimator.startswith("evpi-")
        gap = checks.Gap.from_config(
            inputs.config, range(1, inputs.config.dimension + 1) if perfect else SUBSET
        )
        if self.estimator.endswith("nested"):
            return checks.check_nested(
                label,
                result,
                gap=gap,
                outer=self.outer,
                inner=None if perfect else self.inner,
                baseline=self.baseline,
            )
        if self.rule == "prefix":
            return checks.check_prefix(
                label, result, budget=self.budget, base=BASE, perfect=perfect
            )
        return checks.check_mlmc(
            label, result, gap=gap, perfect=perfect, budget=self.budget, base=BASE, ratio=RATIO
        )


def nested_ops(seed: int, budget: int, first_child: int) -> list[EstimatorOp]:
    """evpi-nested at ``budget`` outer and baseline draws, evppi-nested at the
    documented C**(1/3) x C**(2/3) split with a ``budget``-draw baseline."""
    inner, outer = checks.nested_split(budget)
    root = RngStream(seed)
    return [
        EstimatorOp("evpi-nested", root.child(first_child), outer=budget, baseline=budget),
        EstimatorOp(
            "evppi-nested", root.child(first_child + 1), outer=outer, inner=inner, baseline=budget
        ),
    ]


def mlmc_ops(seed: int, budget: int, first_child: int) -> list[EstimatorOp]:
    """The four multilevel estimators under the expected-cost rule."""
    root = RngStream(seed)
    names = ("evpi-single", "evpi-coupled", "evppi-single", "evppi-coupled")
    return [
        EstimatorOp(name, root.child(first_child + k), budget=budget)
        for k, name in enumerate(names)
    ]


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's src, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> tuple[int, str, int]:
    """Run a child to completion; returns (exit code, stderr, peak RSS KiB).

    Standard output is discarded.  The peak RSS is the largest of the child
    and every process it waited for (Linux reports the maximum over the
    whole tree through wait4).
    """
    proc = subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.decode(errors="replace"), usage.ru_maxrss


def voimc_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "voimc", *args]


@dataclass(frozen=True)
class CliOp:
    """One `voimc` command.

    ``kind`` "study" runs a study whose CSV is checked; "reject" is a
    command the CLI must refuse with an ``error:`` line and exit code 2, and
    fails otherwise.
    """

    label: str
    kind: str
    args: tuple[str, ...]
    study: dict = field(default_factory=dict)

    def run(self) -> Outcome:
        csv_path = OUT_DIR / f"{self.label}.csv"
        if self.kind == "reject":
            code, err, rss = run_child(voimc_command(*self.args))
            refused = code == 2 and err.startswith("error:")
            return Outcome(failed=not refused, fingerprint=(code, refused), peak_rss_kib=rss)
        code, err, rss = run_child(voimc_command(*self.args, "--out", str(csv_path)))
        if code != 0:
            return Outcome(errors=[f"{self.label}: exit {code}: {err[-500:]}"], peak_rss_kib=rss)
        text = csv_path.read_text()
        errors, cost = checks.check_study_csv(self.label, text, **self.study)
        return Outcome(evals=cost, errors=errors, fingerprint=text, peak_rss_kib=rss)


def study_plan(estimator: str, sizes: Sizes, seed: int) -> ExperimentPlan:
    """One of the studies of the study-cli workload."""
    return ExperimentPlan(
        estimator=estimator,
        budgets=sizes.study_budgets,
        replications=sizes.study_reps,
        model_config=str(TIE_MODEL.relative_to(ROOT)),
        subset=SUBSET,
        seed=seed,
    )


def study_args(plan: ExperimentPlan, workers: int) -> tuple[str, ...]:
    """The `voimc study` arguments that run ``plan``."""
    return (
        "study",
        "--estimator", plan.estimator,
        "--model", plan.model_config,
        "--subset", ",".join(str(s) for s in plan.subset),
        "--budgets", ",".join(str(b) for b in plan.budgets),
        "--reps", str(plan.replications),
        "--seed", str(plan.seed),
        "--workers", str(workers),
    )


def study_expectations(estimator: str, sizes: Sizes, seed: int) -> dict:
    """Keyword arguments of `checks.check_study_csv` for one study."""
    tie = checks.Gap.from_config(load_model_config(TIE_MODEL)[0], SUBSET)
    return dict(
        estimator=estimator,
        budgets=sizes.study_budgets,
        reps=sizes.study_reps,
        seed=seed,
        truth=tie.evppi(),
        base=BASE,
    )


def study_ops(sizes: Sizes, seed: int, workers: int) -> list[CliOp]:
    return [
        CliOp(
            f"study-{est}-w{workers}",
            "study",
            study_args(study_plan(est, sizes, seed), workers),
            study=study_expectations(est, sizes, seed),
        )
        for est in STUDY_ESTIMATORS
    ]


# Commands the CLI should refuse but does not; their inputs do not depend on
# the seed, so each fails on every run.
FAULT_OPS = (
    # A level whose samples exceed the per-draw memory bound raises
    # MemoryError, which `voimc` does not catch: traceback and exit 1.
    CliOp(
        "estimate-oversized-level",
        "reject",
        (
            "estimate", "--estimator", "evpi-coupled",
            "--model", "scripts/benchmark_model.json",
            "--budget", str(2**28), "--b", str(2**26), "--r", "1e-8",
        ),
    ),
    # A worker count of 0 is run serially and exits 0.
    CliOp(
        "study-workers-0",
        "reject",
        (
            "study", "--estimator", "evpi-nested",
            "--model", "scripts/benchmark_model.json",
            "--budgets", "16", "--reps", "1", "--workers", "0",
        ),
    ),
)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """``ops`` is one timed pass.  ``trace_ops`` are the in-process estimator
    calls the traced run records, on ``trace_inputs``; for the CLI workload
    they replay the study's cells, whose own calls happen in child processes.
    ``in_process`` says whether the benchmark process itself runs ``ops``."""

    name: str
    ops: list
    inputs: Inputs | None
    trace_ops: list[EstimatorOp]
    trace_inputs: Inputs
    in_process: bool
    setup_model: Path


def make_workload(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    if name == "mlmc-expected":
        inputs = Inputs.load(OFFSET_MODEL)
        ops = mlmc_ops(seed, sizes.mlmc_budget, 1)
        return Workload(name, ops, inputs, ops, inputs, True, OFFSET_MODEL)
    if name == "nested-large":
        inputs = Inputs.load(OFFSET_MODEL)
        ops = nested_ops(seed, sizes.nested_budget, 1)
        return Workload(name, ops, inputs, ops, inputs, True, OFFSET_MODEL)
    if name == "study-cli":
        replay = []
        root = RngStream(seed)
        for budget in sizes.study_budgets:
            inner, outer = checks.nested_split(budget)
            for rep in range(1, sizes.study_reps + 1):
                stream = root.child(budget, rep)
                replay.append(
                    EstimatorOp("evppi-nested", stream, outer=outer, inner=inner, baseline=budget)
                )
                replay.append(EstimatorOp("evppi-coupled", stream, budget=budget, rule="prefix"))
        ops = study_ops(sizes, seed, workers=2) + list(FAULT_OPS)
        return Workload(name, ops, None, replay, Inputs.load(TIE_MODEL), False, TIE_MODEL)
    raise ValueError(f"unknown workload {name!r}")


def probe_ops(seed: int, sizes: Sizes, skip: set[str]) -> list[EstimatorOp]:
    """One call of each estimator not in ``skip``, on the offset model."""
    ops = nested_ops(seed, sizes.probe_nested_budget, 101)
    ops += mlmc_ops(seed, sizes.probe_mlmc_budget, 103)
    return [op for op in ops if op.estimator not in skip]
