"""Timed and traced runs of one workload, and the metrics they report.

Import this only after `run.py` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from voimc import LevelDistribution, RngStream, draws_for_budget, render_csv, run_plan

import checks
import workloads as wl
from tracing import (
    GAUSSIAN_SPANS,
    LEVELS_SAMPLE,
    MODEL_PAYOFF,
    RNG_GENERATOR,
    Tracer,
    write_traces,
)

END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "rng.generators": "count",
    "rng.generator_s": "s",
    "levels.levels_drawn": "count",
    "levels.sample_s": "s",
    "levels.draws_for_budget_ms": "ms",
    "gaussian.sample_calls": "count",
    "gaussian.sample_rows": "count",
    "gaussian.sample_s": "s",
    "model.payoff_calls": "count",
    "model.payoff_rows": "count",
    "model.payoff_s": "s",
    "model.rows_per_call": "rows/call",
    "estimators.self_s": "s",
    **{f"estimators.{name}.evals_per_s": "1/s" for name in wl.ESTIMATORS},
    "experiment.serial_s": "s",
    "experiment.parallel_s": "s",
    "experiment.parallel_efficiency": "ratio",
    "experiment.tasks": "count",
    "experiment.render_csv_ms": "ms",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}

# The count that shows whether a traced pass reached each layer at all.
LAYER_CALLS = {
    "rng": "rng.generators",
    "levels": "levels.levels_drawn",
    "gaussian": "gaussian.sample_calls",
    "model": "model.payoff_calls",
}

# Run in a fresh interpreter: import the library and build the model.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import voimc
config, _ = voimc.load_model_config(sys.argv[1])
voimc.make_gaussian_model(config, (1, 2))
print(repr(time.perf_counter() - t0))
"""


class Tally:
    """Operations attempted and failed, check errors, and repeat consistency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outcomes, reference=None) -> None:
        for i, out in enumerate(outcomes):
            self.attempted += 1
            self.failed += out.failed
            self.errors.extend(out.errors)
            if reference is not None and out.fingerprint != reference[i].fingerprint:
                self.errors.append(f"operation {i} gave a different output on a repeat")

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def run_pass(ops, inputs, tracer=None):
    """Run ``ops`` in order; returns (wall seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            out = op.run(inputs, tracer) if isinstance(op, wl.EstimatorOp) else op.run()
        except Exception:  # an unexpected failure is reported, not fatal
            out = wl.Outcome(failed=True, errors=[traceback.format_exc()])
        outcomes.append(out)
    return time.perf_counter() - start, outcomes


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------


def measure_setup(model_path: Path, repeats: int) -> float:
    """Median seconds to import voimc and build a model in a fresh process.

    One extra run first fills the bytecode cache, which a fresh checkout
    lacks.
    """
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(model_path)],
            capture_output=True,
            text=True,
            env=wl.child_env(),
            cwd=wl.ROOT,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def timed_run(workload, sizes, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics: median pass wall time after one warm-up pass."""
    setup_s = measure_setup(workload.setup_model, sizes.setup_repeats)
    _, first = run_pass(workload.ops, workload.inputs)
    tally.add(first)
    walls, outcomes = [], list(first)
    start = time.perf_counter()
    # Start another pass only if it should end within the time allowed.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, outs = run_pass(workload.ops, workload.inputs)
        tally.add(outs, reference=first)
        walls.append(wall)
        outcomes += outs
    print(f"# pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
    wall_s = statistics.median(walls)
    if workload.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(out.peak_rss_kib for out in outcomes)
    return {
        "wall_s": wall_s,
        "evals_per_s": sum(out.evals for out in first) / wall_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------


def _layer_metrics(summary: dict) -> dict[str, float]:
    def total(names, key):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    estimator_spans = [n for n in summary if n.startswith("estimators.")]
    payoff_calls = total([MODEL_PAYOFF], "calls")
    return {
        "rng.generators": total([RNG_GENERATOR], "calls"),
        "rng.generator_s": total([RNG_GENERATOR], "total_s"),
        "levels.levels_drawn": total([LEVELS_SAMPLE], "rows"),
        "levels.sample_s": total([LEVELS_SAMPLE], "total_s"),
        "gaussian.sample_calls": total(GAUSSIAN_SPANS, "calls"),
        "gaussian.sample_rows": total(GAUSSIAN_SPANS, "rows"),
        "gaussian.sample_s": total(GAUSSIAN_SPANS, "total_s"),
        "model.payoff_calls": payoff_calls,
        "model.payoff_rows": total([MODEL_PAYOFF], "rows"),
        "model.payoff_s": total([MODEL_PAYOFF], "total_s"),
        "model.rows_per_call": total([MODEL_PAYOFF], "rows") / max(payoff_calls, 1),
        "estimators.self_s": total(estimator_spans, "self_s"),
    }


def _evals_per_s(summary: dict, ops, outcomes) -> dict[str, float]:
    """Payoff evaluations credited per second of each estimator's spans."""
    evals: dict[str, float] = {}
    for op, out in zip(ops, outcomes):
        evals[op.estimator] = evals.get(op.estimator, 0) + out.evals
    return {
        f"estimators.{name}.evals_per_s": n / summary[f"estimators.{name}"]["total_s"]
        for name, n in evals.items()
    }


def _traced_passes(workload, sizes, tally: Tally, tracers: dict) -> dict[str, float]:
    """Untraced and traced passes over the workload's estimator calls, alternating."""
    plain_walls, traced_walls, layers, rates = [], [], [], []
    reference = None
    for k in range(sizes.trace_pairs):
        wall, plain = run_pass(workload.trace_ops, workload.trace_inputs)
        tally.add(plain, reference)
        reference = reference or plain
        tracer = tracers[f"pass{k + 1}"] = Tracer()
        traced_wall, traced = run_pass(workload.trace_ops, workload.trace_inputs, tracer)
        tally.add(traced, reference)
        plain_walls.append(wall)
        traced_walls.append(traced_wall)
        summary = tracer.summary()
        layers.append(_layer_metrics(summary))
        rates.append(_evals_per_s(summary, workload.trace_ops, traced))
    # Counts come from the first traced pass and must repeat; times are medians.
    metrics = {}
    for name, value in layers[0].items():
        if PER_LAYER[name] == "count":
            metrics[name] = value
            for layer in layers[1:]:
                tally.expect(layer[name] == value, f"{name} differs between traced passes")
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    for name in rates[0]:
        metrics[name] = statistics.median(rate[name] for rate in rates)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = overhead
    return metrics


def _probe_estimators(
    workload, sizes, seed: int, tally: Tally, tracers: dict, metrics: dict
) -> None:
    """One traced call of each estimator the workload does not make.

    A layer that the workload's own calls never reach is reported from these.
    """
    probes = wl.probe_ops(seed, sizes, {op.estimator for op in workload.trace_ops})
    tracer = tracers["probes"] = Tracer()
    _, outs = run_pass(probes, wl.Inputs.load(wl.OFFSET_MODEL), tracer)
    tally.add(outs)
    summary = tracer.summary()
    metrics.update(_evals_per_s(summary, probes, outs))
    probe_layers = _layer_metrics(summary)
    for layer, calls in LAYER_CALLS.items():
        if metrics[calls] == 0:
            metrics.update({k: v for k, v in probe_layers.items() if k.startswith(layer + ".")})


def _draws_for_budget_ms(sizes, seed: int, tally: Tally) -> float:
    """The prefix budget rule on its own."""
    dist = LevelDistribution(wl.BASE, wl.RATIO)
    budget = sizes.draws_for_budget_budget
    times = []
    for rep in range(sizes.timing_repeats):
        gen = RngStream(seed).child(999, rep).generator()
        start = time.perf_counter()
        levels, n = draws_for_budget(dist, budget, gen)
        times.append(time.perf_counter() - start)
        tally.expect(
            n == len(levels) and sum(wl.BASE**level for level in levels) <= budget,
            f"draws_for_budget overspent budget {budget}",
        )
    return 1e3 * statistics.median(times)


def _experiment(sizes, seed: int, tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    """`run_plan` on the study-cli plans at workers 1 and 2, and `render_csv`.

    Returns the metrics and each estimator's CSV text.
    """
    plans = [wl.study_plan(est, sizes, seed) for est in wl.STUDY_ESTIMATORS]
    serial_s = parallel_s = 0.0
    reports, texts = [], {}
    for plan in plans:
        start = time.perf_counter()
        serial = run_plan(plan, workers=1)
        serial_s += time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_plan(plan, workers=2)
        parallel_s += time.perf_counter() - start
        reports.append(serial)
        text = texts[plan.estimator] = render_csv(serial, plan)
        tally.expect(
            text == render_csv(parallel, plan),
            f"run_plan {plan.estimator}: output depends on the worker count",
        )
        expect = wl.study_expectations(plan.estimator, sizes, seed)
        errors, _ = checks.check_study_csv(f"run_plan {plan.estimator}", text, **expect)
        tally.errors.extend(errors)

    def render_all():
        for report, plan in zip(reports, plans):
            render_csv(report, plan)

    metrics = {
        "experiment.serial_s": serial_s,
        "experiment.parallel_s": parallel_s,
        "experiment.parallel_efficiency": serial_s / (2.0 * parallel_s),
        "experiment.tasks": sum(len(p.budgets) * p.replications for p in plans),
        "experiment.render_csv_ms": 1e3 * _median_seconds(render_all, sizes.timing_repeats),
    }
    return metrics, texts


def _cli_startup_s(sizes, tally: Tally) -> float:
    """`voimc --help` in a fresh process: imports, argument parser, exit."""

    def help_once():
        code, err, _ = wl.run_child(wl.voimc_command("--help"))
        tally.expect(code == 0, f"voimc --help exited {code}: {err[-300:]}")

    return _median_seconds(help_once, sizes.timing_repeats)


def traced_run(workload, sizes, seed: int, tally: Tally) -> dict[str, float]:
    """Per-layer metrics; see bench/README.md for what each one measures."""
    _, first = run_pass(workload.ops, workload.inputs)
    tally.add(first)
    tracers: dict[str, Tracer] = {}
    metrics = _traced_passes(workload, sizes, tally, tracers)
    _probe_estimators(workload, sizes, seed, tally, tracers, metrics)
    metrics["levels.draws_for_budget_ms"] = _draws_for_budget_ms(sizes, seed, tally)
    experiment, texts = _experiment(sizes, seed, tally)
    metrics.update(experiment)
    metrics["cli.startup_s"] = _cli_startup_s(sizes, tally)

    if workload.name == "study-cli":
        # One worker, two workers and run_plan in process: identical bytes.
        timed = {
            op.study["estimator"]: out.fingerprint
            for op, out in zip(workload.ops, first)
            if op.kind == "study"
        }
        serial_ops = wl.study_ops(sizes, seed, workers=1)
        _, outs = run_pass(serial_ops, None)
        tally.add(outs)
        for op, out in zip(serial_ops, outs):
            est = op.study["estimator"]
            tally.expect(out.fingerprint == timed[est], f"{op.label}: CSV differs at 2 workers")
            tally.expect(texts[est] == timed[est], f"run_plan {est}: CSV differs from the CLI's")

    write_traces(
        wl.OUT_DIR / f"trace-{workload.name}-seed{seed}.json.gz",
        tracers,
        {"workload": workload.name, "seed": seed, "metrics": metrics},
    )
    for name, entry in sorted(tracers["pass1"].summary().items()):
        print(
            f"# {name:34s} calls={entry['calls']:>8} rows={entry['rows']:>10} "
            f"total={entry['total_s']:.4f}s self={entry['self_s']:.4f}s",
            file=sys.stderr,
        )
    return metrics


def run_benchmark(
    workload_name: str, seed: int, seconds: float, trace: bool, sizes=wl.FULL
) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = wl.make_workload(workload_name, seed, sizes)
    tally = Tally()
    if trace:
        values, units = traced_run(workload, sizes, seed, tally), PER_LAYER
    else:
        values, units = timed_run(workload, sizes, seconds, tally), END_TO_END
    for message in tally.errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
