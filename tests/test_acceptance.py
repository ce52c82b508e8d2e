"""End-to-end acceptance checks on the five-coordinate benchmark.

Each test prints one PASS/FAIL verdict line with its measured numbers.

Criterion 2 (small-budget unbiasedness) runs the multilevel estimators under
their default expected-cost budget rule: a fixed number of draws with
uncapped levels, whose average is unbiased.  The hard-cap prefix rule, which
the study harness uses, would estimate the telescope truncated at the budget
instead; test_estimators.py pins that fit-conditioned law exactly.

One group encodes statistical targets that the zero-mean (tied-decision)
benchmark cannot meet, and it fails by measured margins rather than being
weakened:

* criterion 7 b/c (RMSE dominance over the nested estimator): with the two
  decisions tied in expectation, the perfect-information correction's second
  moment decays exactly like 1/2**level, the boundary rate at which no
  geometric level law keeps the estimator variance finite; RMSE is then
  outlier-dominated (~budget**-0.25) and the nested estimator's RMSE stays
  below it across this grid.  On a model without the tie the multilevel
  estimator wins (test_estimators.py, offset model).

See README "Statistical caveats" for the full account.
"""

import math

import numpy as np
import pytest

from voimc import (
    BudgetExhaustedError,
    ExperimentPlan,
    LevelDistribution,
    RngStream,
    analytic_evppi,
    draws_for_budget,
    evpi_mlmc,
    evppi_mlmc,
    make_gaussian_model,
    optimal_ratio,
    run_plan,
)
from voimc.cli import main as cli_main

from support import (
    TIE_CONFIG,
    analytic_evpi,
    budget_rule_mean,
    conditional_correction_mean,
    conditional_term,
    constant_model,
    level_correction_mean,
    prior_term,
    single_decision_model,
    weighted_level_mean,
)

DIST = LevelDistribution(2, optimal_ratio(2, 1))
GRID = tuple(2**m for m in (8, 10, 12, 14, 16))


def _verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: analytic oracle values
# ---------------------------------------------------------------------------


def test_criterion_01_analytic_oracle():
    targets = {
        5: 0.8920621,
        4: 0.7978846,
        3: 0.6909883,
        2: 0.5641896,
        1: 0.3989423,
    }
    worst = 0.0
    for size, target in targets.items():
        value = analytic_evppi(TIE_CONFIG, range(1, size + 1))
        worst = max(worst, abs(value - target))
    ok = worst <= 1e-6
    detail = f"max |value - target| = {worst:.2e}, tolerance 1e-6"
    line = _verdict("criterion 1: analytic oracle", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: unbiasedness at budget 2**8, 10^4 replications
# ---------------------------------------------------------------------------


def _replication_mean(estimator: str, reps: int, budget: int, seed: int):
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    values = []
    exhausted = 0
    for k in range(1, reps + 1):
        stream = RngStream(seed).child(k)
        try:
            if estimator.startswith("evpi"):
                variant = estimator.split("-")[1]
                r = evpi_mlmc(model, prior, DIST, budget, variant, stream)
            else:
                variant = estimator.split("-")[1]
                r = evppi_mlmc(
                    model,
                    factored,
                    prior,
                    DIST,
                    budget,
                    variant_y=variant,
                    variant_z=variant,
                    rng=stream,
                )
            values.append(r.estimate)
        except BudgetExhaustedError:
            exhausted += 1
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(len(values))
    return float(values.mean()), float(se), exhausted


@pytest.mark.parametrize(
    "estimator",
    ["evpi-single", "evpi-coupled", "evppi-single", "evppi-coupled"],
)
def test_criterion_02_unbiasedness_suite(estimator):
    truth = (
        analytic_evpi(TIE_CONFIG)
        if estimator.startswith("evpi")
        else analytic_evppi(TIE_CONFIG, (1, 2))
    )
    mean, se, exhausted = _replication_mean(estimator, reps=10_000, budget=2**8, seed=1106)
    gap = mean - truth
    ok = abs(gap) <= 4 * se
    detail = (
        f"mean={mean:.5f} truth={truth:.5f} gap={gap:+.5f} "
        f"= {gap / se:+.1f} se (4 se = {4 * se:.5f}; {exhausted} replications exhausted)"
    )
    line = _verdict(f"criterion 2: unbiasedness {estimator}", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: degenerate models cancel to exactly zero
# ---------------------------------------------------------------------------


def test_criterion_03_degenerate_exactness():
    _, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    models = {
        "one-decision": single_decision_model(),
        "constant-payoff": constant_model((3.0, 1.0)),
    }
    checked = 0
    worst = 0.0
    for model in models.values():
        for seed in range(1000):
            gen = RngStream(3000, (seed,)).generator()
            values = []
            for level in range(1, 7):
                values.append(prior_term(model, prior, level, DIST, gen, "single"))
                values.append(prior_term(model, prior, level, DIST, gen, "coupled"))
                revealed = factored.draw_marginal(gen, 1)[0]
                for variant in ("single", "coupled"):
                    values.append(
                        conditional_term(
                            model, factored, revealed, level, DIST, gen, variant
                        )
                    )
            stream = RngStream(3100, (seed,))
            try:
                values.append(evpi_mlmc(model, prior, DIST, 64, "single", stream).estimate)
                values.append(evpi_mlmc(model, prior, DIST, 64, "coupled", stream).estimate)
                values.append(
                    evppi_mlmc(model, factored, prior, DIST, 128, rng=stream).estimate
                )
            except BudgetExhaustedError:
                pass
            worst = max(worst, max(abs(v) for v in values))
            checked += len(values)
    ok = worst == 0.0
    detail = f"{checked} degenerate terms/estimates, max |value| = {worst!r}"
    line = _verdict("criterion 3: degenerate exactness", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 4: level-1 coupling identity, bitwise
# ---------------------------------------------------------------------------


def test_criterion_04_level_one_coupling_identity():
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    p1 = DIST.pmf(1)
    failures = 0
    for seed in range(1000):
        stream = RngStream(4000, (seed,))
        single = prior_term(model, prior, 1, DIST, stream.generator(), "single")
        coupled = prior_term(model, prior, 1, DIST, stream.generator(), "coupled")
        if coupled != p1 * single:
            failures += 1
        revealed = factored.draw_marginal(stream.child(0).generator(), 1)[0]
        z_single = conditional_term(
            model, factored, revealed, 1, DIST, stream.child(1).generator(), "single"
        )
        z_coupled = conditional_term(
            model, factored, revealed, 1, DIST, stream.child(1).generator(), "coupled"
        )
        if z_coupled != p1 * z_single:
            failures += 1
    ok = failures == 0
    detail = f"2000 shared-sample identities, {failures} bitwise mismatches"
    line = _verdict("criterion 4: level-1 coupling identity", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: telescoping against direct simulation
# ---------------------------------------------------------------------------


def _direct_plugin_estimate(model, prior, n: int, reps: int, stream: RngStream):
    """Mean and se of the best per-decision average over n samples, by
    direct simulation (reps independent batches)."""
    gen = stream.generator()
    chunk = max(1, 200_000 // n)
    vals = []
    remaining = reps
    while remaining > 0:
        m = min(chunk, remaining)
        xs = prior.draw(gen, m * n)
        payoffs = model.payoff_matrix(xs).reshape(m, n, -1)
        vals.append(payoffs.mean(axis=1).max(axis=1))
        remaining -= m
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def test_criterion_05_telescoping_identity():
    model, prior, _ = make_gaussian_model(TIE_CONFIG, (1, 2))
    reps = 100_000
    direct = {
        n: _direct_plugin_estimate(model, prior, n, reps, RngStream(5000, (n,)))
        for n in (1, 2, 4, 8)
    }
    ok = True
    details = []
    for level in (1, 2, 3):
        gen = RngStream(5100, (level,)).generator()
        vals = np.empty(reps)
        pmf = DIST.pmf(level)
        for k in range(reps):
            vals[k] = pmf * prior_term(model, prior, level, DIST, gen, "single")
        lhs, lhs_se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))
        (lo_mean, lo_se) = direct[2 ** (level - 1)]
        (hi_mean, hi_se) = direct[2**level]
        rhs = lo_mean - hi_mean
        combined = math.sqrt(lhs_se**2 + lo_se**2 + hi_se**2)
        gap = lhs - rhs
        level_ok = abs(gap) <= 4 * combined
        ok = ok and level_ok
        details.append(f"l={level}: gap={gap:+.5f} vs 4se={4 * combined:.5f}")
    line = _verdict("criterion 5: telescoping identity", ok, "; ".join(details))
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: budget rule exactness and expected cost
# ---------------------------------------------------------------------------


def test_criterion_06_budget_rule():
    budget = 2**10
    exact_ok = True
    for seed in range(1000):
        stream = RngStream(6000, (seed,))
        levels, n = draws_for_budget(DIST, budget, stream.generator())
        total = sum(DIST.cost(l) for l in levels)
        replay = DIST.sample_levels(stream.generator(), n + 1)
        exact_ok = exact_ok and total <= budget
        exact_ok = exact_ok and list(replay[:n]) == levels
        exact_ok = exact_ok and total + DIST.cost(int(replay[n])) > budget
    # mean cost per draw against the geometric closed form
    # (1 - r) * b / (1 - r*b) = 3 + sqrt(2) = 4.41421...
    target = DIST.expected_cost()
    ratios = []
    for seed in range(150):
        levels, n = draws_for_budget(DIST, 2**16, RngStream(6100, (seed,)).generator())
        ratios.append(sum(DIST.cost(l) for l in levels) / n)
    mean_cost = float(np.mean(ratios))
    cost_ok = abs(mean_cost - target) <= 0.02 * target
    ok = exact_ok and cost_ok
    detail = (
        f"prefix rule exact on 1000 sequences: {exact_ok}; mean cost/draw "
        f"{mean_cost:.4f} vs (1-r)b/(1-rb) = {target:.4f} (2% tolerance)"
    )
    line = _verdict("criterion 6: budget rule", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: convergence study on the benchmark grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study_reports(benchmark_model_path_module):
    reports = {}
    for est in ("evpi-nested", "evppi-nested", "evppi-coupled"):
        plan = ExperimentPlan(
            est, GRID, 100, benchmark_model_path_module, subset=(1, 2), seed=1107
        )
        reports[est] = run_plan(plan)
    return reports


@pytest.fixture(scope="module")
def benchmark_model_path_module(tmp_path_factory):
    import json

    path = tmp_path_factory.mktemp("acceptance") / "benchmark.json"
    path.write_text(
        json.dumps(
            {
                "s": 5,
                "w0": 0.0,
                "w": [1.0] * 5,
                "mu": [0.0] * 5,
                "sigma": [1.0] * 5,
                "subset": [1, 2],
            }
        )
    )
    return str(path)


def test_criterion_07a_perfect_information_baseline_rate(study_reports):
    slope = study_reports["evpi-nested"].slope
    ok = slope >= 0.4
    detail = f"evpi-nested fitted RMSE slope = {slope:.3f}, required >= 0.4"
    line = _verdict("criterion 7a: plain estimator rate", ok, detail)
    assert ok, line


def test_criterion_07b_nested_rate_deficit(study_reports):
    nested = study_reports["evppi-nested"].slope
    mlmc = study_reports["evppi-coupled"].slope
    ok = nested <= mlmc - 0.1
    detail = (
        f"evppi-nested slope = {nested:.3f}, evppi-coupled slope = {mlmc:.3f}; "
        f"required nested <= coupled - 0.1"
    )
    line = _verdict("criterion 7b: nested rate deficit", ok, detail)
    assert ok, line


def test_benchmark_means_concentrate_at_top_budget(study_reports):
    """Companion check to criterion 7: at the top budget the nested means sit
    on the closed-form values (their plug-in bias is below the stated
    tolerances there), and the multilevel mean sits on its fit-conditioned
    law, whose own gap to the truth is a fraction of a percent."""
    nested = study_reports["evpi-nested"]
    assert abs(nested.per_budget[2**16].mean - 0.8920621) <= 0.01
    assert 0.4 <= nested.slope <= 0.6
    pp_nested = study_reports["evppi-nested"]
    assert abs(pp_nested.per_budget[2**16].mean - 0.5641896) <= 0.02

    def level_mean(l):
        y = weighted_level_mean(
            DIST, l, lambda j: level_correction_mean(TIE_CONFIG, 2, j), "coupled"
        )
        z = weighted_level_mean(
            DIST,
            l,
            lambda j: conditional_correction_mean(TIE_CONFIG, (1, 2), 2, j),
            "coupled",
        )
        return y - z

    oracle = budget_rule_mean(DIST, 2**16 // 2, level_mean)
    coupled = study_reports["evppi-coupled"]
    estimates = [r.estimate for r in coupled.records[2**16] if r.estimate is not None]
    se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
    gap = coupled.per_budget[2**16].mean - oracle
    ok = abs(gap) <= 4 * se and abs(oracle - 0.5641896) < 0.015
    detail = (
        f"evpi-nested mean gap {nested.per_budget[2**16].mean - 0.8920621:+.4f}; "
        f"evppi-coupled mean {coupled.per_budget[2**16].mean:.4f} vs conditioned "
        f"law {oracle:.4f} (gap {gap:+.4f}, 4 se = {4 * se:.4f})"
    )
    line = _verdict("benchmark means at top budget", ok, detail)
    assert ok, line


def test_criterion_07c_rmse_dominance_at_top_budget(study_reports):
    nested = study_reports["evppi-nested"].per_budget[2**16].rmse
    mlmc = study_reports["evppi-coupled"].per_budget[2**16].rmse
    ok = mlmc < nested
    detail = (
        f"RMSE at 2^16: evppi-coupled = {mlmc:.4f}, evppi-nested = {nested:.4f}; "
        f"required coupled < nested"
    )
    line = _verdict("criterion 7c: RMSE dominance at top budget", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: variance-optimal ratio formula
# ---------------------------------------------------------------------------


def test_criterion_08_optimal_ratio():
    exact = optimal_ratio(2, 1) == 2 ** (-3 / 2)
    bounds = all(
        base ** (-2.0 * decay) < optimal_ratio(base, decay) < base ** (-1.0)
        for base in (2, 3, 4)
        for decay in (0.6, 0.75, 1.0, 2.0)
    )
    ok = exact and bounds
    detail = f"optimal_ratio(2,1) == 2**-1.5: {exact}; window bounds hold: {bounds}"
    line = _verdict("criterion 8: optimal ratio", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 9: byte-identical study output, any worker count
# ---------------------------------------------------------------------------


def test_criterion_09_study_determinism(benchmark_model_path_module, tmp_path):
    args = [
        "study",
        "--estimator",
        "evppi-coupled",
        "--model",
        benchmark_model_path_module,
        "--subset",
        "1,2",
        "--budgets",
        "256,1024,4096",
        "--reps",
        "20",
        "--seed",
        "17",
    ]
    paths = [tmp_path / name for name in ("first.csv", "second.csv", "parallel.csv")]
    assert cli_main(args + ["--out", str(paths[0])]) == 0
    assert cli_main(args + ["--out", str(paths[1])]) == 0
    assert cli_main(args + ["--out", str(paths[2]), "--workers", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    detail = (
        f"{len(blobs[0])} bytes; rerun identical: {blobs[0] == blobs[1]}; "
        f"two-worker run identical: {blobs[0] == blobs[2]}"
    )
    line = _verdict("criterion 9: study determinism", ok, detail)
    assert ok, line
