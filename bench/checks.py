"""Output checks for the benchmark, computed apart from the library.

Every closed form here is written out from the Gaussian linear model's
definition (two decisions: an affine payoff ``w0 + w . x`` and a zero
payoff), so a check never trusts the library's own analytic helpers.  Each
check returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# An estimate further than this many standard errors from its exact
# expectation fails; the probability of a false alarm per Gaussian check is
# about 6e-5.
SE_GATE = 4.0

# Relative tolerance for comparing CSV summaries with values recomputed here:
# the library and this module sum in different orders.
SUMMARY_RTOL = 1e-9


def _pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def mean_positive_part(mu: float, sd: float) -> float:
    """E[max(X, 0)] for X ~ N(mu, sd**2)."""
    if sd == 0.0:
        return max(mu, 0.0)
    return mu * _cdf(mu / sd) + sd * _pdf(mu / sd)


def var_positive_part(mu: float, sd: float) -> float:
    """Var[max(X, 0)] for X ~ N(mu, sd**2)."""
    if sd == 0.0:
        return 0.0
    second = (mu * mu + sd * sd) * _cdf(mu / sd) + mu * sd * _pdf(mu / sd)
    return max(second - mean_positive_part(mu, sd) ** 2, 0.0)


@dataclass(frozen=True)
class Gap:
    """The decision gap w0 + w . X of a Gaussian linear model config.

    ``mean`` is its expectation; ``var_revealed`` and ``var_hidden`` split
    its variance between the revealed coordinates and the rest.
    """

    mean: float
    var_revealed: float
    var_hidden: float

    @classmethod
    def from_config(cls, config, revealed) -> "Gap":
        revealed = set(revealed)
        parts = [
            (config.weights[j] * config.stds[j]) ** 2
            for j in range(len(config.weights))
        ]
        mean = config.intercept + math.fsum(
            w * m for w, m in zip(config.weights, config.means)
        )
        return cls(
            mean=mean,
            var_revealed=math.fsum(p for j, p in enumerate(parts) if j + 1 in revealed),
            var_hidden=math.fsum(
                p for j, p in enumerate(parts) if j + 1 not in revealed
            ),
        )

    @property
    def var_total(self) -> float:
        return self.var_revealed + self.var_hidden

    def evpi(self) -> float:
        """E[max(G, 0)] - max(E G, 0)."""
        return mean_positive_part(self.mean, math.sqrt(self.var_total)) - max(
            self.mean, 0.0
        )

    def evppi(self) -> float:
        """E[max(E[G | revealed], 0)] - max(E G, 0)."""
        return mean_positive_part(self.mean, math.sqrt(self.var_revealed)) - max(
            self.mean, 0.0
        )

    def baseline(self, draws: int) -> tuple[float, float]:
        """Mean and variance of max(mean of ``draws`` gaps, 0).

        This is the nested estimators' subtracted term: the best per-decision
        sample mean, whose Jensen bias shrinks as ``draws`` grows.
        """
        sd = math.sqrt(self.var_total / draws)
        return mean_positive_part(self.mean, sd), var_positive_part(self.mean, sd)


def expected_levels_cost(base: int, ratio: float) -> float:
    """E[base**L] under pmf(l) = (1 - ratio) * ratio**(l-1), l >= 1."""
    return (1.0 - ratio) * base / (1.0 - ratio * base)


def icbrt(n: int) -> int:
    """Largest integer k with k**3 <= n."""
    k = round(n ** (1.0 / 3.0))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def nested_split(budget: int) -> tuple[int, int]:
    """(inner, outer) = (floor(C**(1/3)), floor(C**(2/3))).

    The split the CLI documents for evppi-nested at its default inner-bias
    exponent 1, computed here in exact integer arithmetic.
    """
    return icbrt(budget), icbrt(budget * budget)


def _within_se(label: str, estimate: float, expected: float, se: float) -> list[str]:
    if not (math.isfinite(estimate) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {estimate!r} or se {se!r}"]
    if abs(estimate - expected) > SE_GATE * se:
        z = (estimate - expected) / se if se > 0 else math.inf
        return [
            f"{label}: estimate {estimate!r} is {z:+.2f} se from its exact "
            f"expectation {expected!r}"
        ]
    return []


def check_mlmc(
    label, result, *, gap: Gap, perfect: bool, budget: int, base: int, ratio: float
) -> list[str]:
    """An expected-rule multilevel run: draw count, sign and unbiasedness."""
    parts = 1 if perfect else 2
    errors = []
    draws = math.floor(budget / (parts * expected_levels_cost(base, ratio)))
    if result.n_draws != draws:
        errors.append(f"{label}: n_draws {result.n_draws}, expected {draws}")
    if result.cost_used < parts * base * result.n_draws:
        errors.append(f"{label}: cost_used {result.cost_used} below one level-1 draw each")
    if perfect and not result.estimate >= 0.0:
        errors.append(f"{label}: evpi estimate {result.estimate!r} is negative")
    truth = gap.evpi() if perfect else gap.evppi()
    se = math.sqrt(result.term_variance / result.n_draws)
    return errors + _within_se(label, result.estimate, truth, se)


def check_prefix(label, result, *, budget: int, base: int, perfect: bool) -> list[str]:
    """A prefix-rule multilevel run: the realized cost never exceeds the budget."""
    parts = 1 if perfect else 2
    errors = []
    if not 0 < result.cost_used <= budget:
        errors.append(f"{label}: cost_used {result.cost_used} outside (0, {budget}]")
    if result.n_draws < 1 or result.cost_used < parts * base * result.n_draws:
        errors.append(f"{label}: {result.n_draws} draws cannot cost {result.cost_used}")
    if not math.isfinite(result.estimate):
        errors.append(f"{label}: non-finite estimate {result.estimate!r}")
    return errors


def check_nested(
    label, result, *, gap: Gap, outer: int, inner: int | None, baseline: int
) -> list[str]:
    """A nested run against its own exact expectation, Jensen bias included.

    ``inner`` is None for evpi-nested.  For evppi-nested the inner mean adds
    var_hidden / inner to the variance of the revealed gap.
    """
    errors = []
    cost = outer + baseline if inner is None else outer * inner + baseline
    if result.cost_used != cost:
        errors.append(f"{label}: cost_used {result.cost_used}, expected {cost}")
    if result.n_draws != outer:
        errors.append(f"{label}: n_draws {result.n_draws}, expected {outer}")
    var_outer = gap.var_total if inner is None else gap.var_revealed + gap.var_hidden / inner
    base_mean, base_var = gap.baseline(baseline)
    expected = mean_positive_part(gap.mean, math.sqrt(var_outer)) - base_mean
    se = math.sqrt(result.term_variance / result.n_draws + base_var)
    return errors + _within_se(label, result.estimate, expected, se)


# ---------------------------------------------------------------------------
# study CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyCsv:
    config: dict[str, str]
    header: str
    rows: list[list[str]]
    summaries: list[list[str]]
    slope: str


def parse_study_csv(text: str) -> StudyCsv:
    """Split a `voimc study` CSV into its sections; raises ValueError if malformed."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    config, rows, summaries, header, slope = {}, [], [], None, None
    for line in lines[:-1]:
        fields = line.split(",")
        if fields[0] == "#CONFIG":
            config[fields[1]] = ",".join(fields[2:])
        elif fields[0] == "#SUMMARY":
            summaries.append(fields[1:])
        elif fields[0] == "#SLOPE":
            slope = fields[1]
        elif header is None:
            header = line
        else:
            rows.append(fields)
    if header is None or slope is None:
        raise ValueError("CSV lacks its header or #SLOPE line")
    return StudyCsv(config, header, rows, summaries, slope)


def _type7(sorted_values: list[float], p: float) -> float:
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=1e-15)


def _lsq_slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def check_study_csv(
    label: str,
    text: str,
    *,
    estimator: str,
    budgets: tuple[int, ...],
    reps: int,
    seed: int,
    truth: float,
    base: int,
) -> tuple[list[str], int]:
    """Check one study CSV; returns (errors, total cost_used of its rows)."""
    try:
        csv = parse_study_csv(text)
    except ValueError as exc:
        return [f"{label}: {exc}"], 0
    errors = []
    want = {
        "estimator": estimator,
        "budgets": "|".join(str(b) for b in budgets),
        "replications": str(reps),
        "seed": str(seed),
    }
    for key, value in want.items():
        if csv.config.get(key) != value:
            errors.append(f"{label}: #CONFIG {key} is {csv.config.get(key)!r}, expected {value!r}")
    if csv.header != "estimator,budget,replication,estimate,truth,cost_used,n_draws":
        errors.append(f"{label}: unexpected header {csv.header!r}")
    if len(csv.rows) != len(budgets) * reps:
        return errors + [f"{label}: {len(csv.rows)} rows, expected {len(budgets) * reps}"], 0

    total_cost = 0
    estimates: dict[int, list[float]] = {b: [] for b in budgets}
    for i, row in enumerate(csv.rows):
        budget, rep = budgets[i // reps], i % reps + 1
        if len(row) != 7 or row[0] != estimator or row[1:3] != [str(budget), str(rep)]:
            errors.append(f"{label}: row {i} is {row}, expected budget {budget} rep {rep}")
            continue
        row_truth, cost, draws = float(row[4]), int(row[5]), int(row[6])
        total_cost += cost
        if not math.isclose(row_truth, truth, rel_tol=1e-14):
            errors.append(f"{label}: truth column {row_truth!r}, closed form {truth!r}")
        if estimator.endswith("nested"):
            inner, outer = nested_split(budget)
            if (cost, draws) != (outer * inner + budget, outer):
                errors.append(
                    f"{label}: row {i} cost/draws {cost}/{draws}, documented split "
                    f"gives {outer * inner + budget}/{outer}"
                )
        elif row[3] == "":
            if (cost, draws) != (0, 0):
                errors.append(f"{label}: exhausted row {i} reports cost {cost}")
        elif not (0 < cost <= budget and draws >= 1 and cost >= 2 * base * draws):
            errors.append(f"{label}: prefix row {i} cost {cost} / draws {draws} vs budget {budget}")
        if row[3] != "":
            estimates[budget].append(float(row[3]))

    if len(csv.summaries) != len(budgets):
        return errors + [f"{label}: {len(csv.summaries)} #SUMMARY lines"], total_cost
    points = []
    for budget, summary in zip(budgets, csv.summaries):
        values = sorted(estimates[budget])
        if not values:
            errors.append(f"{label}: no estimate at budget {budget}")
            continue
        rmse = math.sqrt(math.fsum((v - truth) ** 2 for v in values) / len(values))
        expected = [_type7(values, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        expected += [math.fsum(values) / len(values), rmse]
        got = [float(x) for x in summary[1:]]
        if summary[0] != str(budget) or len(got) != 7 or not all(
            _close(g, e) for g, e in zip(got, expected)
        ):
            errors.append(f"{label}: #SUMMARY {summary} != recomputed {expected}")
        if rmse > 0.0:
            points.append((budget, rmse))
    slope = (
        -_lsq_slope([math.log(c) for c, _ in points], [math.log(e) for _, e in points])
        if len(points) >= 2
        else math.nan
    )
    if not _close(float(csv.slope), slope):
        errors.append(f"{label}: #SLOPE {csv.slope} != recomputed {slope!r}")
    return errors, total_cost
