"""Print the output bits of every voimc estimator and the bytes of its studies.

Run from a checkout root, with nothing but the library and numpy:

    python scripts/bits.py > bits.txt
    python scripts/bits.py --tiny > bits.txt   # a few seconds, for tests

Each estimator run is one call of `voimc.experiment.run_estimator`, the
call a ``voimc study`` cell makes, so it splits its budget as the study
does, on the stream ``RngStream(seed)`` and under the named budget rule.
It prints one line: what ran, then its estimate, term variance, draw count
and cost, and for a multilevel run every realized level's count, mean and
second moment, floats as ``float.hex``.  A run that raises prints the error
instead.  The runs cover all six estimators, the multilevel ones under both
budget rules; the tie and offset Gaussian benchmarks with revealed subsets
(1,2), (3,1) and all five coordinates; budgets 2^8, 2^12 and 2^16 (the
nested estimators at every power of two from 2^8 to 2^16, so that their
calls cross both the helper-thread gate and the chunk boundary, 2^14 rows
each) and seeds 1-3; the finite-support model of
``tests/finite_support.py``; and payoffs of 1, 3 and 9 decisions returned
in C and in Fortran order.  Then come the sha256 of the CSV and of stderr
of the criterion-9 study (``voimc study``, budgets 256, 1024 and 4096, 20
replications, seed 17) for every estimator at ``--workers`` 1 and 2.
``--tiny`` runs the nested estimators at 2^13, 2^14 and 2^15, so that they
still cross both boundaries.

No reference output is stored.  That a change keeps every bit is shown by
an empty ``diff`` between this script's output on the parent and on the
change.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import voimc  # noqa: E402
from finite_support import finite_support_model  # noqa: E402
from voimc.experiment import run_estimator  # noqa: E402

ESTIMATORS = voimc.ESTIMATOR_NAMES
RULES = ("expected", "prefix")
SUBSETS = ((1, 2), (3, 1), (1, 2, 3, 4, 5))
DIST = voimc.LevelDistribution(2, voimc.optimal_ratio(2, 1))


def gaussian(intercept: float) -> voimc.GaussianLinearModel:
    return voimc.GaussianLinearModel(intercept, (1.0,) * 5, (0.0,) * 5, (1.0,) * 5)


def decisions(count: int, order: str) -> voimc.DecisionModel:
    """``count`` affine decisions of 5 coordinates, returned in ``order``."""
    weights = np.cos(np.arange(5 * count, dtype=float)).reshape(5, count)
    shifts = np.sin(np.arange(count, dtype=float)) / 3
    return voimc.DecisionModel(
        tuple(range(count)), lambda xs: np.asarray(xs @ weights + shifts, order=order), 5
    )


def line(label: str, call) -> str:
    try:
        r = call()
    except (ValueError, MemoryError, voimc.BudgetExhaustedError) as exc:
        # a refusal is part of the output
        return f"{label} raised {type(exc).__name__}: {exc}"
    fields = [r.estimate.hex(), r.term_variance.hex(), str(r.n_draws), str(r.cost_used)]
    for level, s in r.per_level.items():
        fields.append(f"L{level}:{s.count}:{s.mean.hex()}:{s.second_moment.hex()}")
    return f"{label} " + " ".join(fields)


def estimator_lines(budgets, nested_budgets, seeds):
    """The dump line of every estimator run."""
    cases = []
    for name, intercept in (("tie", 0.0), ("offset", 1.0)):
        for subset in SUBSETS:
            built = voimc.make_gaussian_model(gaussian(intercept), subset)
            # perfect information reveals every coordinate: one subset will do
            names = ESTIMATORS if subset == SUBSETS[0] else ESTIMATORS[3:]
            cases.append((f"{name}{subset}".replace(" ", ""), built, names))
    cases.append(("finite", finite_support_model(), ESTIMATORS))
    _, prior, factored = voimc.make_gaussian_model(gaussian(0.0), (1, 2))
    for count in (1, 3, 9):
        for order in "CF":
            model = decisions(count, order)
            cases.append((f"decisions{count}{order}", (model, prior, factored), ESTIMATORS))
    for case, models, names in cases:
        for estimator in names:
            nested = estimator.endswith("nested")
            # a nested call reads no budget rule; its label shows "-"
            for rule in ("-",) if nested else RULES:
                for budget in nested_budgets if nested else budgets:
                    for seed in seeds:
                        label = f"{case} {estimator} {rule} {budget} {seed}"
                        yield line(label, lambda: run_estimator(
                            estimator, models, DIST, budget, voimc.RngStream(seed),
                            budget_rule=rule,
                        ))


def study_lines(budgets: str, reps: str):
    """sha256 of each criterion-9 study's CSV and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "study.csv"
        for estimator in ESTIMATORS:
            for workers in ("1", "2"):
                proc = subprocess.run(
                    [sys.executable, "-m", "voimc", "study", "--estimator", estimator,
                     "--model", str(ROOT / "scripts" / "benchmark_model.json"),
                     "--subset", "1,2", "--budgets", budgets, "--reps", reps,
                     "--seed", "17", "--workers", workers, "--out", str(out)],
                    capture_output=True, env=env,
                )
                csv = out.read_bytes() if out.exists() else b""
                out.unlink(missing_ok=True)
                yield (
                    f"study {estimator} workers={workers} exit={proc.returncode} "
                    f"csv={hashlib.sha256(csv).hexdigest()} "
                    f"stderr={hashlib.sha256(proc.stderr).hexdigest()}"
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="budget 2^8 (nested: 2^13 to 2^15), seed 1, a 2-replication study",
    )
    tiny = parser.parse_args().tiny
    if tiny:  # nested budgets on either side of the gate and the chunk boundary
        lines = estimator_lines((2**8,), (2**13, 2**14, 2**15), (1,))
        studies = study_lines("16,64", "2")
    else:
        powers = (8, 12, 16)
        lines = estimator_lines(
            tuple(2**p for p in powers), tuple(2**p for p in range(8, 17)), (1, 2, 3)
        )
        studies = study_lines("256,1024,4096", "20")
    for text in (*lines, *studies):
        print(text, flush=True)


if __name__ == "__main__":
    main()
