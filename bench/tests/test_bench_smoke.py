"""Fast smoke tests of the benchmark at tiny sizes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_library()

import checks  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = harness.run_benchmark(workload, 5, 0.01, trace, wl.TINY)
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.PER_LAYER if trace else harness.END_TO_END)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if workload == "study-cli" and not trace:
        # the two known CLI faults fail on every pass, and nothing else does
        assert result["failed"] * 2 == result["attempted"]
    elif not trace:
        assert result["failed"] == 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_closed_forms():
    tie = checks.Gap(mean=0.0, var_revealed=2.0, var_hidden=3.0)
    assert tie.evppi() == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert tie.evpi() == pytest.approx(math.sqrt(5.0 / (2.0 * math.pi)), rel=1e-15)
    # E[max(X, 0)] - E[max(-X, 0)] = E[X]
    assert checks.mean_positive_part(0.7, 1.3) - checks.mean_positive_part(
        -0.7, 1.3
    ) == pytest.approx(0.7, rel=1e-14)
    # Var[max(X,0)] + Var[max(-X,0)] + 2 E[max(X,0)] E[max(-X,0)] = Var X
    mu, sd = 0.4, 2.0
    lhs = (
        checks.var_positive_part(mu, sd)
        + checks.var_positive_part(-mu, sd)
        + 2 * checks.mean_positive_part(mu, sd) * checks.mean_positive_part(-mu, sd)
    )
    assert lhs == pytest.approx(sd * sd, rel=1e-12)
    assert checks.nested_split(2**12) == (16, 256)
    assert checks.nested_split(2**22) == (161, 26007)


def test_study_csv_check_catches_a_wrong_summary():
    op = wl.study_ops(wl.TINY, 3, workers=1)[1]
    assert op.run().errors == []
    text = (wl.OUT_DIR / f"{op.label}.csv").read_text()
    lines = text.split("\n")
    i = next(k for k, line in enumerate(lines) if line.startswith("#SUMMARY"))
    fields = lines[i].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    lines[i] = ",".join(fields)
    errors, _ = checks.check_study_csv(op.label, "\n".join(lines), **op.study)
    assert len(errors) == 1 and "#SUMMARY" in errors[0]


def test_refuses_to_run_without_the_library(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-cli"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
