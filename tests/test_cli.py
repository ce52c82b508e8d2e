import os
import subprocess
import sys
from pathlib import Path

import pytest

from voimc.cli import main


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_estimator_exits_two(benchmark_model_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "estimate",
                "--estimator",
                "evpi-magic",
                "--model",
                benchmark_model_path,
                "--budget",
                "64",
            ]
        )
    assert exc.value.code == 2


def test_missing_model_exits_two(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--estimator",
            "evpi-coupled",
            "--model",
            str(tmp_path / "absent.json"),
            "--budget",
            "64",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evppi_without_subset_exits_two(tmp_path, capsys):
    import json

    path = tmp_path / "bare.json"
    path.write_text(
        json.dumps(
            {"s": 2, "w0": 0.0, "w": [1.0, 1.0], "mu": [0.0, 0.0], "sigma": [1.0, 1.0]}
        )
    )
    code = main(
        [
            "estimate",
            "--estimator",
            "evppi-coupled",
            "--model",
            str(path),
            "--budget",
            "64",
        ]
    )
    assert code == 2


def test_estimate_prints_fields(benchmark_model_path, capsys):
    code = main(
        [
            "estimate",
            "--estimator",
            "evppi-coupled",
            "--model",
            benchmark_model_path,
            "--subset",
            "1,2",
            "--budget",
            "512",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["estimator"] == "evppi-coupled"
    assert fields["budget"] == "512"
    float(fields["estimate"])
    float(fields["truth"])
    assert int(fields["cost_used"]) <= 512


def test_estimate_matches_study_first_replication(benchmark_model_path, capsys, tmp_path):
    args = [
        "--estimator",
        "evpi-coupled",
        "--model",
        benchmark_model_path,
        "--budget",
        "256",
        "--seed",
        "9",
    ]
    assert main(["estimate"] + args) == 0
    estimate = float(
        dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )["estimate"]
    )
    out = tmp_path / "study.csv"
    study_args = [
        "study",
        "--estimator",
        "evpi-coupled",
        "--model",
        benchmark_model_path,
        "--budgets",
        "256",
        "--reps",
        "1",
        "--seed",
        "9",
        "--out",
        str(out),
    ]
    assert main(study_args) == 0
    capsys.readouterr()
    row = next(
        l for l in out.read_text().splitlines() if l.startswith("evpi-coupled,")
    )
    assert float(row.split(",")[3]) == estimate


def test_budget_exhausted_exits_three(benchmark_model_path, capsys):
    for seed in range(60):
        code = main(
            [
                "estimate",
                "--estimator",
                "evpi-single",
                "--model",
                benchmark_model_path,
                "--budget",
                "2",
                "--r",
                "0.49",
                "--seed",
                str(seed),
            ]
        )
        capsys.readouterr()
        if code == 3:
            return
        assert code == 0
    pytest.fail("no exhausting seed found in 60 tries")


@pytest.mark.parametrize(
    "args",
    [
        # every level costs at least 2**26 rows of 5 coordinates, above the
        # per-draw memory bound, so the run is refused before sampling
        [
            "estimate",
            "--estimator",
            "evpi-coupled",
            "--budget",
            "268435456",
            "--b",
            "67108864",
            "--r",
            "1e-8",
        ],
        [
            "study",
            "--estimator",
            "evpi-nested",
            "--budgets",
            "16",
            "--reps",
            "1",
            "--workers",
            "0",
        ],
        # ratio * base >= 1 is no level law, even for a nested estimator
        ["study", "--estimator", "evpi-nested", "--budgets", "16", "--r", "0.9"],
        # a budget of 2**40 allows 2**39 levels, above the level-sequence
        # memory bound, so the run is refused before any level is drawn
        ["estimate", "--estimator", "evpi-coupled", "--budget", "1099511627776"],
    ],
    ids=["oversized-level", "workers-0", "ratio-0.9", "oversized-budget"],
)
def test_refused_run_exits_two_without_output(args, benchmark_model_path, capsys, tmp_path):
    out = tmp_path / "out.csv"
    code = main(args + ["--model", benchmark_model_path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_unwritable_out_exits_two(benchmark_model_path, capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    args = ["study", "--estimator", "evpi-nested", "--budgets", "16", "--reps", "1"]
    code = main(args + ["--model", benchmark_model_path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_study_stdout_when_no_out(benchmark_model_path, capsys):
    code = main(
        [
            "study",
            "--estimator",
            "evpi-coupled",
            "--model",
            benchmark_model_path,
            "--budgets",
            "64,256",
            "--reps",
            "3",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "estimator,budget,replication" in captured.out
    assert "#SLOPE," in captured.out
    assert "# slope=" in captured.err


def test_study_deterministic_bytes_across_workers(benchmark_model_path, tmp_path):
    base = [
        "study",
        "--estimator",
        "evppi-coupled",
        "--model",
        benchmark_model_path,
        "--subset",
        "1,2",
        "--budgets",
        "64,256",
        "--reps",
        "4",
        "--seed",
        "13",
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(base + ["--out", str(paths[0])]) == 0
    assert main(base + ["--out", str(paths[1])]) == 0
    assert main(base + ["--out", str(paths[2]), "--workers", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_module_entry_point_runs():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "voimc", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "estimate" in proc.stdout and "study" in proc.stdout
