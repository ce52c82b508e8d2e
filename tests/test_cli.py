import gc
import re
import sys
from pathlib import Path

import pytest

from voimc import cli
from voimc.cli import main

from support import fresh_python


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
    ],
    ids=["oversized-level", "workers-0", "ratio-0.9"],
)
def test_refused_run_exits_two_without_output(args, benchmark_model_path, capsys, tmp_path):
    out = tmp_path / "out.csv"
    code = main(args + ["--model", benchmark_model_path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_gamma_option_refused(benchmark_model_path, capsys):
    # the nested split is fixed, (floor(C**(1/3)), floor(C**(2/3))), so there
    # is no --gamma to set and no #CONFIG,gamma line to record it
    args = ["study", "--estimator", "evppi-nested", "--model", benchmark_model_path]
    args += ["--subset", "1,2", "--budgets", "64", "--reps", "1"]
    with pytest.raises(SystemExit) as info:
        main(args + ["--gamma", "1.0"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(args) == 0
    assert "#CONFIG,gamma" not in capsys.readouterr().out


def test_unwritable_out_exits_two(benchmark_model_path, capsys, tmp_path, monkeypatch):
    # --out is opened before the plan runs, so not one replication runs
    def never(*_args, **_kwargs):
        pytest.fail("ran the plan before opening --out")

    monkeypatch.setattr("voimc.experiment.run_plan", never)
    out = tmp_path / "missing" / "x.csv"
    for args in (
        ["study", "--estimator", "evpi-nested", "--budgets", "16", "--reps", "1"],
        ["estimate", "--estimator", "evpi-nested", "--budget", "16"],
    ):
        code = main(args + ["--model", benchmark_model_path, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_non_finite_model_exits_two_before_sampling(capsys, tmp_path, monkeypatch):
    # the model is rejected when it is read, before one replication runs
    def never(*_args, **_kwargs):
        pytest.fail("ran a replication of a non-finite model")

    monkeypatch.setattr("voimc.experiment.run_replication", never)
    model = tmp_path / "model.json"
    model.write_text(
        '{"s": 2, "w0": NaN, "w": [1, 1], "mu": [0, 0], "sigma": [1, Infinity]}'
    )
    code = main(
        ["estimate", "--estimator", "evpi-coupled", "--budget", "64", "--model", str(model)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err


def test_failed_run_keeps_existing_out(benchmark_model_path, capsys, tmp_path):
    # the run is refused inside run_plan (a level above the per-draw memory
    # bound), after --out is opened; the file keeps its old bytes until a run
    # succeeds and replaces all of them
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    out.write_text("previous results\n" * 1000)
    args = ["estimate", "--estimator", "evpi-coupled", "--model", benchmark_model_path]
    oversized = ["--b", "67108864", "--r", "1e-8", "--budget", "268435456"]
    assert main(args + oversized + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "previous results\n" * 1000
    assert main(args + ["--budget", "64", "--out", str(out)]) == 0
    assert main(args + ["--budget", "64", "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


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


def test_study_subset_order_does_not_change_bytes(benchmark_model_path, tmp_path):
    # the revealed subset is a set: it runs and is recorded in increasing order
    base = ["study", "--estimator", "evppi-single", "--model", benchmark_model_path]
    base += ["--budgets", "64,256", "--reps", "3", "--seed", "5"]
    paths = [tmp_path / "12.csv", tmp_path / "21.csv"]
    assert main(base + ["--subset", "1,2", "--out", str(paths[0])]) == 0
    assert main(base + ["--subset", "2,1", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "#CONFIG,subset,1|2\n" in paths[1].read_text()


def test_module_entry_point_runs():
    proc = fresh_python("-m", "voimc", "--help")
    assert proc.returncode == 0
    assert "estimate" in proc.stdout and "study" in proc.stdout


_BENCHMARK_MODEL = str(
    Path(__file__).resolve().parents[1] / "scripts" / "benchmark_model.json"
)

# Modules a run loads only when it uses them: numpy.ma (np.setdiff1d,
# np.unique and np.quantile pull it in), the executors, and multiprocessing.
_LAZY = ("numpy.ma", "concurrent.futures", "multiprocessing")
# A command that computes nothing loads no numpy at all.
_NO_LIBRARY = ("numpy", "concurrent.futures", "multiprocessing")

_STUDY = ["-m", "voimc", "study", "--estimator", "evpi-nested"]
_STUDY += ["--model", "missing.json", "--budgets", "16", "--reps", "1"]

_ONE_MLMC_CALL = """
import sys, voimc
config, subset = voimc.load_model_config(sys.argv[1])
model, prior, _ = voimc.make_gaussian_model(config, subset)
dist = voimc.LevelDistribution(2, voimc.optimal_ratio(2, 1))
voimc.evpi_mlmc(model, prior, dist, 1024, "coupled", voimc.RngStream(1))
"""

# one nested call of each kind at the helper-thread gate, 2**14 payoff rows
_NESTED_AT_GATE = """
import sys, voimc
config, subset = voimc.load_model_config(sys.argv[1])
model, prior, factored = voimc.make_gaussian_model(config, subset)
voimc.evpi_nested(model, prior, outer_draws=2**13, baseline_draws=2**13,
                  rng=voimc.RngStream(1))
voimc.evppi_nested(model, factored, prior, outer_draws=2**11, inner_draws=4,
                   baseline_draws=2**13, rng=voimc.RngStream(2))
"""

_STUDY_RUN = """
import sys, voimc
plan = voimc.ExperimentPlan("evppi-nested", (64, 256), 2, sys.argv[1], seed=3)
voimc.run_plan(plan, workers=int(sys.argv[2]))
"""


@pytest.mark.parametrize(
    "command, code, absent",
    [
        (["-c", "import voimc"], 0, _NO_LIBRARY),
        (["-m", "voimc", "--help"], 0, _NO_LIBRARY),
        # refused before the library loads, by the library's own check
        (_STUDY + ["--workers", "0"], 2, _NO_LIBRARY),
        # refused by argparse
        (_STUDY + ["--gamma", "1.0"], 2, _NO_LIBRARY),
        (["-c", _ONE_MLMC_CALL, _BENCHMARK_MODEL], 0, _LAZY),
        # a nested call up to the gate starts no helper thread
        (["-c", _NESTED_AT_GATE, _BENCHMARK_MODEL], 0, _LAZY),
        # a serial study of small nested calls runs each baseline term on the
        # calling thread, and its summaries take quantiles without numpy.ma
        (["-c", _STUDY_RUN, _BENCHMARK_MODEL, "1"], 0, _LAZY),
        # a pooled study forks its workers: no process pool, no numpy.ma
        (["-c", _STUDY_RUN, _BENCHMARK_MODEL, "2"], 0, _LAZY),
        # every level of this law is above the per-draw bound: refused before
        # any random stream is built
        (
            ["-m", "voimc", "estimate", "--estimator", "evpi-coupled"]
            + ["--model", _BENCHMARK_MODEL, "--budget", "268435456"]
            + ["--b", "67108864", "--r", "1e-8"],
            2,
            _LAZY + ("numpy.random",),
        ),
    ],
    ids=[
        "import",
        "help",
        "workers-0",
        "argparse-refusal",
        "evpi-mlmc",
        "nested-at-gate",
        "serial-study",
        "pooled-study",
        "oversized-level",
    ],
)
def test_runtime_import_footprint(command, code, absent):
    # a run loads only what it uses, and scipy is a test dependency only;
    # `-X importtime` lists every module a fresh interpreter imports, on stderr
    proc = fresh_python("-X", "importtime", *command)
    assert proc.returncode == code, proc.stderr[-2000:]
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "voimc" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
    packages = tuple(module + "." for module in absent)
    assert not [name for name in imported if (name + ".").startswith(packages)]


def test_workers_refused_before_other_arguments(tmp_path):
    # the refusal keeps its bytes, and comes first: the level law (ratio 0.9
    # is none), the model file and --out, all bad here, are never checked
    out = tmp_path / "missing" / "x.csv"
    proc = fresh_python(*_STUDY, "--r", "0.9", "--out", str(out), "--workers", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: workers must be a positive integer, got 0\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["study", "--estimator", "evpi-nested", "--subset", "1,1,0"]
        + ["--budgets", "64", "--reps", "1"],
        ["estimate", "--estimator", "evpi-coupled", "--subset", "9"]
        + ["--budget", "64"],
        ["estimate", "--estimator", "evppi-single", "--subset", "2,2"]
        + ["--budget", "64"],
    ],
    ids=["evpi-repeated", "evpi-out-of-range", "evppi-repeated"],
)
def test_bad_subset_exits_two_for_every_estimator(
    benchmark_model_path, tmp_path, capsys, args
):
    # the CSV records the named subset, so it is checked against the model
    # even where perfect information reveals every coordinate
    out = tmp_path / "out.csv"
    code = main(args + ["--model", benchmark_model_path, "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the exit path: `python -m voimc` and the `voimc` script enter through
# `cli._entry`, which freezes the heap after `main` returns
# ---------------------------------------------------------------------------


def test_entry_stdout_beyond_pipe_buffer_is_complete(capsys):
    # about 80 KiB of CSV, more than a 64 KiB pipe buffer holds, must all be
    # flushed before the process exits
    args = ["study", "--estimator", "evpi-nested", "--model", _BENCHMARK_MODEL]
    args += ["--budgets", "16,32", "--reps", "600", "--seed", "4"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert len(captured.out.encode()) > 65536
    proc = fresh_python("-m", "voimc", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == captured.out
    assert proc.stderr == captured.err


def test_entry_out_file_matches_in_process(capsys, tmp_path):
    args = ["study", "--estimator", "evppi-coupled", "--model", _BENCHMARK_MODEL]
    args += ["--subset", "1,2", "--budgets", "64,256", "--reps", "4", "--seed", "8"]
    here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
    assert main(args + ["--out", str(here)]) == 0
    captured = capsys.readouterr()
    proc = fresh_python("-m", "voimc", *args, "--out", str(fresh), "--workers", "2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert fresh.read_bytes() == here.read_bytes()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


def test_entry_study_bytes_do_not_depend_on_workers(tmp_path):
    args = ["-m", "voimc", "study", "--estimator", "evppi-nested"]
    args += ["--model", _BENCHMARK_MODEL, "--subset", "1,2"]
    args += ["--budgets", "64,256,1024", "--reps", "5", "--seed", "9"]
    seen = []
    for workers in ("1", "2"):
        out = tmp_path / f"{workers}.csv"
        echoed = fresh_python(*args, "--workers", workers)
        written = fresh_python(*args, "--workers", workers, "--out", str(out))
        assert echoed.returncode == written.returncode == 0, echoed.stderr[-2000:]
        assert echoed.stdout.startswith("#CONFIG,estimator,evppi-nested\n")
        streams = (echoed.stdout, echoed.stderr, written.stdout, written.stderr)
        seen.append(streams + (out.read_bytes(),))
    assert seen[0] == seen[1]


def test_entry_passes_exit_codes_through(capsys):
    # 0: `estimate` prints its fields line by line into a block-buffered pipe
    ok = ["estimate", "--estimator", "evpi-coupled", "--model", _BENCHMARK_MODEL]
    ok += ["--budget", "256", "--seed", "3"]
    # 2: every level of this law is above the per-draw memory bound
    oversized = ["estimate", "--estimator", "evpi-coupled", "--model", _BENCHMARK_MODEL]
    oversized += ["--budget", "268435456", "--b", "67108864", "--r", "1e-8"]
    # 3: the first drawn level does not fit the budget, at the first such seed
    exhausted = ["estimate", "--estimator", "evpi-single", "--model", _BENCHMARK_MODEL]
    exhausted += ["--budget", "2", "--r", "0.49", "--seed"]
    for seed in range(60):
        code = main(exhausted + [str(seed)])
        capsys.readouterr()
        if code == 3:
            break
    else:
        pytest.fail("no exhausting seed found in 60 tries")
    for args, code in ((ok, 0), (oversized, 2), (exhausted + [str(seed)], 3)):
        assert main(args) == code
        captured = capsys.readouterr()
        proc = fresh_python("-m", "voimc", *args)
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


def test_main_never_freezes_the_heap(benchmark_model_path, capsys):
    before = gc.get_freeze_count()
    args = ["study", "--estimator", "evpi-coupled", "--model", benchmark_model_path]
    assert main(args + ["--budgets", "64", "--reps", "2"]) == 0
    assert main(args + ["--budgets", "64", "--reps", "2", "--workers", "0"]) == 2
    assert gc.get_freeze_count() == before


def test_entry_freezes_only_after_main_returns(monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))

    def returns():
        events.append("main")
        return 3

    monkeypatch.setattr(cli, "main", returns)
    with pytest.raises(SystemExit) as exc:
        cli._entry()
    assert exc.value.code == 3
    assert events == ["main", "freeze"]

    for error in (RuntimeError("boom"), SystemExit(2)):

        def raises(error=error):
            events.append("main")
            raise error

        events.clear()
        monkeypatch.setattr(cli, "main", raises)
        with pytest.raises(type(error)) as exc:
            cli._entry()
        assert exc.value is error
        assert events == ["main"]


def test_script_and_module_enter_through_the_same_function():
    # read with a regex: tomllib needs Python 3.11
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    script = re.search(r'^voimc\s*=\s*"voimc\.cli:(\w+)"\s*$', pyproject, re.M)
    module = (root / "src" / "voimc" / "__main__.py").read_text()
    imported = re.search(r"^from \.cli import (\w+)$", module, re.M)
    assert script and imported
    assert script.group(1) == imported.group(1) == cli._entry.__name__
    assert f"    {imported.group(1)}()\n" in module
