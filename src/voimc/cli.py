"""Command-line interface: one-shot estimates and full convergence studies.

Exit codes: 0 on success, 2 on invalid arguments or configuration, when one
draw's samples would exceed the per-draw bound of 2**30 bytes, or when
``--out`` cannot be opened for writing (checked before the run; a failed run
leaves no new file), 3 when every replication of a budget ran out before
its first draw.

The CSV records the revealed subset as ``#CONFIG,subset``: ``--subset`` if
given, otherwise the model file's ``subset``, in increasing order.

The library, and numpy with it, loads only once a command computes
something: ``--help``, every refusal argparse makes, and a ``study``
``--workers`` below 1 exit before it loads.  The worker count is therefore
checked before the other arguments, the model file and ``--out``; of two
faults in one command, a bad worker count is the one reported.

``python -m voimc`` and the ``voimc`` script enter through `_entry`, which
freezes the garbage collector's heap (`gc.freeze`) once `main` has returned
and before the process exits, so the collections of the interpreter's
finalization skip every object the run left alive: about 9 ms per process
that loaded the library.  `main` itself never freezes: tests and library
users call it in-process.  Before `main`, and so before numpy loads, it sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
where the user has not set them, so the payoffs' small matrix products run
on the calling thread of every process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .validate import ESTIMATOR_NAMES, _check_int


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated integer list: {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voimc",
        description=(
            "Monte Carlo estimation of the expected value of perfect and "
            "partial perfect information"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--estimator", required=True, choices=ESTIMATOR_NAMES, help="estimator to run"
    )
    common.add_argument("--model", required=True, help="path to a model config JSON")
    common.add_argument(
        "--subset",
        type=_parse_int_list,
        default=None,
        help="revealed coordinates, 1-based comma list (evppi estimators)",
    )
    common.add_argument("--b", type=int, default=2, help="level growth base (default 2)")
    common.add_argument(
        "--r",
        type=float,
        default=None,
        help="geometric level ratio (default b**-1.5)",
    )
    common.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    common.add_argument("--out", default=None, help="CSV output path")

    one = sub.add_parser("estimate", parents=[common], help="run one estimation")
    one.add_argument("--budget", type=int, required=True, help="computational budget")

    study = sub.add_parser("study", parents=[common], help="run a replication study")
    study.add_argument(
        "--budgets",
        type=_parse_int_list,
        required=True,
        help="comma-separated, strictly increasing budgets",
    )
    study.add_argument(
        "--reps", type=int, default=100, help="replications per budget (default 100)"
    )
    study.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    return parser


def _make_plan(args, budgets: tuple[int, ...], reps: int) -> ExperimentPlan:
    from .experiment import ExperimentPlan

    return ExperimentPlan(
        estimator=args.estimator,
        budgets=budgets,
        replications=reps,
        model_config=args.model,
        subset=args.subset,
        base=args.b,
        ratio=args.r,
        seed=args.seed,
    )


def _run_and_write(plan: ExperimentPlan, out, workers: int = 1, echo: bool = False):
    """Run ``plan`` and write its CSV to ``out``, or to stdout if ``echo``.

    ``out`` is opened (for appending) before the run; if the run fails, an
    existing file keeps its bytes and a file created here is removed.
    """
    from .experiment import render_csv, run_plan

    if out is None:
        report = run_plan(plan, workers=workers)
        if echo:
            sys.stdout.write(render_csv(report, plan))
        return report
    existed = os.path.exists(out)
    handle = open(out, "a", newline="\n")
    try:
        with handle:
            report = run_plan(plan, workers=workers)
            handle.truncate(0)
            handle.write(render_csv(report, plan))
    except BaseException:
        if not existed:
            os.remove(out)
        raise
    return report


def _cmd_estimate(args) -> int:
    plan = _make_plan(args, (args.budget,), 1)
    report = _run_and_write(plan, args.out)
    record = report.records[args.budget][0]
    print(f"estimator={plan.estimator}")
    print(f"budget={args.budget}")
    print(f"estimate={record.estimate!r}")
    print(f"truth={report.truth!r}")
    print(f"error={record.estimate - report.truth!r}")
    print(f"cost_used={record.cost_used}")
    print(f"n_draws={record.n_draws}")
    return 0


def _cmd_study(args) -> int:
    plan = _make_plan(args, args.budgets, args.reps)
    report = _run_and_write(plan, args.out, workers=args.workers, echo=True)
    for budget in plan.budgets:
        s = report.per_budget[budget]
        print(f"# budget={budget} mean={s.mean!r} rmse={s.rmse!r}", file=sys.stderr)
    print(f"# slope={report.slope!r}", file=sys.stderr)
    return 0


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "study":
        try:
            _check_int(args.workers, "workers", 1)
        except ValueError as exc:
            return _error(exc, 2)
    from .levels import BudgetExhaustedError

    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_study(args)
    except (ValueError, MemoryError, OSError) as exc:
        return _error(exc, 2)
    except BudgetExhaustedError as exc:
        return _error(exc, 3)


def _entry() -> None:
    """Run `main` on ``sys.argv`` and exit with its code.

    The heap is frozen only after `main` returns.  An exception that escapes
    `main`, or argparse's own exit, leaves as it would without this: a
    traceback and code 1, or argparse's code.  ``os._exit`` would save
    about 2 ms more, but it skips the atexit handlers and the flushing of
    the standard streams.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    _entry()
