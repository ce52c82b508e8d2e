"""Command-line interface: one-shot estimates and full convergence studies.

Exit codes: 0 on success, 2 on invalid arguments or configuration, when
one draw or the level sequence of a run (32 bytes per level) would need more
memory than the bound allows, or when the ``--out`` file cannot be written,
3 when every replication exhausted its budget before the first draw.

The CSV records the revealed subset as ``#CONFIG,subset``: ``--subset`` if
given, otherwise the model file's ``subset``.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    ESTIMATOR_NAMES,
    ExperimentPlan,
    render_csv,
    run_plan,
    write_csv,
)
from .levels import BudgetExhaustedError


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
    common.add_argument(
        "--gamma",
        type=float,
        default=1.0,
        help="inner-bias decay exponent for the nested allocation (default 1)",
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
    return ExperimentPlan(
        estimator=args.estimator,
        budgets=budgets,
        replications=reps,
        model_config=args.model,
        subset=args.subset,
        base=args.b,
        ratio=args.r,
        gamma=args.gamma,
        seed=args.seed,
    )


def _cmd_estimate(args) -> int:
    plan = _make_plan(args, (args.budget,), 1)
    report = run_plan(plan)
    record = report.records[args.budget][0]
    print(f"estimator={plan.estimator}")
    print(f"budget={args.budget}")
    print(f"estimate={record.estimate!r}")
    print(f"truth={report.truth!r}")
    print(f"error={record.estimate - report.truth!r}")
    print(f"cost_used={record.cost_used}")
    print(f"n_draws={record.n_draws}")
    if args.out is not None:
        write_csv(report, plan, args.out)
    return 0


def _cmd_study(args) -> int:
    plan = _make_plan(args, args.budgets, args.reps)
    report = run_plan(plan, workers=args.workers)
    if args.out is not None:
        write_csv(report, plan, args.out)
    else:
        sys.stdout.write(render_csv(report, plan))
    for budget in plan.budgets:
        s = report.per_budget[budget]
        print(f"# budget={budget} mean={s.mean!r} rmse={s.rmse!r}", file=sys.stderr)
    print(f"# slope={report.slope!r}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_study(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
