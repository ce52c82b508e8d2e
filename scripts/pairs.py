"""Run the benchmark in alternated parent/change pairs and summarize them.

Run from anywhere, with nothing but the standard library:

    python scripts/pairs.py --parent ../parent --change . \\
        --workload mlmc-expected --seeds 3101-3110 --seconds 30 --out pairs.json

Pair k runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout tree, at that pair's seed, the change
first when k is odd and the parent first when k is even.  Every run's last
line of standard output (its JSON result) is kept under ``runs`` in the
``--out`` file, in the layout of the ``BENCH_<n>.json`` records.  Then, for
each metric the runs report, it prints each side's median and quartiles,
how many pairs the change won (ties count for neither side) and whether a
gain may be claimed.  A gain needs the change to win at least nine tenths
of the pairs, and its median to beat the parent's by more than the
distance between the parent's quartiles.  Which way is better comes from
``BENCHMARK.json`` in the change tree.  ``--trace 1`` runs traced pairs the
same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics (numpy's default quantile method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(
    pairs: list[tuple[float, float]], better: str | None
) -> dict[str, object]:
    """Summary of ``pairs`` of (parent, change) readings of one metric.

    ``better`` is "lower", "higher" or None (a metric with no direction, for
    which no pair is won and no gain is claimed).
    """
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    summary: dict[str, object] = {"parent": parent, "change": change}
    if better is None:
        return summary
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (change[1] - parent[1])
    spread = parent[2] - parent[0]
    summary.update(
        wins=wins,
        pairs=len(pairs),
        gain=gain,
        parent_spread=spread,
        claim_holds=wins >= 0.9 * len(pairs) and gain > spread,
    )
    return summary


def parse_seeds(text: str) -> list[int]:
    """Seeds from "a-b" (inclusive) or a comma-separated list."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def directions(tree: Path) -> dict[str, str]:
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["better"]
        for metric in declared.get("end_to_end", []) + declared.get("per_layer", [])
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for k, seed in enumerate(args.seeds, 1):
        order = ("change", "parent") if k % 2 else ("parent", "change")
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
            runs.append({
                "pair": k, "first": order[0], "side": side,
                "workload": args.workload, "seed": seed, "trace": args.trace,
                "result": result,
            })
            print(f"pair {k} seed {seed} {side}: done", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    better = directions(trees["change"])
    by_side = {
        side: [r["result"]["metrics"] for r in runs if r["side"] == side]
        for side in trees
    }
    for name in by_side["parent"][0]:
        pairs = [
            (p[name]["value"], c[name]["value"])
            for p, c in zip(by_side["parent"], by_side["change"])
        ]
        s = summarize(pairs, better.get(name))
        line = f"{name}: parent {s['parent'][1]:.6g} ({s['parent'][0]:.6g}-"
        line += f"{s['parent'][2]:.6g}) -> change {s['change'][1]:.6g} "
        line += f"({s['change'][0]:.6g}-{s['change'][2]:.6g})"
        if "wins" in s:
            line += f"; change won {s['wins']} of {s['pairs']}; claim "
            line += "holds" if s["claim_holds"] else "not met"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
