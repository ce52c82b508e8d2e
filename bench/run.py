"""The voimc benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload mlmc-expected --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory, never from an installed copy.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans are written to
``bench/out/trace-<workload>-seed<seed>.json.gz``.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, in this process and every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mlmc-expected", "nested-large", "study-cli")


def load_library() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    required = (ROOT / "src" / "voimc" / "__init__.py", ROOT / "scripts" / "benchmark_model.json")
    missing = [str(p) for p in required if not p.is_file()]
    if missing:
        print(f"error: not a voimc checkout; missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_library()
    import harness

    result = harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
