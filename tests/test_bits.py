"""The bit dump of scripts/bits.py is itself deterministic."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _dump() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bits.py"), "--tiny"],
        capture_output=True, cwd=ROOT,
    )


def test_tiny_dump_repeats_byte_for_byte():
    first, second = _dump(), _dump()
    assert first.returncode == 0, first.stderr[-2000:]
    assert first.stdout == second.stdout
    lines = first.stdout.decode().splitlines()
    # every estimator run, each a value or a refusal, then 12 studies; both
    # study worker counts give the same CSV
    studies = [line.split() for line in lines if line.startswith("study ")]
    assert len(studies) == 12
    assert all(s[3] == "exit=0" for s in studies)
    assert [s[4:] for s in studies[::2]] == [s[4:] for s in studies[1::2]]
    assert len(lines) - len(studies) > 100
