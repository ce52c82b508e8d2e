"""Deterministic random-number streams for reproducible simulation.

A stream is identified by a root seed plus a tuple of child indices, and the
mapping (seed, path) -> bit stream is fixed.  Any unit of work (a replication,
one kind of sample at one level of a run) owns the stream derived from its
logical coordinates, never from execution order, so serial and parallel runs
of the same configuration produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """A named position in a reproducible tree of independent random streams.

    Distinct (seed, path) pairs yield statistically independent generators;
    identical pairs yield bit-identical draw sequences.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if any(ix < 0 for ix in self.path):
            raise ValueError("stream indices must be non-negative")

    def child(self, *indices: int) -> "RngStream":
        """The sub-stream at the given indices below this one."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """A fresh counter-based generator positioned at the stream's start."""
        entropy = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(entropy))
