"""Deterministic random-number streams for reproducible simulation.

A stream is identified by a root seed plus a tuple of child indices, and the
mapping (seed, path) -> bit stream is fixed.  Any unit of work (a replication,
one kind of sample in a run) owns the stream derived from its logical
coordinates, never from execution order, so serial and parallel runs of the
same configuration produce bit-identical results.

Every stream is numpy's SFC64 bit generator, its 256-bit state hashed from
the coordinates by ``SeedSequence(seed, spawn_key=path)``: distinct
coordinates give unrelated states, and SFC64's built-in counter gives each
stream a period of at least 2**64.  `RngStream.generator` is the only place
in the package that builds a generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validate import _check_int

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """A named position in a reproducible tree of independent random streams.

    Distinct (seed, path) pairs yield statistically independent generators;
    identical pairs yield bit-identical draw sequences.  The seed and every
    index must be non-negative integers (bools are not); ``path`` is stored as
    a tuple of Python ints.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))
        path = tuple(_check_int(ix, "stream index", 0) for ix in self.path)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        """The sub-stream at the given indices below this one."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator positioned at the stream's start."""
        entropy = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(entropy))
