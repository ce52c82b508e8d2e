"""Outside-in tracing: recorders around the objects the benchmark passes in.

The benchmark never patches the library.  It hands the estimators stand-ins
for the `RngStream`, `LevelDistribution`, `PriorSampler`, `FactoredSampler`
and `DecisionModel` it built, and each stand-in records one span per call
into its layer before delegating to the real object.  Results are therefore
bit-identical to an untraced call, which the benchmark checks.

Spans (name, start, end, parent, rows) live in flat arrays in memory and are
written out once, when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

# Layer of every span name recorded below; the estimator spans that the
# benchmark opens around each call are "estimators.<estimator name>".
RNG_GENERATOR = "rng.generator"
LEVELS_SAMPLE = "levels.sample"
GAUSSIAN_SPANS = ("gaussian.draw", "gaussian.draw_marginal", "gaussian.draw_conditional")
MODEL_PAYOFF = "model.payoff_matrix"


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, rows: int = 0) -> None:
        self.end[sid] = time.perf_counter()
        self.rows[sid] = rows
        # Unwind spans an exception left open, so later parents stay right.
        while self._stack and self._stack.pop() != sid:
            pass

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, total seconds and self seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["rows"] += self.rows[i]
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - covered[i]
        return dict(out)

    def as_json(self) -> dict:
        origin = self.start[0] if len(self.start) else 0.0
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - origin) * 1e6, 3) for t in self.start],
            "end_us": [round((t - origin) * 1e6, 3) for t in self.end],
            "rows": self.rows.tolist(),
        }


def write_traces(path, sections: dict[str, Tracer], extra: dict) -> None:
    """Write every tracer's spans plus ``extra`` as one gzipped JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"sections": {k: t.as_json() for k, t in sections.items()}, **extra}
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(doc, handle)


# ---------------------------------------------------------------------------
# stand-ins for the library's public objects
# ---------------------------------------------------------------------------


class TracedStream:
    """`RngStream` stand-in: every child is traced, every generator timed."""

    __slots__ = ("_stream", "_tracer")

    def __init__(self, stream, tracer: Tracer) -> None:
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def child(self, *indices: int) -> "TracedStream":
        return TracedStream(self._stream.child(*indices), self._tracer)

    def generator(self):
        sid = self._tracer.open(RNG_GENERATOR)
        gen = self._stream.generator()
        self._tracer.close(sid, 1)
        return gen


class TracedLevels:
    """`LevelDistribution` stand-in timing level draws.

    The cost schedule and pmf are the real object's bound methods, so they
    add no overhead; `sample_levels` (expected-cost rule) and `stream`
    (prefix rule, through `draws_for_budget`) record spans.
    """

    def __init__(self, dist, tracer: Tracer) -> None:
        self._dist = dist
        self._tracer = tracer
        self.base = dist.base
        self.ratio = dist.ratio
        self.pmf = dist.pmf
        self.tail = dist.tail
        self.cost = dist.cost
        self.expected_cost = dist.expected_cost

    def __getattr__(self, name):
        return getattr(self._dist, name)

    def sample_levels(self, rng, size):
        sid = self._tracer.open(LEVELS_SAMPLE)
        out = self._dist.sample_levels(rng, size)
        self._tracer.close(sid, len(out))
        return out

    def stream(self, rng):
        # One span from the first level pulled until the consumer drops the
        # stream; `draws_for_budget` does nothing else in between.
        sid = self._tracer.open(LEVELS_SAMPLE)
        pulled = 0
        try:
            for level in self._dist.stream(rng):
                pulled += 1
                yield level
        finally:
            self._tracer.close(sid, pulled)


class TracedPrior:
    """`PriorSampler` stand-in."""

    def __init__(self, prior, tracer: Tracer) -> None:
        self._prior = prior
        self._tracer = tracer
        self.dimension = prior.dimension

    def __getattr__(self, name):
        return getattr(self._prior, name)

    def draw(self, rng, size=1):
        sid = self._tracer.open("gaussian.draw")
        out = self._prior.draw(rng, size)
        self._tracer.close(sid, out.shape[0])
        return out


class TracedFactored:
    """`FactoredSampler` stand-in; `combine` is passed through untimed."""

    def __init__(self, factored, tracer: Tracer) -> None:
        self._factored = factored
        self._tracer = tracer
        self.dimension = factored.dimension
        self.revealed = factored.revealed
        self.combine = factored.combine

    def __getattr__(self, name):
        return getattr(self._factored, name)

    def draw_marginal(self, rng, size=1):
        sid = self._tracer.open("gaussian.draw_marginal")
        out = self._factored.draw_marginal(rng, size)
        self._tracer.close(sid, out.shape[0])
        return out

    def draw_conditional(self, revealed_values, rng, size=1):
        sid = self._tracer.open("gaussian.draw_conditional")
        out = self._factored.draw_conditional(revealed_values, rng, size)
        self._tracer.close(sid, out.shape[0])
        return out


class TracedModel:
    """`DecisionModel` stand-in timing `payoff_matrix`."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer
        self.decisions = model.decisions
        self.dimension = model.dimension
        self.n_decisions = model.n_decisions

    def __getattr__(self, name):
        return getattr(self._model, name)

    def payoff_matrix(self, xs):
        sid = self._tracer.open(MODEL_PAYOFF)
        out = self._model.payoff_matrix(xs)
        self._tracer.close(sid, out.shape[0])
        return out
