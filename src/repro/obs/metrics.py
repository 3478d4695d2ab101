"""Process-local metrics with one associative fold.

Before this module the runtime had bespoke merge paths — lane counters,
per-worker traffic stats, worker analysis counters, and the governor
snapshot — each with its own dict shape and its
own delta arithmetic scattered through ``engine.py``.  A
:class:`MetricsRegistry` replaces them with three instrument kinds and a
single :meth:`~MetricsRegistry.fold`:

* **counters** — monotone sums; fold adds.
* **gauges** — point-in-time levels; fold takes the max, *not* the last
  write, so folding is commutative (order-independence is property-tested).
* **histograms** — fixed-bucket latency distributions; fold adds
  bucket-wise and sums ``sum``/``count``.

All three folds are associative and commutative, which is what makes the
cross-process story trivial: a drain worker keeps its own registry, ships
``registry.snapshot()`` back in the response frame exactly like
``worker_stats``, and the engine folds it in — no special-casing per
metric family, no ordering requirements between workers.

Snapshots are plain ``dict``s of primitives: picklable for the worker
frames, JSON-able for the export file.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "MetricsRegistry",
    "fold_snapshots",
]

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly geometric.
#: Fixed buckets — never derived from observed data — so histograms from
#: different processes always fold bucket-to-bucket.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)


class Histogram:
    """A fixed-bucket histogram (upper-bound buckets plus overflow)."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding rank q.

        Overflow observations report the largest finite bound — a floor on
        the true value, good enough for the latency breakdowns this feeds.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, round(q * self.count))
        seen = 0
        for index, hits in enumerate(self.buckets):
            seen += hits
            if seen >= rank:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]

    def as_dict(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Counters, gauges and histograms for one process.

    Guarded by one lock: :meth:`AdmissionQueue.submit
    <repro.runtime.queue.AdmissionQueue.submit>` counts into the engine's
    run registry, and clients may submit from their own threads while the
    decider thread drains.  Label sets ride inside the metric name —
    ``"engine.lane.admitted[region=r0_0]"`` — keeping snapshots flat
    dicts; :func:`split_name` recovers the labels for reporting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram_for(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A picklable/JSON-able copy of every instrument."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def fold(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Merge a foreign snapshot in: the one cross-process merge path.

        Counter folds add, gauge folds take the max, histogram folds add
        bucket-wise — all associative and commutative, so worker snapshots
        may arrive in any order (property-tested).
        """
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in gauges.items():
                current = self._gauges.get(name)
                self._gauges[name] = value if current is None else max(current, value)
            for name, data in histograms.items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        tuple(data["bounds"])
                    )
                if tuple(data["bounds"]) != histogram.bounds:
                    raise ValueError(
                        f"histogram {name!r}: bucket bounds mismatch on fold"
                    )
                for index, hits in enumerate(data["buckets"]):
                    histogram.buckets[index] += hits
                histogram.sum += data["sum"]
                histogram.count += data["count"]

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters) + len(self._gauges) + len(self._histograms)
            )


def fold_snapshots(
    snapshots: list[dict[str, dict[str, object]]],
) -> dict[str, dict[str, object]]:
    """Fold plain snapshot dicts without building registries (test helper)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.fold(snapshot)
    return registry.snapshot()


def split_name(name: str) -> tuple[str, dict[str, str]]:
    """Split ``"engine.lane.admitted[region=r0,lane=a]"`` into base + labels."""
    if not name.endswith("]") or "[" not in name:
        return name, {}
    base, _, label_part = name.partition("[")
    labels: dict[str, str] = {}
    for pair in label_part[:-1].split(","):
        if "=" in pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels
