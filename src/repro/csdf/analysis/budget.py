"""Budgeted, cached dataflow analysis: the simulation-budget layer of step 4.

Step 4 asks three questions of every mapped graph (period, sufficient
buffer capacities, latency), and the mapper's refinement loop and the rescue
lane ask them again of structurally equal graphs.  This module is the
shared layer that keeps those simulations from paying twice:

* :class:`AnalysisBudget` — a ceiling on simulated events.  Budgets default
  to *unlimited*; the rescue lane charges all its feasibility checks
  against one finite ledger and stops proposing candidates once it runs
  out.  Cache hits charge the *stored* cost of the entry they reuse, so the
  budget trajectory — and therefore every decision taken under a finite
  budget — is identical whether the cache is cold or warm.  That is what
  keeps the serial and process executors bit-identical even with budgets
  configured.
* :class:`SimulationCache` — an LRU over simulation verdicts keyed by
  ``(kind, structural fingerprint, capacity vector, analysis parameters)``.
  Invalidation follows the :class:`~repro.spatialmapper.cache.MapperCache`
  discipline: the key *is* the invalidation (a structurally different graph
  or capacity vector can never match), and the LRU bound retires superseded
  entries.  Values are name-free (indexed by actor/edge insertion position),
  so equivalent mapped graphs of renamed applications share entries.
* :class:`AnalysisEngine` — the façade step 4 and the mapper call instead of
  the raw analysis functions.  It adds the cycle exit to buffer sizing,
  caching, and the observability counters surfaced by ``MapperTrace`` and
  ``EngineTelemetry``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.csdf.analysis.buffers import sufficient_buffer_capacities
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.throughput import minimal_period_ns
from repro.csdf.graph import CSDFGraph
from repro.exceptions import DeadlockError


class AnalysisBudget:
    """A ceiling on the simulation work a series of analysis calls may spend.

    ``max_events=None`` means unlimited (the default everywhere).  The
    budget is charged *after* each simulation with that simulation's event
    count — a run is never torn down halfway — and a caller checks
    :attr:`exhausted` before it starts the next one, which keeps the call
    sequence deterministic.  Cache hits charge the stored cost of the entry
    they reuse (see module docstring).
    """

    __slots__ = ("max_events", "events_used")

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive or None")
        self.max_events = max_events
        self.events_used = 0

    @property
    def exhausted(self) -> bool:
        """Whether the event ceiling has been reached."""
        return self.max_events is not None and self.events_used >= self.max_events

    def charge_events(self, events: int) -> None:
        """Account for one simulation's events (real or replayed from cache)."""
        self.events_used += events


@dataclass
class _CacheEntry:
    """One memoised verdict plus the simulated-event cost that produced it."""

    value: object
    cost: int


@dataclass
class SimulationCacheStats:
    """Hit/miss counters of a :class:`SimulationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SimulationCache:
    """LRU over simulation verdicts.

    Keys carry the verdict kind, the graph's structural fingerprint, its
    capacity vector and the analysis parameters; values are immutable
    name-free records, so no cloning is needed on hit (unlike the mapper
    cache's mutable results).
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self.stats = SimulationCacheStats()

    def lookup(self, key: tuple) -> _CacheEntry | None:
        """The entry for ``key``, or ``None`` on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(self, key: tuple, value: object, cost: int) -> None:
        """Memoise a verdict with its simulated-event cost."""
        self._entries[key] = _CacheEntry(value=value, cost=cost)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class AnalysisEngine:
    """Cached, budgeted front end to the dataflow analyses.

    One engine is shared per admission pipeline (and per drain worker): its
    cache accumulates verdicts across refinement iterations, rescue
    candidates and admission requests, and its counters are the source of
    the ``simulations_run`` / ``simulated_events`` / ``cache_hits``
    observability surfaced in traces and telemetry.

    Decision identity: every method returns exactly what the underlying
    uncached analysis returns (the cycle exit of buffer sizing is
    answer-preserving; cache entries replay previous answers of the very
    same question).  Charges are deterministic and cache-warmth independent
    because hits charge their stored cost.
    """

    def __init__(self, *, cache_size: int = 256) -> None:
        self.cache: SimulationCache | None = (
            SimulationCache(cache_size) if cache_size else None
        )
        self.simulations_run = 0
        self.simulated_events = 0
        self.cache_hits = 0

    @classmethod
    def from_config(cls, config) -> "AnalysisEngine":
        """Build an engine from a :class:`~repro.spatialmapper.config.MapperConfig`."""
        return cls(cache_size=config.analysis_cache_size)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, int]:
        """Current counter values (monotone; diff two snapshots for a delta)."""
        return {
            "simulations_run": self.simulations_run,
            "simulated_events": self.simulated_events,
            "cache_hits": self.cache_hits,
        }

    def publish_metrics(self, registry, counters: dict[str, int] | None = None) -> None:
        """Publish analysis counters (default: a fresh snapshot) into a registry.

        Callers that account per-run deltas (the workload engine) pass the
        delta dict; the counter names match the snapshot keys under the
        ``analysis.`` prefix.
        """
        for key, value in (counters if counters is not None else self.snapshot()).items():
            registry.count(f"analysis.{key}", float(value))

    # ------------------------------------------------------------------ #
    # Cached analyses
    # ------------------------------------------------------------------ #
    def _cached(
        self,
        key: tuple,
        budget: AnalysisBudget | None,
        compute: Callable[[AnalysisBudget], object],
    ) -> object:
        """The answer to ``key``: replayed from the cache, or computed by
        ``compute(tally)`` on a miss, counted as one simulation and stored
        with the events charged to ``tally``.  Either way ``budget`` is
        charged the entry's cost, and a deadlock is raised as a
        :class:`~repro.exceptions.DeadlockError` with its message."""
        entry = self.cache.lookup(key) if self.cache is not None else None
        if entry is None:
            tally = AnalysisBudget()
            try:
                value = ("ok", compute(tally))
            except DeadlockError as error:
                value = ("deadlock", str(error))
            entry = _CacheEntry(value=value, cost=tally.events_used)
            self.simulations_run += 1
            self.simulated_events += entry.cost
            if self.cache is not None:
                self.cache.store(key, value, entry.cost)
        else:
            self.cache_hits += 1
        if budget is not None:
            budget.charge_events(entry.cost)
        kind, payload = entry.value
        if kind == "deadlock":
            raise DeadlockError(payload)
        return payload

    def minimal_period_ns(
        self,
        graph: CSDFGraph,
        iterations: int = 10,
        *,
        budget: AnalysisBudget | None = None,
    ) -> float:
        """Cached :func:`~repro.csdf.analysis.throughput.minimal_period_ns`."""
        key = (
            "minimal_period",
            graph.structural_fingerprint(),
            graph.capacity_vector(),
            iterations,
        )
        return self._cached(
            key, budget, lambda tally: minimal_period_ns(graph, iterations, budget=tally)
        )

    def sufficient_buffer_capacities(
        self,
        graph: CSDFGraph,
        period_ns: float | None = None,
        iterations: int = 10,
        *,
        budget: AnalysisBudget | None = None,
    ) -> dict[str, int]:
        """Cached sufficient capacities of the sized edges (keyed back to
        edge names; see
        :func:`~repro.csdf.analysis.buffers.sufficient_buffer_capacities`
        for which edges are sized).

        The run takes the cycle exit, so it charges at most the full run's
        firings and returns the full run's capacities.  A feed-forward graph
        is answered without the event loop; it still counts as one
        simulation and charges the loop's firing count, so budgets and cache
        entries do not depend on the evaluator.
        """
        # No capacity vector in the key: the sizing strips every capacity
        # before it runs and its lower bounds read only rates and initial
        # tokens, so a bounded graph shares the entry of its unbounded twin.
        # Actor roles, which decide the sized edges, are in the fingerprint.
        key = ("sufficient", graph.structural_fingerprint(), period_ns, iterations)
        edges = graph.edges

        def compute(tally: AnalysisBudget) -> tuple[tuple[int, int], ...]:
            capacities = sufficient_buffer_capacities(
                graph, period_ns, iterations=iterations, early_exit=True, budget=tally
            )
            return tuple(
                (i, capacities[edge.name])
                for i, edge in enumerate(edges)
                if edge.name in capacities
            )

        return {edges[i].name: capacity for i, capacity in self._cached(key, budget, compute)}

    def end_to_end_latency_ns(
        self,
        graph: CSDFGraph,
        source: str | None = None,
        sink: str | None = None,
        iterations: int = 10,
        source_period_ns: float | None = None,
        *,
        budget: AnalysisBudget | None = None,
    ) -> float:
        """Cached worst iteration latency between two actors.

        Raises :class:`~repro.exceptions.CSDFError` for an unknown actor,
        as the uncached analysis does.
        """
        for name in (source, sink):
            if name is not None:
                graph.actor(name)  # raises CSDFError before the key needs its index
        names = graph.actor_names
        key = (
            "latency",
            graph.structural_fingerprint(),
            graph.capacity_vector(),
            names.index(source) if source is not None else None,
            names.index(sink) if sink is not None else None,
            iterations,
            source_period_ns,
        )
        return self._cached(
            key,
            budget,
            lambda tally: end_to_end_latency_ns(
                graph,
                source,
                sink,
                iterations=iterations,
                source_period_ns=source_period_ns,
                budget=tally,
            ),
        )


__all__ = [
    "AnalysisBudget",
    "AnalysisEngine",
    "SimulationCache",
    "SimulationCacheStats",
]
