"""Budgeted, cached dataflow analysis: the simulation-budget layer of step 4.

After the process-parallel drain removed the GIL ceiling, profiles show the
admission path is simulation-bound: ``minimize_buffer_capacities`` runs an
independent full-restart binary search per edge, each probe simulating every
iteration even when backlog divergence is obvious after two.  This module is
the shared layer that makes those simulations stop paying for work they
don't need:

* :class:`AnalysisBudget` — a per-call ceiling on simulated events and
  probes.  Budgets default to *unlimited*; a finite budget degrades the
  buffer minimisation gracefully to the (always sustainable) sufficient
  capacities instead of failing.  Cache hits charge the *stored* cost of the
  entry they reuse, so the budget trajectory — and therefore every decision
  taken under a finite budget — is identical whether the cache is cold or
  warm.  That is what keeps the serial and process executors
  bit-identical even with budgets configured.
* :class:`SimulationCache` — an LRU over simulation verdicts keyed by
  ``(kind, structural fingerprint, capacity vector, period, iterations)``.
  Invalidation follows the :class:`~repro.spatialmapper.cache.MapperCache`
  discipline: the key *is* the invalidation (a structurally different graph
  or capacity vector can never match), and the LRU bound retires superseded
  entries.  Values are name-free (indexed by actor/edge insertion position),
  so equivalent mapped graphs of renamed applications share entries.
* :class:`AnalysisEngine` — the façade step 4 and the mapper call instead of
  the raw analysis functions.  It adds early-exit simulation, caching,
  gain-ordered budgeted buffer minimisation with a monotone warm-start
  ledger, and the observability counters surfaced by ``MapperTrace`` and
  ``EngineTelemetry``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.csdf.analysis.buffers import (
    _lower_bound_capacity,
    apply_buffer_capacities,
    probe_order,
    sufficient_buffer_capacities,
)
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.throughput import is_period_sustainable, minimal_period_ns
from repro.csdf.graph import CSDFGraph
from repro.exceptions import DeadlockError


class AnalysisBudget:
    """A ceiling on the simulation work one analysis call may spend.

    ``None`` limits mean unlimited (the default everywhere).  The budget is
    charged *after* each simulation with that simulation's event count — a
    run is never torn down halfway — and checked *before* the next probe
    starts, which keeps the probe sequence deterministic.  Cache hits charge
    the stored cost of the entry they reuse (see module docstring).
    """

    __slots__ = ("max_events", "max_probes", "events_used", "probes_used")

    def __init__(
        self, max_events: int | None = None, max_probes: int | None = None
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive or None")
        if max_probes is not None and max_probes < 1:
            raise ValueError("max_probes must be positive or None")
        self.max_events = max_events
        self.max_probes = max_probes
        self.events_used = 0
        self.probes_used = 0

    @property
    def exhausted(self) -> bool:
        """Whether either ceiling has been reached."""
        if self.max_events is not None and self.events_used >= self.max_events:
            return True
        if self.max_probes is not None and self.probes_used >= self.max_probes:
            return True
        return False

    def charge_events(self, events: int) -> None:
        """Account for one simulation's events (real or replayed from cache)."""
        self.events_used += events

    def charge_probe(self) -> None:
        """Account for one buffer-minimisation probe."""
        self.probes_used += 1


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
    """Cached, budgeted, early-exiting front end to the dataflow analyses.

    One engine is shared per admission pipeline (and per drain worker): its
    cache accumulates verdicts across probes, refinement iterations and
    admission requests, and its counters are the source of the
    ``simulations_run`` / ``simulated_events`` / ``cache_hits`` /
    ``budget_exhausted`` observability surfaced in traces and telemetry.

    Decision identity: with unlimited budgets every method returns exactly
    what the underlying uncached analysis returns (early exits are
    answer-preserving; cache entries replay previous answers of the very
    same question).  With finite budgets, results remain deterministic and
    cache-warmth independent because hits charge their stored cost.

    ``early_exit=False`` runs every simulation to completion; it is the
    reference the early exits are checked against in the property tests,
    and :meth:`from_config` never sets it.
    """

    def __init__(self, *, cache_size: int = 256, early_exit: bool = True) -> None:
        self.early_exit = early_exit
        self.cache: SimulationCache | None = (
            SimulationCache(cache_size) if cache_size else None
        )
        self.simulations_run = 0
        self.simulated_events = 0
        self.cache_hits = 0
        self.budget_exhausted = 0

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
            "budget_exhausted": self.budget_exhausted,
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
        warmup: int | None = None,
        *,
        budget: AnalysisBudget | None = None,
    ) -> float:
        """Cached :func:`~repro.csdf.analysis.throughput.minimal_period_ns`."""
        key = (
            "minimal_period",
            graph.structural_fingerprint(),
            graph.capacity_vector(),
            iterations,
            warmup,
        )
        return self._cached(
            key,
            budget,
            lambda tally: minimal_period_ns(graph, iterations, warmup, budget=tally),
        )

    def is_period_sustainable(
        self,
        graph: CSDFGraph,
        period_ns: float,
        iterations: int = 10,
        tolerance: float = 1e-9,
        *,
        budget: AnalysisBudget | None = None,
    ) -> bool:
        """Cached, early-exiting sustainability verdict."""
        key = (
            "sustainable",
            graph.structural_fingerprint(),
            graph.capacity_vector(),
            period_ns,
            iterations,
            tolerance,
        )
        return self._cached(
            key,
            budget,
            lambda tally: is_period_sustainable(
                graph,
                period_ns,
                iterations=iterations,
                tolerance=tolerance,
                early_exit=self.early_exit,
                budget=tally,
            ),
        )

    def sufficient_buffer_capacities(
        self,
        graph: CSDFGraph,
        period_ns: float | None = None,
        iterations: int = 10,
        *,
        budget: AnalysisBudget | None = None,
    ) -> dict[str, int]:
        """Cached sufficient capacities (values keyed back to edge names).

        A feed-forward graph is answered without the event loop (see
        :func:`~repro.csdf.analysis.buffers.sufficient_buffer_capacities`).
        It still counts as one simulation and charges the loop's firing
        count, so budgets and cache entries do not depend on the engine.
        """
        key = (
            "sufficient",
            graph.structural_fingerprint(),
            graph.capacity_vector(),
            period_ns,
            iterations,
        )

        def compute(tally: AnalysisBudget) -> tuple[int, ...]:
            capacities = sufficient_buffer_capacities(
                graph, period_ns, iterations=iterations, early_exit=self.early_exit, budget=tally
            )
            return tuple(capacities[edge.name] for edge in graph.edges)

        values = self._cached(key, budget, compute)
        return {edge.name: values[i] for i, edge in enumerate(graph.edges)}

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

    # ------------------------------------------------------------------ #
    # Budgeted buffer minimisation
    # ------------------------------------------------------------------ #
    def minimize_buffer_capacities(
        self,
        graph: CSDFGraph,
        period_ns: float,
        iterations: int = 8,
        edges: tuple[str, ...] | None = None,
        *,
        budget: AnalysisBudget | None = None,
    ) -> dict[str, int]:
        """Budgeted, cached, warm-started buffer minimisation.

        Identical to the functional
        :func:`~repro.csdf.analysis.buffers.minimize_buffer_capacities` with
        ``order="gain"`` as long as the budget lasts, and provably no worse
        than the sufficient capacities once it runs out:

        * one bounded graph is mutated in place; each probe swaps only the
          probed edge's capacity (capacity-only ``replace_edge``, so the
          cached structural fingerprint survives every probe);
        * edges are processed by descending potential gain (``high - low``),
          so an exhausted budget leaves the least reduction unexplored;
        * a per-call monotone ledger of proven (un)sustainable capacity
          vectors answers dominated probes without simulating: any vector
          pointwise at or above a sustainable one is sustainable, any vector
          pointwise at or below an unsustainable one is unsustainable —
          the same monotonicity the binary search itself rests on;
        * probes the ledger cannot answer go through the
          :class:`SimulationCache`, charging their (stored or fresh) event
          cost against the per-call :class:`AnalysisBudget`.

        When the budget exhausts mid-search, the edge under search keeps the
        smallest capacity already *proven* sustainable and every unprocessed
        edge keeps its sufficient capacity, so the returned vector always
        sustains ``period_ns``.

        Without ``budget`` the search is unlimited.  A caller that wants a
        ceiling passes its own — the rescue lane uses this to charge all its
        feasibility checks against a single shared ledger.
        """
        if budget is None:
            budget = AnalysisBudget()
        capacities = self.sufficient_buffer_capacities(
            graph, period_ns, iterations=iterations, budget=budget
        )
        if edges is None:
            edges = tuple(capacities.keys())
        edges = probe_order(graph, capacities, edges, "gain")
        edge_names = [edge.name for edge in graph.edges]

        bounded = apply_buffer_capacities(graph, capacities)
        ledger_sustainable: list[tuple[int, ...]] = []
        ledger_unsustainable: list[tuple[int, ...]] = []

        def vector_with(edge_name: str, capacity: int) -> tuple[int, ...]:
            return tuple(
                capacity if name == edge_name else capacities[name]
                for name in edge_names
            )

        def probe(edge_name: str, candidate: int) -> bool:
            vector = vector_with(edge_name, candidate)
            for proven in ledger_sustainable:
                if all(v >= p for v, p in zip(vector, proven)):
                    return True
            for proven in ledger_unsustainable:
                if all(v <= p for v, p in zip(vector, proven)):
                    return False
            bounded.replace_edge(bounded.edge(edge_name).with_capacity(candidate))
            verdict = self.is_period_sustainable(
                bounded, period_ns, iterations=iterations, budget=budget
            )
            (ledger_sustainable if verdict else ledger_unsustainable).append(vector)
            return verdict

        exhausted = False
        for edge_name in edges:
            low = _lower_bound_capacity(graph, edge_name)
            high = capacities[edge_name]
            if high <= low:
                capacities[edge_name] = low
                bounded.replace_edge(bounded.edge(edge_name).with_capacity(low))
                continue
            best = high
            while low <= high:
                if budget.exhausted:
                    exhausted = True
                    break
                budget.charge_probe()
                candidate = (low + high) // 2
                if probe(edge_name, candidate):
                    best = candidate
                    high = candidate - 1
                else:
                    low = candidate + 1
            capacities[edge_name] = best
            bounded.replace_edge(bounded.edge(edge_name).with_capacity(best))
            if exhausted:
                break
        if exhausted:
            self.budget_exhausted += 1
        return capacities


__all__ = [
    "AnalysisBudget",
    "AnalysisEngine",
    "SimulationCache",
    "SimulationCacheStats",
]
