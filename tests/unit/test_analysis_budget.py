"""The analysis-budget subsystem: fingerprints, cache, budgets, engine.

These tests pin the decision-identity contract of
:mod:`repro.csdf.analysis.budget`: the engine returns exactly what the
uncached analyses return, cache hits replay prior answers (including
deadlocks), and a finite budget shared by several analysis calls is charged
the same whether the cache is cold or warm.
"""

import pytest

from repro.csdf.analysis.budget import (
    AnalysisBudget,
    AnalysisEngine,
    SimulationCache,
)
from repro.csdf.analysis.buffers import apply_buffer_capacities, sufficient_buffer_capacities
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.simulation import simulate
from repro.csdf.analysis.throughput import minimal_period_ns
from repro.csdf.builder import CSDFBuilder
from repro.exceptions import DeadlockError
from repro.obs.metrics import MetricsRegistry
from repro.spatialmapper.config import MapperConfig


def deadlocked_graph():
    """A two-actor cycle with no initial tokens: deadlocks immediately."""
    return (
        CSDFBuilder("deadlock")
        .actor("a", [1.0])
        .actor("b", [1.0])
        .edge("a", "b", production=[1], consumption=[1])
        .edge("b", "a", production=[1], consumption=[1])
        .build()
    )


class TestStructuralFingerprint:
    def test_fingerprint_ignores_names(self, simple_chain_csdf):
        renamed = (
            CSDFBuilder("other_name")
            .actor("x", [10.0])
            .actor("y", [20.0])
            .actor("z", [5.0])
            .edge("x", "y", production=[1], consumption=[1])
            .edge("y", "z", production=[1], consumption=[1])
            .build()
        )
        assert renamed.structural_fingerprint() == simple_chain_csdf.structural_fingerprint()

    def test_fingerprint_distinguishes_rates(self, simple_chain_csdf):
        different = (
            CSDFBuilder("chain")
            .actor("a", [10.0])
            .actor("b", [20.0])
            .actor("c", [5.0])
            .edge("a", "b", production=[2], consumption=[1])
            .edge("b", "c", production=[1], consumption=[1])
            .build()
        )
        assert different.structural_fingerprint() != simple_chain_csdf.structural_fingerprint()

    def test_fingerprint_excludes_capacities(self, simple_chain_csdf):
        bounded = apply_buffer_capacities(
            simple_chain_csdf, {e.name: 4 for e in simple_chain_csdf.edges}
        )
        assert bounded.structural_fingerprint() == simple_chain_csdf.structural_fingerprint()
        assert bounded.capacity_vector() != simple_chain_csdf.capacity_vector()

    def test_capacity_only_replace_preserves_cached_fingerprint(self, simple_chain_csdf):
        bounded = apply_buffer_capacities(
            simple_chain_csdf, {e.name: 4 for e in simple_chain_csdf.edges}
        )
        before = bounded.structural_fingerprint()
        edge = bounded.edges[0]
        bounded.replace_edge(edge.with_capacity(2))
        assert bounded._fingerprint is not None  # cache survived the swap
        assert bounded.structural_fingerprint() == before

    def test_copy_propagates_fingerprint(self, simple_chain_csdf):
        fingerprint = simple_chain_csdf.structural_fingerprint()
        clone = simple_chain_csdf.copy("clone")
        assert clone._fingerprint == fingerprint
        assert clone.structural_fingerprint() == fingerprint


class TestAnalysisBudget:
    def test_unlimited_budget_never_exhausts(self):
        budget = AnalysisBudget()
        budget.charge_events(10**9)
        assert not budget.exhausted

    def test_event_ceiling(self):
        budget = AnalysisBudget(max_events=10)
        budget.charge_events(9)
        assert not budget.exhausted
        budget.charge_events(1)
        assert budget.exhausted

    def test_invalid_ceilings_rejected(self):
        with pytest.raises(ValueError):
            AnalysisBudget(max_events=0)
        with pytest.raises(ValueError):
            AnalysisBudget(max_events=-1)


class TestSimulationCache:
    def test_lru_eviction(self):
        cache = SimulationCache(maxsize=2)
        cache.store(("a",), 1, cost=5)
        cache.store(("b",), 2, cost=5)
        cache.lookup(("a",))  # refresh "a"
        cache.store(("c",), 3, cost=5)
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)).value == 1
        assert cache.stats.evictions == 1

    def test_hit_returns_stored_cost(self):
        cache = SimulationCache()
        cache.store(("k",), "v", cost=42)
        entry = cache.lookup(("k",))
        assert entry.value == "v"
        assert entry.cost == 42
        assert cache.stats.hit_rate == pytest.approx(1.0)


def feedback_pair():
    """a -> b -> a with two tokens on the way back: its run repeats its
    state at an early iteration boundary, so the cycle exit fires early."""
    return (
        CSDFBuilder("feedback")
        .actor("a", [3.0])
        .actor("b", [5.0])
        .edge("a", "b", production=[1], consumption=[1])
        .edge("b", "a", production=[1], consumption=[1], initial_tokens=2)
        .build()
    )


def the_three_analyses(engine, graph, budget=None):
    """Step 4's questions of ``graph`` at a 25 ns period: the minimal
    period, the sufficient capacities and the source-to-sink latency."""
    return (
        engine.minimal_period_ns(graph, iterations=6, budget=budget),
        engine.sufficient_buffer_capacities(graph, 25.0, iterations=6, budget=budget),
        engine.end_to_end_latency_ns(
            graph, iterations=6, source_period_ns=25.0, budget=budget
        ),
    )


def renamed_chain():
    """``simple_chain_csdf`` under other actor, edge and graph names."""
    return (
        CSDFBuilder("twin")
        .actor("x", [10.0])
        .actor("y", [20.0])
        .actor("z", [5.0])
        .edge("x", "y", production=[1], consumption=[1])
        .edge("y", "z", production=[1], consumption=[1])
        .build()
    )


class TestAnalysisEngine:
    def test_matches_uncached_analyses(self, simple_chain_csdf):
        engine = AnalysisEngine()
        period, capacities, latency = the_three_analyses(engine, simple_chain_csdf)
        assert period == pytest.approx(minimal_period_ns(simple_chain_csdf, iterations=6))
        assert capacities == sufficient_buffer_capacities(
            simple_chain_csdf, 25.0, iterations=6
        )
        assert latency == end_to_end_latency_ns(
            simple_chain_csdf, iterations=6, source_period_ns=25.0
        )

    def test_second_call_is_a_cache_hit(self, multirate_csdf):
        engine = AnalysisEngine()
        first = the_three_analyses(engine, multirate_csdf)
        after_first = engine.snapshot()
        second = the_three_analyses(engine, multirate_csdf)
        after_second = engine.snapshot()
        assert second == first
        assert after_first["simulations_run"] == 3
        assert after_second["simulations_run"] == after_first["simulations_run"]
        assert after_second["simulated_events"] == after_first["simulated_events"]
        assert after_second["cache_hits"] == after_first["cache_hits"] + 3

    def test_renamed_graph_shares_cache_entry(self, simple_chain_csdf):
        engine = AnalysisEngine()
        _, capacities, latency = the_three_analyses(engine, simple_chain_csdf)
        before = engine.snapshot()
        twin = renamed_chain()
        _, twin_capacities, twin_latency = the_three_analyses(engine, twin)
        after = engine.snapshot()
        assert after["simulations_run"] == before["simulations_run"]
        assert after["cache_hits"] == before["cache_hits"] + 3
        # Cached values are name-free: they come back under the twin's names.
        assert twin_capacities == {
            edge.name: capacities[original.name]
            for edge, original in zip(twin.edges, simple_chain_csdf.edges)
        }
        assert twin_latency == latency

    def test_sizing_ignores_the_capacities_it_strips(self):
        """Sizing a bounded graph strips its capacities first, so it shares
        the cache entry of the unbounded graph of the same structure."""
        chain = (
            CSDFBuilder("pair")
            .actor("a", [10.0])
            .actor("b", [20.0])
            .edge("a", "b", production=[1], consumption=[1])
            .build()
        )
        bounded = apply_buffer_capacities(chain, {edge.name: 3 for edge in chain.edges})
        assert bounded.capacity_vector() != chain.capacity_vector()
        engine = AnalysisEngine()
        unbounded_capacities = engine.sufficient_buffer_capacities(chain, 25.0, iterations=6)
        bounded_capacities = engine.sufficient_buffer_capacities(bounded, 25.0, iterations=6)
        assert bounded_capacities == unbounded_capacities
        assert engine.simulations_run == 1
        assert engine.cache_hits == 1

    def test_deadlock_is_cached_and_reraised(self):
        engine = AnalysisEngine()
        graph = deadlocked_graph()
        with pytest.raises(DeadlockError):
            engine.minimal_period_ns(graph, iterations=4)
        before = engine.snapshot()
        with pytest.raises(DeadlockError):
            engine.minimal_period_ns(graph, iterations=4)
        after = engine.snapshot()
        assert after["simulations_run"] == before["simulations_run"]
        assert after["cache_hits"] == before["cache_hits"] + 1

    def test_sizing_deadlock_is_cached_and_reraised(self):
        engine = AnalysisEngine()
        graph = deadlocked_graph()
        charged = []
        for _ in range(2):
            budget = AnalysisBudget()
            with pytest.raises(DeadlockError, match="cannot complete an iteration"):
                engine.sufficient_buffer_capacities(graph, 10.0, iterations=4, budget=budget)
            charged.append(budget.events_used)
        assert engine.snapshot() == {"simulations_run": 1, "simulated_events": 0, "cache_hits": 1}
        assert charged == [0, 0]

    def test_snapshot_and_metrics_carry_the_three_counters(self, multirate_csdf):
        engine = AnalysisEngine()
        the_three_analyses(engine, multirate_csdf)
        the_three_analyses(engine, multirate_csdf)
        snapshot = engine.snapshot()
        assert sorted(snapshot) == ["cache_hits", "simulated_events", "simulations_run"]
        assert snapshot["simulations_run"] == snapshot["cache_hits"] == 3
        registry = MetricsRegistry()
        engine.publish_metrics(registry)
        for key, value in snapshot.items():
            assert registry.counter_value(f"analysis.{key}") == value

    def test_cache_disabled_with_zero_size(self, simple_chain_csdf):
        engine = AnalysisEngine(cache_size=0)
        first = the_three_analyses(engine, simple_chain_csdf)
        assert the_three_analyses(engine, simple_chain_csdf) == first
        snapshot = engine.snapshot()
        assert snapshot["simulations_run"] == 6
        assert snapshot["cache_hits"] == 0

    @pytest.mark.parametrize("max_events", [200, 20])
    def test_budget_trajectory_is_cache_warmth_independent(self, multirate_csdf, max_events):
        # Sizing and latency calls share one ledger, checked before each call
        # as the rescue lane checks it.  The same finite ceiling must answer
        # the same calls and charge the same events whether the verdict
        # cache is cold or warm: hits charge their stored cost.  Each period
        # charges 12 sizing and 36 latency events, so 200 events outlast all
        # four calls and 20 run out after the first period's two.
        def charged_run(engine):
            budget = AnalysisBudget(max_events=max_events)
            answers = []
            for period in (20.0, 30.0):
                for ask in (
                    lambda: engine.sufficient_buffer_capacities(
                        multirate_csdf, period, 6, budget=budget
                    ),
                    lambda: engine.end_to_end_latency_ns(
                        multirate_csdf, iterations=6, source_period_ns=period, budget=budget
                    ),
                ):
                    if budget.exhausted:
                        return answers, budget.events_used
                    answers.append(ask())
            return answers, budget.events_used

        cold = charged_run(AnalysisEngine())
        warm = AnalysisEngine()
        charged_run(warm)
        hits = warm.cache_hits
        assert charged_run(warm) == cold
        assert warm.cache_hits > hits
        answers, events = cold
        assert (len(answers), events) == ((4, 96) if max_events == 200 else (2, 48))

    def test_from_config_reads_the_analysis_knobs(self):
        config = MapperConfig(analysis_cache_size=7)
        engine = AnalysisEngine.from_config(config)
        assert engine.cache.maxsize == 7


class TestEarlyExitSimulation:
    def test_cycle_exit_preserves_capacities(self, multirate_csdf):
        full = sufficient_buffer_capacities(multirate_csdf, 20.0, iterations=12)
        early = sufficient_buffer_capacities(
            multirate_csdf, 20.0, iterations=12, early_exit=True
        )
        assert early == full

    def test_engine_sizing_takes_the_cycle_exit(self):
        graph = feedback_pair()
        full = AnalysisBudget()
        expected = sufficient_buffer_capacities(graph, 8.0, iterations=10, budget=full)
        engine, charged = AnalysisEngine(), AnalysisBudget()
        assert engine.sufficient_buffer_capacities(graph, 8.0, 10, budget=charged) == expected
        assert full.events_used == 20
        assert charged.events_used == engine.simulated_events == 5

    def test_only_the_cycle_exit_aborts(self, multirate_csdf):
        full = simulate(multirate_csdf, iterations=12, source_period_ns=20.0)
        stopped = simulate(multirate_csdf, iterations=12, source_period_ns=20.0, cycle_exit=True)
        assert stopped.aborted and not full.aborted
        assert 0 < stopped.simulated_events < full.simulated_events
        deadlocked = simulate(deadlocked_graph(), iterations=4, cycle_exit=True)
        assert deadlocked.deadlocked and not deadlocked.aborted
