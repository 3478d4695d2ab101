"""The analysis-budget subsystem: fingerprints, cache, budgets, engine.

These tests pin the decision-identity contract of
:mod:`repro.csdf.analysis.budget`: with unlimited budgets the engine returns
exactly what the uncached analyses return, cache hits replay prior answers
(including deadlocks), and a finite budget degrades the buffer minimisation
gracefully — never below the sufficient capacities.
"""

import pytest

from repro.csdf.analysis.budget import (
    AnalysisBudget,
    AnalysisEngine,
    SimulationCache,
)
from repro.csdf.analysis.buffers import (
    apply_buffer_capacities,
    minimize_buffer_capacities,
    sufficient_buffer_capacities,
)
from repro.csdf.analysis.simulation import simulate
from repro.csdf.analysis.throughput import is_period_sustainable, minimal_period_ns
from repro.csdf.builder import CSDFBuilder
from repro.exceptions import DeadlockError
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
        budget.charge_probe()
        assert not budget.exhausted

    def test_event_ceiling(self):
        budget = AnalysisBudget(max_events=10)
        budget.charge_events(9)
        assert not budget.exhausted
        budget.charge_events(1)
        assert budget.exhausted

    def test_probe_ceiling(self):
        budget = AnalysisBudget(max_probes=2)
        budget.charge_probe()
        assert not budget.exhausted
        budget.charge_probe()
        assert budget.exhausted

    def test_invalid_ceilings_rejected(self):
        with pytest.raises(ValueError):
            AnalysisBudget(max_events=0)
        with pytest.raises(ValueError):
            AnalysisBudget(max_probes=-1)


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


class TestAnalysisEngine:
    def test_matches_uncached_analyses(self, simple_chain_csdf):
        engine = AnalysisEngine()
        assert engine.minimal_period_ns(simple_chain_csdf, iterations=6) == pytest.approx(
            minimal_period_ns(simple_chain_csdf, iterations=6)
        )
        assert engine.is_period_sustainable(
            simple_chain_csdf, 25.0, iterations=6
        ) == is_period_sustainable(simple_chain_csdf, 25.0, iterations=6)
        assert engine.sufficient_buffer_capacities(
            simple_chain_csdf, 25.0, iterations=6
        ) == sufficient_buffer_capacities(simple_chain_csdf, 25.0, iterations=6)

    def test_second_call_is_a_cache_hit(self, multirate_csdf):
        engine = AnalysisEngine()
        first = engine.sufficient_buffer_capacities(multirate_csdf, 20.0, iterations=6)
        after_first = engine.snapshot()
        second = engine.sufficient_buffer_capacities(multirate_csdf, 20.0, iterations=6)
        after_second = engine.snapshot()
        assert second == first
        assert after_second["simulations_run"] == after_first["simulations_run"]
        assert after_second["cache_hits"] == after_first["cache_hits"] + 1

    def test_renamed_graph_shares_cache_entry(self, simple_chain_csdf):
        engine = AnalysisEngine()
        engine.is_period_sustainable(simple_chain_csdf, 25.0, iterations=6)
        renamed = (
            CSDFBuilder("twin")
            .actor("x", [10.0])
            .actor("y", [20.0])
            .actor("z", [5.0])
            .edge("x", "y", production=[1], consumption=[1])
            .edge("y", "z", production=[1], consumption=[1])
            .build()
        )
        before = engine.snapshot()
        engine.is_period_sustainable(renamed, 25.0, iterations=6)
        after = engine.snapshot()
        assert after["simulations_run"] == before["simulations_run"]
        assert after["cache_hits"] == before["cache_hits"] + 1

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

    def test_cache_disabled_with_zero_size(self, simple_chain_csdf):
        engine = AnalysisEngine(cache_size=0)
        engine.is_period_sustainable(simple_chain_csdf, 25.0, iterations=6)
        engine.is_period_sustainable(simple_chain_csdf, 25.0, iterations=6)
        snapshot = engine.snapshot()
        assert snapshot["simulations_run"] == 2
        assert snapshot["cache_hits"] == 0

    def test_minimize_matches_functional_gain_order(self, multirate_csdf):
        engine = AnalysisEngine()
        engine_result = engine.minimize_buffer_capacities(multirate_csdf, 20.0, iterations=6)
        functional = minimize_buffer_capacities(
            multirate_csdf, 20.0, iterations=6, order="gain"
        )
        assert engine_result == functional

    def test_exhausted_budget_degrades_to_sufficient(self, multirate_csdf):
        engine = AnalysisEngine()
        sufficient = sufficient_buffer_capacities(multirate_csdf, 20.0, iterations=6)
        degraded = engine.minimize_buffer_capacities(
            multirate_csdf, 20.0, iterations=6, budget=AnalysisBudget(max_probes=1)
        )
        assert engine.snapshot()["budget_exhausted"] == 1
        for edge_name, capacity in degraded.items():
            assert capacity <= sufficient[edge_name]
        bounded = apply_buffer_capacities(multirate_csdf, degraded)
        assert is_period_sustainable(bounded, 20.0, iterations=6)

    @pytest.mark.parametrize("max_events", [200, 20])
    def test_budget_trajectory_is_cache_warmth_independent(self, multirate_csdf, max_events):
        # The same finite budget must produce the same capacities whether the
        # verdict cache is cold or warm: hits charge their stored cost.  200
        # events outlast the search; 20 run out after its first probe.
        def minimize(engine):
            budget = AnalysisBudget(max_events=max_events)
            capacities = engine.minimize_buffer_capacities(
                multirate_csdf, 20.0, iterations=6, budget=budget
            )
            return capacities, budget.events_used, budget.probes_used

        cold = AnalysisEngine()
        cold_result = minimize(cold)
        warm = AnalysisEngine()
        minimize(warm)
        assert minimize(warm) == cold_result
        assert cold.snapshot()["budget_exhausted"] == (max_events == 20)

    def test_from_config_reads_the_analysis_knobs(self):
        config = MapperConfig(analysis_cache_size=7)
        engine = AnalysisEngine.from_config(config)
        assert engine.cache.maxsize == 7
        assert engine.early_exit is True


class TestEarlyExitSimulation:
    def test_unsustainable_period_aborts_early(self, simple_chain_csdf):
        full = AnalysisBudget()
        is_period_sustainable(
            simple_chain_csdf, 15.0, iterations=10, early_exit=False, budget=full
        )
        early = AnalysisBudget()
        verdict = is_period_sustainable(
            simple_chain_csdf, 15.0, iterations=10, early_exit=True, budget=early
        )
        assert verdict is False
        assert early.events_used < full.events_used

    def test_cycle_exit_preserves_capacities(self, multirate_csdf):
        full = sufficient_buffer_capacities(multirate_csdf, 20.0, iterations=12)
        early = sufficient_buffer_capacities(
            multirate_csdf, 20.0, iterations=12, early_exit=True
        )
        assert early == full

    def test_aborted_result_reports_reason(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=12, cycle_exit=True)
        assert result.simulated_events > 0
        if result.aborted:
            assert result.abort_reason == "cycle"
