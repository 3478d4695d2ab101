"""Throughput, buffer-sizing and latency analyses."""

import pytest

from repro.csdf.analysis import throughput
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.analysis.buffers import apply_buffer_capacities, sufficient_buffer_capacities
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.simulation import simulate
from repro.csdf.analysis.throughput import (
    actor_loads_ns,
    is_period_sustainable,
    minimal_period_ns,
    processor_bound_period_ns,
)
from repro.csdf.builder import CSDFBuilder
from repro.exceptions import CSDFError, DeadlockError


class TestThroughput:
    def test_processor_bound_of_chain(self, simple_chain_csdf):
        assert processor_bound_period_ns(simple_chain_csdf) == pytest.approx(20.0)

    def test_processor_bound_counts_repetitions(self, multirate_csdf):
        # c fires 3 times per iteration at 6 ns each -> 18 ns dominates.
        assert processor_bound_period_ns(multirate_csdf) == pytest.approx(18.0)

    def test_minimal_period_at_least_processor_bound(self, multirate_csdf):
        minimal = minimal_period_ns(multirate_csdf, iterations=10)
        assert minimal >= processor_bound_period_ns(multirate_csdf) - 1e-9

    def test_minimal_period_of_deadlocked_graph_raises(self):
        graph = (
            CSDFBuilder("deadlock")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1])
            .build()
        )
        with pytest.raises(DeadlockError):
            minimal_period_ns(graph)

    def test_sustainable_period(self, simple_chain_csdf):
        assert is_period_sustainable(simple_chain_csdf, 25.0)
        assert is_period_sustainable(simple_chain_csdf, 20.0)

    def test_unsustainable_period(self, simple_chain_csdf):
        assert not is_period_sustainable(simple_chain_csdf, 15.0)

    def test_deadlocked_graph_is_unsustainable(self):
        graph = (
            CSDFBuilder("deadlock")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1])
            .build()
        )
        assert not is_period_sustainable(graph, 100.0)

    def test_verdict_covers_every_requested_iteration(self, simple_chain_csdf):
        # b needs 20 ns per 15 ns period, so each iteration finishes 5 ns
        # later than the one before: the spread reaches the 15 ns slack at
        # iteration 4 and exceeds it at iteration 5.
        assert is_period_sustainable(simple_chain_csdf, 15.0, iterations=4)
        assert not is_period_sustainable(simple_chain_csdf, 15.0, iterations=5)

    def test_period_must_be_positive(self, simple_chain_csdf):
        with pytest.raises(ValueError):
            is_period_sustainable(simple_chain_csdf, 0.0)

    def test_warmup_transient_does_not_mask_backlog(self):
        # Initial tokens let the middle stages start immediately, so the
        # pipeline settles to a much lower ideal-shifted finish (2 ns) than
        # iteration 0's (14 ns).  With iteration 0 as the latency reference
        # the 12 ns spread was invisible (every later finish beats it); the
        # criterion must measure the spread against the *earliest* shifted
        # finish and reject the period.
        graph = (
            CSDFBuilder("warmup_transient")
            .actor("a0", [2.0])
            .actor("a1", [6.0])
            .actor("a2", [8.0])
            .actor("a3", [9.0])
            .actor("a4", [6.0])
            .edge("a0", "a1", production=[1], consumption=[1], initial_tokens=3)
            .edge("a1", "a2", production=[1], consumption=[1])
            .edge("a2", "a3", production=[1], consumption=[1], initial_tokens=2)
            .edge("a3", "a4", production=[1], consumption=[1], initial_tokens=2)
            .build()
        )
        assert not is_period_sustainable(graph, 10.0, iterations=8)
        # A period generous enough to absorb the transient is accepted.
        assert is_period_sustainable(graph, 13.0, iterations=8)


def unsettled_chain():
    """An acyclic chain whose finite-horizon period estimates have not
    settled after 6 or 10 iterations; a1's load of 62 ns is the period."""
    return (
        CSDFBuilder("unsettled")
        .actor("a0", [8.0])
        .actor("a1", [12.0, 19.0])
        .actor("a2", [16.0, 1.0])
        .actor("a3", [10.0])
        .actor("a4", [0.0, 0.0, 1.0])
        .edge("a0", "a1", production=[2], consumption=[0, 1])
        .edge("a1", "a2", production=[2, 0], consumption=[0, 2])
        .edge("a2", "a3", production=[3, 0], consumption=[1])
        .edge("a3", "a4", production=[2], consumption=[2, 2, 2])
        .build()
    )


class TestClosedFormPeriod:
    """Acyclic, unbounded, token-free graphs get the maximum cycle mean."""

    @pytest.fixture()
    def counted_runs(self, monkeypatch):
        runs = []

        run = throughput._self_timed_run

        def counted(graph, iterations):
            runs.append(iterations)
            return run(graph, iterations)

        monkeypatch.setattr(throughput, "_self_timed_run", counted)
        return runs

    def test_actor_loads(self, multirate_csdf):
        assert actor_loads_ns(multirate_csdf) == {"a": 4.0, "b": 4.0, "c": 18.0}

    def test_unsettled_estimate_no_longer_under_reports(self):
        graph = unsettled_chain()
        assert simulate(graph, 6).steady_state_period_ns() == 60.0
        assert minimal_period_ns(graph, iterations=6) == 62.0
        assert AnalysisEngine().minimal_period_ns(graph, iterations=6) == 62.0

    def test_class_graph_is_not_run_and_charges_nominal_firings(self, counted_runs):
        graph = unsettled_chain()
        budget = AnalysisBudget()
        assert minimal_period_ns(graph, iterations=6, budget=budget) == 62.0
        assert counted_runs == []
        # Repetitions (firings per iteration): 1, 4, 4, 6, 6.
        assert budget.events_used == 6 * 21 == simulate(graph, 6).simulated_events

    @pytest.mark.parametrize(
        "edge, iterations",
        [
            ({"capacity": 4}, 6),
            ({"initial_tokens": 1}, 6),
            ({"consumption": [1.5]}, 6),
            ({}, 1),
        ],
        ids=["bounded", "initial-token", "fractional-rate", "one-iteration"],
    )
    def test_graphs_outside_the_class_are_run(self, counted_runs, edge, iterations):
        options = {"production": [1], "consumption": [1], **edge}
        graph = (
            CSDFBuilder("outside")
            .actor("a", [3.0])
            .actor("b", [5.0, 1.0])
            .edge("a", "b", **options)
            .build()
        )
        budget = AnalysisBudget()
        expected = simulate(graph, iterations)
        assert minimal_period_ns(graph, iterations, budget=budget) == (
            expected.steady_state_period_ns()
        )
        assert counted_runs == [iterations]
        assert budget.events_used == expected.simulated_events

    @pytest.mark.parametrize("target", ["a", "b"], ids=["feedback", "self-loop"])
    def test_cyclic_graphs_are_run(self, counted_runs, target):
        graph = (
            CSDFBuilder("cyclic")
            .actor("a", [3.0])
            .actor("b", [5.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", target, production=[1], consumption=[1], initial_tokens=1)
            .build()
        )
        assert minimal_period_ns(graph, iterations=6) == (
            simulate(graph, 6).steady_state_period_ns()
        )
        assert counted_runs == [6]


class TestBufferSizing:
    def test_sufficient_capacities_sustain_period(self, simple_chain_csdf):
        capacities = sufficient_buffer_capacities(simple_chain_csdf, period_ns=20.0)
        bounded = apply_buffer_capacities(simple_chain_csdf, capacities)
        assert is_period_sustainable(bounded, 20.0)

    def test_capacities_at_least_max_rate(self, multirate_csdf):
        capacities = sufficient_buffer_capacities(multirate_csdf, period_ns=None)
        for edge in multirate_csdf.edges:
            assert capacities[edge.name] >= max(
                edge.production_rates.max(), edge.consumption_rates.max()
            )

    def test_slower_period_never_needs_bigger_buffers(self, multirate_csdf):
        fast = sufficient_buffer_capacities(multirate_csdf, period_ns=18.0)
        slow = sufficient_buffer_capacities(multirate_csdf, period_ns=100.0)
        for edge_name in fast:
            assert slow[edge_name] <= fast[edge_name]

    def test_apply_capacities_returns_new_graph(self, simple_chain_csdf):
        capacities = {e.name: 5 for e in simple_chain_csdf.edges}
        bounded = apply_buffer_capacities(simple_chain_csdf, capacities)
        assert all(e.capacity == 5 for e in bounded.edges)
        assert all(e.capacity is None for e in simple_chain_csdf.edges)


class TestLatency:
    def test_latency_of_chain(self, simple_chain_csdf):
        latency = end_to_end_latency_ns(simple_chain_csdf, "a", "c", iterations=4)
        assert latency >= 35.0  # at least the sum of one firing per stage

    def test_defaults_to_unique_source_and_sink(self, simple_chain_csdf):
        assert end_to_end_latency_ns(simple_chain_csdf, iterations=3) > 0

    def test_ambiguous_endpoints_rejected(self):
        graph = (
            CSDFBuilder("fork")
            .actor("src", [1.0])
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("src", "a")
            .edge("src", "b")
            .build()
        )
        with pytest.raises(CSDFError):
            end_to_end_latency_ns(graph)

    @pytest.mark.parametrize("endpoints", [("zz", "c"), ("a", "zz")], ids=["source", "sink"])
    def test_unknown_actor_rejected_cached_or_not(self, simple_chain_csdf, endpoints):
        for latency in (end_to_end_latency_ns, AnalysisEngine().end_to_end_latency_ns):
            with pytest.raises(CSDFError, match="unknown actor 'zz' in graph 'chain'"):
                latency(simple_chain_csdf, *endpoints, iterations=3)

    def test_periodic_source_latency_not_smaller_than_self_timed(self, simple_chain_csdf):
        self_timed = end_to_end_latency_ns(simple_chain_csdf, "a", "c", iterations=4)
        periodic = end_to_end_latency_ns(
            simple_chain_csdf, "a", "c", iterations=4, source_period_ns=100.0
        )
        assert periodic <= self_timed + 1e-9
