"""The max-plus evaluator of the unperiodic self-timed run."""

import pytest

from repro.csdf.analysis.budget import AnalysisEngine
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.maxplus import firing_times
from repro.csdf.analysis.simulation import SelfTimedSimulator, simulate
from repro.csdf.analysis.throughput import minimal_period_ns
from repro.csdf.builder import CSDFBuilder
from repro.exceptions import DeadlockError

#: Every field the evaluator shares with the event loop's result.
FIELDS = (
    "repetitions",
    "phase_counts",
    "start_times_ns",
    "finish_times_ns",
    "iteration_finish_times_ns",
    "deadlocked",
    "deadlock_time_ns",
    "end_time_ns",
    "simulated_events",
)


def assert_matches_event_loop(graph, iterations):
    times = firing_times(graph, iterations)
    result = simulate(graph, iterations=iterations)
    for name in FIELDS:
        assert getattr(times, name) == getattr(result, name), name
    return times


class TestDependencies:
    def test_consumer_start_decides_producer_start(self):
        # p -> c holds one token.  c also waits for the slow s, so it starts
        # at 5; only then is there room for p's second token.  p's second
        # firing starts at c's *start* (5), not its own finish (1) and not
        # c's finish (15).
        graph = (
            CSDFBuilder("space")
            .actor("p", [1.0])
            .actor("s", [5.0])
            .actor("c", [10.0])
            .edge("p", "c", production=[1], consumption=[1], capacity=1)
            .edge("s", "c", production=[1], consumption=[1])
            .build()
        )
        times = assert_matches_event_loop(graph, 3)
        assert times.start_times_ns["c"][0] == 5.0
        assert times.start_times_ns["p"][:2] == [0.0, 5.0]
        assert times.finish_times_ns["c"][0] == 15.0

    def test_feedback_cycle_deadlocks_part_way(self):
        # a hands b one token per firing, b needs three; b's three feedback
        # tokens come back only after it fires.  Two initial tokens let a
        # fire twice, then both wait on each other.
        graph = (
            CSDFBuilder("stall")
            .actor("a", [2.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[3])
            .edge("b", "a", production=[3], consumption=[1], initial_tokens=2)
            .build()
        )
        times = assert_matches_event_loop(graph, 4)
        assert times.deadlocked
        assert times.finish_times_ns == {"a": [2.0, 4.0], "b": []}
        assert times.deadlock_time_ns == 4.0
        assert times.end_time_ns == 4.0
        assert times.simulated_events == 2
        assert times.completed_iterations == 0

    def test_fractional_rates_match_the_event_loop(self):
        # The loop admits a firing when tokens + 1e-9 >= the raw rate and
        # consumes int(rate); the evaluator reproduces both.
        graph = (
            CSDFBuilder("fractional")
            .actor("a", [3.0, 1.0])
            .actor("b", [2.0, 2.5])
            .edge("a", "b", production=[2, 1], consumption=[1.5, 0.5])
            .build()
        )
        assert_matches_event_loop(graph, 6)

    def test_no_occupancy_maxima(self, simple_chain_csdf):
        assert not hasattr(firing_times(simple_chain_csdf, 2), "max_occupancy")

    def test_iterations_must_be_positive(self, simple_chain_csdf):
        with pytest.raises(ValueError):
            firing_times(simple_chain_csdf, 0)


class TestRouting:
    """The unperiodic analyses never run the event loop; periodic ones do."""

    @staticmethod
    def refuse_event_loop(monkeypatch):
        def refuse(self):
            raise AssertionError("the event loop ran")

        monkeypatch.setattr(SelfTimedSimulator, "run", refuse)

    @pytest.fixture()
    def no_event_loop(self, monkeypatch):
        self.refuse_event_loop(monkeypatch)

    def test_minimal_period(self, simple_chain_csdf, no_event_loop):
        assert minimal_period_ns(simple_chain_csdf, iterations=6) == 20.0

    def test_engine_minimal_period_charges_firings(self, multirate_csdf, monkeypatch):
        expected = simulate(multirate_csdf, iterations=5)
        self.refuse_event_loop(monkeypatch)
        engine = AnalysisEngine()
        budget = engine.budget()
        period = engine.minimal_period_ns(multirate_csdf, iterations=5, budget=budget)
        assert period == expected.steady_state_period_ns()
        assert engine.simulations_run == 1
        assert engine.simulated_events == expected.simulated_events
        assert budget.events_used == expected.simulated_events

    def test_engine_minimal_period_deadlock(self, no_event_loop):
        graph = (
            CSDFBuilder("dead")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1])
            .build()
        )
        with pytest.raises(DeadlockError, match="deadlocks at t=0.0 ns"):
            AnalysisEngine().minimal_period_ns(graph, iterations=3)

    def test_self_timed_latency(self, simple_chain_csdf, no_event_loop):
        assert end_to_end_latency_ns(simple_chain_csdf, iterations=3) > 0

    def test_periodic_latency_runs_the_event_loop(self, simple_chain_csdf, monkeypatch):
        calls = []
        run = SelfTimedSimulator.run

        def counted(self):
            calls.append(self)
            return run(self)

        monkeypatch.setattr(SelfTimedSimulator, "run", counted)
        end_to_end_latency_ns(simple_chain_csdf, iterations=3, source_period_ns=50.0)
        assert len(calls) == 1
