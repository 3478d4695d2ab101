"""The feed-forward evaluator and the analyses' one dispatch rule."""

from dataclasses import replace

import pytest

from repro.csdf.analysis import feedforward
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.analysis.buffers import _lower_bound_capacity, sufficient_buffer_capacities
from repro.csdf.analysis.feedforward import _exact_times, feed_forward_run, is_feed_forward
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.simulation import SelfTimedSimulator, simulate
from repro.csdf.analysis.throughput import is_period_sustainable, minimal_period_ns
from repro.csdf.builder import CSDFBuilder
from repro.exceptions import DeadlockError

#: Every field the feed-forward evaluator shares with the event loop's result.
RUN_FIELDS = (
    "repetitions",
    "phase_counts",
    "start_times_ns",
    "finish_times_ns",
    "iteration_finish_times_ns",
    "deadlocked",
    "deadlock_time_ns",
    "end_time_ns",
    "simulated_events",
    "max_occupancy",
    "aborted",
)


def assert_matches_periodic_loop(graph, iterations, period, cycle_exit=False):
    unbounded = graph.copy()
    for edge in graph.edges:
        unbounded.replace_edge(edge.with_capacity(None))
    run = feed_forward_run(graph, iterations, period, cycle_exit=cycle_exit)
    result = simulate(unbounded, iterations, source_period_ns=period, cycle_exit=cycle_exit)
    for name in RUN_FIELDS:
        assert getattr(run, name) == getattr(result, name), name
    return run


def lockstep_routers():
    """A zero-duration source feeding two 40 ns routers and a sink, the
    routers declared after the actors they feed (as step 4 builds them)."""
    return (
        CSDFBuilder("lockstep")
        .actor("src", [0.0])
        .actor("sink", [0.0])
        .actor("r0", [40.0])
        .actor("r1", [40.0])
        .edge("src", "r0", production=[4], consumption=[1])
        .edge("r0", "r1", production=[1], consumption=[1])
        .edge("r1", "sink", production=[1], consumption=[4])
        .build()
    )


class TestFeedForwardRun:
    def test_class(self, simple_chain_csdf):
        assert is_feed_forward(simple_chain_csdf)
        bounded = simple_chain_csdf.copy()
        bounded.replace_edge(bounded.edges[0].with_capacity(1))
        assert is_feed_forward(bounded)
        feedback = (
            CSDFBuilder("feedback")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1], initial_tokens=1)
            .build()
        )
        assert not is_feed_forward(feedback)
        fractional = (
            CSDFBuilder("fractional")
            .actor("a", [1.0, 1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1.5, 0.5], consumption=[2])
            .build()
        )
        assert not is_feed_forward(fractional)
        with pytest.raises(ValueError, match="not feed-forward"):
            feed_forward_run(feedback, 2, 4.0)

    def test_class_survives_capacity_changes_only(self, simple_chain_csdf):
        assert is_feed_forward(simple_chain_csdf)
        edge = simple_chain_csdf.edges[0]
        simple_chain_csdf.replace_edge(edge.with_capacity(3))
        assert is_feed_forward(simple_chain_csdf)
        simple_chain_csdf.replace_edge(replace(edge, initial_tokens=2))
        assert not is_feed_forward(simple_chain_csdf)

    def test_lockstep_ties_follow_the_loop(self):
        # r0 and r1 finish together every 40 ns; whether r1 took its token
        # before r0 started again decides r0 -> r1's occupancy.
        for period in (160.0, 200.0, 400.0):
            for cycle_exit in (False, True):
                assert_matches_periodic_loop(lockstep_routers(), 5, period, cycle_exit)

    def test_cycle_exit_stops_at_the_repeated_state(self):
        run = assert_matches_periodic_loop(lockstep_routers(), 6, 400.0, cycle_exit=True)
        assert run.aborted
        assert run.simulated_events < 6 * (1 + 1 + 4 + 4)

    def test_period_equal_to_the_source_duration(self, simple_chain_csdf):
        # a finishes exactly at its next release: its own finish starts it.
        for cycle_exit in (False, True):
            assert_matches_periodic_loop(simple_chain_csdf, 6, 10.0, cycle_exit)

    def test_consumer_declared_before_its_producer(self):
        graph = (
            CSDFBuilder("reversed")
            .actor("c", [3.0])
            .actor("b", [2.0, 0.0])
            .actor("a", [1.0])
            .edge("a", "b", production=[1], consumption=[1, 0])
            .edge("b", "c", production=[0, 1], consumption=[1])
            .build()
        )
        for period in (None, 2.0, 3.0, 8.0):
            for cycle_exit in (False, True):
                assert_matches_periodic_loop(graph, 4, period, cycle_exit)

    def test_capacities_are_ignored(self, multirate_csdf):
        bounded = multirate_csdf.copy()
        for edge in multirate_csdf.edges:
            bounded.replace_edge(edge.with_capacity(1))
        assert assert_matches_periodic_loop(bounded, 4, 12.0).max_occupancy == (
            feed_forward_run(multirate_csdf, 4, 12.0).max_occupancy
        )

    def test_arguments_are_checked(self, simple_chain_csdf):
        with pytest.raises(ValueError):
            feed_forward_run(simple_chain_csdf, 0, 10.0)
        with pytest.raises(ValueError):
            feed_forward_run(simple_chain_csdf, 2, 0.0)


def feedback_pair():
    """a -> b -> a with two tokens on the way back: not feed-forward."""
    return (
        CSDFBuilder("feedback")
        .actor("a", [2.0])
        .actor("b", [1.0])
        .edge("a", "b", production=[1], consumption=[1])
        .edge("b", "a", production=[1], consumption=[1], initial_tokens=2)
        .build()
    )


class TestRouting:
    """A feed-forward graph with no capacity set never runs the event loop;
    bounded graphs, sustainability probes and graphs that are not
    feed-forward do, and charge its firing count."""

    @staticmethod
    def refuse_event_loop(monkeypatch):
        def refuse(self):
            raise AssertionError("the event loop ran")

        monkeypatch.setattr(SelfTimedSimulator, "run", refuse)

    @staticmethod
    def count_event_loop(monkeypatch):
        calls = []
        run = SelfTimedSimulator.run

        def counted(self):
            calls.append(self)
            return run(self)

        monkeypatch.setattr(SelfTimedSimulator, "run", counted)
        return calls

    @pytest.fixture()
    def no_event_loop(self, monkeypatch):
        self.refuse_event_loop(monkeypatch)

    def test_minimal_period(self, simple_chain_csdf, no_event_loop):
        assert minimal_period_ns(simple_chain_csdf, iterations=6) == 20.0

    def test_engine_minimal_period_charges_firings(self, multirate_csdf, monkeypatch):
        expected = simulate(multirate_csdf, iterations=5)
        self.refuse_event_loop(monkeypatch)
        engine = AnalysisEngine()
        budget = AnalysisBudget()
        period = engine.minimal_period_ns(multirate_csdf, iterations=5, budget=budget)
        assert period == expected.steady_state_period_ns()
        assert engine.simulations_run == 1
        assert engine.simulated_events == expected.simulated_events
        assert budget.events_used == expected.simulated_events

    def test_feedback_period_runs_the_event_loop(self, monkeypatch):
        expected = simulate(feedback_pair(), iterations=4)
        calls = self.count_event_loop(monkeypatch)
        budget = AnalysisBudget()
        assert minimal_period_ns(feedback_pair(), iterations=4, budget=budget) == (
            expected.steady_state_period_ns()
        )
        assert len(calls) == 1
        assert budget.events_used == expected.simulated_events

    def test_engine_minimal_period_deadlock(self, monkeypatch):
        graph = (
            CSDFBuilder("dead")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1])
            .build()
        )
        calls = self.count_event_loop(monkeypatch)
        with pytest.raises(DeadlockError, match="deadlocks at t=0.0 ns"):
            AnalysisEngine().minimal_period_ns(graph, iterations=3)
        assert len(calls) == 1

    def test_self_timed_latency(self, simple_chain_csdf, no_event_loop):
        assert end_to_end_latency_ns(simple_chain_csdf, iterations=3) > 0

    def test_periodic_latency_runs_no_event_loop(self, simple_chain_csdf, monkeypatch):
        expected = simulate(simple_chain_csdf, iterations=3, source_period_ns=50.0)
        self.refuse_event_loop(monkeypatch)
        budget = AnalysisBudget()
        latency = end_to_end_latency_ns(
            simple_chain_csdf, iterations=3, source_period_ns=50.0, budget=budget
        )
        assert latency == max(
            expected.iteration_latency_ns("a", "c", k) for k in range(3)
        )
        assert budget.events_used == expected.simulated_events

    def test_feedback_latency_runs_the_event_loop(self, monkeypatch):
        expected = simulate(feedback_pair(), iterations=3)
        calls = self.count_event_loop(monkeypatch)
        budget = AnalysisBudget()
        latency = end_to_end_latency_ns(feedback_pair(), "a", "b", iterations=3, budget=budget)
        assert latency == max(expected.iteration_latency_ns("a", "b", k) for k in range(3))
        assert len(calls) == 1
        assert budget.events_used == expected.simulated_events

    def test_bounded_latency_runs_the_event_loop(self, simple_chain_csdf, monkeypatch):
        bounded = simple_chain_csdf.copy()
        for edge in simple_chain_csdf.edges:
            bounded.replace_edge(edge.with_capacity(1))
        calls = self.count_event_loop(monkeypatch)
        end_to_end_latency_ns(bounded, iterations=3, source_period_ns=50.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("early_exit", [False, True])
    def test_feed_forward_buffer_sizing(self, early_exit, monkeypatch):
        graph = lockstep_routers()
        expected = simulate(graph, 6, source_period_ns=400.0, cycle_exit=early_exit)
        self.refuse_event_loop(monkeypatch)
        budget = AnalysisBudget()
        capacities = sufficient_buffer_capacities(
            graph, 400.0, iterations=6, early_exit=early_exit, budget=budget
        )
        assert capacities == {
            edge.name: max(
                expected.max_occupancy[edge.name], _lower_bound_capacity(graph, edge.name)
            )
            for edge in graph.edges
        }
        assert budget.events_used == expected.simulated_events

    def test_engine_buffer_sizing_charges_the_loops_firings(self, monkeypatch):
        graph = lockstep_routers()
        expected = simulate(graph, 6, source_period_ns=400.0, cycle_exit=True)
        self.refuse_event_loop(monkeypatch)
        engine = AnalysisEngine()
        budget = AnalysisBudget()
        engine.sufficient_buffer_capacities(graph, 400.0, iterations=6, budget=budget)
        assert engine.simulations_run == 1
        assert engine.simulated_events == budget.events_used == expected.simulated_events

    def test_bounded_feed_forward_buffer_sizing(self, simple_chain_csdf, no_event_loop):
        # The capacities are stripped before the run, so the class holds.
        bounded = simple_chain_csdf.copy()
        for edge in simple_chain_csdf.edges:
            bounded.replace_edge(edge.with_capacity(1))
        assert sufficient_buffer_capacities(bounded, 30.0, iterations=4) == (
            sufficient_buffer_capacities(simple_chain_csdf, 30.0, iterations=4)
        )

    def test_feedback_buffer_sizing_runs_the_event_loop(self, monkeypatch):
        calls = self.count_event_loop(monkeypatch)
        sufficient_buffer_capacities(feedback_pair(), 5.0, iterations=3)
        assert len(calls) == 1

    def test_sustainability_of_bounded_graphs_runs_the_event_loop(
        self, simple_chain_csdf, monkeypatch
    ):
        bounded = simple_chain_csdf.copy()
        for edge in simple_chain_csdf.edges:
            bounded.replace_edge(edge.with_capacity(1))
        calls = self.count_event_loop(monkeypatch)
        assert is_period_sustainable(bounded, 30.0, iterations=4)
        assert len(calls) == 1


def rounding_pair(phase_ns):
    """A bounded two-actor chain whose consumer's first phase lasts ``phase_ns``."""
    return (
        CSDFBuilder("rounding")
        .actor("a", [34.0, 50.0])
        .actor("b", [phase_ns, 0.0])
        .edge("a", "b", production=[1, 1], consumption=[1, 1], capacity=2)
        .build()
    )


class TestExactTimes:
    """The event loop may take the cycle exit only where every time of the
    run is an exact float: a multiple of one power-of-two grain below
    ``2**53`` grains."""

    def test_integer_times_are_exact(self):
        assert _exact_times(feedback_pair(), 4, None)
        assert _exact_times(feedback_pair(), 4, 10.0)

    def test_dyadic_fractions_are_exact(self):
        graph = (
            CSDFBuilder("dyadic")
            .actor("a", [0.5, 0.25])
            .actor("b", [0.125])
            .edge("a", "b", production=[1, 1], consumption=[2], capacity=2)
            .build()
        )
        assert _exact_times(graph, 8, 0.75)

    def test_zero_times_are_exact(self):
        graph = (
            CSDFBuilder("instant")
            .actor("a", [0.0])
            .actor("b", [0.0, 0.0])
            .edge("a", "b", production=[2], consumption=[1, 1], capacity=2)
            .build()
        )
        assert _exact_times(graph, 6, None)

    def test_a_fine_grain_under_a_long_horizon_rounds(self):
        # 2.33e-13 ns puts the grain near 2**-94 ns; the run lasts hundreds
        # of ns, far past 2**53 grains.  A 2**-40 ns phase keeps it exact.
        assert not _exact_times(rounding_pair(2.333725883316607e-13), 6, None)
        assert _exact_times(rounding_pair(2.0**-40), 6, None)

    def test_the_period_counts_towards_grain_and_horizon(self):
        # 0.1 is a multiple of 2**-55 only, so its run must stay below 0.25 ns.
        assert not _exact_times(feedback_pair(), 6, 0.1)
        assert _exact_times(feedback_pair(), 6, 0.125)

    def test_the_horizon_stops_short_of_2_to_the_53_grains(self):
        graph = (
            CSDFBuilder("long")
            .actor("a", [2.0**52])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1], capacity=1)
            .build()
        )
        assert _exact_times(graph, 1, None)  # 2**52 + 1 grains
        assert not _exact_times(graph, 2, None)  # 2**53 + 2 grains

    def test_an_infinite_duration_is_not_exact(self):
        assert not _exact_times(rounding_pair(float("inf")), 2, None)

    def test_the_event_loop_drops_the_cycle_exit_only_when_times_round(self, monkeypatch):
        seen = []

        def recording(graph, iterations, *, source_period_ns=None, cycle_exit=False):
            seen.append(cycle_exit)
            return simulate(graph, iterations, source_period_ns=source_period_ns)

        monkeypatch.setattr(feedforward, "simulate", recording)
        feedforward._self_timed_run(rounding_pair(2.0**-40), 6, cycle_exit=True)
        feedforward._self_timed_run(rounding_pair(2.333725883316607e-13), 6, cycle_exit=True)
        feedforward._self_timed_run(rounding_pair(2.0**-40), 6, cycle_exit=False)
        assert seen == [True, False, False]
