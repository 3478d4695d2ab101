"""Self-timed simulation of CSDF graphs."""

import pytest

from repro.csdf.builder import CSDFBuilder
from repro.csdf.analysis.simulation import SelfTimedSimulator, simulate
from repro.exceptions import DeadlockError
from tests.simulation_oracle import naive_reference_run, observe


class TestBasicExecution:
    def test_chain_executes_all_firings(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=3)
        assert not result.deadlocked
        assert result.completed_iterations == 3
        for actor in ("a", "b", "c"):
            assert len(result.firings_of(actor)) == 3

    def test_pipeline_timing_first_iteration(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=1)
        a = result.firings_of("a")[0]
        b = result.firings_of("b")[0]
        c = result.firings_of("c")[0]
        assert a.start_ns == 0.0 and a.finish_ns == 10.0
        assert b.start_ns == 10.0 and b.finish_ns == 30.0
        assert c.start_ns == 30.0 and c.finish_ns == 35.0

    def test_steady_state_period_is_bottleneck(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=10)
        # The 20 ns actor dominates the pipeline.
        assert result.steady_state_period_ns() == pytest.approx(20.0, rel=0.05)

    def test_multirate_firing_counts(self, multirate_csdf):
        result = simulate(multirate_csdf, iterations=2)
        assert len(result.firings_of("a")) == 2
        assert len(result.firings_of("b")) == 4
        assert len(result.firings_of("c")) == 6

    def test_iteration_requires_positive_count(self, simple_chain_csdf):
        with pytest.raises(ValueError):
            SelfTimedSimulator(simple_chain_csdf, iterations=0)

    def test_max_occupancy_recorded(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=5)
        # "a" finishes every 10 ns while "b" takes 20 ns, so tokens pile up on
        # the first edge but never on the second.
        assert result.max_occupancy["e1_a_b"] >= 2
        assert result.max_occupancy["e2_b_c"] >= 1


class TestInitialTokensAndCycles:
    def test_cycle_with_initial_token_runs(self):
        graph = (
            CSDFBuilder("loop")
            .actor("a", [5.0])
            .actor("b", [5.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1], initial_tokens=1)
            .build()
        )
        result = simulate(graph, iterations=4)
        assert not result.deadlocked
        assert result.completed_iterations == 4
        # With a single token circulating, a and b alternate strictly.
        assert result.steady_state_period_ns() == pytest.approx(10.0)

    def test_cycle_without_initial_token_deadlocks(self):
        graph = (
            CSDFBuilder("deadlock")
            .actor("a", [5.0])
            .actor("b", [5.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1])
            .build()
        )
        result = simulate(graph, iterations=1)
        assert result.deadlocked
        assert result.completed_iterations == 0
        with pytest.raises(DeadlockError):
            result.steady_state_period_ns()

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
        result = simulate(graph, iterations=4)
        assert result.deadlocked
        assert result.finish_times_ns == {"a": [2.0, 4.0], "b": []}
        assert result.deadlock_time_ns == 4.0
        assert result.end_time_ns == 4.0
        assert result.simulated_events == 2
        assert result.completed_iterations == 0


class TestBoundedBuffers:
    def test_capacity_one_serialises_producer_and_consumer(self):
        graph = (
            CSDFBuilder("bounded")
            .actor("fast", [1.0])
            .actor("slow", [10.0])
            .edge("fast", "slow", production=[1], consumption=[1], capacity=1)
            .build()
        )
        result = simulate(graph, iterations=5)
        assert not result.deadlocked
        assert result.max_occupancy["e1_fast_slow"] <= 1
        # The fast producer is throttled by back-pressure to the slow consumer.
        assert result.steady_state_period_ns() == pytest.approx(10.0, rel=0.1)

    def test_larger_capacity_reduces_blocking(self):
        def run(capacity):
            graph = (
                CSDFBuilder("bounded")
                .actor("fast", [1.0])
                .actor("slow", [10.0])
                .edge("fast", "slow", production=[1], consumption=[1], capacity=capacity)
                .build()
            )
            return simulate(graph, iterations=5)

        small = run(1)
        large = run(8)
        first_fast_small = small.firings_of("fast")[2].start_ns
        first_fast_large = large.firings_of("fast")[2].start_ns
        assert first_fast_large < first_fast_small

    def test_insufficient_capacity_for_burst_deadlocks(self):
        graph = (
            CSDFBuilder("too_small")
            .actor("burst", [1.0])
            .actor("sink", [1.0])
            .edge("burst", "sink", production=[4], consumption=[4], capacity=2)
            .build()
        )
        result = simulate(graph, iterations=1)
        assert result.deadlocked

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
        result = simulate(graph, iterations=3)
        assert result.start_times_ns["c"][0] == 5.0
        assert result.start_times_ns["p"][:2] == [0.0, 5.0]
        assert result.finish_times_ns["c"][0] == 15.0


class TestPeriodicSources:
    def test_source_respects_period(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=4, source_period_ns=100.0)
        starts = [f.start_ns for f in result.firings_of("a")]
        assert starts == [0.0, 100.0, 200.0, 300.0]

    def test_period_slower_than_pipeline_sets_throughput(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=6, source_period_ns=50.0)
        assert result.steady_state_period_ns() == pytest.approx(50.0, rel=0.05)

    def test_unknown_periodic_actor_rejected(self, simple_chain_csdf):
        with pytest.raises(ValueError):
            SelfTimedSimulator(
                simple_chain_csdf, 2, source_period_ns=10.0, periodic_actors=("zz",)
            )

    def test_latency_measurement(self, simple_chain_csdf):
        result = simulate(simple_chain_csdf, iterations=3, source_period_ns=100.0)
        assert result.iteration_latency_ns("a", "c", 0) == pytest.approx(35.0)

    @staticmethod
    def _release_while_busy_chain():
        # s is waiting for its next release while a is still running: a
        # finishes at 4.5, after s's release at 4.
        return (
            CSDFBuilder("release_while_busy")
            .actor("s", [1.0])
            .actor("a", [3.5])
            .edge("s", "a", production=[1], consumption=[1])
            .build()
        )

    def test_release_is_not_deferred_to_a_later_finish(self):
        graph = self._release_while_busy_chain()
        result = simulate(graph, iterations=4, source_period_ns=4.0)
        assert result.start_times_ns["s"] == [0.0, 4.0, 8.0, 12.0]
        assert result.start_times_ns["a"] == [1.0, 5.0, 9.0, 13.0]
        reference = naive_reference_run(graph, 4, source_period_ns=4.0)
        assert observe(result) == reference

    def test_finish_at_the_release_instant_pops_first(self):
        # a finishes exactly at s's release (4.0): the finish is processed
        # first and s starts in the readiness pass that follows it.
        graph = (
            CSDFBuilder("release_tie")
            .actor("s", [1.0])
            .actor("a", [3.0])
            .edge("s", "a", production=[1], consumption=[1])
            .build()
        )
        result = simulate(graph, iterations=3, source_period_ns=4.0)
        assert result.start_times_ns["s"] == [0.0, 4.0, 8.0]
        assert result.finish_times_ns["a"] == [4.0, 8.0, 12.0]
        assert observe(result) == naive_reference_run(graph, 3, source_period_ns=4.0)

    def test_release_is_exact(self):
        # A finish 1e-13 ns before the release no longer starts the source
        # early: the release is taken at its own instant.
        graph = (
            CSDFBuilder("release_exact")
            .actor("s", [1.0])
            .actor("a", [4.0 - 1e-13 - 1.0])
            .edge("s", "a", production=[1], consumption=[1])
            .build()
        )
        result = simulate(graph, iterations=2, source_period_ns=4.0)
        assert result.start_times_ns["s"] == [0.0, 4.0]


class TestBoundedAffectedSetEquivalence:
    """The bounded-buffer fast path must match the naive full scan exactly."""

    def _compare(self, graph, iterations, source_period_ns=None):
        fast = simulate(graph, iterations=iterations, source_period_ns=source_period_ns)
        reference = naive_reference_run(graph, iterations, source_period_ns=source_period_ns)
        assert observe(fast) == reference

    def test_random_bounded_chains_match_reference(self):
        import random

        for seed in range(25):
            rng = random.Random(seed)
            length = rng.randint(2, 6)
            builder = CSDFBuilder(f"chain{seed}")
            for index in range(length):
                phases = rng.randint(1, 3)
                builder.actor(
                    f"a{index}", [float(rng.randint(1, 5)) for _ in range(phases)]
                )
            for index in range(length - 1):
                builder.edge(
                    f"a{index}",
                    f"a{index + 1}",
                    production=[1],
                    consumption=[1],
                    initial_tokens=rng.randint(0, 2),
                    capacity=rng.choice([None, 2, 3, 4]),
                )
            graph = builder.build()
            period = rng.choice([None, 6.0, 11.0])
            self._compare(graph, iterations=4, source_period_ns=period)

    def test_producer_wake_up_within_one_event(self):
        # With capacity 1 and one initial token, the producer is blocked on
        # back-pressure until the consumer's *start* (not finish) frees the
        # slot — the wake-up the bounded affected-set scan must deliver.
        graph = (
            CSDFBuilder("wakeup")
            .actor("fast", [1.0])
            .actor("slow", [10.0])
            .edge("fast", "slow", production=[1], consumption=[1],
                  initial_tokens=1, capacity=1)
            .build()
        )
        self._compare(graph, iterations=3)
        result = simulate(graph, iterations=3)
        # The producer's first firing starts at t=0: the consumer started at
        # t=0 too (consuming the initial token) and thereby freed the slot.
        assert result.firings_of("fast")[0].start_ns == 0.0

    def test_wake_up_ahead_of_the_cursor_joins_the_running_pass(self):
        # When a0 finishes (t = 4), the scan visits a0, a1 and a4.  a0's
        # start frees a slot on the bounded feedback edge a3 -> a0 and so
        # wakes a3, which comes after a0 in actor order: the naive scan
        # visits a3 in the same pass, before a4, so a3 reserves its output
        # on a3 -> a4 before a4's start takes a token from that edge.
        # Deferring a3 to the next pass would under-report the edge's
        # maximum occupancy.
        graph = (
            CSDFBuilder("ahead")
            .actor("a0", [4.0])
            .actor("a1", [1.0])
            .actor("a2", [1.0])
            .actor("a3", [1.0])
            .actor("a4", [1.0])
            .edge("a0", "a1", production=[1], consumption=[1], initial_tokens=2, capacity=2)
            .edge("a1", "a2", production=[1], consumption=[1], capacity=2)
            .edge("a2", "a3", production=[1], consumption=[1], initial_tokens=1, capacity=1)
            .edge("a3", "a4", production=[1], consumption=[1], initial_tokens=1)
            .edge("a0", "a4", production=[1], consumption=[1], capacity=3)
            .edge("a3", "a0", production=[1], consumption=[1], initial_tokens=3, capacity=4)
            .build()
        )
        self._compare(graph, iterations=4)

    def test_bounded_fork_join_matches_reference(self):
        graph = (
            CSDFBuilder("diamond")
            .actor("src", [2.0])
            .actor("up", [3.0])
            .actor("down", [5.0])
            .actor("join", [1.0])
            .edge("src", "up", production=[1], consumption=[1], capacity=2)
            .edge("src", "down", production=[1], consumption=[1], capacity=1)
            .edge("up", "join", production=[1], consumption=[1], capacity=2)
            .edge("down", "join", production=[1], consumption=[1], capacity=2)
            .build()
        )
        self._compare(graph, iterations=5)
        self._compare(graph, iterations=5, source_period_ns=12.0)

    def test_bounded_backward_edge_cycle_matches_reference(self):
        graph = (
            CSDFBuilder("credit_loop")
            .actor("producer", [2.0])
            .actor("consumer", [3.0])
            .edge("producer", "consumer", production=[1], consumption=[1], capacity=2)
            .edge("consumer", "producer", production=[1], consumption=[1],
                  initial_tokens=2, capacity=3)
            .build()
        )
        self._compare(graph, iterations=6)
