"""Property-based tests of the analysis-budget subsystem.

Random CSDF chains (with initial tokens, so head-start transients occur) pin
two decision-identity claims of :mod:`repro.csdf.analysis.budget`:

* a warm verdict cache answers the engine's sizing and latency questions
  exactly as a cold one, moving only the hit and simulation counters;
* the structural fingerprint is stable under rename-preserving copies and
  capacity changes never leak into it.

That the engine's cycle-exiting sizing equals the full run's is pinned in
``test_prop_csdf.py`` (``TestCycleExitSizing``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf.analysis.budget import AnalysisEngine
from repro.csdf.analysis.throughput import minimal_period_ns
from repro.csdf.builder import CSDFBuilder


@st.composite
def random_chain(draw, with_tokens=True):
    """A random acyclic chain of 2-5 actors with random rates and tokens."""
    length = draw(st.integers(min_value=2, max_value=5))
    builder = CSDFBuilder("random_chain")
    for index in range(length):
        phases = draw(st.integers(min_value=1, max_value=3))
        times = [draw(st.integers(min_value=1, max_value=20)) for _ in range(phases)]
        builder.actor(f"a{index}", [float(t) for t in times])
    for index in range(length - 1):
        production = draw(st.integers(min_value=1, max_value=4))
        consumption = draw(st.integers(min_value=1, max_value=4))
        tokens = draw(st.integers(min_value=0, max_value=3)) if with_tokens else 0
        builder.edge(
            f"a{index}",
            f"a{index + 1}",
            production=[production],
            consumption=[consumption],
            initial_tokens=tokens,
        )
    return builder.build()


def renamed_copy(graph):
    """The same structure rebuilt under fresh actor/edge/graph names."""
    builder = CSDFBuilder("renamed_twin")
    names = {actor.name: f"n{i}" for i, actor in enumerate(graph.actors)}
    for actor in graph.actors:
        builder.actor(
            names[actor.name], list(actor.execution_times_ns.values), role=actor.role
        )
    for edge in graph.edges:
        builder.edge(
            names[edge.source],
            names[edge.target],
            production=list(edge.production_rates.values),
            consumption=list(edge.consumption_rates.values),
            initial_tokens=edge.initial_tokens,
        )
    return builder.build()


class TestEngineIdentity:
    @given(random_chain(), st.floats(min_value=1.02, max_value=1.5))
    @settings(max_examples=15, deadline=None)
    def test_warm_cache_changes_nothing_but_the_counters(self, graph, factor):
        period = minimal_period_ns(graph, iterations=8) * factor
        engine = AnalysisEngine()

        def ask():
            return (
                engine.sufficient_buffer_capacities(graph, period, iterations=6),
                engine.end_to_end_latency_ns(graph, iterations=6, source_period_ns=period),
            )

        cold = ask()
        after_cold = engine.snapshot()
        warm = ask()
        after_warm = engine.snapshot()
        assert warm == cold
        assert after_warm["simulations_run"] == after_cold["simulations_run"]
        assert after_warm["simulated_events"] == after_cold["simulated_events"]
        assert after_warm["cache_hits"] == after_cold["cache_hits"] + 2


class TestFingerprintProperties:
    @given(random_chain())
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_ignores_all_names(self, graph):
        assert renamed_copy(graph).structural_fingerprint() == graph.structural_fingerprint()

    @given(random_chain(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_capacity_changes_never_touch_the_fingerprint(self, graph, capacity):
        before = graph.structural_fingerprint()
        bounded = graph.copy("bounded")
        for edge in graph.edges:
            floor = max(edge.production_rates.max(), edge.consumption_rates.max(),
                        edge.initial_tokens, capacity)
            bounded.replace_edge(edge.with_capacity(floor))
        assert bounded.structural_fingerprint() == before
        assert graph.capacity_vector() == tuple(None for _ in graph.edges)
