"""Property-based tests of CSDF repetition vectors and self-timed execution.

Random pipelines (chains of actors with random rates and execution times) are
generated and three invariants checked:

* the repetition vector balances every edge;
* self-timed execution completes exactly ``iterations x repetitions`` firings
  and never deadlocks on an acyclic chain;
* the measured steady-state period is never below the processor bound, and
  granting the observed buffer occupancies as capacities preserves the period.

A differential then pins the simulator to the tests-only naive oracle
(``tests/simulation_oracle.py``) on random unbounded and bounded,
multi-phase, multi-rate graphs with forks, joins and feedback cycles, with
and without periodic sources and with and without the cycle exit; and the integer
repetition-vector solver is checked against a ``Fraction`` solve.

The closed-form period of acyclic, unbounded, token-free graphs is pinned
to a 200-iteration run, its charged cost to the event loop's firing count
(cache hits included), and every graph outside that class to exactly what
the event loop returns.

The feed-forward evaluator is pinned to the event loop on random
feed-forward graphs with periodic sources: every field of the run, and the
capacities and charged firings of the buffer sizing, with the cycle exit on
and off.  Integer durations make ties frequent; zero-duration actors, a
period equal to the source's busy time and actors declared before their
producers are all drawn.  A second strategy draws chains of one-phase,
one-token hops after a multi-phase, multi-token producer, with fractional
durations whose sums round, each hop as long as, shorter than or longer
than its upstream: the evaluator's unit-rate and no-queue paths.

Finally, on graphs the feed-forward evaluator does not take (an initial
token or a feedback edge), the engine's buffer sizing runs the event loop
with the cycle exit wherever every time of the run is an exact float, and
must return the full run's capacities, or raise the same deadlock, while
charging no more than the full run; a chain whose times round is pinned.
"""

from dataclasses import replace
from fractions import Fraction
from math import gcd, isclose, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.csdf.actor import CSDFActor
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.analysis.buffers import (
    _lower_bound_capacity,
    apply_buffer_capacities,
    sufficient_buffer_capacities,
)
from repro.csdf.analysis.feedforward import feed_forward_run, is_feed_forward
from repro.csdf.analysis.simulation import SelfTimedSimulator, simulate
from repro.csdf.analysis.throughput import (
    is_period_sustainable,
    minimal_period_ns,
    processor_bound_period_ns,
)
from repro.csdf.builder import CSDFBuilder
from repro.csdf.edge import CSDFEdge
from repro.csdf.graph import CSDFGraph
from repro.csdf.phase import PhaseVector
from repro.csdf.repetition import repetition_vector
from repro.exceptions import DeadlockError
from tests.simulation_oracle import naive_reference_run, observe


@st.composite
def random_chain(draw):
    """A random acyclic chain of 2-5 actors with random rates."""
    length = draw(st.integers(min_value=2, max_value=5))
    builder = CSDFBuilder("random_chain")
    for index in range(length):
        phases = draw(st.integers(min_value=1, max_value=3))
        times = [draw(st.integers(min_value=1, max_value=20)) for _ in range(phases)]
        builder.actor(f"a{index}", [float(t) for t in times])
    for index in range(length - 1):
        production = draw(st.integers(min_value=1, max_value=4))
        consumption = draw(st.integers(min_value=1, max_value=4))
        builder.edge(f"a{index}", f"a{index + 1}",
                     production=[production], consumption=[consumption])
    return builder.build()


def _phase_rates(draw, phases):
    """Per-phase rates of 0-3 tokens with a non-zero sum."""
    rates = [draw(st.integers(min_value=0, max_value=3)) for _ in range(phases)]
    if not any(rates):
        rates[draw(st.integers(min_value=0, max_value=phases - 1))] = 1
    return rates


def _spread(draw, total, phases):
    """Split ``total`` tokens over ``phases`` phases (one phase, or evenly plus rest)."""
    if draw(st.booleans()):
        rates = [0] * phases
        rates[draw(st.integers(min_value=0, max_value=phases - 1))] = total
        return rates
    return [total // phases + (1 if p < total % phases else 0) for p in range(phases)]


@st.composite
def random_simulation_case(draw):
    """A random rate-consistent CSDF graph plus simulator options.

    A chain of 2-6 multi-phase, multi-rate actors, optionally with a forward
    (fork/join) edge and a backward (feedback) edge whose rates are derived
    from the chain's repetition vector so the graph stays consistent.  The
    graph is either unbounded or has random capacities (some too small, so
    deadlocks occur); the options draw a periodic source and the cycle exit.
    """
    length = draw(st.integers(min_value=2, max_value=6))
    bounded = draw(st.booleans())
    phases = [draw(st.integers(min_value=1, max_value=3)) for _ in range(length)]
    times = [[float(draw(st.integers(min_value=0, max_value=9))) for _ in range(p)] for p in phases]
    edges = []

    def edge(source, target, production, consumption):
        tokens = draw(st.integers(min_value=0, max_value=4))
        capacity = None
        if bounded and draw(st.integers(min_value=0, max_value=4)):
            slack = draw(st.integers(min_value=-1, max_value=5))
            capacity = max(tokens, max(production) + slack, 1)
        edges.append((source, target, production, consumption, tokens, capacity))

    for index in range(length - 1):
        production = _phase_rates(draw, phases[index])
        edge(index, index + 1, production, _phase_rates(draw, phases[index + 1]))

    def build(name):
        builder = CSDFBuilder(name)
        for index in range(length):
            builder.actor(f"a{index}", times[index])
        for source, target, production, consumption, tokens, capacity in edges:
            builder.edge(f"a{source}", f"a{target}", production=production,
                         consumption=consumption, initial_tokens=tokens, capacity=capacity)
        return builder.build()

    repetitions = repetition_vector(build("chain"))
    cycles = [repetitions[f"a{index}"] // phases[index] for index in range(length)]
    extra = []
    if length >= 3 and draw(st.booleans()):
        source = draw(st.integers(min_value=0, max_value=length - 3))
        extra.append((source, draw(st.integers(min_value=source + 2, max_value=length - 1))))
    if draw(st.booleans()):
        source = draw(st.integers(min_value=1, max_value=length - 1))
        extra.append((source, draw(st.integers(min_value=0, max_value=source - 1))))
    for source, target in extra:
        # Balance: cycles[source] * produced == cycles[target] * consumed.
        divisor = gcd(cycles[source], cycles[target])
        scale = draw(st.integers(min_value=1, max_value=2))
        produced = scale * cycles[target] // divisor
        consumed = scale * cycles[source] // divisor
        if produced > 12 or consumed > 12:
            continue
        edge(source, target, _spread(draw, produced, phases[source]),
             _spread(draw, consumed, phases[target]))
    graph = build("random_case")
    options = {
        "iterations": draw(st.integers(min_value=1, max_value=10)),
        "source_period_ns": draw(st.sampled_from([None, 3.0, 7.0, 15.0])),
    }
    if draw(st.booleans()):
        options["cycle_exit"] = True
    return graph, options


class TestRepetitionProperties:
    @given(random_chain())
    @settings(max_examples=40, deadline=None)
    def test_repetition_vector_balances_every_edge(self, graph):
        repetitions = repetition_vector(graph)
        for edge in graph.edges:
            source = graph.actor(edge.source)
            target = graph.actor(edge.target)
            produced = repetitions[edge.source] / source.phases * edge.total_production
            consumed = repetitions[edge.target] / target.phases * edge.total_consumption
            assert abs(produced - consumed) < 1e-9

    @given(random_chain())
    @settings(max_examples=40, deadline=None)
    def test_repetition_vector_is_minimal_positive(self, graph):
        repetitions = repetition_vector(graph)
        assert all(count >= 1 for count in repetitions.values())
        # Dividing all cycle counts by any integer > 1 must break integrality.
        cycle_counts = [repetitions[a.name] // graph.actor(a.name).phases for a in graph.actors]
        from math import gcd
        overall = cycle_counts[0]
        for value in cycle_counts[1:]:
            overall = gcd(overall, value)
        assert overall == 1


class TestSimulationProperties:
    @given(random_chain(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_chain_never_deadlocks_and_completes(self, graph, iterations):
        repetitions = repetition_vector(graph)
        result = simulate(graph, iterations=iterations)
        assert not result.deadlocked
        assert result.completed_iterations == iterations
        for actor in graph.actors:
            assert len(result.firings_of(actor.name)) == repetitions[actor.name] * iterations

    @given(random_chain())
    @settings(max_examples=30, deadline=None)
    def test_firings_of_one_actor_never_overlap(self, graph):
        result = simulate(graph, iterations=2)
        for records in result.firings.values():
            for previous, current in zip(records, records[1:]):
                assert current.start_ns >= previous.finish_ns - 1e-9

    @given(random_chain())
    @settings(max_examples=25, deadline=None)
    def test_period_not_below_processor_bound(self, graph):
        bound = processor_bound_period_ns(graph)
        period = minimal_period_ns(graph, iterations=6)
        assert period >= bound - 1e-6

    @given(random_chain())
    @settings(max_examples=20, deadline=None)
    def test_observed_occupancy_is_a_sufficient_capacity(self, graph):
        # Measure the steady-state period with a generous horizon, then ask for
        # a period 5% above it: the buffer capacities observed at that rate
        # must be enough for the bounded graph to keep up as well.
        period = minimal_period_ns(graph, iterations=12) * 1.05
        capacities = sufficient_buffer_capacities(graph, period_ns=period, iterations=8)
        bounded = apply_buffer_capacities(graph, capacities)
        assert is_period_sustainable(bounded, period, iterations=8)


class TestSimulatorMatchesNaiveOracle:
    """Every result field equals the naive full-scan oracle's, bit for bit."""

    @given(random_simulation_case())
    @settings(max_examples=250, deadline=None)
    def test_every_field_matches_oracle(self, case):
        graph, options = case
        result = simulate(graph, **options)
        reference = naive_reference_run(graph, **options)
        assert observe(result) == reference


@st.composite
def random_self_timed_case(draw):
    """A :func:`random_simulation_case` graph and iteration count, for a run
    without period or early exit; optionally with arbitrary float durations,
    zero-duration sources and self-loop edges (some bounded)."""
    graph, options = draw(random_simulation_case())
    float_times = draw(st.booleans())
    variant = CSDFGraph("self_timed_case")
    for actor in graph.actors:
        times = list(actor.execution_times_ns.values)
        if float_times:
            times = [
                draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
                for _ in times
            ]
        if not graph.input_edges(actor.name) and draw(st.booleans()):
            times = [0.0] * len(times)
        variant.add_actor(CSDFActor(actor.name, PhaseVector(times)))
    for edge in graph.edges:
        variant.add_edge(edge)
    loops = draw(st.booleans())
    for actor in graph.actors:
        if not loops or draw(st.integers(min_value=0, max_value=2)):
            continue
        production = _phase_rates(draw, actor.phases)
        consumption = _spread(draw, sum(production), actor.phases)
        # A full cycle's worth of tokens keeps the loop live; fewer may
        # stall it part-way.
        tokens = draw(st.integers(min_value=0, max_value=2))
        if draw(st.booleans()):
            tokens += sum(consumption)
        capacity = None
        if draw(st.booleans()):
            capacity = max(tokens + max(production) + draw(st.integers(-1, 2)), 1)
        variant.add_edge(
            CSDFEdge(
                f"loop_{actor.name}",
                actor.name,
                actor.name,
                PhaseVector(production),
                PhaseVector(consumption),
                initial_tokens=tokens,
                capacity=capacity,
            )
        )
    return variant, options["iterations"]


def fraction_repetition_vector(graph):
    """The balance equations solved with ``Fraction`` ratios (consistent graphs only)."""
    ratios = {}
    for seed in graph.actor_names:
        if seed in ratios:
            continue
        ratios[seed] = Fraction(1)
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for edge in graph.edges:
                for here, there, moved_here, moved_there in (
                    (edge.source, edge.target, edge.total_production, edge.total_consumption),
                    (edge.target, edge.source, edge.total_consumption, edge.total_production),
                ):
                    if here == current and there not in ratios:
                        ratios[there] = ratios[current] * Fraction(moved_here) / Fraction(moved_there)
                        frontier.append(there)
    scale = lcm(*(ratio.denominator for ratio in ratios.values()))
    cycles = {name: int(ratio * scale) for name, ratio in ratios.items()}
    divisor = gcd(*cycles.values())
    return {name: count // divisor * graph.actor(name).phases for name, count in cycles.items()}


class TestIntegerRepetitionVector:
    @given(random_chain())
    @settings(max_examples=60, deadline=None)
    def test_chains_match_fraction_solve(self, graph):
        assert repetition_vector(graph) == fraction_repetition_vector(graph)

    @given(random_self_timed_case())
    @settings(max_examples=120, deadline=None)
    def test_cyclic_graphs_match_fraction_solve(self, case):
        graph, _ = case
        assert repetition_vector(graph) == fraction_repetition_vector(graph)


@st.composite
def random_closed_form_case(draw):
    """A graph of the closed form's class and 2-10 iterations: a
    :func:`random_self_timed_case` chain with its forward fork/join edges,
    every edge unbounded and token-free (feedback edges and self-loops
    dropped), multi-phase, with zero and optionally float durations."""
    graph, _ = draw(random_self_timed_case())
    names = graph.actor_names
    acyclic = CSDFGraph("closed_form_case")
    for actor in graph.actors:
        acyclic.add_actor(actor)
    for edge in graph.edges:
        if names.index(edge.source) < names.index(edge.target):
            acyclic.add_edge(replace(edge, initial_tokens=0, capacity=None))
    return acyclic, draw(st.integers(min_value=2, max_value=10))


@st.composite
def random_outside_class_case(
    draw, changes=("bounded", "token", "feedback", "one_iteration")
):
    """A closed-form-class graph with one of ``changes`` that takes it out
    of the class: a bounded edge, an initial token, a balanced feedback edge
    from the last actor to the first, or a single iteration."""
    graph, iterations = draw(random_closed_form_case())
    change = draw(st.sampled_from(changes))
    if change == "one_iteration":
        return graph, 1
    variant = CSDFGraph("outside_class_case")
    for actor in graph.actors:
        variant.add_actor(actor)
    chosen = draw(st.integers(min_value=0, max_value=len(graph.edges) - 1))
    for index, edge in enumerate(graph.edges):
        if index == chosen and change == "bounded":
            edge = edge.with_capacity(draw(st.integers(min_value=1, max_value=6)))
        elif index == chosen and change == "token":
            edge = replace(edge, initial_tokens=draw(st.integers(min_value=1, max_value=3)))
        variant.add_edge(edge)
    if change == "feedback":
        first, last = graph.actors[0], graph.actors[-1]
        repetitions = repetition_vector(graph)
        cycles_first = repetitions[first.name] // first.phases
        cycles_last = repetitions[last.name] // last.phases
        divisor = gcd(cycles_first, cycles_last)
        consumption = _spread(draw, cycles_last // divisor, first.phases)
        variant.add_edge(
            CSDFEdge(
                "feedback",
                last.name,
                first.name,
                PhaseVector(_spread(draw, cycles_first // divisor, last.phases)),
                PhaseVector(consumption),
                initial_tokens=draw(st.integers(min_value=0, max_value=sum(consumption))),
            )
        )
    return variant, iterations


class TestClosedFormPeriod:
    """The busiest actor's load is the self-timed period of the class."""

    @given(random_closed_form_case())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_long_run_period(self, case):
        graph, iterations = case
        reference = simulate(graph, 200).steady_state_period_ns()
        period = minimal_period_ns(graph, iterations)
        assert period == processor_bound_period_ns(graph)
        assert isclose(period, reference, rel_tol=1e-9, abs_tol=1e-12)

    @given(random_closed_form_case())
    @settings(max_examples=100, deadline=None)
    def test_charges_the_evaluators_firing_count(self, case):
        graph, iterations = case
        fired = simulate(graph, iterations).simulated_events
        engine = AnalysisEngine()
        miss, hit = AnalysisBudget(), AnalysisBudget()
        period = engine.minimal_period_ns(graph, iterations, budget=miss)
        assert engine.minimal_period_ns(graph, iterations, budget=hit) == period
        assert miss.events_used == hit.events_used == fired
        assert engine.snapshot() == {
            "simulations_run": 1,
            "simulated_events": fired,
            "cache_hits": 1,
        }

    @given(random_outside_class_case())
    @settings(max_examples=150, deadline=None)
    def test_graphs_outside_the_class_get_the_evaluators_answer(self, case):
        graph, iterations = case
        times = simulate(graph, iterations)
        budget, engine_budget = AnalysisBudget(), AnalysisBudget()
        if times.completed_iterations == 0:
            with pytest.raises(DeadlockError):
                minimal_period_ns(graph, iterations, budget=budget)
            with pytest.raises(DeadlockError):
                AnalysisEngine().minimal_period_ns(graph, iterations, budget=engine_budget)
        else:
            expected = times.steady_state_period_ns()
            assert minimal_period_ns(graph, iterations, budget=budget) == expected
            assert (
                AnalysisEngine().minimal_period_ns(graph, iterations, budget=engine_budget)
                == expected
            )
        assert budget.events_used == engine_budget.events_used == times.simulated_events


@st.composite
def random_feed_forward_case(draw):
    """A closed-form-class graph re-declared in a shuffled actor order, with
    integer durations of 0-6 ns (an actor may be all zero), some edges
    bounded (capacities are ignored), plus an iteration count, a period or
    none, and the cycle exit on or off."""
    graph, _ = draw(random_closed_form_case())
    actors = list(graph.actors)
    variant = CSDFGraph("feed_forward_case")
    for index in draw(st.permutations(range(len(actors)))):
        actor = actors[index]
        times = [float(draw(st.integers(min_value=0, max_value=6))) for _ in range(actor.phases)]
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            times = [0.0] * actor.phases
        variant.add_actor(CSDFActor(actor.name, PhaseVector(times)))
    for edge in graph.edges:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            edge = edge.with_capacity(draw(st.integers(min_value=1, max_value=8)))
        variant.add_edge(edge)
    # The source's busy time per iteration: as a period, its finish meets
    # its next release.
    source = variant.sources()[0]
    repetitions = repetition_vector(variant)[source.name]
    busy = source.total_execution_time_ns() * repetitions / source.phases
    periods = [None, float(draw(st.integers(min_value=1, max_value=40)))]
    if busy > 0:
        periods.append(busy)
    return (
        variant,
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.sampled_from(periods)),
        draw(st.booleans()),
    )


def _tenths(draw, low=0, high=60):
    """A duration of ``k / 10`` ns: sums of such durations round."""
    return draw(st.integers(min_value=low, max_value=high)) / 10


@st.composite
def random_unit_rate_case(draw):
    """Chains of one-phase, one-in/one-out actors (router hops) fed by a
    multi-phase, multi-token producer, with fractional durations.

    The producer sends the same number of tokens per cycle down one or two
    chains of 0-4 hops, in its own per-phase pattern on each.  Each hop
    lasts as long as, less than or more than its upstream's (first) phase,
    so the evaluator's no-queue path is taken by some hops and not by the
    others.  Two chains optionally meet in a join that takes one token, or
    two, from each end: its inputs arrive out of step.  Plus an iteration
    count, a period or none, and the cycle exit on or off.
    """
    phases = draw(st.integers(min_value=1, max_value=3))
    producer = [_tenths(draw) for _ in range(phases)]
    tokens = draw(st.integers(min_value=1, max_value=4))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=2))
    join = len(lengths) == 2 and draw(st.booleans())
    builder = CSDFBuilder("unit_rate_case")
    builder.actor("src", producer)
    ends = []
    for c, length in enumerate(lengths):
        rates = _spread(draw, tokens, phases)
        upstream, previous = "src", producer[0]
        for h in range(length):
            relation = draw(st.sampled_from(["equal", "shorter", "longer"]))
            if relation == "equal":
                duration = previous
            elif relation == "shorter":
                duration = _tenths(draw, 0, max(round(previous * 10) - 1, 0))
            else:
                duration = _tenths(draw, round(previous * 10) + 1, round(previous * 10) + 30)
            name = f"c{c}h{h}"
            builder.actor(name, [duration])
            builder.edge(upstream, name, production=rates if h == 0 else [1], consumption=[1])
            upstream, previous, rates = name, duration, [1]
        ends.append((upstream, rates))
    if join:
        builder.actor("join", [_tenths(draw)])
        taken = draw(st.integers(min_value=1, max_value=2))
        for upstream, rates in ends:
            builder.edge(upstream, "join", production=rates, consumption=[taken])
    graph = builder.build()
    periods = [None, _tenths(draw, 1, 400)]
    return (
        graph,
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.sampled_from(periods)),
        draw(st.booleans()),
    )


def _unit_rate_chain(name, producer, hops):
    """A one-phase, one-token producer of duration ``producer``, then a
    chain of one-phase hops of the given durations."""
    builder = CSDFBuilder(name).actor("src", [producer])
    upstream = "src"
    for h, duration in enumerate(hops):
        builder.actor(f"h{h}", [duration])
        builder.edge(upstream, f"h{h}", production=[1], consumption=[1])
        upstream = f"h{h}"
    return builder.build()


def _equal_fractional_chain():
    """Three hops as long as their producer, 0.3 ns each: no hop queues,
    and the running sums of 0.3 round."""
    return _unit_rate_chain("equal_chain", 0.3, [0.3, 0.3, 0.3]), 6, None, True


def _slower_after_faster():
    """A 0.3 ns hop after a 0.1 ns one: its tokens come faster than it
    fires, so it queues (a no-queue start would be the arrival)."""
    return _unit_rate_chain("slower_after_faster", 0.1, [0.1, 0.3]), 4, None, False


def _out_of_step_join():
    """A two-phase producer that sends [2, 0] tokens down one chain and
    [1, 1] down the other, whose two hops last 0.1 and 0.3 ns; a join
    takes one token from each end, so its inputs arrive out of step."""
    graph = (
        CSDFBuilder("out_of_step")
        .actor("src", [0.2, 0.5])
        .actor("a0", [0.2])
        .actor("b0", [0.1])
        .actor("b1", [0.3])
        .actor("join", [0.4])
        .edge("src", "a0", production=[2, 0], consumption=[1])
        .edge("src", "b0", production=[1, 1], consumption=[1])
        .edge("b0", "b1", production=[1], consumption=[1])
        .edge("a0", "join", production=[1], consumption=[1])
        .edge("b1", "join", production=[1], consumption=[1])
        .build()
    )
    return graph, 5, 1.5, True


feed_forward_cases = st.one_of(random_feed_forward_case(), random_unit_rate_case())


class TestFeedForwardMatchesEventLoop:
    """The feed-forward evaluator equals the loop on the unbounded graph."""

    @given(feed_forward_cases)
    @example(_equal_fractional_chain())
    @example(_slower_after_faster())
    @example(_out_of_step_join())
    @settings(max_examples=300, deadline=None)
    def test_every_field_matches(self, case):
        graph, iterations, period, cycle_exit = case
        unbounded = graph.copy()
        for edge in graph.edges:
            unbounded.replace_edge(edge.with_capacity(None))
        expected = simulate(
            unbounded, iterations, source_period_ns=period, cycle_exit=cycle_exit
        )
        run = feed_forward_run(graph, iterations, period, cycle_exit=cycle_exit)
        for name in (
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
        ):
            assert getattr(run, name) == getattr(expected, name), name

    @given(feed_forward_cases)
    @example(_equal_fractional_chain())
    @example(_slower_after_faster())
    @example(_out_of_step_join())
    @settings(max_examples=150, deadline=None)
    def test_capacities_and_charge_match(self, case):
        graph, iterations, period, early_exit = case
        unbounded = graph.copy()
        for edge in graph.edges:
            unbounded.replace_edge(edge.with_capacity(None))
        expected = simulate(
            unbounded, iterations, source_period_ns=period, cycle_exit=early_exit
        )
        capacities = {
            edge.name: max(
                expected.max_occupancy[edge.name], _lower_bound_capacity(graph, edge.name)
            )
            for edge in graph.edges
        }
        budget = AnalysisBudget()
        assert (
            sufficient_buffer_capacities(
                graph, period, iterations=iterations, early_exit=early_exit, budget=budget
            )
            == capacities
        )
        assert budget.events_used == expected.simulated_events
        # The engine always takes the cycle exit: the same capacities, at the
        # cycle-exiting loop's firing count.
        cycle_exit_run = simulate(unbounded, iterations, source_period_ns=period, cycle_exit=True)
        engine = AnalysisEngine()
        miss, hit = AnalysisBudget(), AnalysisBudget()
        for charged in (miss, hit):
            assert (
                engine.sufficient_buffer_capacities(graph, period, iterations, budget=charged)
                == capacities
            )
        assert miss.events_used == hit.events_used == cycle_exit_run.simulated_events
        assert engine.simulations_run == 1


@st.composite
def random_event_loop_sizing_case(draw):
    """A graph buffer sizing runs on the event loop (an initial token or a
    feedback edge, which may deadlock it), some edges bounded (sizing strips
    capacities), plus an iteration count and a period or none."""
    graph, iterations = draw(random_outside_class_case(changes=("token", "feedback")))
    variant = CSDFGraph("event_loop_sizing_case")
    for actor in graph.actors:
        variant.add_actor(actor)
    for edge in graph.edges:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            edge = edge.with_capacity(max(edge.initial_tokens, 1) + draw(st.integers(0, 4)))
        variant.add_edge(edge)
    period = draw(st.sampled_from([None, 3.0, 7.0, 15.0, 40.0]))
    return variant, iterations, period


def capacities_or_deadlock(size):
    """What ``size()`` returns, or :class:`DeadlockError` if it raises one."""
    try:
        return size()
    except DeadlockError:
        return DeadlockError


def _rounding_chain():
    """A chain whose times round past 1024 ns (``a2``'s first phase takes
    2.33e-13 ns), so its state repeats at an iteration boundary without
    the rest of the run repeating it: the cycle exit would size
    ``e3_a2_a3`` at 2 where the full run needs 3."""
    graph = CSDFGraph("event_loop_sizing_case")
    for name, times in (
        ("a0", [34.0, 50.0]),
        ("a1", [0.0, 0.0]),
        ("a2", [2.333725883316607e-13, 0.0]),
        ("a3", [0.0]),
    ):
        graph.add_actor(CSDFActor(name, PhaseVector(times)))
    for name, rates, tokens, capacity in (
        ("e1_a0_a1", ([0, 2], [2, 1]), 1, 1),
        ("e2_a1_a2", ([1, 3], [0, 3]), 0, 1),
        ("e3_a2_a3", ([0, 2], [1]), 0, None),
    ):
        _, source, target = name.split("_")
        graph.add_edge(
            CSDFEdge(
                name,
                source,
                target,
                PhaseVector(rates[0]),
                PhaseVector(rates[1]),
                initial_tokens=tokens,
                capacity=capacity,
            )
        )
    return graph, 6, None


class TestCycleExitSizing:
    """The engine's sizing takes the cycle exit where every time is exact;
    the full run is the reference."""

    @given(random_event_loop_sizing_case())
    @example(_rounding_chain())
    @settings(max_examples=150, deadline=None)
    def test_engine_sizing_matches_the_full_run(self, case):
        graph, iterations, period = case
        assert not is_feed_forward(graph)
        full, charged = AnalysisBudget(), AnalysisBudget()
        expected = capacities_or_deadlock(
            lambda: sufficient_buffer_capacities(
                graph, period, iterations=iterations, early_exit=False, budget=full
            )
        )
        engine = AnalysisEngine()
        loop_runs = []
        run = SelfTimedSimulator.run

        def counted(simulator):
            loop_runs.append(simulator)
            return run(simulator)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SelfTimedSimulator, "run", counted)
            got = capacities_or_deadlock(
                lambda: engine.sufficient_buffer_capacities(
                    graph, period, iterations, budget=charged
                )
            )
        assert got == expected
        assert len(loop_runs) == 1
        assert charged.events_used <= full.events_used
        assert engine.simulated_events == charged.events_used
