"""Throughput analysis of CSDF graphs.

* :func:`actor_loads_ns` — per actor, the total execution time of all its
  firings in one graph iteration.  An actor never runs two firings at once,
  so its load is the weight of its implicit self-loop.
* :func:`processor_bound_period_ns` — the busiest actor's load: a lower
  bound on the iteration period of any graph, and the exact period of the
  graphs described next.
* :func:`minimal_period_ns` — the steady-state period of the self-timed
  run.  This is the value step 4 of the mapper compares against the
  application's required period.

On an acyclic graph whose edges are unbounded, carry no initial tokens and
move whole tokens — the graphs
:func:`~repro.spatialmapper.csdf_construction.build_mapped_csdf` produces —
the only cycles of the self-timed run are the per-actor self-loops.  Its
asymptotic period is the maximum cycle mean (Baccelli, Cohen, Olsder &
Quadrat, *Synchronization and Linearity*, 1992), i.e. the busiest actor's
load, so :func:`minimal_period_ns` returns that closed form for two or more
iterations instead of running the graph.  Such a graph cannot deadlock, so
the cost charged to a budget is the run's nominal firing count,
``iterations x sum(repetitions)``.  Every other graph (feedback, bounded
edges, initial tokens, fractional rates, one iteration) is run, on the
feed-forward evaluator when it is feed-forward with no capacity set and on
the event loop otherwise, and that run's finite-horizon estimate and firing
count are returned and charged.

:func:`is_period_sustainable` runs the event loop to completion and checks
the backlog criterion on the whole run.  No step of the mapper calls it:
it is the independent check that the capacities step 4 reserves sustain
the required period.
"""

from __future__ import annotations

from repro.csdf.analysis.feedforward import _self_timed_run, _unbounded_feed_forward
from repro.csdf.analysis.simulation import simulate
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetition import repetition_vector
from repro.exceptions import DeadlockError


def actor_loads_ns(graph: CSDFGraph) -> dict[str, float]:
    """Per actor, the total execution time of its firings in one graph iteration."""
    repetitions = repetition_vector(graph)
    return {
        actor.name: actor.total_execution_time_ns() * (repetitions[actor.name] / actor.phases)
        for actor in graph.actors
    }


def processor_bound_period_ns(graph: CSDFGraph) -> float:
    """The busiest actor's load per iteration.

    A lower bound on the iteration period of every graph, and the exact
    asymptotic period of the acyclic, unbounded, token-free graphs
    :func:`minimal_period_ns` answers in closed form.
    """
    return max(actor_loads_ns(graph).values())


def minimal_period_ns(
    graph: CSDFGraph,
    iterations: int = 10,
    *,
    budget=None,
) -> float:
    """Steady-state iteration period of the self-timed execution (ns).

    With ``iterations >= 2`` on an acyclic, unbounded, token-free graph this
    is the busiest actor's load (see the module docstring); otherwise it is
    the period of ``iterations`` evaluated iterations after discarding the
    first half as warm-up (see
    :meth:`~repro.csdf.analysis.simulation.SimulationResult.steady_state_period_ns`).
    ``budget`` is an optional :class:`~repro.csdf.analysis.budget.AnalysisBudget`
    charged with the run's firings (nominal ones for the closed form).

    Raises :class:`~repro.exceptions.DeadlockError` when the graph deadlocks
    before completing a single iteration.
    """
    if iterations >= 2 and _unbounded_feed_forward(graph):
        period = processor_bound_period_ns(graph)
        if budget is not None:
            budget.charge_events(iterations * sum(repetition_vector(graph).values()))
        return period
    result = _self_timed_run(graph, iterations)
    if budget is not None:
        budget.charge_events(result.simulated_events)
    if result.deadlocked and result.completed_iterations == 0:
        raise DeadlockError(
            f"graph {graph.name!r} deadlocks at t={result.deadlock_time_ns} ns"
        )
    return result.steady_state_period_ns()


def is_period_sustainable(
    graph: CSDFGraph,
    period_ns: float,
    iterations: int = 10,
    tolerance: float = 1e-9,
) -> bool:
    """Whether the graph can sustain one iteration every ``period_ns`` nanoseconds.

    The check runs the graph with its sources released periodically at
    ``period_ns`` and verifies that (a) it does not deadlock, and (b) the
    backlog does not grow: shifting every iteration finish back by its ideal
    offset (``finish[k] - k * period``), the spread between the latest and
    earliest shifted finish must stay within one period.  The earliest
    shifted finish — not iteration 0's — is the latency reference, so a
    warmup transient that delays the first iteration cannot mask a later
    backlog.
    """
    if period_ns <= 0:
        raise ValueError("period_ns must be positive")
    result = simulate(graph, iterations=iterations, source_period_ns=period_ns)
    if result.deadlocked:
        return False
    finishes = result.iteration_finish_times_ns
    shifted = [finish - k * period_ns for k, finish in enumerate(finishes)]
    return max(shifted) - min(shifted) <= period_ns * (1 + tolerance)
