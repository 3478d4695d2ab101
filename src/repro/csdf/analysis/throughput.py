"""Throughput analysis of CSDF graphs.

Two complementary estimates are provided:

* :func:`processor_bound_period_ns` — an analytic lower bound on the
  achievable iteration period: per actor, the total execution time of all its
  firings in one graph iteration (an actor cannot execute two firings at the
  same time).  This bound is cheap and is used by the mapper's early steps to
  discard hopeless implementation choices.
* :func:`minimal_period_ns` — the steady-state period of the self-timed
  run, which accounts for data dependencies, phase interleavings and
  bounded buffers.  This is the value step 4 of the mapper compares against
  the application's required period.  The run has no periodic releases, so
  its firing times come from the max-plus evaluator
  (:func:`~repro.csdf.analysis.maxplus.firing_times`), not the event loop.
"""

from __future__ import annotations

from repro.csdf.analysis.maxplus import firing_times
from repro.csdf.analysis.simulation import simulate
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetition import repetition_vector
from repro.exceptions import DeadlockError


def processor_bound_period_ns(graph: CSDFGraph) -> float:
    """Lower bound on the iteration period: the busiest actor's workload per iteration."""
    repetitions = repetition_vector(graph)
    bound = 0.0
    for actor in graph.actors:
        cycles_per_iteration = repetitions[actor.name] / actor.phases
        workload = actor.total_execution_time_ns() * cycles_per_iteration
        bound = max(bound, workload)
    return bound


def minimal_period_ns(graph: CSDFGraph, iterations: int = 10, warmup: int | None = None) -> float:
    """Steady-state iteration period of the self-timed execution (ns).

    Raises :class:`~repro.exceptions.DeadlockError` when the graph deadlocks
    before completing a single iteration.
    """
    result = firing_times(graph, iterations)
    if result.deadlocked and result.completed_iterations == 0:
        raise DeadlockError(
            f"graph {graph.name!r} deadlocks at t={result.deadlock_time_ns} ns"
        )
    return result.steady_state_period_ns(warmup)


def is_period_sustainable(
    graph: CSDFGraph,
    period_ns: float,
    iterations: int = 10,
    tolerance: float = 1e-9,
    *,
    early_exit: bool = False,
    budget=None,
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

    With ``early_exit`` the simulation aborts the instant the spread is
    exceeded (the spread over a prefix only grows as more iterations are
    observed, so the first violation already decides the verdict) and stops
    early on an exact state cycle (from which the remaining iterations
    provably replay the observed spread).  Both exits are answer-preserving:
    the verdict is identical to the full run's.

    ``budget`` is an optional :class:`~repro.csdf.analysis.budget.AnalysisBudget`
    charged with the simulated events of the run.
    """
    if period_ns <= 0:
        raise ValueError("period_ns must be positive")
    slack = period_ns * (1 + tolerance)

    monitor = None
    if early_exit:
        shifted_min = [float("inf")]
        shifted_max = [float("-inf")]

        def monitor(k: int, finish_ns: float) -> bool:
            shifted = finish_ns - k * period_ns
            if shifted < shifted_min[0]:
                shifted_min[0] = shifted
            if shifted > shifted_max[0]:
                shifted_max[0] = shifted
            return shifted_max[0] - shifted_min[0] <= slack

    result = simulate(
        graph,
        iterations=iterations,
        source_period_ns=period_ns,
        iteration_monitor=monitor,
        cycle_exit=early_exit,
    )
    if budget is not None:
        budget.charge_events(result.simulated_events)
    if result.aborted:
        # "monitor" aborts on the first spread violation (verdict False);
        # "cycle" proves the remaining iterations repeat the already-checked
        # spread without deadlocking (verdict True).
        return result.abort_reason == "cycle"
    if result.deadlocked:
        return False
    if result.completed_iterations < iterations:
        return False
    finishes = result.iteration_finish_times_ns
    shifted = [finish - k * period_ns for k, finish in enumerate(finishes)]
    return max(shifted) - min(shifted) <= slack
