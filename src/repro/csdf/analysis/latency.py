"""End-to-end latency analysis of CSDF graphs.

The latency is read off the firing times of one self-timed run, fully
self-timed or with the sources released once per period.  A feed-forward
graph with no capacity set — every mapped graph step 4 builds — runs on
:func:`~repro.csdf.analysis.feedforward.feed_forward_run`; any other graph
runs on the event loop.  Both give the same firing times and charge the
same firing count.
"""

from __future__ import annotations

from repro.csdf.analysis.feedforward import _self_timed_run
from repro.csdf.graph import CSDFGraph
from repro.exceptions import CSDFError, DeadlockError


def end_to_end_latency_ns(
    graph: CSDFGraph,
    source: str | None = None,
    sink: str | None = None,
    iterations: int = 10,
    source_period_ns: float | None = None,
    *,
    budget=None,
) -> float:
    """Worst observed iteration latency from ``source`` to ``sink``.

    The latency of iteration ``k`` is the time from the start of the source's
    first firing of that iteration to the finish of the sink's last firing of
    the same iteration; the maximum over all fully simulated iterations is
    returned (the first iterations are typically the slowest because the
    pipeline is still filling, which makes the maximum a safe figure for a
    latency-constraint check).

    When ``source``/``sink`` are omitted they default to the unique source /
    sink actor of the graph; an error is raised when that is ambiguous.
    Without ``source_period_ns`` the run is fully self-timed.
    """
    if source is None:
        sources = graph.sources()
        if len(sources) != 1:
            raise CSDFError(
                f"graph {graph.name!r} has {len(sources)} source actors; specify one explicitly"
            )
        source = sources[0].name
    if sink is None:
        sinks = graph.sinks()
        if len(sinks) != 1:
            raise CSDFError(
                f"graph {graph.name!r} has {len(sinks)} sink actors; specify one explicitly"
            )
        sink = sinks[0].name
    graph.actor(source)
    graph.actor(sink)

    result = _self_timed_run(graph, iterations, source_period_ns)
    if budget is not None:
        budget.charge_events(result.simulated_events)
    if result.completed_iterations == 0:
        raise DeadlockError(f"graph {graph.name!r} completed no iteration")
    worst = 0.0
    for k in range(result.completed_iterations):
        worst = max(worst, result.iteration_latency_ns(source, sink, k))
    return worst
