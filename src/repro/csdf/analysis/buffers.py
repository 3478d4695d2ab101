"""Buffer-capacity computation for CSDF graphs.

Step 4 of the paper's algorithm computes, for the mapped application, the
buffer capacities ``B_i`` (Figure 3) that the consuming tiles must reserve.
The paper delegates this to the analysis of Wiggers et al. (DAC 2007); this
module provides a functional substitute built on the self-timed run:

* :func:`sufficient_buffer_capacities` observes the maximum buffer occupancy
  while the graph executes with its sources released at the required period
  and unbounded buffers.  Granting each channel its observed maximum is
  sufficient to sustain the period (the bounded execution can then follow the
  same schedule as the unbounded one).  It sizes only the buffers a tile
  reserves, the edges :func:`buffer_edge_indices` names: every edge except
  those entering a router-hop actor (``role == "router"``), whose tokens
  sit in the NoC, not in a memory.  On a mapped graph these are exactly the
  ``B_i`` edges, one per channel, into the consuming actor.  With its capacities removed, a feed-forward graph
  (acyclic, token-free, whole-token rates: every mapped graph step 4
  builds) runs on the feed-forward evaluator
  (:mod:`~repro.csdf.analysis.feedforward`), which takes the maxima of the
  sized edges only and builds no simulation result; any other graph runs
  on the event loop.  Both give the same capacities and charge the same
  firing count.
* :func:`apply_buffer_capacities` turns the result into a bounded graph.

Like the paper, which needs capacities that *sustain* the required period
and not the smallest such capacities, step 4 never shrinks the sufficient
capacities.
"""

from __future__ import annotations

from repro.csdf.analysis.feedforward import _self_timed_occupancy
from repro.csdf.graph import CSDFGraph
from repro.exceptions import DeadlockError


def _lower_bound_capacity(graph: CSDFGraph, edge_name: str) -> int:
    """Smallest capacity that does not structurally block a single firing."""
    edge = graph.edge(edge_name)
    bound = max(edge.production_rates.max(), edge.consumption_rates.max(), 1)
    return int(max(bound, edge.initial_tokens))


def buffer_edge_indices(graph: CSDFGraph) -> list[int]:
    """Indices of the edges buffer sizing sizes: every edge whose consumer
    is not a router-hop actor (``role == "router"``).

    This is the one rule for which edges hold a tile buffer.  On a mapped
    graph they are the buffers ``B_i`` of Figure 3, one per channel, into
    the consuming actor; step 4 reads its channel-to-buffer map from them
    (:func:`~repro.spatialmapper.csdf_construction.consumer_buffer_edges`).
    """
    routers = {actor.name for actor in graph.actors_with_role("router")}
    return [e for e, edge in enumerate(graph.edges) if edge.target not in routers]


def sufficient_buffer_capacities(
    graph: CSDFGraph,
    period_ns: float | None = None,
    iterations: int = 10,
    *,
    early_exit: bool = False,
    budget=None,
) -> dict[str, int]:
    """Buffer capacities sufficient to sustain ``period_ns``, per sized edge.

    The sized edges are those :func:`buffer_edge_indices` names, whose
    consumer is not a router-hop actor: the buffers ``B_i`` of Figure 3
    that a tile reserves.  A graph without router actors has every edge
    sized.

    When ``period_ns`` is ``None`` the graph runs fully self-timed (maximum
    throughput); otherwise the sources are released once per period, which is
    the configuration relevant for the mapper's feasibility check.

    With ``early_exit`` the simulation stops once its state repeats at an
    iteration boundary: from there the execution replays the observed cycle,
    so the occupancy maxima have stabilised and further iterations cannot
    raise them (the event loop stops early only where every time of the
    run is an exact float).  The returned capacities are identical to the
    full run's.
    ``budget`` is an optional
    :class:`~repro.csdf.analysis.budget.AnalysisBudget` charged with the
    run's simulated events.

    Raises :class:`~repro.exceptions.DeadlockError` if the graph cannot
    complete a single iteration even with unbounded buffers.
    """
    unbounded = graph
    if any(edge.capacity is not None for edge in graph.edges):
        unbounded = graph.copy(f"{graph.name}__unbounded")
        for edge in graph.edges:
            if edge.capacity is not None:
                unbounded.replace_edge(edge.with_capacity(None))
    occupancy, events = _self_timed_occupancy(
        unbounded, iterations, period_ns, buffer_edge_indices(graph), cycle_exit=early_exit
    )
    if budget is not None:
        budget.charge_events(events)
    if occupancy is None:
        raise DeadlockError(
            f"graph {graph.name!r} cannot complete an iteration even with unbounded buffers"
        )
    return {
        name: max(observed, _lower_bound_capacity(graph, name))
        for name, observed in occupancy.items()
    }


def apply_buffer_capacities(graph: CSDFGraph, capacities: dict[str, int]) -> CSDFGraph:
    """Return a copy of ``graph`` with the given per-edge buffer capacities."""
    bounded = graph.copy(f"{graph.name}__bounded")
    for edge_name, capacity in capacities.items():
        edge = graph.edge(edge_name)
        bounded.replace_edge(edge.with_capacity(int(capacity)))
    return bounded
