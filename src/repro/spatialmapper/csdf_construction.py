"""Construction of the mapped CSDF graph (the paper's Figure 3 artefact).

Once processes are placed and channels are routed, the application is
re-expressed as a single CSDF graph in which

* every data process becomes an actor whose per-phase behaviour comes from
  the chosen implementation (converted to time using the clock frequency of
  its tile),
* every pinned source/sink becomes a single-phase actor producing/consuming
  its per-iteration token count, and
* every router hop of every routed channel becomes a small actor with the
  router's 4-clock-cycle latency, consuming and producing one token per
  firing.

The feasibility analysis of step 4 (throughput, latency, buffer sizing) runs
on this graph.
"""

from __future__ import annotations

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.actor import CSDFActor
from repro.csdf.analysis.buffers import buffer_edge_indices
from repro.csdf.edge import CSDFEdge
from repro.csdf.graph import CSDFGraph
from repro.csdf.phase import PhaseVector
from repro.exceptions import MappingError
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.process import Process, ProcessKind
from repro.mapping.mapping import Mapping
from repro.platform.platform import Platform


def _pinned_actor(process: Process, als: ApplicationLevelSpec, role: str) -> CSDFActor:
    """Single-phase actor for a pinned source or sink process."""
    return CSDFActor(
        name=process.name,
        execution_times_ns=PhaseVector([0.0]),
        wcet_cycles=PhaseVector([0.0]),
        tile=process.pinned_tile,
        role=role,
        metadata={"pinned": True},
    )


def _process_actor(
    process: Process,
    mapping: Mapping,
    platform: Platform,
) -> CSDFActor:
    """Actor for a mapped kernel process, using its chosen implementation."""
    assignment = mapping.assignment(process.name)
    if assignment.implementation is None:
        raise MappingError(
            f"process {process.name!r} has no implementation; cannot build the mapped CSDF"
        )
    tile = platform.tile(assignment.tile)
    return assignment.implementation.as_actor(
        tile.frequency_hz, actor_name=process.name, tile=tile.name, role="process"
    )


def _rates_for(
    process: Process,
    mapping: Mapping,
    channel_name: str,
    tokens_per_iteration: float,
    direction: str,
) -> PhaseVector:
    """Token rates of a process on one of its channels.

    Kernel processes use their implementation's per-port rates; pinned
    sources and sinks move the whole per-iteration token count in their
    single phase.
    """
    if process.is_pinned:
        return PhaseVector([tokens_per_iteration])
    assignment = mapping.assignment(process.name)
    if assignment.implementation is None:
        raise MappingError(f"process {process.name!r} has no implementation")
    if direction == "production":
        return assignment.implementation.production_rates(channel_name)
    return assignment.implementation.consumption_rates(channel_name)


def build_mapped_csdf(
    als: ApplicationLevelSpec,
    mapping: Mapping,
    platform: Platform,
    library: ImplementationLibrary | None = None,
    *,
    graph_name: str | None = None,
) -> CSDFGraph:
    """Build the CSDF graph of the mapped application (router actors included).

    Control processes and control channels are omitted: they are not part of
    the data stream (paper, section 4.1) and Figure 3 omits them as well.
    Channels must already be routed; unrouted channels raise
    :class:`~repro.exceptions.MappingError`.
    """
    graph = CSDFGraph(graph_name or f"{als.name}__mapped")

    # Actors for all data processes.
    for process in als.kpn.processes:
        if process.kind is ProcessKind.CONTROL:
            continue
        if process.kind is ProcessKind.SOURCE:
            graph.add_actor(_pinned_actor(process, als, "source"))
        elif process.kind is ProcessKind.SINK:
            graph.add_actor(_pinned_actor(process, als, "sink"))
        else:
            graph.add_actor(_process_actor(process, mapping, platform))

    # Edges (with router actors) for all data channels.
    for channel in als.kpn.data_channels():
        if not mapping.is_routed(channel.name):
            raise MappingError(
                f"channel {channel.name!r} is not routed; run step 3 before building the "
                "mapped CSDF graph"
            )
        route = mapping.route(channel.name)
        source_process = als.kpn.process(channel.source)
        target_process = als.kpn.process(channel.target)
        production = _rates_for(
            source_process, mapping, channel.name, channel.tokens_per_iteration, "production"
        )
        consumption = _rates_for(
            target_process, mapping, channel.name, channel.tokens_per_iteration, "consumption"
        )

        if route.hops == 0:
            graph.add_edge(
                CSDFEdge(
                    name=f"{channel.name}__local",
                    source=channel.source,
                    target=channel.target,
                    production_rates=production,
                    consumption_rates=consumption,
                    metadata={"channel": channel.name, "segment": 0, "last": True},
                )
            )
            continue

        # One router actor per hop; the hop from path[i] to path[i+1] is
        # attributed to the router it arrives at (path[i+1]).
        previous_actor = channel.source
        previous_rates = production
        for hop_index in range(route.hops):
            arrival = route.path[hop_index + 1]
            router = platform.noc.router(arrival)
            actor_name = f"{channel.name}__r{hop_index}_{router.name}"
            graph.add_actor(
                CSDFActor(
                    name=actor_name,
                    execution_times_ns=PhaseVector([router.latency_ns]),
                    wcet_cycles=PhaseVector([float(router.latency_cycles)]),
                    tile=None,
                    role="router",
                    metadata={"channel": channel.name, "position": arrival},
                )
            )
            graph.add_edge(
                CSDFEdge(
                    name=f"{channel.name}__seg{hop_index}",
                    source=previous_actor,
                    target=actor_name,
                    production_rates=previous_rates,
                    consumption_rates=PhaseVector([1]),
                    metadata={"channel": channel.name, "segment": hop_index, "last": False},
                )
            )
            previous_actor = actor_name
            previous_rates = PhaseVector([1])
        graph.add_edge(
            CSDFEdge(
                name=f"{channel.name}__seg{route.hops}",
                source=previous_actor,
                target=channel.target,
                production_rates=previous_rates,
                consumption_rates=consumption,
                metadata={"channel": channel.name, "segment": route.hops, "last": True},
            )
        )
    return graph


def consumer_buffer_edges(graph: CSDFGraph) -> dict[str, str]:
    """Map each KPN channel to the edge entering its consuming actor.

    These are the edges whose buffer capacities correspond to the B_i
    annotations of Figure 3 (the buffers the consuming tile must reserve):
    the edges buffer sizing sizes
    (:func:`~repro.csdf.analysis.buffers.buffer_edge_indices`), so every
    one of them has a sized capacity.
    """
    edges = graph.edges
    return {edges[e].metadata["channel"]: edges[e].name for e in buffer_edge_indices(graph)}
