"""Step 4: check the application's QoS constraints on the mapped CSDF graph.

The mapped graph built by :mod:`repro.spatialmapper.csdf_construction` is
analysed with the dataflow machinery of :mod:`repro.csdf.analysis`, in this
order:

* **throughput** — the steady-state period of the self-timed execution must
  not exceed the required period;
* **floor** — the stream buffers at their :func:`stream_buffer_floors` (the
  smallest capacity any sizing grants) must fit into the memory of the
  consuming tiles.  No sizing returns less, so a floor overflow is a sized
  overflow, found without running the sizing and without charging for it;
* **sizing** — the buffer capacities needed to sustain the period are
  computed (the paper delegates this to Wiggers et al., DAC 2007);
* **fit** — the sized buffers must fit into the memory of the consuming
  tiles (the same per-tile free-memory table as the floor check);
* **latency** — if a latency bound is specified, the worst iteration latency
  under periodic source releases must not exceed it.

Any violation produces feedback identifying a culprit (the bottleneck process
or the overflowing tile), which the outer refinement loop of the mapper turns
into an exclusion for the next attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.analysis.throughput import actor_loads_ns
from repro.csdf.graph import CSDFGraph
from repro.exceptions import DeadlockError, InconsistentGraphError
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.mapping import Mapping
from repro.mapping.result import FeasibilityReport
from repro.platform.platform import Platform
from repro.platform.state import PlatformState
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.csdf_construction import build_mapped_csdf, consumer_buffer_edges
from repro.spatialmapper.feedback import Feedback, FeedbackKind


@dataclass
class Step4Result:
    """Outcome of step 4: the analysis report, the mapped graph and feedback."""

    mapping: Mapping
    report: FeasibilityReport
    mapped_csdf: CSDFGraph | None = None
    feedback: list[Feedback] = field(default_factory=list)
    #: ``True`` when the stream-buffer floor already overflowed, so the
    #: buffers were never sized.
    floor_overflow: bool = False

    @property
    def feasible(self) -> bool:
        """Whether all QoS constraints are satisfied."""
        return self.report.satisfied


def _bottleneck_process(
    graph: CSDFGraph, als: ApplicationLevelSpec, mapping: Mapping
) -> tuple[str | None, str | None]:
    """The kernel process with the largest workload per iteration and its tile type."""
    try:
        loads = actor_loads_ns(graph)
    except InconsistentGraphError:
        return None, None
    worst_process: str | None = None
    worst_load = -1.0
    for process in als.kpn.mappable_processes():
        load = loads.get(process.name)
        if load is None:
            continue
        if load > worst_load:
            worst_load = load
            worst_process = process.name
    if worst_process is None:
        return None, None
    assignment = mapping.assignment(worst_process)
    tile_type = assignment.implementation.tile_type if assignment.implementation else None
    return worst_process, tile_type


def check_feasibility(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    library: ImplementationLibrary | None = None,
    *,
    state: PlatformState | None = None,
    config: MapperConfig | None = None,
    analysis: AnalysisEngine | None = None,
    budget: AnalysisBudget | None = None,
) -> Step4Result:
    """Run the step-4 dataflow feasibility check on a routed mapping.

    ``analysis`` is the shared :class:`~repro.csdf.analysis.budget.AnalysisEngine`
    all simulations go through (cycle exit, verdict cache, budgets); when
    omitted a fresh engine is built from ``config``, which preserves the
    analysis behaviour but starts with a cold cache.  ``budget`` optionally
    charges every analysis call of this check (cache hits at their stored
    cost) against one caller-owned ledger — the rescue lane's anytime
    cut-off rides on it.
    """
    config = config or MapperConfig()
    if analysis is None:
        analysis = AnalysisEngine.from_config(config)
    report = FeasibilityReport(required_period_ns=als.period_ns)
    result = Step4Result(mapping=mapping.copy(), report=report)

    try:
        graph = build_mapped_csdf(als, mapping, platform, library)
    except Exception as error:  # malformed mapping (unrouted channel, missing implementation)
        report.reason = f"could not build the mapped CSDF graph: {error}"
        result.feedback.append(
            Feedback(kind=FeedbackKind.INADHERENT, step=4, message=report.reason)
        )
        return result
    result.mapped_csdf = graph

    # ------------------------------------------------------------------ #
    # Throughput
    # ------------------------------------------------------------------ #
    try:
        achieved = analysis.minimal_period_ns(
            graph, iterations=config.analysis_iterations, budget=budget
        )
    except (DeadlockError, InconsistentGraphError) as error:
        report.reason = f"dataflow analysis failed: {error}"
        result.feedback.append(
            Feedback(kind=FeedbackKind.THROUGHPUT_VIOLATED, step=4, message=report.reason)
        )
        return result
    report.achieved_period_ns = achieved
    if achieved > als.period_ns * (1 + 1e-9):
        process, tile_type = _bottleneck_process(graph, als, mapping)
        report.reason = (
            f"throughput violated: achievable period {achieved:.1f} ns exceeds the required "
            f"{als.period_ns:.1f} ns (bottleneck: {process})"
        )
        result.feedback.append(
            Feedback(
                kind=FeedbackKind.THROUGHPUT_VIOLATED,
                step=4,
                message=report.reason,
                culprit_process=process,
                culprit_tile_type=tile_type,
            )
        )
        return result

    # ------------------------------------------------------------------ #
    # Buffer capacities
    # ------------------------------------------------------------------ #
    # Buffers live in the memory of the consuming tile.  The floor check
    # runs before any sizing; it and the post-sizing check share one table.
    floors = stream_buffer_floors(mapping, als, platform)
    free = _free_memory_bytes(mapping, als, platform, state, floors)
    overflow = _first_overflow(als, mapping, floors, free)
    if overflow:
        result.floor_overflow = True
        _report_overflow(result, *overflow, at_least=True)
        return result

    try:
        capacities = analysis.sufficient_buffer_capacities(
            graph, als.period_ns, iterations=config.analysis_iterations, budget=budget
        )
    except DeadlockError as error:
        report.reason = f"buffer analysis failed: {error}"
        result.feedback.append(
            Feedback(kind=FeedbackKind.THROUGHPUT_VIOLATED, step=4, message=report.reason)
        )
        return result
    report.buffer_capacities = capacities
    channel_buffers = consumer_buffer_edges(graph)
    for channel_name, edge_name in channel_buffers.items():
        result.mapping.set_buffer_capacity(channel_name, capacities[edge_name])

    sized = {name: capacities[channel_buffers[name]] for name in floors}
    overflow = _first_overflow(als, mapping, sized, free)
    if overflow:
        _report_overflow(result, *overflow)
        return result

    # ------------------------------------------------------------------ #
    # Latency
    # ------------------------------------------------------------------ #
    if als.qos.max_latency_ns is not None:
        sources = [a.name for a in graph.actors_with_role("source")]
        sinks = [a.name for a in graph.actors_with_role("sink")]
        if len(sources) == 1 and len(sinks) == 1:
            latency = analysis.end_to_end_latency_ns(
                graph,
                sources[0],
                sinks[0],
                iterations=config.analysis_iterations,
                source_period_ns=als.period_ns,
                budget=budget,
            )
            report.latency_ns = latency
            if latency > als.qos.max_latency_ns * (1 + 1e-9):
                report.reason = (
                    f"latency violated: {latency:.1f} ns exceeds the bound of "
                    f"{als.qos.max_latency_ns:.1f} ns"
                )
                result.feedback.append(
                    Feedback(
                        kind=FeedbackKind.LATENCY_VIOLATED, step=4, message=report.reason
                    )
                )
                return result

    report.satisfied = True
    report.reason = "all QoS constraints satisfied"
    return result


def stream_buffer_floors(
    mapping: Mapping, als: ApplicationLevelSpec, platform: Platform
) -> dict[str, int]:
    """Smallest stream-buffer capacity, in tokens, of each data channel.

    Covers the data channels whose consumer is not pinned (the sink's buffer
    is fixed by its own specification, paper 4.4), in channel order.  The
    floor is the largest of 1, the consumer's largest consumption rate on
    the channel and — only when both endpoint tiles sit at one router
    position — the producer's largest production rate (a pinned producer's
    is the channel's tokens per iteration).

    Needs placed processes, not routes: step 3 routes a channel with 0 hops
    exactly when its endpoints share a router position, so the producer
    writes into the buffer itself; otherwise the buffer is filled by a
    router that moves one token per firing.  The floor is therefore the
    ``_lower_bound_capacity`` of the channel's consumer edge in
    :func:`~repro.spatialmapper.csdf_construction.build_mapped_csdf`, which
    every buffer sizing clamps to or searches up from.
    """
    floors: dict[str, int] = {}
    for channel in als.kpn.data_channels():
        if als.kpn.process(channel.target).is_pinned:
            continue
        target = mapping.assignment(channel.target)
        floor = max(target.implementation.consumption_rates(channel.name).max(), 1)
        producer = als.kpn.process(channel.source)
        source_tile = producer.pinned_tile if producer.is_pinned else mapping.tile_of(producer.name)
        if platform.tile(source_tile).position == platform.tile(target.tile).position:
            if producer.is_pinned:
                production = channel.tokens_per_iteration
            else:
                implementation = mapping.assignment(producer.name).implementation
                production = implementation.production_rates(channel.name).max()
            floor = max(floor, production)
        floors[channel.name] = int(floor)
    return floors


def stream_buffer_floor_overflow(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    state: PlatformState | None = None,
) -> tuple[str, int, int] | None:
    """First tile whose memory cannot hold even the stream-buffer floors.

    Returns ``(tile, bytes needed at least, bytes available)`` or ``None``.
    Routing-independent (see :func:`stream_buffer_floors`), so the rescue
    lane runs it on a bare placement, before routing it.
    """
    floors = stream_buffer_floors(mapping, als, platform)
    free = _free_memory_bytes(mapping, als, platform, state, floors)
    return _first_overflow(als, mapping, floors, free)


def _free_memory_bytes(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    state: PlatformState | None,
    channels: dict[str, int],
) -> dict[str, int]:
    """Memory left for stream buffers on each consuming tile of ``channels``:
    the tile's memory minus what running applications and this mapping's
    implementations already hold."""
    free: dict[str, int] = {}
    for channel_name in channels:
        tile_name = mapping.tile_of(als.kpn.channel(channel_name).target)
        if tile_name in free:
            continue
        used_implementations = sum(
            mapping.assignment(p).implementation.memory_bytes
            for p in mapping.processes_on(tile_name)
            if mapping.assignment(p).implementation is not None
        )
        used_existing = state.used_memory_bytes(tile_name) if state else 0
        free[tile_name] = (
            platform.tile(tile_name).resources.memory_bytes
            - used_existing
            - used_implementations
        )
    return free


def _first_overflow(
    als: ApplicationLevelSpec,
    mapping: Mapping,
    tokens: dict[str, int],
    free: dict[str, int],
) -> tuple[str, int, int] | None:
    """First tile, in channel order, whose buffers of ``tokens`` per channel
    exceed its free memory, as ``(tile, bytes needed, bytes available)``."""
    per_tile_buffer_bytes: dict[str, int] = {}
    for channel_name, count in tokens.items():
        channel = als.kpn.channel(channel_name)
        tile_name = mapping.tile_of(channel.target)
        token_bytes = (channel.token_size_bits + 7) // 8
        per_tile_buffer_bytes[tile_name] = (
            per_tile_buffer_bytes.get(tile_name, 0) + count * token_bytes
        )
    for tile_name, buffer_bytes in per_tile_buffer_bytes.items():
        if buffer_bytes > free[tile_name]:
            return tile_name, buffer_bytes, free[tile_name]
    return None


def _report_overflow(
    result: Step4Result, tile_name: str, needed: int, available: int, *, at_least: bool = False
) -> None:
    """Record a buffer overflow on ``result`` as its reason and feedback."""
    report = result.report
    report.reason = (
        f"buffer overflow on tile {tile_name!r}: {'at least ' if at_least else ''}"
        f"{needed} bytes of stream buffers needed but only {available} bytes available"
    )
    result.feedback.append(
        Feedback(
            kind=FeedbackKind.BUFFER_OVERFLOW,
            step=4,
            message=report.reason,
            culprit_tile=tile_name,
        )
    )
