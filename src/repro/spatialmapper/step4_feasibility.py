"""Step 4: check the application's QoS constraints on the mapped CSDF graph.

The mapped graph built by :mod:`repro.spatialmapper.csdf_construction` is
analysed with the dataflow machinery of :mod:`repro.csdf.analysis`:

* the steady-state period of the self-timed execution must not exceed the
  required period (throughput constraint);
* if a latency bound is specified, the worst iteration latency under periodic
  source releases must not exceed it;
* the buffer capacities needed to sustain the period are computed and must
  fit into the memory of the consuming tiles.

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
    all simulations go through (early exit, verdict cache, budgets); when
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
    try:
        if config.minimize_buffers:
            capacities = analysis.minimize_buffer_capacities(
                graph, als.period_ns, iterations=config.analysis_iterations, budget=budget
            )
        else:
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

    # Buffers live in the memory of the consuming tile; check they fit.
    overflow = _buffer_overflows(result.mapping, als, platform, state, capacities, channel_buffers)
    if overflow:
        tile_name, needed, available = overflow
        report.reason = (
            f"buffer overflow on tile {tile_name!r}: {needed} bytes of stream buffers needed "
            f"but only {available} bytes available"
        )
        result.feedback.append(
            Feedback(
                kind=FeedbackKind.BUFFER_OVERFLOW,
                step=4,
                message=report.reason,
                culprit_tile=tile_name,
            )
        )
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


def _buffer_overflows(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    state: PlatformState | None,
    capacities: dict[str, int],
    channel_buffers: dict[str, str],
) -> tuple[str, int, int] | None:
    """First tile whose memory cannot hold its implementations plus stream buffers."""
    per_tile_buffer_bytes: dict[str, int] = {}
    for channel_name, edge_name in channel_buffers.items():
        channel = als.kpn.channel(channel_name)
        consumer = als.kpn.process(channel.target)
        if consumer.is_pinned:
            # The sink's buffer is fixed by its own specification (paper, 4.4).
            continue
        tile_name = mapping.tile_of(channel.target)
        token_bytes = (channel.token_size_bits + 7) // 8
        per_tile_buffer_bytes[tile_name] = (
            per_tile_buffer_bytes.get(tile_name, 0) + capacities[edge_name] * token_bytes
        )
    for tile_name, buffer_bytes in per_tile_buffer_bytes.items():
        tile = platform.tile(tile_name)
        used_existing = state.used_memory_bytes(tile_name) if state else 0
        used_implementations = sum(
            mapping.assignment(p).implementation.memory_bytes
            for p in mapping.processes_on(tile_name)
            if mapping.assignment(p).implementation is not None
        )
        available = tile.resources.memory_bytes - used_existing - used_implementations
        if buffer_bytes > available:
            return tile_name, buffer_bytes, available
    return None
