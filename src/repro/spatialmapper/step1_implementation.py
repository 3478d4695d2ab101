"""Step 1: assign implementations (tile types) to processes.

The goal of the first step is to choose an implementation — and thereby a
tile type — for every mappable process.  To prevent running into inadherence
directly, only implementations for which an adhering mapping still exists are
considered (i.e. some tile of that type can still host the process, given the
platform state and the choices already made).  Processes are picked in order
of decreasing *desirability* (see :mod:`repro.spatialmapper.desirability`)
and packed first-fit onto a concrete tile, which guarantees that at least one
concrete tile assignment exists after this step.

The search works from per-call tables.  Each (process, implementation)
list of eligible tiles is derived once and loses a tile only when a
placement fills it; each unassigned process's desirability and options
are kept and re-scored only when a placement changed what they read: its
eligible lists lost the placed tile or, under the communication-aware
metric, a neighbour was just placed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appmodel.implementation import Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.mapping import Mapping
from repro.platform.platform import Platform
from repro.platform.state import PlatformState
from repro.spatialmapper.config import DesirabilityMetric, MapperConfig
from repro.spatialmapper.desirability import assignment_options, desirability
from repro.spatialmapper.feedback import ExclusionSet, Feedback, FeedbackKind
from repro.spatialmapper.residuals import ResidualTracker


@dataclass
class Step1Result:
    """Outcome of step 1: a (partial) mapping plus any feedback raised."""

    mapping: Mapping
    feedback: list[Feedback] = field(default_factory=list)
    order: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether every mappable process received an implementation and a tile."""
        return not self.feedback


def eligible_tiles(
    implementation: Implementation,
    platform: Platform,
    state: PlatformState | None,
    mapping: Mapping,
    exclusions: ExclusionSet | None = None,
    residuals: ResidualTracker | None = None,
    allowed_tiles: frozenset[str] | None = None,
) -> list[str]:
    """Tiles of the implementation's type that can still host it (declaration order).

    ``residuals`` carries the O(1) slot/memory bookkeeping; when omitted (the
    standalone-call convenience path) a tracker is derived from ``state`` and
    ``mapping`` on the spot.  ``allowed_tiles`` restricts the candidates to a
    region's tiles (``None`` = whole platform); the candidates come from the
    platform's cached per-scope table of processing tiles of the type.
    """
    if residuals is None:
        residuals = ResidualTracker.for_mapping(platform, state, mapping, allowed_tiles)
    process = implementation.process
    memory = implementation.memory_bytes
    tiles: list[str] = []
    for tile_name in platform.processing_tile_names(implementation.tile_type, allowed_tiles):
        if exclusions is not None and not exclusions.placement_allowed(process, tile_name):
            continue
        if residuals.free_slots(tile_name) < 1:
            continue
        if memory > residuals.free_memory(tile_name):
            continue
        tiles.append(tile_name)
    return tiles


def select_implementations(
    als: ApplicationLevelSpec,
    platform: Platform,
    library: ImplementationLibrary,
    *,
    state: PlatformState | None = None,
    config: MapperConfig | None = None,
    exclusions: ExclusionSet | None = None,
    allowed_tiles: frozenset[str] | None = None,
) -> Step1Result:
    """Run step 1 and return the greedy initial mapping.

    The returned mapping assigns every mappable process an implementation and
    a concrete tile (first-fit).  Pinned processes (sources/sinks) are added
    with their pinned tile and no implementation.  When some process cannot
    be assigned, feedback of kind
    :attr:`~repro.spatialmapper.feedback.FeedbackKind.NO_IMPLEMENTATION` is
    produced and the mapping stays partial.  ``allowed_tiles`` restricts
    placement to a region's tiles; pinned processes keep their pinned tile
    regardless (region selection is responsible for picking a region that
    contains them).
    """
    config = config or MapperConfig()
    exclusions = ExclusionSet() if exclusions is None else exclusions
    mapping = Mapping(als.name)

    # Pinned processes are fixed by the ALS and not subject to choice.
    for process in als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))

    unassigned = [p.name for p in als.kpn.mappable_processes()]
    declaration_rank = {name: index for index, name in enumerate(unassigned)}
    result = Step1Result(mapping=mapping)
    residuals = ResidualTracker.for_mapping(platform, state, mapping, allowed_tiles)

    # Eligible tiles per (process, implementation), derived once.  The
    # exclusions are fixed during step 1 and a placement only lowers the
    # residuals of its own tile, so after each placement re-checking that
    # one tile keeps every list exact.
    eligible: dict[str, list[tuple[Implementation, list[str]]]] = {
        process_name: [
            (
                implementation,
                eligible_tiles(
                    implementation, platform, state, mapping, exclusions, residuals,
                    allowed_tiles,
                ),
            )
            for implementation in library.implementations_for(process_name)
            if exclusions.implementation_allowed(process_name, implementation.tile_type)
        ]
        for process_name in unassigned
    }

    # Each unassigned process's (desirability, options), re-scored only when
    # a placement changes what it reads: a process whose eligible list lost
    # the placed tile and, under the communication-aware metric, a neighbour
    # of the placed process (its estimate reads the neighbour's tile).
    scores: dict[str, tuple[float, list]] = {}
    dirty = set(unassigned)
    neighbours: dict[str, set[str]] = {}
    if config.desirability_metric is DesirabilityMetric.ENERGY_AND_COMMUNICATION:
        for process_name in unassigned:
            neighbours[process_name] = {
                channel.target if channel.source == process_name else channel.source
                for channel in als.kpn.channels_of(process_name)
                if not channel.is_control
            }

    while unassigned:
        for process_name in unassigned:
            if process_name not in dirty:
                continue
            candidates = [
                (implementation, tiles)
                for implementation, tiles in eligible[process_name]
                if tiles
            ]
            options = assignment_options(
                process_name,
                candidates,
                als=als,
                platform=platform,
                partial_mapping=mapping,
                config=config,
            )
            scores[process_name] = (desirability(options), options)
        dirty.clear()

        # Most desirable first; ties broken by declaration order (the KPN order),
        # which reproduces the worked example of the paper.
        process_name = min(
            unassigned, key=lambda name: (-scores[name][0], declaration_rank[name])
        )
        options = scores.pop(process_name)[1]
        if not options:
            result.feedback.append(
                Feedback(
                    kind=FeedbackKind.NO_IMPLEMENTATION,
                    step=1,
                    message=(
                        f"process {process_name!r} has no implementation with an available "
                        "tile (all candidate tiles occupied or excluded)"
                    ),
                    culprit_process=process_name,
                )
            )
            unassigned.remove(process_name)
            continue

        # Cheapest option decides the implementation; the concrete tile is the
        # first tile (platform declaration order) of that type that fits.
        chosen = options[0].implementation
        tile_name = next(
            tiles for implementation, tiles in eligible.pop(process_name)
            if implementation is chosen
        )[0]
        mapping.assign(ProcessAssignment(process_name, tile_name, chosen))
        residuals.place(tile_name, chosen.memory_bytes)
        result.order.append(process_name)
        unassigned.remove(process_name)
        free_slots = residuals.free_slots(tile_name)
        free_memory = residuals.free_memory(tile_name)
        for other_name, entries in eligible.items():
            for implementation, tiles in entries:
                if tile_name in tiles and (
                    free_slots < 1 or implementation.memory_bytes > free_memory
                ):
                    tiles.remove(tile_name)
                    dirty.add(other_name)
        dirty.update(neighbours.get(process_name, ()))

    return result
