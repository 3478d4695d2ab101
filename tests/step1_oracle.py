"""Tests-only oracle for step 1 of the mapper.

:func:`rescanning_select_implementations` is the straightforward step 1
that :func:`repro.spatialmapper.step1_implementation.select_implementations`
must stay identical to: every iteration it re-derives each unassigned
process's eligible tiles by scanning *all* tiles of the platform and
re-filtering them by type, processing capability, scope, exclusions and
residuals.  The production step 1 keeps those lists across iterations and
reads per-scope tile tables instead; the differential in
``tests/property/test_prop_step1_oracle.py`` compares the mapping,
the assignment order and the feedback of both.
"""

from __future__ import annotations

from repro.mapping.assignment import ProcessAssignment
from repro.mapping.mapping import Mapping
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.desirability import assignment_options, desirability
from repro.spatialmapper.feedback import ExclusionSet, Feedback, FeedbackKind
from repro.spatialmapper.residuals import ResidualTracker
from repro.spatialmapper.step1_implementation import Step1Result


def rescanning_eligible_tiles(
    implementation, platform, exclusions, residuals, allowed_tiles
) -> list[str]:
    """Every tile re-filtered from scratch, in declaration order."""
    tiles: list[str] = []
    for tile in platform.tiles:
        if tile.type_name != implementation.tile_type or not tile.is_processing:
            continue
        if allowed_tiles is not None and tile.name not in allowed_tiles:
            continue
        if not exclusions.placement_allowed(implementation.process, tile.name):
            continue
        if residuals.free_slots(tile.name) < 1:
            continue
        if implementation.memory_bytes > residuals.free_memory(tile.name):
            continue
        tiles.append(tile.name)
    return tiles


def rescanning_select_implementations(
    als,
    platform,
    library,
    *,
    state=None,
    config: MapperConfig | None = None,
    exclusions: ExclusionSet | None = None,
    allowed_tiles: frozenset[str] | None = None,
) -> Step1Result:
    """Step 1 with every eligible list re-derived on every iteration."""
    config = config or MapperConfig()
    exclusions = ExclusionSet() if exclusions is None else exclusions
    mapping = Mapping(als.name)
    for process in als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))

    unassigned = [p.name for p in als.kpn.mappable_processes()]
    declaration_rank = {name: index for index, name in enumerate(unassigned)}
    result = Step1Result(mapping=mapping)
    residuals = ResidualTracker.for_mapping(platform, state, mapping)

    while unassigned:
        scored = []
        for process_name in unassigned:
            candidates = []
            for implementation in library.implementations_for(process_name):
                if not exclusions.implementation_allowed(
                    process_name, implementation.tile_type
                ):
                    continue
                tiles = rescanning_eligible_tiles(
                    implementation, platform, exclusions, residuals, allowed_tiles
                )
                if tiles:
                    candidates.append((implementation, tiles))
            options = assignment_options(
                process_name,
                candidates,
                als=als,
                platform=platform,
                partial_mapping=mapping,
                config=config,
            )
            scored.append(
                (desirability(options), declaration_rank[process_name], process_name, options)
            )

        scored.sort(key=lambda item: (-item[0], item[1]))
        _, _, process_name, options = scored[0]
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

        chosen = options[0].implementation
        tile_name = rescanning_eligible_tiles(
            chosen, platform, exclusions, residuals, allowed_tiles
        )[0]
        mapping.assign(ProcessAssignment(process_name, tile_name, chosen))
        residuals.place(tile_name, chosen.memory_bytes)
        result.order.append(process_name)
        unassigned.remove(process_name)

    return result
