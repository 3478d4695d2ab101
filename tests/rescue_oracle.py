"""Tests-only oracle for the rescue lane's draw.

:func:`scanning_random_placement` is the straightforward draw that
:func:`repro.spatialmapper.rescue._draw_placement` must stay identical to:
it copies a mapping and a residual tracker per draw and, for every process
it places, re-derives the process's options by scanning the eligible tiles
of each implementation against the draw's current residuals.  The lane
instead filters one per-call option table by a per-draw delta and builds a
mapping only for the placements its best-first loop reaches; the
differential in ``tests/property/test_prop_rescue_draw.py`` compares the
placements and bounds of both for the same seeds.
"""

from __future__ import annotations

from random import Random

from repro.mapping.assignment import ProcessAssignment
from repro.mapping.mapping import Mapping
from repro.spatialmapper.residuals import ResidualTracker
from repro.spatialmapper.step1_implementation import eligible_tiles


def pinned_mapping(als) -> Mapping:
    """The pinned processes on their pinned tiles."""
    mapping = Mapping(als.name)
    for process in als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))
    return mapping


def scanning_random_placement(
    rng: Random,
    als,
    platform,
    library,
    state,
    pinned: Mapping,
    allowed_tiles: frozenset[str] | None,
) -> Mapping | None:
    """One full random placement, or ``None`` when some process cannot fit.

    Pinned processes keep their pinned tile (``pinned`` holds them and is
    copied, not changed); mappable processes are placed in a shuffled
    order, each drawing uniformly from its currently-eligible
    (implementation, tile) options.
    """
    mapping = pinned.copy()
    residuals = ResidualTracker.for_mapping(platform, state, mapping)

    order = [process.name for process in als.kpn.mappable_processes()]
    rng.shuffle(order)
    for process_name in order:
        options: list[tuple] = []
        for implementation in library.implementations_for(process_name):
            for tile_name in eligible_tiles(
                implementation, platform, state, mapping,
                residuals=residuals, allowed_tiles=allowed_tiles,
            ):
                options.append((implementation, tile_name))
        if not options:
            return None
        implementation, tile_name = options[rng.randrange(len(options))]
        mapping.assign(ProcessAssignment(process_name, tile_name, implementation))
        residuals.place(tile_name, implementation.memory_bytes)
    return mapping
