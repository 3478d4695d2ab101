"""Desirability of processes in step 1 of the mapper.

From the paper (section 3, step 1):

    "The choice of the next process to pick an implementation for is based on
    its desirability.  The desirability of a process is the difference between
    the cheapest assignment and the second cheapest assignment of the process
    to a tile.  In other words, if the alternative is more expensive, the
    desirability to map the process 'now' increases."

A process whose only remaining option is a single tile type has no
alternative at all; its desirability is treated as infinite (it *must* be
mapped now or never), which also matches the worked example: once both
Montiums are taken, the remaining ARM-only processes are simply assigned in
application order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.appmodel.implementation import Implementation
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.mapping import Mapping
from repro.platform.platform import Platform
from repro.platform.routing import manhattan_distance
from repro.spatialmapper.config import DesirabilityMetric, MapperConfig


@dataclass(frozen=True)
class AssignmentOption:
    """A candidate (implementation, tile) pair for a process with its estimated cost."""

    implementation: Implementation
    tile: str
    cost: float


def assignment_options(
    process: str,
    candidates: list[tuple[Implementation, list[str]]],
    *,
    als: ApplicationLevelSpec | None = None,
    platform: Platform | None = None,
    partial_mapping: Mapping | None = None,
    config: MapperConfig | None = None,
) -> list[AssignmentOption]:
    """Enumerate and cost all candidate assignments of a process.

    ``candidates`` pairs each still-eligible implementation with the tiles of
    its type that can currently host it.  The cost of an option is the
    implementation's computation energy; with the
    ``ENERGY_AND_COMMUNICATION`` metric a Manhattan-distance estimate towards
    the process's already-placed neighbours is added, scaled by the cost
    model's per-bit-per-hop energy.
    """
    config = config or MapperConfig()
    options: list[AssignmentOption] = []
    for implementation, tiles in candidates:
        for tile_name in tiles:
            cost = implementation.energy_nj_per_iteration
            if (
                config.desirability_metric is DesirabilityMetric.ENERGY_AND_COMMUNICATION
                and als is not None
                and platform is not None
                and partial_mapping is not None
            ):
                cost += _communication_estimate(
                    process, tile_name, als, platform, partial_mapping, config
                )
            options.append(AssignmentOption(implementation, tile_name, cost))
    options.sort(key=lambda option: (option.cost, option.tile))
    return options


def _communication_estimate(
    process: str,
    tile_name: str,
    als: ApplicationLevelSpec,
    platform: Platform,
    partial_mapping: Mapping,
    config: MapperConfig,
) -> float:
    """Manhattan-distance communication estimate towards already-placed neighbours."""
    position = platform.tile(tile_name).position
    estimate = 0.0
    for channel in als.kpn.channels_of(process):
        if channel.is_control:
            continue
        other = channel.target if channel.source == process else channel.source
        other_process = als.kpn.process(other)
        if other_process.is_pinned and other_process.pinned_tile:
            other_tile = other_process.pinned_tile
        elif partial_mapping.is_assigned(other):
            other_tile = partial_mapping.tile_of(other)
        else:
            continue
        hops = manhattan_distance(position, platform.tile(other_tile).position)
        estimate += hops * channel.bits_per_iteration * config.cost_model.energy_per_bit_per_hop_nj
    return estimate


def desirability(options: list[AssignmentOption]) -> float:
    """Desirability of a process given its costed assignment options.

    * no option at all → ``-inf`` (the process cannot be mapped; the caller
      must raise feedback);
    * exactly one distinct cost level → ``+inf`` (no alternative exists);
    * otherwise the difference between the second-cheapest and the cheapest
      option cost.
    """
    if not options:
        return -math.inf
    costs = sorted({option.cost for option in options})
    if len(costs) == 1:
        return math.inf
    return costs[1] - costs[0]
