"""Corridor selection: which boundary links carry a cross-region channel.

A corridor is the region-level route of one channel: an ordered list of
*hops*, each hop naming the boundary link that carries the channel from one
region into the next.  Selection happens in two stages:

1. **Region path** — Dijkstra over the region adjacency graph (regions are
   nodes, ordered pairs with boundary links are edges).  Edge weights are
   ``1 + pressure``, where the pressure of a pair combines its corridor
   *budget* pressure (reserved / reservable, from
   :class:`~repro.interregion.budgets.CorridorBudgets`) with the *load*
   pressure of its best boundary link (reserved throughput / capacity, from
   the live :class:`~repro.platform.state.PlatformState`).  Saturated pairs
   — not enough residual budget, or no boundary link with enough residual
   capacity — are excluded, so a congested boundary diverts corridors
   around itself before it rejects them.
2. **Link choice per hop** — among the pair's admissible boundary links,
   pick the one minimising ``(detour, distance-to-target, load fraction,
   name)``: detour measures from the previous crossing to the link and on
   to the channel's target router, and the distance-to-target key breaks
   detour ties so consecutive hops line up instead of zig-zagging.  The
   deterministic tie-break keeps planning a pure function of (application,
   budgets, state), which is what differential tests pin.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from repro.interregion.budgets import CorridorBudgets, PairKey
from repro.platform.noc import Position
from repro.platform.regions import RegionPartition
from repro.platform.routing import manhattan_distance


@dataclass(frozen=True)
class CorridorHop:
    """One region-to-region hop of a corridor: its boundary link."""

    source_region: str
    target_region: str
    link_name: str
    entry_position: Position
    exit_position: Position

    @property
    def pair(self) -> PairKey:
        """The ordered region pair this hop crosses."""
        return (self.source_region, self.target_region)


@dataclass(frozen=True)
class Corridor:
    """The region-level route of one cross-region channel."""

    source_region: str
    target_region: str
    hops: tuple[CorridorHop, ...]

    def region_path(self) -> tuple[str, ...]:
        """The regions the corridor traverses, source first."""
        return (self.source_region,) + tuple(hop.target_region for hop in self.hops)


class CorridorSelector:
    """Picks boundary links for cross-region channels against live budgets."""

    def __init__(self, partition: RegionPartition, budgets: CorridorBudgets) -> None:
        self.partition = partition
        self.budgets = budgets
        self._neighbours: dict[str, tuple[str, ...]] = {}
        outgoing: dict[str, list[str]] = {}
        for source, target in budgets.pairs():
            outgoing.setdefault(source, []).append(target)
        for region in partition:
            self._neighbours[region.name] = tuple(sorted(outgoing.get(region.name, ())))

    # ------------------------------------------------------------------ #
    def _pair_admissible(
        self,
        pair: PairKey,
        required_bits_per_s: float,
        link_loads: Mapping[str, float],
        planned: Mapping[PairKey, float],
    ) -> bool:
        """Whether the pair can still carry one more ``required`` channel."""
        residual = self.budgets.residual_bits_per_s(*pair) - planned.get(pair, 0.0)
        if residual + 1e-9 < required_bits_per_s:
            return False
        return any(
            self._link_residual(name, link_loads) + 1e-9 >= required_bits_per_s
            for name in self.budgets.links_between(*pair)
        )

    def _link_residual(self, link_name: str, link_loads: Mapping[str, float]) -> float:
        link = self.partition.platform.noc.link_by_name(link_name)
        return link.capacity_bits_per_s - link_loads.get(link_name, 0.0)

    def _pair_pressure(
        self,
        pair: PairKey,
        link_loads: Mapping[str, float],
        planned: Mapping[PairKey, float],
    ) -> float:
        """Routing pressure of a pair: budget use combined with link load."""
        capacity = self.budgets.capacity_bits_per_s(*pair)
        budget_pressure = 1.0
        if capacity > 0.0:
            used = self.budgets.reserved_bits_per_s(*pair) + planned.get(pair, 0.0)
            budget_pressure = used / capacity
        best_load = 1.0
        for name in self.budgets.links_between(*pair):
            link = self.partition.platform.noc.link_by_name(name)
            if link.capacity_bits_per_s <= 0.0:
                continue
            load = link_loads.get(name, 0.0) / link.capacity_bits_per_s
            best_load = min(best_load, load)
        return max(budget_pressure, best_load)

    # ------------------------------------------------------------------ #
    def region_path(
        self,
        source_region: str,
        target_region: str,
        required_bits_per_s: float = 0.0,
        *,
        link_loads: Mapping[str, float] | None = None,
        planned: Mapping[PairKey, float] | None = None,
        allowed_regions: frozenset[str] | None = None,
    ) -> tuple[str, ...] | None:
        """Cheapest admissible region sequence from source to target region.

        Returns ``None`` when no admissible path exists.  ``planned`` holds
        budget claims of the admission being planned but not yet committed,
        so several channels of one application see each other's pressure.
        ``allowed_regions`` confines the search (the planner's region scope
        must be an upper bound of what planning may touch).
        """
        if source_region == target_region:
            return (source_region,)
        link_loads = link_loads or {}
        planned = planned or {}
        distances: dict[str, float] = {source_region: 0.0}
        previous: dict[str, str] = {}
        queue: list[tuple[float, str]] = [(0.0, source_region)]
        visited: set[str] = set()
        while queue:
            cost, region = heapq.heappop(queue)
            if region in visited:
                continue
            visited.add(region)
            if region == target_region:
                break
            for neighbour in self._neighbours.get(region, ()):
                if allowed_regions is not None and neighbour not in allowed_regions:
                    continue
                pair = (region, neighbour)
                if not self._pair_admissible(pair, required_bits_per_s, link_loads, planned):
                    continue
                candidate = cost + 1.0 + self._pair_pressure(pair, link_loads, planned)
                if candidate < distances.get(neighbour, float("inf")):
                    distances[neighbour] = candidate
                    previous[neighbour] = region
                    heapq.heappush(queue, (candidate, neighbour))
        if target_region not in distances:
            return None
        path = [target_region]
        while path[-1] != source_region:
            path.append(previous[path[-1]])
        path.reverse()
        return tuple(path)

    def select(
        self,
        source_position: Position,
        target_position: Position,
        source_region: str,
        target_region: str,
        required_bits_per_s: float,
        *,
        link_loads: Mapping[str, float] | None = None,
        planned: Mapping[PairKey, float] | None = None,
        allowed_regions: frozenset[str] | None = None,
    ) -> Corridor | None:
        """The corridor for one channel, or ``None`` when none is admissible.

        The region path is chosen first; each hop then picks the boundary
        link minimising ``(detour, distance-to-target, load fraction,
        name)``, where detour runs from the previous crossing over the link
        to the channel's target router (a link towards the straight line
        between the endpoints shortens the stitched route, and the
        distance-to-target tie-break lines consecutive crossings up).
        """
        link_loads = link_loads or {}
        path = self.region_path(
            source_region,
            target_region,
            required_bits_per_s,
            link_loads=link_loads,
            planned=planned,
            allowed_regions=allowed_regions,
        )
        if path is None:
            return None
        noc = self.partition.platform.noc
        hops: list[CorridorHop] = []
        current = tuple(source_position)
        for a, b in zip(path, path[1:]):
            best: tuple[float, float, float, str] | None = None
            for name in self.budgets.links_between(a, b):
                if self._link_residual(name, link_loads) + 1e-9 < required_bits_per_s:
                    continue
                link = noc.link_by_name(name)
                # Sequential greedy: measure from the previous crossing, and
                # break detour ties toward the target so consecutive hops
                # line up instead of zig-zagging across their boundaries.
                to_target = float(manhattan_distance(link.target, target_position))
                detour = float(manhattan_distance(current, link.source)) + to_target
                load = link_loads.get(name, 0.0) / link.capacity_bits_per_s
                if best is None or (detour, to_target, load, name) < best:
                    best = (detour, to_target, load, name)
            if best is None:
                return None
            link = noc.link_by_name(best[3])
            current = tuple(link.target)
            hops.append(
                CorridorHop(
                    source_region=a,
                    target_region=b,
                    link_name=link.name,
                    entry_position=link.source,
                    exit_position=link.target,
                )
            )
        return Corridor(
            source_region=source_region, target_region=target_region, hops=tuple(hops)
        )
