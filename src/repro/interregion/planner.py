"""The inter-region admission planner: segments + budgeted boundary hops.

The staged pipeline confines an admission to one region; an application
whose pinned tiles span regions used to fall through to the *global lane* —
an unrestricted whole-platform mapping committed under an unscoped
transaction.  One such admission therefore paid a search proportional to
the whole platform.

:class:`InterRegionPlanner` replaces that with a scoped, budgeted pipeline
stage.  A plan decomposes the application along region boundaries:

1. **Segmentation** — every mappable process is assigned to one of the
   application's *anchor regions* (the regions of its pinned tiles) by
   nearest-pin graph distance; each segment becomes a sub-application
   containing its processes and the channels internal to it.
2. **Corridor selection** — every cross-segment channel gets a
   :class:`~repro.interregion.corridors.Corridor` (boundary links chosen
   against residual :class:`~repro.interregion.budgets.CorridorBudgets`)
   *before* the segments are mapped.
3. **Per-region mapping** — each segment runs through the ordinary
   mapper restricted to its region (the existing ``region=`` restriction),
   so the per-segment work is proportional to the shard, not the
   platform.  Each cut channel is represented in
   its segment by a *pinned pseudo-endpoint* at the corridor's boundary
   router, so the region-local search pulls the channel's real endpoint
   toward the boundary it will cross — keeping the stitched route (and its
   energy) close to what a whole-platform search would produce.  Segments
   skip the per-segment step-4 analysis; feasibility is judged once, on
   the whole application.
4. **Corridor stitching** — cross-segment channels get stitched routes:
   region-internal shortest-path legs joined by the corridor's boundary
   hops.
5. **Whole-application feasibility** — the composed mapping is checked for
   adherence and run through the step-4 dataflow analysis on the *full*
   application graph, exactly as the global lane would, so planner
   admissions satisfy the same QoS criteria as global-lane admissions.
6. **Atomic commit** — allocations are written under one transaction
   scoped to the touched regions plus the chosen boundary links, with the
   corridor budget reservations journaled alongside; a failure unwinds
   both bit-identically.

Planning mutates the platform state only inside a rolled-back scratch
transaction (the step-3 discipline), so a rejected plan leaves no trace.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import KPNError, PlatformError, RoutingError
from repro.interregion.budgets import CorridorBudgets, PairKey
from repro.interregion.corridors import Corridor, CorridorSelector
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.channel import Channel
from repro.kpn.graph import KPNGraph
from repro.kpn.process import Process, ProcessKind
from repro.mapping.assignment import ChannelRoute
from repro.mapping.cost import manhattan_cost, mapping_energy_nj
from repro.mapping.mapping import Mapping
from repro.mapping.properties import adherence_violations
from repro.mapping.result import MappingResult, MappingStatus
from repro.platform.regions import Region
from repro.platform.routing import capacity_aware_shortest_path, manhattan_distance
from repro.platform.state import LinkAllocation
from repro.runtime.pipeline import AdmissionDecision, AdmissionPipeline
from repro.spatialmapper.mapper import SpatialMapper
from repro.spatialmapper.step3_routing import channel_throughput_bits_per_s
from repro.spatialmapper.step4_feasibility import check_feasibility


#: Decision reason of a successful inter-region admission.  Callers that
#: settle decisions (the engine's lanes) compare against this to attribute
#: an admission to the planner even when it ran inside the full pipeline.
INTERREGION_ADMITTED = "admitted (inter-region corridors)"


class PlanRejected(Exception):
    """Internal control flow: the plan cannot be completed; reason attached."""


class CorridorScope:
    """Transaction scope of an inter-region commit.

    Covers the tiles and internal links of every touched region plus the
    corridor's boundary links — the exact key set an inter-region admission
    may write, so sibling admissions into untouched regions keep independent
    journals.
    """

    def __init__(self, regions: tuple[Region, ...], boundary_links: frozenset[str]) -> None:
        self.regions = regions
        self.boundary_links = boundary_links

    def covers_tile(self, tile_name: str) -> bool:
        return any(region.covers_tile(tile_name) for region in self.regions)

    def covers_link(self, link_name: str) -> bool:
        if link_name in self.boundary_links:
            return True
        return any(region.covers_link(link_name) for region in self.regions)


class InterRegionPlanner:
    """Plans and commits cross-region admissions over budgeted corridors.

    Parameters
    ----------
    pipeline:
        The admission pipeline whose platform, state, mapper and partition
        the planner shares.  The pipeline must be region-sharded.
    budgets:
        Corridor budgets; a fresh inventory over the pipeline's partition is
        created when omitted.
    budget_fraction:
        Fraction of boundary capacity reservable by corridors (used only
        when ``budgets`` is omitted).
    """

    def __init__(
        self,
        pipeline: AdmissionPipeline,
        *,
        budgets: CorridorBudgets | None = None,
        budget_fraction: float = 0.5,
    ) -> None:
        if pipeline.partition is None:
            raise PlatformError("the inter-region planner needs a region-sharded pipeline")
        self.pipeline = pipeline
        self.partition = pipeline.partition
        self.budgets = budgets or CorridorBudgets(self.partition, budget_fraction)
        self.selector = CorridorSelector(self.partition, self.budgets)
        # Segments skip the per-segment step-4 analysis: feasibility is
        # decided once, on the composed whole-application graph, so running
        # it per sub-graph would only pay the dataflow simulation twice.
        self._segment_config = replace(
            pipeline.mapper_config, run_feasibility_analysis=False
        )
        self._segment_mappers: dict[int, SpatialMapper] = {}

    # ------------------------------------------------------------------ #
    # Applicability and region scope
    # ------------------------------------------------------------------ #
    def anchor_regions(self, als: ApplicationLevelSpec) -> tuple[str, ...]:
        """Sorted names of the regions the application's pinned tiles occupy."""
        names: set[str] = set()
        for process in als.kpn.pinned_processes():
            if process.pinned_tile:
                names.add(self.partition.region_of_tile(process.pinned_tile).name)
        return tuple(sorted(names))

    def scope_for(self, als: ApplicationLevelSpec) -> tuple[str, ...] | None:
        """Upper bound of the regions a plan for ``als`` may touch.

        ``None`` when the planner is not applicable (fewer than two anchor
        regions).  The scope is the anchors plus every region on the
        pressure-weighted region paths between each ordered anchor pair —
        planning later confines its corridors to this set, and the commit's
        :class:`CorridorScope` rejects any write outside it.
        """
        anchors = self.anchor_regions(als)
        if len(anchors) < 2:
            return None
        scope: set[str] = set(anchors)
        for source in anchors:
            for target in anchors:
                if source == target:
                    continue
                path = self.selector.region_path(source, target)
                if path is not None:
                    scope.update(path)
        return tuple(sorted(scope))

    # ------------------------------------------------------------------ #
    # The full plan-and-commit trip
    # ------------------------------------------------------------------ #
    def decide(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None = None,
        *,
        scope: tuple[str, ...] | None = None,
    ) -> AdmissionDecision:
        """Plan, validate and (on success) commit one cross-region admission.

        Never raises on an infeasible plan — the decision's ``reason`` says
        why, and the caller falls back to the global lane.  ``scope``
        optionally pins the allowed region set (the engine passes the
        :meth:`scope_for` it claimed the request with); when omitted it is
        recomputed, which yields the same set for an unchanged state.
        """
        started = time.perf_counter()
        if scope is None:
            scope = self.scope_for(als)
        if scope is None:
            return AdmissionDecision(
                als.name,
                False,
                "inter-region: not applicable (pinned tiles span fewer than two regions)",
                origin="interregion",
            )
        try:
            mapping, reservations, boundary_links = self._plan(als, library, frozenset(scope))
            result = self._validate(als, library, mapping)
            self._commit(als, result, reservations, boundary_links)
        except PlanRejected as rejection:
            return AdmissionDecision(
                als.name,
                False,
                f"inter-region: {rejection}",
                mapping_runtime_s=time.perf_counter() - started,
                origin="interregion",
            )
        return AdmissionDecision(
            als.name,
            True,
            INTERREGION_ADMITTED,
            result=result,
            mapping_runtime_s=time.perf_counter() - started,
            origin="interregion",
        )

    # ------------------------------------------------------------------ #
    # Planning (scratch work, rolled back)
    # ------------------------------------------------------------------ #
    def _plan(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None,
        allowed_regions: frozenset[str],
    ) -> tuple[Mapping, list[tuple[PairKey, float]], frozenset[str]]:
        """Produce the composed mapping plus its corridor budget claims.

        All tentative allocations happen inside a scratch transaction that
        is rolled back before returning, so the state is left bit-identical
        whether the plan succeeds or not.
        """
        segments, nearest_pin = self._segments(als)
        segment_of: dict[str, str] = {
            name: region for region, members in segments.items() for name in members
        }
        cross = self._cross_channels(als, segment_of)
        corridors, reservations, boundary_links = self._select_corridors(
            als, cross, segment_of, nearest_pin, allowed_regions
        )
        state = self.pipeline.state
        mapper = self._segment_mapper(library)
        composed = Mapping(als.name)
        with state.transaction() as scratch:
            try:
                for region_name in sorted(segments):
                    sub_als = self._segment_als(
                        als, region_name, segments[region_name], cross, segment_of, corridors
                    )
                    if not sub_als.kpn.mappable_processes():
                        continue
                    region = self.partition.region(region_name)
                    result = mapper.map(sub_als, state, region=region)
                    if not result.status.at_least(MappingStatus.ADHERENT):
                        reason = (
                            result.feasibility.reason
                            if result.feasibility and result.feasibility.reason
                            else f"segment mapping status {result.status.value}"
                        )
                        raise PlanRejected(
                            f"segment in region {region_name!r} failed: {reason}"
                        )
                    filtered = self._filter_segment_mapping(als, result.mapping)
                    composed.assign_all(filtered.assignments)
                    for route in filtered.routes:
                        composed.add_route(route)
                    try:
                        self._apply(als.name, filtered)
                    except PlatformError as error:
                        raise PlanRejected(
                            f"segment in region {region_name!r} does not fit: {error}"
                        ) from None
                self._stitch(als, cross, composed, corridors)
            finally:
                scratch.rollback()
        return composed, reservations, boundary_links

    def _segment_mapper(self, library: ImplementationLibrary | None) -> SpatialMapper:
        """A mapper over the step-4-free segment config (cached per library).

        The cache is keyed by library identity and bounded implicitly: one
        entry for the pipeline's default library plus one most-recent custom
        library, mirroring :meth:`AdmissionPipeline.mapper_for`.
        """
        effective = library if library is not None else self.pipeline.library
        key = id(effective)
        mapper = self._segment_mappers.get(key)
        if mapper is None or mapper.library is not effective:
            # No result cache: every plan builds fresh sub-ALS objects, and
            # cache entries are keyed on ALS identity — segment entries
            # could never be served and would only evict the region
            # lanes' hot entries from the shared LRU.
            mapper = SpatialMapper(
                self.pipeline.platform,
                effective,
                self._segment_config,
                cache=None,
            )
            default_key = id(self.pipeline.library)
            if key != default_key:
                # Keep the default-library mapper; evict older custom ones.
                for stale in [
                    existing
                    for existing in self._segment_mappers
                    if existing not in (default_key, key)
                ]:
                    del self._segment_mappers[stale]
            self._segment_mappers[key] = mapper
        return mapper

    def _segments(
        self, als: ApplicationLevelSpec
    ) -> tuple[dict[str, set[str]], dict[str, str]]:
        """Assign every process to an anchor region by nearest-pin distance.

        Pinned processes belong to their pinned tile's region; each mappable
        process joins the anchor region of its nearest pinned process in the
        (undirected) channel graph, ties broken by sorted region name — a
        deterministic cut that keeps low-traffic channels long and heavy
        process chains together with their I/O.  Also returns each process's
        nearest pinned process, used as a position proxy for corridor
        selection before placement exists.
        """
        pin_region: dict[str, str] = {}
        for process in als.kpn.pinned_processes():
            if process.pinned_tile:
                pin_region[process.name] = self.partition.region_of_tile(
                    process.pinned_tile
                ).name
        distances: dict[str, dict[str, int]] = {
            pin: self._distances_from(als.kpn, pin) for pin in pin_region
        }
        segments: dict[str, set[str]] = {}
        nearest_pin: dict[str, str] = {}
        for name, region_name in pin_region.items():
            segments.setdefault(region_name, set()).add(name)
            nearest_pin[name] = name
        for process in als.kpn.mappable_processes():
            best: tuple[int, str, str] | None = None
            for pin, region_name in pin_region.items():
                distance = distances[pin].get(process.name)
                if distance is None:
                    continue
                if best is None or (distance, region_name, pin) < best:
                    best = (distance, region_name, pin)
            if best is None:
                raise PlanRejected(
                    f"process {process.name!r} is unreachable from every pinned process"
                )
            segments.setdefault(best[1], set()).add(process.name)
            nearest_pin[process.name] = best[2]
        return segments, nearest_pin

    @staticmethod
    def _distances_from(kpn: KPNGraph, start: str) -> dict[str, int]:
        """BFS hop distances from one process over the undirected channel graph."""
        distances = {start: 0}
        frontier = [start]
        while frontier:
            next_frontier: list[str] = []
            for name in frontier:
                for neighbour in kpn.neighbours(name):
                    if neighbour not in distances:
                        distances[neighbour] = distances[name] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def _cross_channels(
        self, als: ApplicationLevelSpec, segment_of: dict[str, str]
    ) -> list:
        """Data channels whose endpoints landed in different segments,
        heaviest first (the step-3 ordering discipline)."""
        period_ns = als.period_ns
        cross = [
            channel
            for channel in als.kpn.data_channels()
            if segment_of.get(channel.source) != segment_of.get(channel.target)
        ]
        cross.sort(key=lambda c: (-channel_throughput_bits_per_s(c, period_ns), c.name))
        return cross

    def _select_corridors(
        self,
        als: ApplicationLevelSpec,
        cross: list,
        segment_of: dict[str, str],
        nearest_pin: dict[str, str],
        allowed_regions: frozenset[str],
    ) -> tuple[dict[str, Corridor], list[tuple[PairKey, float]], frozenset[str]]:
        """One corridor per cross channel, against residual budgets.

        Corridors are chosen before the segments are mapped (placement does
        not exist yet), so each endpoint's *nearest pinned process* serves
        as its position proxy for the detour scoring.  Returns the corridor
        per channel plus the budget claims and boundary links of the whole
        plan.
        """
        planned: dict[PairKey, float] = {}
        corridors: dict[str, Corridor] = {}
        reservations: list[tuple[PairKey, float]] = []
        boundary_links: set[str] = set()
        loads_view = self.pipeline.state.link_loads_view()
        for channel in cross:
            required = channel_throughput_bits_per_s(channel, als.period_ns)
            corridor = self.selector.select(
                self._proxy_position(als, channel.source, nearest_pin),
                self._proxy_position(als, channel.target, nearest_pin),
                segment_of[channel.source],
                segment_of[channel.target],
                required,
                link_loads=loads_view,
                planned=planned,
                allowed_regions=allowed_regions,
            )
            if corridor is None:
                raise PlanRejected(
                    f"no corridor with {required:.3g} bit/s of residual budget for "
                    f"channel {channel.name!r}"
                )
            corridors[channel.name] = corridor
            for hop in corridor.hops:
                planned[hop.pair] = planned.get(hop.pair, 0.0) + required
                reservations.append((hop.pair, required))
                boundary_links.add(hop.link_name)
        return corridors, reservations, frozenset(boundary_links)

    def _proxy_position(
        self, als: ApplicationLevelSpec, process_name: str, nearest_pin: dict[str, str]
    ):
        """A position estimate for a process that may not be placed yet."""
        process = als.kpn.process(process_name)
        tile = (
            process.pinned_tile
            if process.is_pinned and process.pinned_tile is not None
            else als.kpn.process(nearest_pin[process_name]).pinned_tile
        )
        return self.pipeline.platform.tile(tile).position

    def _boundary_tile(self, region_name: str, position) -> str:
        """The region's tile closest to a boundary router position.

        Pseudo-endpoints pin here, so the segment search pulls cut channels
        toward the boundary they will cross.
        """
        region = self.partition.region(region_name)
        platform = self.pipeline.platform
        best: tuple[int, str] | None = None
        for name in region.tile_names:
            distance = manhattan_distance(platform.tile(name).position, position)
            if best is None or (distance, name) < best:
                best = (distance, name)
        if best is None:
            raise PlanRejected(f"region {region_name!r} has no tiles to anchor a corridor")
        return best[1]

    def _segment_als(
        self,
        als: ApplicationLevelSpec,
        region_name: str,
        members: set[str],
        cross: list,
        segment_of: dict[str, str],
        corridors: dict[str, Corridor],
    ) -> ApplicationLevelSpec:
        """The sub-application of one segment.

        Contains the segment's processes and internal channels, plus — per
        cut channel — a pinned pseudo-endpoint at the corridor's boundary
        router standing in for the far half: an outgoing cut channel ends in
        a pseudo-sink at the corridor entry, an incoming one starts from a
        pseudo-source at the corridor exit.  The pseudo channel carries the
        real channel's token volume, so step 2's communication cost pulls
        the real endpoint toward the boundary and step 3 reserves a
        realistic in-region leg while exploring.
        """
        kpn = KPNGraph(f"{als.name}::{region_name}")
        for process in als.kpn.processes:
            if process.name in members:
                kpn.add_process(process)
        for channel in als.kpn.channels:
            if channel.source in members and channel.target in members:
                kpn.add_channel(channel)
        for channel in cross:
            corridor = corridors[channel.name]
            if segment_of[channel.source] == region_name:
                pseudo = f"__xr_out_{channel.name}"
                kpn.add_process(
                    Process(
                        pseudo,
                        ProcessKind.SINK,
                        pinned_tile=self._boundary_tile(
                            region_name, corridor.hops[0].entry_position
                        ),
                    )
                )
                kpn.add_channel(
                    Channel(
                        pseudo,
                        channel.source,
                        pseudo,
                        tokens_per_iteration=channel.tokens_per_iteration,
                        token_size_bits=channel.token_size_bits,
                    )
                )
            elif segment_of[channel.target] == region_name:
                pseudo = f"__xr_in_{channel.name}"
                kpn.add_process(
                    Process(
                        pseudo,
                        ProcessKind.SOURCE,
                        pinned_tile=self._boundary_tile(
                            region_name, corridor.hops[-1].exit_position
                        ),
                    )
                )
                kpn.add_channel(
                    Channel(
                        pseudo,
                        pseudo,
                        channel.target,
                        tokens_per_iteration=channel.tokens_per_iteration,
                        token_size_bits=channel.token_size_bits,
                    )
                )
        try:
            return ApplicationLevelSpec(kpn=kpn, qos=als.qos)
        except KPNError as error:
            raise PlanRejected(
                f"segment in region {region_name!r} is not a well-formed sub-application: "
                f"{error}"
            ) from None

    def _filter_segment_mapping(self, als: ApplicationLevelSpec, mapping: Mapping) -> Mapping:
        """Keep only real application keys: pseudo-endpoints and their
        channels served exploration pressure and are replaced by the
        properly stitched cross-region routes."""
        filtered = Mapping(als.name)
        filtered.assign_all(
            assignment
            for assignment in mapping.assignments
            if als.kpn.has_process(assignment.process)
        )
        for route in mapping.routes:
            if als.kpn.has_channel(route.channel):
                filtered.add_route(route)
        return filtered

    def _stitch(
        self,
        als: ApplicationLevelSpec,
        cross: list,
        composed: Mapping,
        corridors: dict[str, Corridor],
    ) -> None:
        """Route every cross-segment channel over its selected corridor.

        Stitched routes are tentatively allocated into the (scratch) state
        as they are built, so later channels see earlier channels' loads —
        the same heavy-channels-first discipline as step 3.
        """
        state = self.pipeline.state
        platform = self.pipeline.platform
        loads_view = state.link_loads_view()
        for channel in cross:
            source_tile = self._tile_of(als, composed, channel.source)
            target_tile = self._tile_of(als, composed, channel.target)
            required = channel_throughput_bits_per_s(channel, als.period_ns)
            path = self._stitched_path(
                corridors[channel.name],
                platform.tile(source_tile).position,
                platform.tile(target_tile).position,
                required,
                loads_view,
            )
            route = ChannelRoute(
                channel=channel.name,
                source_tile=source_tile,
                target_tile=target_tile,
                path=path,
                required_bits_per_s=required,
            )
            composed.add_route(route)
            for a, b in zip(path, path[1:]):
                link = platform.noc.link(a, b)
                try:
                    state.allocate_link(
                        LinkAllocation(
                            application=als.name,
                            channel=channel.name,
                            link=link.name,
                            bits_per_s=required,
                        )
                    )
                except PlatformError as error:
                    raise PlanRejected(f"channel {channel.name!r}: {error}") from None

    def _tile_of(self, als: ApplicationLevelSpec, mapping: Mapping, process_name: str) -> str:
        """The tile hosting a channel endpoint (pinned or mapped)."""
        process = als.kpn.process(process_name)
        if process.is_pinned and process.pinned_tile is not None:
            return process.pinned_tile
        if mapping.is_assigned(process_name):
            return mapping.tile_of(process_name)
        raise PlanRejected(f"process {process_name!r} was not placed by any segment")

    def _stitched_path(
        self,
        corridor: Corridor,
        source_position,
        target_position,
        required_bits_per_s: float,
        loads_view,
    ) -> tuple:
        """Join region-internal legs with the corridor's boundary hops."""
        noc = self.pipeline.platform.noc
        positions: list = []
        current = source_position
        try:
            for hop in corridor.hops:
                region = self.partition.region(hop.source_region)
                leg = capacity_aware_shortest_path(
                    noc,
                    current,
                    hop.entry_position,
                    required_bits_per_s=required_bits_per_s,
                    link_loads_bits_per_s=loads_view,
                    allowed_positions=region.positions,
                )
                positions.extend(leg if not positions else leg[1:])
                positions.append(hop.exit_position)
                current = hop.exit_position
            sink_region = self.partition.region(corridor.target_region)
            leg = capacity_aware_shortest_path(
                noc,
                current,
                target_position,
                required_bits_per_s=required_bits_per_s,
                link_loads_bits_per_s=loads_view,
                allowed_positions=sink_region.positions,
            )
            positions.extend(leg if not positions else leg[1:])
        except RoutingError as error:
            raise PlanRejected(str(error)) from None
        return tuple(positions)

    # ------------------------------------------------------------------ #
    # Validation against the clean state
    # ------------------------------------------------------------------ #
    def _validate(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None,
        mapping: Mapping,
    ) -> MappingResult:
        """Adherence + full-graph step-4 feasibility of the composed mapping."""
        pipeline = self.pipeline
        effective = library if library is not None else pipeline.library
        violations = adherence_violations(
            mapping, pipeline.platform, effective, pipeline.state, als
        )
        if violations:
            raise PlanRejected(f"composed mapping is not adherent: {violations[0]}")
        step4 = check_feasibility(
            mapping,
            als,
            pipeline.platform,
            effective,
            state=pipeline.state,
            config=pipeline.config,
        )
        status = MappingStatus.FEASIBLE if step4.feasible else MappingStatus.ADHERENT
        if pipeline.require_feasible and not step4.feasible:
            raise PlanRejected(step4.report.reason or "QoS constraints not satisfied")
        # A planner result is a runtime decision: settled, without its graph.
        return MappingResult(
            mapping=step4.mapping,
            status=status,
            energy_nj_per_iteration=mapping_energy_nj(
                step4.mapping, als, pipeline.platform, pipeline.config.cost_model
            ),
            manhattan_cost=manhattan_cost(step4.mapping, als, pipeline.platform),
            feasibility=step4.report,
        )

    # ------------------------------------------------------------------ #
    # Atomic commit
    # ------------------------------------------------------------------ #
    def _commit(
        self,
        als: ApplicationLevelSpec,
        result: MappingResult,
        reservations: list[tuple[PairKey, float]],
        boundary_links: frozenset[str],
    ) -> None:
        """Write allocations and budget claims under one journaled scope."""
        touched = self._touched_regions(result.mapping)
        scope = CorridorScope(
            tuple(self.partition.region(name) for name in touched), boundary_links
        )
        state = self.pipeline.state
        try:
            with state.transaction(scope):
                with self.budgets.transaction():
                    self._apply(als.name, result.mapping)
                    for pair, bits_per_s in reservations:
                        self.budgets.reserve(als.name, pair[0], pair[1], bits_per_s)
        except PlatformError as error:
            raise PlanRejected(f"commit failed: {error}") from None
        self.pipeline.record_commit(als.name, result.mapping)

    def _touched_regions(self, mapping: Mapping) -> tuple[str, ...]:
        """Sorted names of every region the mapping's allocations fall into."""
        names: set[str] = set()
        for assignment in mapping.assignments:
            names.add(self.partition.region_of_tile(assignment.tile).name)
        for route in mapping.routes:
            for position in route.path:
                region = self.partition.region_of_position(position)
                if region is not None:
                    names.add(region.name)
        return tuple(sorted(names))

    def _apply(self, application: str, mapping: Mapping) -> None:
        """Allocate a mapping into the open transaction (the one writer)."""
        self.pipeline.write_allocations(application, mapping)
