"""Stochastic placement rescue lane: best-first random search after refinement.

The greedy steps 1-3 plus the refinement loop reject applications that a
better placement would admit — at high fill the first-fit packing and the
one-exclusion-per-iteration feedback simply cannot reshuffle fast enough.
Following gerbmerge's ``TileSearch`` ("random placement + evaluation with a
shared best-score works surprisingly well" for tile packing), this module
runs K seeded random-placement searchers when the refinement loop ends
without a :attr:`~repro.mapping.result.MappingStatus.FEASIBLE` result and
adopts the feasible placement of least energy, the earliest draw among
equal energies.

A call runs in three phases:

* **draw all** — every searcher draws its placements from one per-call
  option table: per mappable process, every ``(implementation, tile,
  memory)`` that fits the state and the pinned processes.  A draw filters
  each process's options by a per-draw delta of the slots and memory it
  has used, which gives the list a fresh eligibility scan would, in the
  same order, and keeps the placement as tile names.  Each placement gets
  a lower bound on its energy computed from those names, bit-identical to
  :func:`~repro.mapping.cost.mapping_energy_lower_bound_nj` of its
  mapping (every channel at the fewest NoC hops between its endpoint
  routers);
* **bound order** — the placements are evaluated in ``(bound, draw index)``
  order, and only a reached placement is built into a
  :class:`~repro.mapping.mapping.Mapping`.  It first meets the
  stream-buffer **floor**
  (:func:`~repro.spatialmapper.step4_feasibility.stream_buffer_floor_overflow`:
  the stream buffers at their smallest possible capacities must fit the
  consuming tiles' memory; a placement it cuts would have ended in a step-4
  buffer overflow after its sizing run).  The rest is **route / adhere /
  cost / step 4**: step 3 in a scratch transaction, the adherence check,
  the exact energy and the feasibility analysis, charged to the call's
  ledger.  A routed energy that cannot beat the best feasible one
  skips step 4; an equal energy beats it only from an earlier draw;
* **stop** — at the first placement whose ``(bound, draw index)`` is above
  the best's ``(energy, draw index)``.  A route is never shorter than the
  hop distance, so the bound never exceeds the routed energy, and every
  placement past the stop has a higher energy or an equal one from a later
  draw: none of them can win.

Drawing first is sound because no placement depends on how an earlier
candidate fared: the seeds are fixed per (request, searcher), every draw
starts from the same option table, and each evaluated candidate is rolled
back.  With an unlimited ledger the lane therefore adopts exactly
what an exhaustive evaluation in draw order adopts.  On the packing
benchmark each call routes and analyses a single placement: the first one
past the floor is feasible and wins.

Three disciplines keep the lane decision-inert infrastructure-wise:

* **Seeding** — every searcher owns a ``random.Random`` seeded from
  ``crc32`` digests of the *request fingerprint* (the name-free
  :func:`shape_fingerprint` of the application plus the region/state
  fingerprint the mapper cache keys on) — the same no-global-RNG-state
  idiom as obs sampling.  Identical requests draw identical placements on
  every executor, so serial and process drains stay decision-identical and
  results stay cacheable; renamed but identically-shaped applications draw
  the same seeds.
* **Scratch transactions** — each candidate the floor keeps is evaluated
  inside a :meth:`~repro.platform.state.PlatformState.transaction` that is
  rolled back before the next candidate (the
  ``step3_routing``/``interregion`` scratch discipline), so the platform
  state is bit-identical afterwards.
* **Budget charging** — all feasibility analysis of one rescue call is
  charged against a single :class:`~repro.csdf.analysis.budget.AnalysisBudget`
  ledger threaded through the shared
  :class:`~repro.csdf.analysis.budget.AnalysisEngine`.  Cache hits charge
  their stored cost, so the cut-off point is cache-warmth independent —
  which is what preserves executor decision identity under finite budgets.
  The search is *anytime*: an exhausted ledger returns the best feasible
  candidate found so far.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random

from repro.appmodel.implementation import Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.cost import (
    CostModel,
    channel_energy_nj,
    manhattan_cost,
    mapping_energy_nj,
)
from repro.mapping.mapping import Mapping
from repro.mapping.properties import adherence_violations
from repro.mapping.result import MappingResult, MappingStatus
from repro.platform.platform import Platform
from repro.platform.state import PlatformState
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.residuals import ResidualTracker
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import (
    check_feasibility,
    stream_buffer_floor_overflow,
)


def shape_fingerprint(
    als: ApplicationLevelSpec, library: ImplementationLibrary
) -> tuple:
    """Canonical digest of an application's *shape*, stable under renaming.

    Two applications that differ only in process/channel names (and in
    nothing the mapper can observe) produce equal fingerprints: the digest
    is built from sorted multisets of per-process signatures — kind, pinned
    tile, and the sorted (tile type, memory, cycles) triples of the
    process's implementations — and per-channel signatures (bits per
    iteration plus the endpoints' pinned tiles), together with the QoS
    period.  Names never enter the digest, so identically-shaped
    applications draw identical rescue seeds.
    """
    process_signatures = []
    for process in als.kpn.processes:
        implementations = tuple(
            sorted(
                (
                    implementation.tile_type,
                    implementation.memory_bytes,
                    implementation.total_wcet_cycles,
                )
                for implementation in library.implementations_for(process.name)
            )
        )
        process_signatures.append(
            (process.kind.value, process.pinned_tile or "", implementations)
        )
    channel_signatures = []
    for channel in als.kpn.data_channels():
        source = als.kpn.process(channel.source)
        target = als.kpn.process(channel.target)
        channel_signatures.append(
            (
                channel.bits_per_iteration,
                source.pinned_tile or "",
                target.pinned_tile or "",
            )
        )
    return (
        als.period_ns,
        tuple(sorted(process_signatures)),
        tuple(sorted(channel_signatures)),
    )


def rescue_seed(
    als: ApplicationLevelSpec,
    library: ImplementationLibrary,
    fingerprint: object,
    searcher: int,
) -> int:
    """Deterministic seed of one rescue searcher.

    Derived by ``crc32`` (no global RNG state, like obs trace sampling) from
    the application's name-free shape fingerprint, the region/state
    fingerprint the mapper cache keys on, and the searcher index.  Stable
    under process/channel renaming and across executors, so the whole lane
    replays bit-identically for identical requests.
    """
    return _searcher_seed(_request_digest(als, library, fingerprint), searcher)


def _request_digest(
    als: ApplicationLevelSpec, library: ImplementationLibrary, fingerprint: object
) -> int:
    """The per-request half of :func:`rescue_seed`, shared by every searcher."""
    return zlib.crc32(repr((shape_fingerprint(als, library), fingerprint)).encode())


def _searcher_seed(request_digest: int, searcher: int) -> int:
    """The seed of one searcher from its request's digest."""
    return zlib.crc32(f"{request_digest}:{searcher}".encode())


@dataclass
class RescueOutcome:
    """What one rescue-lane run did, for the mapper trace and diagnostics."""

    result: MappingResult | None = None
    searchers_run: int = 0
    candidates: int = 0
    feasible_found: int = 0
    budget_exhausted: bool = False
    events_used: int = 0
    #: Candidates never reached (past the stop at the energy bound, or left
    #: when the ledger ran out) and candidates cut by the stream-buffer
    #: floor; every other candidate is routed.
    energy_cut: int = 0
    floor_cut: int = 0


#: One drawn placement: ``(process, implementation, tile)`` per mappable
#: process, in the order the draw placed them.
Placement = tuple[tuple[str, Implementation, str], ...]


class _DrawTable:
    """What every draw and bound of one rescue call reads, built once per call.

    ``options`` holds, per mappable process, every ``(implementation, tile,
    memory)`` that fits the call's base residuals (the state plus the
    pinned processes), in the order an eligibility scan lists them:
    implementations in library order, tiles in the scope's table order.  A
    draw only lowers residuals, so keeping the options that still fit the
    draw's own placements gives exactly the list a fresh scan would, in the
    same order and of the same length.  The refinement loop's exclusions
    are deliberately *not* applied: they encode why the greedy search
    failed, and the rescue lane's whole point is to search outside that
    corridor.
    """

    __slots__ = (
        "order", "options", "free_slots", "free_memory", "pinned", "pinned_tiles",
        "channels", "positions", "noc", "cost_model",
    )

    def __init__(
        self,
        als: ApplicationLevelSpec,
        platform: Platform,
        library: ImplementationLibrary,
        state: PlatformState,
        allowed_tiles: frozenset[str] | None,
        cost_model: CostModel,
    ) -> None:
        self.pinned = Mapping(als.name)
        for process in als.kpn.pinned_processes():
            self.pinned.assign(ProcessAssignment(process.name, process.pinned_tile))
        self.pinned_tiles = {a.process: a.tile for a in self.pinned.assignments}
        residuals = ResidualTracker.for_mapping(platform, state, self.pinned, allowed_tiles)
        self.order = [process.name for process in als.kpn.mappable_processes()]
        self.options: dict[str, tuple[tuple[Implementation, str, int], ...]] = {}
        self.free_slots: dict[str, int] = {}
        self.free_memory: dict[str, int] = {}
        for process_name in self.order:
            options = []
            for implementation in library.implementations_for(process_name):
                memory = implementation.memory_bytes
                for tile_name in platform.processing_tile_names(
                    implementation.tile_type, allowed_tiles
                ):
                    slots = residuals.free_slots(tile_name)
                    free_memory = residuals.free_memory(tile_name)
                    if slots < 1 or memory > free_memory:
                        continue
                    options.append((implementation, tile_name, memory))
                    self.free_slots[tile_name] = slots
                    self.free_memory[tile_name] = free_memory
            self.options[process_name] = tuple(options)
        # Every data channel between processes a full placement places, in
        # KPN order, as (bits per iteration, source, target).
        placed = set(self.order) | set(self.pinned_tiles)
        self.channels = tuple(
            (channel.bits_per_iteration, channel.source, channel.target)
            for channel in als.kpn.data_channels()
            if channel.source in placed and channel.target in placed
        )
        self.positions = {tile.name: tile.position for tile in platform.tiles}
        self.noc = platform.noc
        self.cost_model = cost_model


def _draw_placement(rng: Random, table: _DrawTable) -> Placement | None:
    """One full random placement, or ``None`` when some process cannot fit.

    The mappable processes are placed in a shuffled order, each drawing
    uniformly from its options that still fit after the draw's earlier
    placements (tracked as a per-draw delta over the table's residuals).
    """
    order = list(table.order)
    rng.shuffle(order)
    free_slots = table.free_slots
    free_memory = table.free_memory
    used_slots: dict[str, int] = {}
    used_memory: dict[str, int] = {}
    placement = []
    for process_name in order:
        options = [
            option
            for option in table.options[process_name]
            if used_slots.get(option[1], 0) < free_slots[option[1]]
            and option[2] <= free_memory[option[1]] - used_memory.get(option[1], 0)
        ]
        if not options:
            return None
        implementation, tile_name, memory = options[rng.randrange(len(options))]
        used_slots[tile_name] = used_slots.get(tile_name, 0) + 1
        used_memory[tile_name] = used_memory.get(tile_name, 0) + memory
        placement.append((process_name, implementation, tile_name))
    return tuple(placement)


def _placement_bound(placement: Placement, table: _DrawTable) -> float:
    """:func:`~repro.mapping.cost.mapping_energy_lower_bound_nj` of the
    placement's mapping, computed from tile names alone.

    Adds the same terms in the same order: every data channel at the
    fewest hops between its endpoint routers in KPN order, then the
    computation energy in assignment order (the pinned processes carry
    none), then the activation of every distinct tile.
    """
    tile_of = dict(table.pinned_tiles)
    for process_name, _, tile_name in placement:
        tile_of[process_name] = tile_name
    model = table.cost_model
    positions = table.positions
    hop_distance = table.noc.hop_distance
    communication = 0.0
    for bits, source, target in table.channels:
        hops = hop_distance(positions[tile_of[source]], positions[tile_of[target]])
        communication += channel_energy_nj(bits, hops, model)
    computation = sum(
        implementation.energy_nj_per_iteration for _, implementation, _ in placement
    )
    activation = model.tile_activation_energy_nj * len(set(tile_of.values()))
    return computation + communication + activation


def _placement_mapping(placement: Placement, table: _DrawTable) -> Mapping:
    """The mapping of a placement: the pinned processes, then the draw."""
    mapping = table.pinned.copy()
    for process_name, implementation, tile_name in placement:
        mapping.assign(ProcessAssignment(process_name, tile_name, implementation))
    return mapping


def rescue_search(
    als: ApplicationLevelSpec,
    platform: Platform,
    library: ImplementationLibrary,
    state: PlatformState,
    *,
    config: MapperConfig,
    analysis: AnalysisEngine,
    region=None,
    fingerprint: object = None,
) -> RescueOutcome:
    """Run the seeded random-placement portfolio and return the best result.

    ``fingerprint`` is the region/state fingerprint the caller would key the
    mapper cache with (seed derivation input); ``region`` confines placement
    to the region's tiles and routing to its routers, exactly like the
    refinement loop's region-scoped passes.
    """
    allowed_tiles = frozenset(region.tile_names) if region is not None else None
    allowed_positions = region.positions if region is not None else None
    ledger = AnalysisBudget(max_events=config.rescue_budget)
    outcome = RescueOutcome(searchers_run=config.rescue_searchers)
    best: MappingResult | None = None
    # The scratch transactions roll every candidate back, so the state and
    # with it the options and residuals the table holds are the same for
    # every placement of this call.
    table = _DrawTable(als, platform, library, state, allowed_tiles, config.cost_model)

    # Draw the whole portfolio first: the seeds are fixed per (request,
    # searcher) and every placement draws against the same table, so no
    # placement depends on how an earlier one fared.  A placement stays
    # tile names until the best-first loop reaches it.
    drawn: list[tuple[float, int, Placement]] = []
    request_digest = _request_digest(als, library, fingerprint)
    for searcher in range(config.rescue_searchers):
        rng = Random(_searcher_seed(request_digest, searcher))
        for _ in range(config.rescue_attempts):
            placement = _draw_placement(rng, table)
            if placement is not None:
                # The bound costs each channel at the NoC's BFS hop
                # distance, which no route undercuts on any topology; a
                # Manhattan bound would be valid on a mesh only, as a
                # torus's wrap-around links route shorter than Manhattan.
                drawn.append((_placement_bound(placement, table), len(drawn), placement))
    outcome.candidates = len(drawn)
    drawn.sort(key=lambda candidate: candidate[:2])

    # Best first.  ``best_key`` is the best's (energy, draw index); a
    # candidate wins only with a smaller key, and its bound never exceeds
    # its energy, so the first (bound, draw index) above ``best_key`` stops
    # the call: every later candidate's key is larger still.
    best_key: tuple[float, int] | None = None
    routed = 0
    for bound, index, placement in drawn:
        if ledger.exhausted or (best_key is not None and (bound, index) > best_key):
            break
        mapping = _placement_mapping(placement, table)
        if stream_buffer_floor_overflow(mapping, als, platform, state):
            outcome.floor_cut += 1
            continue
        routed += 1
        with state.transaction() as txn:
            candidate = _evaluate(
                mapping,
                als,
                platform,
                library,
                state,
                config=config,
                analysis=analysis,
                allowed_positions=allowed_positions,
                ledger=ledger,
                best_key=best_key,
                index=index,
            )
            txn.rollback()
        if candidate is not None:
            outcome.feasible_found += 1
            best = candidate
            best_key = (candidate.energy_nj_per_iteration, index)

    outcome.energy_cut = outcome.candidates - outcome.floor_cut - routed
    outcome.budget_exhausted = ledger.exhausted
    outcome.events_used = ledger.events_used
    outcome.result = best
    return outcome


def _evaluate(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    library: ImplementationLibrary,
    state: PlatformState,
    *,
    config: MapperConfig,
    analysis: AnalysisEngine,
    allowed_positions,
    ledger: AnalysisBudget,
    best_key: tuple[float, int] | None,
    index: int,
) -> MappingResult | None:
    """Route, adherence-check and analyse one candidate; ``None`` unless it
    is feasible *and* beats the best so far.

    ``best_key`` is the best's (energy, draw index), ``None`` before a
    feasible best exists, and ``index`` the candidate's draw index: the
    candidate beats the best with a lower energy, or an equal one from an
    earlier draw."""
    step3 = route_channels(
        mapping, als, platform,
        state=state, config=config, allowed_positions=allowed_positions,
    )
    if not step3.succeeded:
        return None
    if adherence_violations(step3.mapping, platform, library, state, als):
        return None
    energy = mapping_energy_nj(step3.mapping, als, platform, config.cost_model)
    # A candidate that cannot beat the best on the routed hop counts is not
    # worth a step-4 analysis.
    if best_key is not None and (energy, index) > best_key:
        return None
    step4 = check_feasibility(
        step3.mapping, als, platform, library,
        state=state, config=config, analysis=analysis, budget=ledger,
    )
    if not step4.feasible:
        return None
    result = MappingResult(
        mapping=step4.mapping,
        status=MappingStatus.FEASIBLE,
        energy_nj_per_iteration=energy,
        manhattan_cost=manhattan_cost(step4.mapping, als, platform),
    )
    result.feasibility = step4.report
    result.mapped_csdf = step4.mapped_csdf
    return result


__all__ = ["RescueOutcome", "rescue_search", "rescue_seed"]
