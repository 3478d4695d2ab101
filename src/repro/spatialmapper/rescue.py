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

* **draw all** — every searcher draws its placements (full random
  placements from the platform's per-scope tile tables, each against a copy
  of one residual tracker seeded per call), and each placement gets a lower
  bound on its energy
  (:func:`~repro.mapping.cost.mapping_energy_lower_bound_nj`: every channel
  at the fewest NoC hops between its endpoint routers);
* **bound order** — the placements are evaluated in ``(bound, draw index)``
  order.  A reached placement first meets the stream-buffer **floor**
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
starts from the same residual tracker, and each evaluated candidate is
rolled back.  With an unlimited ledger the lane therefore adopts exactly
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

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.cost import (
    manhattan_cost,
    mapping_energy_lower_bound_nj,
    mapping_energy_nj,
)
from repro.mapping.mapping import Mapping
from repro.mapping.properties import adherence_violations
from repro.mapping.result import MappingResult, MappingStatus
from repro.platform.platform import Platform
from repro.platform.state import PlatformState
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.residuals import ResidualTracker
from repro.spatialmapper.step1_implementation import eligible_tiles
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


def _random_placement(
    rng: Random,
    als: ApplicationLevelSpec,
    platform: Platform,
    library: ImplementationLibrary,
    state: PlatformState,
    pinned: Mapping,
    pinned_residuals: ResidualTracker,
    allowed_tiles: frozenset[str] | None,
) -> Mapping | None:
    """One full random placement, or ``None`` when some process cannot fit.

    Pinned processes keep their pinned tile (``pinned`` holds them, and
    ``pinned_residuals`` accounts for them; both are copied, not changed);
    mappable processes are placed in a shuffled order, each drawing
    uniformly from its currently-eligible (implementation, tile) options.
    The refinement loop's exclusions are deliberately *not* applied: they
    encode why the greedy search failed, and the rescue lane's whole point
    is to search outside that corridor.
    """
    mapping = pinned.copy()
    residuals = pinned_residuals.copy()

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
    # with it the residuals left by the pinned processes are the same for
    # every placement of this call.
    pinned = Mapping(als.name)
    for process in als.kpn.pinned_processes():
        pinned.assign(ProcessAssignment(process.name, process.pinned_tile))
    pinned_residuals = ResidualTracker.for_mapping(platform, state, pinned)

    # Draw the whole portfolio first: the seeds are fixed per (request,
    # searcher) and every placement draws against a copy of the same
    # residuals, so no placement depends on how an earlier one fared.
    drawn: list[tuple[float, int, Mapping]] = []
    request_digest = _request_digest(als, library, fingerprint)
    for searcher in range(config.rescue_searchers):
        rng = Random(_searcher_seed(request_digest, searcher))
        for _ in range(config.rescue_attempts):
            mapping = _random_placement(
                rng, als, platform, library, state, pinned, pinned_residuals,
                allowed_tiles,
            )
            if mapping is not None:
                # The bound costs each channel at the NoC's BFS hop
                # distance, which no route undercuts on any topology; a
                # Manhattan bound would be valid on a mesh only, as a
                # torus's wrap-around links route shorter than Manhattan.
                bound = mapping_energy_lower_bound_nj(
                    mapping, als, platform, config.cost_model
                )
                drawn.append((bound, len(drawn), mapping))
    outcome.candidates = len(drawn)
    drawn.sort(key=lambda candidate: candidate[:2])

    # Best first.  ``best_key`` is the best's (energy, draw index); a
    # candidate wins only with a smaller key, and its bound never exceeds
    # its energy, so the first (bound, draw index) above ``best_key`` stops
    # the call: every later candidate's key is larger still.
    best_key: tuple[float, int] | None = None
    routed = 0
    for bound, index, mapping in drawn:
        if ledger.exhausted or (best_key is not None and (bound, index) > best_key):
            break
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
