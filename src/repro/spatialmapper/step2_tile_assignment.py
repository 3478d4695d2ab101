"""Step 2: improve the concrete tile assignment by local search.

The greedy first-fit assignment of step 1 is refined by repeatedly trying,
for every process, to (a) move it to the best available free tile of the same
type or (b) swap it with another process mapped onto the same tile type.  The
measure driving the search is the communication-cost estimate: the sum of the
Manhattan distances of all the application's data channels (the "Cost" column
of Table 2), optionally weighted by token volume.  A reassignment is kept
only when it improves the cost by at least the configured minimum gain; step
2 stops when a full pass over the candidates yields no improvement or when
the iteration cap is reached.

Because a process may only be reassigned to a tile of the same type as the
one it already occupies, this step maintains adequacy by construction
(paper, section 3).

Candidates are scored *incrementally* from a per-call :class:`CostTable`:
the position of every channel endpoint and, per process, its incident data
channels as ``(name, source, target, weight)`` tuples.  A move or swap only
changes the distances of the channels incident to the touched processes, so
the search evaluates a cost delta over those channels (exact — the
distances are integral) instead of recomputing the full metric, and only
applies a candidate to the mapping, and its new positions to the table,
when it is accepted; the trace keeps just each evaluated candidate's moves.
Residual slot/memory checks likewise run against an O(1)
:class:`~repro.spatialmapper.residuals.ResidualTracker` seeded from the
platform state's cached aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.mapping import Mapping
from repro.platform.noc import Position
from repro.platform.platform import Platform
from repro.platform.routing import manhattan_distance
from repro.platform.state import PlatformState
from repro.spatialmapper.config import MapperConfig, Step2Strategy
from repro.spatialmapper.feedback import ExclusionSet
from repro.spatialmapper.residuals import ResidualTracker
from repro.spatialmapper.trace import Step2Iteration, Step2Trace


@dataclass(frozen=True)
class _Move:
    """Move one process to a free tile of the same type."""

    process: str
    target_tile: str


@dataclass(frozen=True)
class _Swap:
    """Swap the tiles of two processes mapped onto the same tile type."""

    process_a: str
    process_b: str


class CostTable:
    """Positions of the channel endpoints and the data channels step 2 scores.

    Built once per :func:`refine_tile_assignment` call; :meth:`place` moves
    one process when a candidate is accepted.  ``channels`` holds one
    ``(name, source, target, weight)`` tuple per data channel in KPN order
    (the weight is the channel's tokens per iteration when weighted, else
    ``1.0``) and ``incident`` the tuples touching each process, so
    :meth:`cost` adds the same terms in the same order as
    :func:`~repro.mapping.cost.manhattan_cost` and rounds exactly like it
    with fractional weights.  A process still unplaced has position
    ``None``, and its channels do not count.
    """

    __slots__ = ("positions", "channels", "incident", "_platform")

    def __init__(
        self,
        mapping: Mapping,
        als: ApplicationLevelSpec,
        platform: Platform,
        *,
        weighted_by_tokens: bool = False,
    ) -> None:
        self._platform = platform
        self.channels = tuple(
            (
                channel.name,
                channel.source,
                channel.target,
                channel.tokens_per_iteration if weighted_by_tokens else 1.0,
            )
            for channel in als.kpn.data_channels()
        )
        incident: dict[str, list[tuple]] = {}
        for entry in self.channels:
            for process_name in {entry[1], entry[2]}:
                incident.setdefault(process_name, []).append(entry)
        self.incident = {name: tuple(entries) for name, entries in incident.items()}
        self.positions: dict[str, Position | None] = {}
        for process_name in incident:
            process = als.kpn.process(process_name)
            if process.is_pinned and process.pinned_tile is not None:
                tile_name = process.pinned_tile
            elif mapping.is_assigned(process_name):
                tile_name = mapping.tile_of(process_name)
            else:
                self.positions[process_name] = None
                continue
            self.positions[process_name] = platform.tile(tile_name).position

    def place(self, process: str, tile_name: str) -> None:
        """Record that ``process`` now sits on ``tile_name``."""
        if process in self.positions:
            self.positions[process] = self._platform.tile(tile_name).position

    def cost(self) -> float:
        """The Manhattan cost of the current positions."""
        positions = self.positions
        total = 0.0
        for _, source, target, weight in self.channels:
            source_position = positions[source]
            target_position = positions[target]
            if source_position is None or target_position is None:
                continue
            total += manhattan_distance(source_position, target_position) * weight
        return total

    def delta(self, moves: dict[str, str]) -> float:
        """Change in :meth:`cost` if ``moves`` (process -> new tile) were applied.

        Only the channels incident to a moved process are re-evaluated, so
        a move or swap is scored in O(degree); each channel subtracts its
        weighted distance before the moves and adds the one after.
        """
        positions = self.positions
        moved = {
            process: self._platform.tile(tile_name).position
            for process, tile_name in moves.items()
        }
        seen: set[str] = set()
        delta = 0.0
        for process_name in moves:
            for name, source, target, weight in self.incident.get(process_name, ()):
                if name in seen:
                    continue
                seen.add(name)
                source_position = positions[source]
                target_position = positions[target]
                if source_position is not None and target_position is not None:
                    delta -= weight * manhattan_distance(source_position, target_position)
                source_position = moved.get(source, source_position)
                target_position = moved.get(target, target_position)
                if source_position is not None and target_position is not None:
                    delta += weight * manhattan_distance(source_position, target_position)
        return delta


@dataclass
class Step2Result:
    """Outcome of step 2: the refined mapping plus the iteration trace."""

    mapping: Mapping
    trace: Step2Trace = field(default_factory=Step2Trace)

    @property
    def final_cost(self) -> float:
        """Communication cost after refinement."""
        return self.trace.final_cost


def _assignment_snapshot(mapping: Mapping, als: ApplicationLevelSpec) -> dict[str, str]:
    """Process-to-tile snapshot of the mappable processes (for trace rows)."""
    snapshot: dict[str, str] = {}
    for process in als.kpn.mappable_processes():
        if mapping.is_assigned(process.name):
            snapshot[process.name] = mapping.tile_of(process.name)
    return snapshot


def _proposed_moves(mapping: Mapping, candidate: "_Move | _Swap") -> dict[str, str]:
    """The process -> new-tile reassignments a candidate would perform."""
    if isinstance(candidate, _Move):
        return {candidate.process: candidate.target_tile}
    return {
        candidate.process_a: mapping.tile_of(candidate.process_b),
        candidate.process_b: mapping.tile_of(candidate.process_a),
    }


def _accept(
    mapping: Mapping,
    candidate: "_Move | _Swap",
    residuals: ResidualTracker,
    table: CostTable,
) -> None:
    """Apply an accepted candidate to the mapping, the residual tracker and
    the cost table."""
    if isinstance(candidate, _Move):
        assignment = mapping.assignment(candidate.process)
        memory = assignment.implementation.memory_bytes if assignment.implementation else 0
        residuals.move(assignment.tile, candidate.target_tile, memory)
        mapping.assign(assignment.moved_to(candidate.target_tile))
        table.place(candidate.process, candidate.target_tile)
        return
    assignment_a = mapping.assignment(candidate.process_a)
    assignment_b = mapping.assignment(candidate.process_b)
    memory_a = assignment_a.implementation.memory_bytes if assignment_a.implementation else 0
    memory_b = assignment_b.implementation.memory_bytes if assignment_b.implementation else 0
    residuals.move(assignment_a.tile, assignment_b.tile, memory_a)
    residuals.move(assignment_b.tile, assignment_a.tile, memory_b)
    mapping.assign(assignment_a.moved_to(assignment_b.tile))
    mapping.assign(assignment_b.moved_to(assignment_a.tile))
    table.place(candidate.process_a, assignment_b.tile)
    table.place(candidate.process_b, assignment_a.tile)


def _enumerate_candidates(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    residuals: ResidualTracker,
    exclusions: ExclusionSet,
    allowed_tiles: frozenset[str] | None = None,
) -> list[_Move | _Swap]:
    """All candidate reassignments, in deterministic (KPN declaration) order.

    For every mappable process we generate the moves to each free tile of the
    same type (with enough memory and an allowed placement) and the swaps
    with every *later* process currently mapped to the same tile type (so
    each unordered pair appears exactly once).  ``allowed_tiles`` restricts
    move targets to a region's tiles; swaps only ever exchange tiles already
    occupied by the mapping, which region-scoped step 1 placed inside the
    region.
    """
    candidates: list[_Move | _Swap] = []
    processes = [p.name for p in als.kpn.mappable_processes() if mapping.is_assigned(p.name)]
    rank = {name: index for index, name in enumerate(processes)}

    for process_name in processes:
        assignment = mapping.assignment(process_name)
        if assignment.implementation is None:
            continue
        tile_type = platform.tile(assignment.tile).type_name
        # Moves to free tiles of the same type, from the scope's tile table.
        for tile_name in platform.processing_tile_names(tile_type, allowed_tiles):
            if tile_name == assignment.tile:
                continue
            if not exclusions.placement_allowed(process_name, tile_name):
                continue
            if residuals.free_slots(tile_name) < 1:
                continue
            if assignment.implementation.memory_bytes > residuals.free_memory(tile_name):
                continue
            candidates.append(_Move(process_name, tile_name))
        # Swaps with later processes on the same tile type.
        for other_name in processes:
            if rank[other_name] <= rank[process_name]:
                continue
            other = mapping.assignment(other_name)
            if other.implementation is None:
                continue
            if platform.tile(other.tile).type_name != tile_type:
                continue
            if other.tile == assignment.tile:
                continue
            if not exclusions.placement_allowed(process_name, other.tile):
                continue
            if not exclusions.placement_allowed(other_name, assignment.tile):
                continue
            candidates.append(_Swap(process_name, other_name))
    return candidates


def _candidate_applicable(
    candidate: "_Move | _Swap",
    mapping: Mapping,
    platform: Platform,
    residuals: ResidualTracker,
    exclusions: ExclusionSet,
) -> bool:
    """Whether a candidate is still valid against the *current* mapping.

    The first-improvement strategy enumerates its candidate list once per
    pass; accepting a move mid-pass can invalidate later candidates (their
    target tile may have filled up or a swapped process may have moved away),
    so every candidate is re-checked just before evaluation.
    """
    if isinstance(candidate, _Move):
        if not mapping.is_assigned(candidate.process):
            return False
        assignment = mapping.assignment(candidate.process)
        if assignment.implementation is None or assignment.tile == candidate.target_tile:
            return False
        target = platform.tile(candidate.target_tile)
        if target.type_name != assignment.implementation.tile_type:
            return False
        if not exclusions.placement_allowed(candidate.process, candidate.target_tile):
            return False
        if residuals.free_slots(candidate.target_tile) < 1:
            return False
        if assignment.implementation.memory_bytes > residuals.free_memory(
            candidate.target_tile
        ):
            return False
        return True
    if not (mapping.is_assigned(candidate.process_a) and mapping.is_assigned(candidate.process_b)):
        return False
    assignment_a = mapping.assignment(candidate.process_a)
    assignment_b = mapping.assignment(candidate.process_b)
    if assignment_a.implementation is None or assignment_b.implementation is None:
        return False
    if assignment_a.tile == assignment_b.tile:
        return False
    if platform.tile(assignment_a.tile).type_name != platform.tile(assignment_b.tile).type_name:
        return False
    if not exclusions.placement_allowed(candidate.process_a, assignment_b.tile):
        return False
    if not exclusions.placement_allowed(candidate.process_b, assignment_a.tile):
        return False
    return True


def refine_tile_assignment(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    *,
    state: PlatformState | None = None,
    config: MapperConfig | None = None,
    exclusions: ExclusionSet | None = None,
    allowed_tiles: frozenset[str] | None = None,
) -> Step2Result:
    """Run the step-2 local search and return the refined mapping with its trace."""
    config = config or MapperConfig()
    exclusions = ExclusionSet() if exclusions is None else exclusions
    current = mapping.copy()
    residuals = ResidualTracker.for_mapping(platform, state, current, allowed_tiles)
    table = CostTable(
        current, als, platform, weighted_by_tokens=config.step2_weight_by_tokens
    )

    trace = Step2Trace(
        initial_assignment=_assignment_snapshot(current, als),
        initial_cost=table.cost(),
    )
    search = (
        _first_improvement
        if config.step2_strategy is Step2Strategy.FIRST_IMPROVEMENT
        else _best_improvement
    )
    current = search(
        current, als, platform, residuals, table, config, exclusions, trace,
        allowed_tiles,
    )
    return Step2Result(mapping=current, trace=trace)


def _record(
    trace: Step2Trace,
    config: MapperConfig,
    iteration: int,
    candidate: _Move | _Swap,
    mapping_before: Mapping,
    cost: float,
    accepted: bool,
) -> None:
    """Append one iteration to the trace (when tracing is enabled).

    Stores the candidate's moves only; :class:`Step2Iteration` derives the
    full assignment on read from the last accepted iteration before it."""
    if not config.keep_step2_trace:
        return
    previous = trace.iterations[-1] if trace.iterations else None
    if previous is not None and not previous.accepted:
        previous = previous.previous_accepted
    moves = tuple(
        (process, mapping_before.tile_of(process), tile)
        for process, tile in _proposed_moves(mapping_before, candidate).items()
    )
    trace.iterations.append(
        Step2Iteration(
            iteration=iteration,
            moves=moves,
            cost=cost,
            accepted=accepted,
            previous_accepted=previous,
            initial_assignment=trace.initial_assignment,
        )
    )


def _first_improvement(
    current: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    residuals: ResidualTracker,
    table: CostTable,
    config: MapperConfig,
    exclusions: ExclusionSet,
    trace: Step2Trace,
    allowed_tiles: frozenset[str] | None = None,
) -> Mapping:
    """Evaluate one candidate per iteration; keep it only when it improves the cost."""
    iteration = 0
    current_cost = trace.initial_cost
    min_gain = max(config.step2_min_gain, 1e-12)
    while iteration < config.step2_max_iterations:
        improved_in_pass = False
        candidates = _enumerate_candidates(
            current, als, platform, residuals, exclusions, allowed_tiles
        )
        if not candidates:
            break
        for candidate in candidates:
            if iteration >= config.step2_max_iterations:
                break
            if not _candidate_applicable(candidate, current, platform, residuals, exclusions):
                continue
            iteration += 1
            candidate_cost = current_cost + table.delta(_proposed_moves(current, candidate))
            accepted = candidate_cost <= current_cost - min_gain
            _record(trace, config, iteration, candidate, current, candidate_cost, accepted)
            if accepted:
                _accept(current, candidate, residuals, table)
                # Resync from the table so delta rounding (possible with
                # fractional token weights) never compounds across accepted
                # moves; with integral weights this equals candidate_cost.
                current_cost = table.cost()
                improved_in_pass = True
        if not improved_in_pass:
            break
    return current


def _best_improvement(
    current: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    residuals: ResidualTracker,
    table: CostTable,
    config: MapperConfig,
    exclusions: ExclusionSet,
    trace: Step2Trace,
    allowed_tiles: frozenset[str] | None = None,
) -> Mapping:
    """Evaluate all candidates each iteration and apply the best improving one."""
    iteration = 0
    current_cost = trace.initial_cost
    min_gain = max(config.step2_min_gain, 1e-12)
    while iteration < config.step2_max_iterations:
        candidates = _enumerate_candidates(
            current, als, platform, residuals, exclusions, allowed_tiles
        )
        best_candidate: _Move | _Swap | None = None
        best_cost = current_cost
        for candidate in candidates:
            candidate_cost = current_cost + table.delta(_proposed_moves(current, candidate))
            if candidate_cost < best_cost - min_gain:
                best_candidate = candidate
                best_cost = candidate_cost
        if best_candidate is None:
            break
        iteration += 1
        _record(trace, config, iteration, best_candidate, current, best_cost, True)
        _accept(current, best_candidate, residuals, table)
        # Resync from the table so delta rounding (possible with fractional
        # token weights) never compounds; with integral weights this equals
        # best_cost.
        current_cost = table.cost()
    return current
