"""Run-time allocation state of a platform.

The platform description (:class:`~repro.platform.platform.Platform`) is
immutable; everything that changes while applications start and stop lives in
a :class:`PlatformState`:

* which processes occupy which tile (and how much tile memory they use),
* how much guaranteed throughput is allocated on every NoC link.

The spatial mapper receives the *current* state when an application is
started (this is exactly the run-time information the paper argues a
design-time mapping cannot exploit) and returns the allocations of the new
application; the run-time resource manager then commits or rolls back those
allocations.

Two properties make the state cheap enough for run-time admission control:

* **O(1) aggregates** — used process slots, used memory and used compute
  cycles per tile, and the reserved throughput per link, are maintained
  incrementally on every allocate/release instead of being re-summed from the
  allocation lists on every query.  Admission cost therefore does not grow
  with the number (or allocation-list length) of already-running
  applications.
* **transactions** — :meth:`PlatformState.transaction` opens a journaled
  scope: every mutation records an undo snapshot, and a rollback restores the
  state bit-identically.  What-if exploration (tentative commits, batch
  admission, step-3 routing) uses transactions instead of copying the whole
  state.

Transactions can be *region-scoped*: passing a scope object (anything with
``covers_tile(name)`` / ``covers_link(name)``, e.g. a
:class:`~repro.platform.regions.Region`) restricts which keys the journal
protects.  A mutation is journaled into the innermost open transaction whose
scope covers the touched tile/link, so admissions into disjoint regions can
keep independent journals on the same state and commit or roll back without
touching each other.  Mutating a key no open transaction covers raises — a
cross-region allocation must be made under a scope that explicitly includes
it (or under an unscoped, global transaction).

The state keeps one transaction stack and performs no locking: it is
mutated only by the engine's single decider thread (drain worker processes
mutate their own copies).  Region scoping is the in-process guard — a
mutation outside every open scope raises, so a region-restricted commit
cannot leak into a sibling region.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

from repro.exceptions import PlatformError
from repro.platform.noc import Position
from repro.platform.platform import Platform


@dataclass(frozen=True)
class ProcessAllocation:
    """A process occupying a slot on a tile."""

    application: str
    process: str
    tile: str
    memory_bytes: int = 0
    compute_cycles_per_iteration: float = 0.0


@dataclass(frozen=True)
class LinkAllocation:
    """Guaranteed throughput reserved on a NoC link for one channel."""

    application: str
    channel: str
    link: str
    bits_per_s: float


@dataclass(frozen=True)
class RegionSnapshot:
    """Picklable region-local extract of a :class:`PlatformState`.

    This is what every lane dispatch of the process drain carries across
    the process boundary: the scope's allocation lists, in their exact
    engine-side order.  Preserving list order matters — the cached
    aggregates are float sums over those lists, so a reordered snapshot
    could rebuild to a state whose fingerprint differs in the last bit.  A
    snapshot taken from a state and rebuilt with :meth:`build_state`
    therefore reproduces the scope's :meth:`PlatformState.fingerprint`
    bit-identically (the property tests pin exactly this).
    """

    tile_occupants: tuple[tuple[str, tuple[ProcessAllocation, ...]], ...]
    link_allocations: tuple[tuple[str, tuple[LinkAllocation, ...]], ...]

    def build_state(self, platform: Platform) -> "PlatformState":
        """A fresh state holding exactly this snapshot's allocations.

        Aggregates are recomputed from the (order-preserved) allocation
        lists, so the rebuilt state's scope fingerprint equals the source
        state's exactly.  Tiles and links outside the scope are
        empty — a worker deciding strictly inside the scope never reads
        them.
        """
        return PlatformState(
            platform,
            {name: list(allocations) for name, allocations in self.tile_occupants},
            {name: list(allocations) for name, allocations in self.link_allocations},
        )


@dataclass(frozen=True)
class AllocationDelta:
    """The commit records of one admitted application, as transportable data.

    Exactly what :meth:`PlatformState.apply_delta` folds back into the
    engine-side state: the process and link allocations a worker's
    region-scoped commit produced, in commit order.
    """

    application: str
    processes: tuple[ProcessAllocation, ...]
    links: tuple[LinkAllocation, ...]

    def __len__(self) -> int:
        return len(self.processes) + len(self.links)


def fingerprint_digest(fingerprint: tuple) -> bytes:
    """A compact (20-byte) exact digest of a state fingerprint tuple.

    Fingerprint tuples contain only primitives (names, counts, exact float
    aggregates), so their ``repr`` is a canonical serialisation — equal
    tuples digest equally in any process, regardless of object identity.
    A drain worker tags each decision with the digest of the region
    fingerprint it decided against, and the engine folds the decision only
    while its own region fingerprint digests equally: a fingerprint grows
    with region occupancy, its digest stays 20 bytes.
    """
    return hashlib.sha1(repr(fingerprint).encode("utf-8")).digest()


class StateTransaction:
    """Undo journal of one :meth:`PlatformState.transaction` scope.

    Every mutation inside the scope appends a snapshot of the touched
    tile/link entry (allocation list plus cached aggregates) *before* the
    mutation.  :meth:`rollback` replays the snapshots in reverse, restoring
    the state bit-identically; :meth:`commit` keeps the mutations.  When
    transactions nest, a committed inner journal is folded into the enclosing
    transaction so an outer rollback undoes inner commits as well.
    """

    __slots__ = (
        "_state",
        "_undo",
        "_seen_tiles",
        "_seen_links",
        "scope",
        "closed",
        "rolled_back",
    )

    def __init__(self, state: "PlatformState", scope=None) -> None:
        self._state = state
        # Entries: ("tile"|"link", name, allocations|None, *aggregates|None).
        # Only the first mutation of a key inside the transaction needs a
        # snapshot (rollback replays in reverse and ends at the oldest), so
        # the seen-sets keep the journal O(touched keys) instead of
        # O(mutations x list length).
        self._undo: list[tuple] = []
        self._seen_tiles: set[str] = set()
        self._seen_links: set[str] = set()
        #: Optional region scope; ``None`` means the transaction covers every
        #: tile and link of the platform.
        self.scope = scope
        self.closed = False
        self.rolled_back = False

    def covers_tile(self, tile_name: str) -> bool:
        """Whether this transaction's scope protects the given tile."""
        return self.scope is None or self.scope.covers_tile(tile_name)

    def covers_link(self, link_name: str) -> bool:
        """Whether this transaction's scope protects the given link."""
        return self.scope is None or self.scope.covers_link(link_name)

    def _check_innermost(self) -> None:
        """Closing out of nesting order would corrupt the undo chains."""
        stack = self._state._transactions
        if self in stack:
            for txn in stack[stack.index(self) + 1 :]:
                if not txn.closed:
                    raise PlatformError(
                        "cannot close a transaction while a nested transaction is open"
                    )

    def commit(self) -> None:
        """Keep every mutation performed inside the transaction.

        The journal folds into the *enclosing* open transaction now, so an
        outer rollback undoes these mutations even if the scope later exits
        through an exception, and snapshots stay in mutation order relative
        to anything journaled into the parent afterwards.
        """
        if self.closed:
            if self.rolled_back:
                raise PlatformError("transaction was already rolled back")
            return
        self._check_innermost()
        self.closed = True
        stack = self._state._transactions
        enclosing = stack[: stack.index(self)] if self in stack else stack
        open_enclosing = [txn for txn in enclosing if not txn.closed]
        # Each snapshot folds into the innermost enclosing open transaction
        # whose scope covers its key (entries outside every enclosing scope
        # are committed for good — that is what region isolation means).  A
        # folded snapshot is at least as old as anything the target would
        # capture for the same key, so when the target has already seen the
        # key its own (older or equal) snapshot suffices and the entry is
        # dropped; otherwise marking it seen keeps the journal
        # first-touch-only.
        for entry in self._undo:
            kind, name = entry[0], entry[1]
            for txn in reversed(open_enclosing):
                if kind == "tile":
                    if txn.covers_tile(name):
                        if name not in txn._seen_tiles:
                            txn._seen_tiles.add(name)
                            txn._undo.append(entry)
                        break
                elif txn.covers_link(name):
                    if name not in txn._seen_links:
                        txn._seen_links.add(name)
                        txn._undo.append(entry)
                    break
        self._undo = []

    def rollback(self) -> None:
        """Undo every mutation performed inside the transaction."""
        if self.closed:
            if self.rolled_back:
                return
            raise PlatformError("transaction was already committed")
        self._check_innermost()
        state = self._state
        for entry in reversed(self._undo):
            if entry[0] == "tile":
                _, name, occupants, slots, memory, cycles = entry
                _restore(state._tile_occupants, name, occupants)
                _restore(state._used_slots, name, slots)
                _restore(state._used_memory, name, memory)
                _restore(state._used_cycles, name, cycles)
            else:
                _, name, allocations, load = entry
                _restore(state._link_allocations, name, allocations)
                _restore(state._link_load, name, load)
        self._undo.clear()
        self.closed = True
        self.rolled_back = True


def _restore(target: dict, key: str, value) -> None:
    """Put a snapshot value back (``None`` means the key did not exist)."""
    if value is None:
        target.pop(key, None)
    else:
        target[key] = value


@dataclass
class PlatformState:
    """Mutable allocation bookkeeping on top of an immutable platform."""

    platform: Platform
    _tile_occupants: dict[str, list[ProcessAllocation]] = field(default_factory=dict)
    _link_allocations: dict[str, list[LinkAllocation]] = field(default_factory=dict)
    # Cached aggregates, kept in sync incrementally by every mutation.
    _used_slots: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _used_memory: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _used_cycles: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    _link_load: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    # Open transaction scopes, outermost first.
    _transactions: list[StateTransaction] = field(
        default_factory=list, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self._rebuild_aggregates()

    def _rebuild_aggregates(self) -> None:
        """Recompute every cached aggregate from the allocation lists."""
        self._used_slots = {
            name: len(allocations) for name, allocations in self._tile_occupants.items()
        }
        self._used_memory = {
            name: sum(a.memory_bytes for a in allocations)
            for name, allocations in self._tile_occupants.items()
        }
        self._used_cycles = {
            name: sum(a.compute_cycles_per_iteration for a in allocations)
            for name, allocations in self._tile_occupants.items()
        }
        self._link_load = {
            name: sum(a.bits_per_s for a in allocations)
            for name, allocations in self._link_allocations.items()
        }

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    @contextmanager
    def transaction(self, scope=None) -> Iterator[StateTransaction]:
        """Open a journaled scope for tentative mutations.

        On normal exit the transaction commits (unless :meth:`~StateTransaction.rollback`
        was called inside the block); on an exception it rolls back and
        re-raises.  Scopes nest: committing an inner transaction folds its
        journal into the enclosing one.

        ``scope`` optionally restricts the transaction to a region: any
        object with ``covers_tile(name)`` / ``covers_link(name)`` (e.g. a
        :class:`~repro.platform.regions.Region`).  Mutations of keys the
        scope does not cover are journaled into an enclosing transaction
        that does cover them, or rejected when none does.
        """
        txn = StateTransaction(self, scope)
        self._transactions.append(txn)
        try:
            yield txn
        except BaseException:
            if not txn.closed:
                txn.rollback()
            raise
        else:
            if not txn.closed:
                txn.commit()
        finally:
            self._transactions.remove(txn)

    @property
    def in_transaction(self) -> bool:
        """Whether at least one transaction scope is open."""
        return any(not txn.closed for txn in self._transactions)

    def _journal_tile(self, tile_name: str) -> None:
        """Snapshot a tile's entry into the innermost open transaction covering it."""
        any_open = False
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            any_open = True
            if not txn.covers_tile(tile_name):
                continue
            if tile_name in txn._seen_tiles:
                return
            txn._seen_tiles.add(tile_name)
            occupants = self._tile_occupants.get(tile_name)
            txn._undo.append(
                (
                    "tile",
                    tile_name,
                    None if occupants is None else list(occupants),
                    self._used_slots.get(tile_name),
                    self._used_memory.get(tile_name),
                    self._used_cycles.get(tile_name),
                )
            )
            return
        if any_open:
            raise PlatformError(
                f"tile {tile_name!r} is outside the scope of every open transaction; "
                "cross-region allocations need an enclosing transaction that covers them"
            )

    def _journal_link(self, link_name: str) -> None:
        """Snapshot a link's entry into the innermost open transaction covering it."""
        any_open = False
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            any_open = True
            if not txn.covers_link(link_name):
                continue
            if link_name in txn._seen_links:
                return
            txn._seen_links.add(link_name)
            allocations = self._link_allocations.get(link_name)
            txn._undo.append(
                (
                    "link",
                    link_name,
                    None if allocations is None else list(allocations),
                    self._link_load.get(link_name),
                )
            )
            return
        if any_open:
            raise PlatformError(
                f"link {link_name!r} is outside the scope of every open transaction; "
                "cross-region allocations need an enclosing transaction that covers them"
            )

    # ------------------------------------------------------------------ #
    # Tiles
    # ------------------------------------------------------------------ #
    def occupants(self, tile_name: str) -> tuple[ProcessAllocation, ...]:
        """Processes currently allocated on the tile."""
        self.platform.tile(tile_name)
        return tuple(self._tile_occupants.get(tile_name, ()))

    def used_process_slots(self, tile_name: str) -> int:
        """Number of occupied process slots on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_slots.get(tile_name, 0)

    def free_process_slots(self, tile_name: str) -> int:
        """Number of free process slots on the tile (O(1))."""
        tile = self.platform.tile(tile_name)
        return tile.resources.max_processes - self._used_slots.get(tile_name, 0)

    def used_memory_bytes(self, tile_name: str) -> int:
        """Memory already allocated on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_memory.get(tile_name, 0)

    def free_memory_bytes(self, tile_name: str) -> int:
        """Memory still available on the tile (O(1))."""
        tile = self.platform.tile(tile_name)
        return tile.resources.memory_bytes - self._used_memory.get(tile_name, 0)

    def used_compute_cycles_per_iteration(self, tile_name: str) -> float:
        """Compute cycles per iteration already claimed on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_cycles.get(tile_name, 0.0)

    def can_host(
        self,
        tile_name: str,
        memory_bytes: int = 0,
        compute_cycles_per_iteration: float = 0.0,
        period_cycles: float | None = None,
    ) -> bool:
        """Whether the tile can accept one more process with the given needs."""
        tile = self.platform.tile(tile_name)
        if not tile.is_processing:
            return False
        if tile.resources.max_processes - self._used_slots.get(tile_name, 0) < 1:
            return False
        if memory_bytes > tile.resources.memory_bytes - self._used_memory.get(tile_name, 0):
            return False
        budget = tile.resources.compute_cycles_per_period
        if budget is None:
            budget = period_cycles
        if budget is not None:
            used = self._used_cycles.get(tile_name, 0.0)
            if used + compute_cycles_per_iteration > budget + 1e-9:
                return False
        return True

    def allocate_process(self, allocation: ProcessAllocation) -> None:
        """Commit a process allocation; raises if the tile cannot host it."""
        if not self.can_host(
            allocation.tile,
            allocation.memory_bytes,
            allocation.compute_cycles_per_iteration,
        ):
            raise PlatformError(
                f"tile {allocation.tile!r} cannot host process {allocation.process!r} "
                f"of application {allocation.application!r}"
            )
        tile = allocation.tile
        self._journal_tile(tile)
        self._tile_occupants.setdefault(tile, []).append(allocation)
        self._used_slots[tile] = self._used_slots.get(tile, 0) + 1
        self._used_memory[tile] = self._used_memory.get(tile, 0) + allocation.memory_bytes
        self._used_cycles[tile] = (
            self._used_cycles.get(tile, 0.0) + allocation.compute_cycles_per_iteration
        )

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    def link_load_bits_per_s(self, link_name: str) -> float:
        """Throughput currently reserved on the link (O(1))."""
        return self._link_load.get(link_name, 0.0)

    def link_loads(self) -> dict[str, float]:
        """Current reservation per link name (only links with allocations)."""
        return {
            name: self._link_load.get(name, 0.0)
            for name, allocations in self._link_allocations.items()
            if allocations
        }

    def link_loads_view(self) -> Mapping[str, float]:
        """Read-only live view of the per-link reservations.

        Unlike :meth:`link_loads` this does not copy; the view tracks
        subsequent allocations, which is what step-3 routing wants while it
        reserves channels one by one inside a transaction.
        """
        return MappingProxyType(self._link_load)

    def residual_capacity_bits_per_s(self, source: Position, target: Position) -> float:
        """Residual capacity of the directed link ``source -> target``."""
        link = self.platform.noc.link(source, target)
        return link.capacity_bits_per_s - self._link_load.get(link.name, 0.0)

    def allocate_link(self, allocation: LinkAllocation) -> None:
        """Reserve throughput on a link; raises if the capacity would be exceeded."""
        link = self.platform.noc.link_by_name(allocation.link)
        residual = link.capacity_bits_per_s - self._link_load.get(link.name, 0.0)
        if allocation.bits_per_s > residual + 1e-9:
            raise PlatformError(
                f"link {link.name!r} has only {residual:.3g} bit/s left; "
                f"cannot reserve {allocation.bits_per_s:.3g} bit/s"
            )
        self._journal_link(link.name)
        self._link_allocations.setdefault(link.name, []).append(allocation)
        self._link_load[link.name] = self._link_load.get(link.name, 0.0) + allocation.bits_per_s

    # ------------------------------------------------------------------ #
    # Application-level operations
    # ------------------------------------------------------------------ #
    def applications(self) -> tuple[str, ...]:
        """Names of applications with at least one live allocation."""
        names: dict[str, None] = {}
        for allocations in self._tile_occupants.values():
            for allocation in allocations:
                names.setdefault(allocation.application)
        for allocations in self._link_allocations.values():
            for allocation in allocations:
                names.setdefault(allocation.application)
        return tuple(names.keys())

    def allocations_of(
        self, application: str
    ) -> tuple[tuple[ProcessAllocation, ...], tuple[LinkAllocation, ...]]:
        """The application's live process and link allocations."""
        processes = tuple(
            allocation
            for allocations in self._tile_occupants.values()
            for allocation in allocations
            if allocation.application == application
        )
        links = tuple(
            allocation
            for allocations in self._link_allocations.values()
            for allocation in allocations
            if allocation.application == application
        )
        return processes, links

    def release_application(self, application: str) -> int:
        """Release every allocation of the application; returns how many were removed.

        The cached aggregates of every touched tile/link are re-summed from
        the surviving allocations, so incremental totals never drift from the
        ground truth even across long start/stop histories.
        """
        removed = 0
        for tile_name, allocations in list(self._tile_occupants.items()):
            kept = [a for a in allocations if a.application != application]
            if len(kept) == len(allocations):
                continue
            self._journal_tile(tile_name)
            removed += len(allocations) - len(kept)
            self._tile_occupants[tile_name] = kept
            self._used_slots[tile_name] = len(kept)
            self._used_memory[tile_name] = sum(a.memory_bytes for a in kept)
            self._used_cycles[tile_name] = sum(a.compute_cycles_per_iteration for a in kept)
        for link_name, allocations in list(self._link_allocations.items()):
            kept = [a for a in allocations if a.application != application]
            if len(kept) == len(allocations):
                continue
            self._journal_link(link_name)
            removed += len(allocations) - len(kept)
            self._link_allocations[link_name] = kept
            self._link_load[link_name] = sum(a.bits_per_s for a in kept)
        return removed

    def snapshot_scope(self, scope) -> RegionSnapshot:
        """Extract a picklable :class:`RegionSnapshot` of one scope.

        ``scope`` is anything with ``tile_names`` and ``link_names`` (in
        practice a :class:`~repro.platform.regions.Region`).  Allocation lists are
        copied in their live order, so rebuilding the snapshot reproduces
        the scope fingerprint bit-identically (float aggregate sums depend
        on summation order).
        """
        return RegionSnapshot(
            tile_occupants=tuple(
                (name, tuple(self._tile_occupants[name]))
                for name in scope.tile_names
                if self._tile_occupants.get(name)
            ),
            link_allocations=tuple(
                (name, tuple(self._link_allocations[name]))
                for name in scope.link_names
                if self._link_allocations.get(name)
            ),
        )

    def apply_delta(self, delta: AllocationDelta) -> None:
        """Fold one allocation delta into the state, allocation by allocation.

        Runs through the ordinary :meth:`allocate_process` /
        :meth:`allocate_link` path, so every record is re-validated against
        the *current* state and journaled into whatever transaction scope
        the caller holds open — the engine folds worker deltas under a
        region-scoped transaction, which makes a stale or conflicting delta
        roll back cleanly instead of half-applying.
        """
        for allocation in delta.processes:
            self.allocate_process(allocation)
        for allocation in delta.links:
            self.allocate_link(allocation)

    def copy(self) -> "PlatformState":
        """A deep-enough copy for what-if exploration by mappers.

        Prefer :meth:`transaction` for what-if exploration on the live state;
        ``copy`` remains for callers that genuinely need an independent
        snapshot (e.g. replaying a scenario from a checkpoint).
        """
        return PlatformState(
            self.platform,
            {name: list(a) for name, a in self._tile_occupants.items()},
            {name: list(a) for name, a in self._link_allocations.items()},
        )

    # ------------------------------------------------------------------ #
    # Fingerprints
    # ------------------------------------------------------------------ #
    def fingerprint(
        self,
        tile_names: tuple[str, ...] | None = None,
        link_names: tuple[str, ...] | None = None,
    ) -> tuple:
        """A cheap, exact digest of the allocation state of a set of keys.

        Built purely from the O(1) cached aggregates: the per-tile
        (slots, memory, cycles) triples and per-link loads of every key with
        a non-zero aggregate, in the given (deterministic) key order.  Two
        states with equal fingerprints are indistinguishable to the mapper
        over those keys, which is what makes the fingerprint a sound
        memoisation key for :class:`~repro.spatialmapper.cache.MapperCache`.
        Cost is O(occupied keys), independent of allocation-list lengths.

        ``None`` for either argument means all tiles / all links of the
        platform (the global fingerprint); a
        :class:`~repro.platform.regions.Region` supplies its own key subsets
        for per-region fingerprints.
        """
        slots = self._used_slots
        memory = self._used_memory
        cycles = self._used_cycles
        load = self._link_load
        parts: list[tuple] = []
        if tile_names is None:
            tile_names = self.platform.tile_names
        for name in tile_names:
            used = slots.get(name, 0)
            if used:
                parts.append((name, used, memory.get(name, 0), cycles.get(name, 0.0)))
        if link_names is None:
            for link in self.platform.noc.links:
                reserved = load.get(link.name, 0.0)
                if reserved:
                    parts.append((link.name, reserved))
        else:
            for name in link_names:
                reserved = load.get(name, 0.0)
                if reserved:
                    parts.append((name, reserved))
        return tuple(parts)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def tile_utilisation(self) -> dict[str, float]:
        """Fraction of process slots used per processing tile."""
        utilisation: dict[str, float] = {}
        for tile in self.platform.processing_tiles():
            capacity = tile.resources.max_processes
            utilisation[tile.name] = (
                self._used_slots.get(tile.name, 0) / capacity if capacity else 0.0
            )
        return utilisation

    def occupied_tiles(self) -> tuple[str, ...]:
        """Names of tiles with at least one allocated process."""
        return tuple(
            name for name, allocations in self._tile_occupants.items() if allocations
        )
