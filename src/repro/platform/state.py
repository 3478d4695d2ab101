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
from collections import deque
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

    This is what crosses the process boundary in the engine's
    snapshot-out / delta-in drain protocol: the scope's allocation lists
    (in their exact engine-side order) plus the scope fingerprint they were
    taken under.  Preserving list order matters — the cached aggregates are
    float sums over those lists, so a reordered snapshot could rebuild to a
    state whose fingerprint differs in the last bit.  A snapshot taken from
    a state and rebuilt with :meth:`build_state` therefore reproduces the
    scope's :meth:`PlatformState.fingerprint` bit-identically (the property
    tests pin exactly this).
    """

    scope_name: str
    tile_names: tuple[str, ...]
    link_names: tuple[str, ...]
    fingerprint: tuple
    tile_occupants: tuple[tuple[str, tuple[ProcessAllocation, ...]], ...]
    link_allocations: tuple[tuple[str, tuple[LinkAllocation, ...]], ...]

    def build_state(self, platform: Platform) -> "PlatformState":
        """A fresh state holding exactly this snapshot's allocations.

        Aggregates are recomputed from the (order-preserved) allocation
        lists, so the rebuilt state's scope fingerprint equals
        :attr:`fingerprint` exactly.  Tiles and links outside the scope are
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
    The delta-dispatch wire protocol chains these digests instead of the
    raw tuples: a fingerprint grows with region occupancy, while its
    digest keeps every journaled op O(its own change).
    """
    return hashlib.sha1(repr(fingerprint).encode("utf-8")).digest()


@dataclass(frozen=True)
class RegionDeltaOp:
    """One journaled mutation of a region, as replayable transport data.

    Ops form a chain: op ``seq`` transforms the region state whose
    fingerprint digests to the previous op's :attr:`target_fingerprint`
    (or the journal base) into the state digesting to this op's
    ``target_fingerprint`` (both via :func:`fingerprint_digest`).  A
    ``commit`` op carries the :class:`AllocationDelta` to fold; a
    ``release`` op carries only the application name — release re-sums
    aggregates from the survivors, so replaying the *logical* operation (and
    not a net diff) is what keeps the float fingerprints bit-identical
    between engine and worker.
    """

    seq: int
    kind: str  # "commit" | "release"
    application: str
    delta: AllocationDelta | None
    target_fingerprint: bytes


#: Ops each region journal keeps; a drain worker idle for longer than this
#: window is re-sent one counted full snapshot.
JOURNAL_CAPACITY = 512


class RegionJournal:
    """Bounded, ordered log of the delta ops committed on one region.

    The engine's stateful drain protocol keys delta dispatches off this:
    a worker acknowledges (seq, fingerprint-digest) watermarks, and
    :meth:`ops_since` returns the chain of ops that carries the worker from
    its watermark to the journal tip — or ``None`` when the watermark fell
    off the bounded window (evicted) or its digest no longer matches
    the chain, in which case the engine must fall back to a full snapshot.
    All fingerprints handled here are :func:`fingerprint_digest` bytes.
    """

    __slots__ = (
        "scope_name",
        "tile_names",
        "link_names",
        "_tile_set",
        "_link_set",
        "capacity",
        "_ops",
        "base_seq",
        "base_fingerprint",
        "evictions",
        "resets",
    )

    def __init__(self, scope, base_fingerprint: bytes, capacity: int = JOURNAL_CAPACITY) -> None:
        if capacity < 1:
            raise PlatformError("region journal capacity must be >= 1")
        self.scope_name: str = scope.name
        self.tile_names: tuple[str, ...] = tuple(scope.tile_names)
        self.link_names: tuple[str, ...] = tuple(scope.link_names)
        self._tile_set = frozenset(self.tile_names)
        self._link_set = frozenset(self.link_names)
        self.capacity = capacity
        self._ops: deque[RegionDeltaOp] = deque()
        self.base_seq = 0
        self.base_fingerprint = base_fingerprint
        self.evictions = 0
        self.resets = 0

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def tip_seq(self) -> int:
        """Sequence number of the newest journaled op (= base when empty)."""
        return self.base_seq + len(self._ops)

    @property
    def tip_fingerprint(self) -> bytes:
        """Digest of the region fingerprint after the newest journaled op."""
        return self._ops[-1].target_fingerprint if self._ops else self.base_fingerprint

    def covers_delta(self, processes, links) -> bool:
        """Whether any of the given records touch this journal's region."""
        return any(p.tile in self._tile_set for p in processes) or any(
            link.link in self._link_set for link in links
        )

    def filter_delta(self, application: str, processes, links) -> AllocationDelta:
        """The region-local part of a commit, record order preserved."""
        return AllocationDelta(
            application=application,
            processes=tuple(p for p in processes if p.tile in self._tile_set),
            links=tuple(link for link in links if link.link in self._link_set),
        )

    def append(self, kind: str, application: str, delta: AllocationDelta | None,
               target_fingerprint: bytes) -> RegionDeltaOp:
        """Journal one op at the tip; evicts the oldest op past capacity."""
        op = RegionDeltaOp(
            seq=self.tip_seq + 1,
            kind=kind,
            application=application,
            delta=delta,
            target_fingerprint=target_fingerprint,
        )
        self._ops.append(op)
        if len(self._ops) > self.capacity:
            evicted = self._ops.popleft()
            self.base_seq = evicted.seq
            self.base_fingerprint = evicted.target_fingerprint
            self.evictions += 1
        return op

    def ops_since(self, seq: int, fingerprint: bytes) -> tuple[RegionDeltaOp, ...] | None:
        """The op chain from watermark (seq, fingerprint) to the tip.

        ``None`` means the watermark cannot be bridged: the seq fell off the
        bounded window, runs ahead of the tip, or the fingerprint recorded
        at that seq does not match — all three force a snapshot fallback.
        """
        if seq < self.base_seq or seq > self.tip_seq:
            return None
        if seq == self.base_seq:
            expected = self.base_fingerprint
        else:
            expected = self._ops[seq - self.base_seq - 1].target_fingerprint
        if fingerprint != expected:
            return None
        if seq == self.tip_seq:
            return ()
        start = seq - self.base_seq
        return tuple(self._ops[i] for i in range(start, len(self._ops)))

    def reset(self, fingerprint: bytes) -> None:
        """Drop the op window, rebasing at the given fingerprint.

        Called when the engine detects an un-journaled mutation (journal tip
        no longer matches the live region fingerprint).  Sequence numbers
        stay monotonic across resets so stale worker watermarks can never
        alias a rebased chain.
        """
        self.base_seq = self.tip_seq
        self._ops.clear()
        self.base_fingerprint = fingerprint
        self.resets += 1


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
    #: Per-region delta journals (:class:`RegionJournal`), keyed by region
    #: name.  Empty until a stateful process executor registers regions via
    #: :meth:`region_journal`, so serial runs pay nothing.
    region_journals: dict[str, RegionJournal] = field(
        default_factory=dict, init=False, repr=False
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

        ``scope`` is anything with ``name``, ``tile_names`` and
        ``link_names`` (in practice a
        :class:`~repro.platform.regions.Region`).  Allocation lists are
        copied in their live order, so rebuilding the snapshot reproduces
        the scope fingerprint bit-identically (float aggregate sums depend
        on summation order).
        """
        tile_names = tuple(scope.tile_names)
        link_names = tuple(scope.link_names)
        return RegionSnapshot(
            scope_name=scope.name,
            tile_names=tile_names,
            link_names=link_names,
            fingerprint=self.fingerprint(tile_names, link_names),
            tile_occupants=tuple(
                (name, tuple(self._tile_occupants[name]))
                for name in tile_names
                if self._tile_occupants.get(name)
            ),
            link_allocations=tuple(
                (name, tuple(self._link_allocations[name]))
                for name in link_names
                if self._link_allocations.get(name)
            ),
        )

    # ------------------------------------------------------------------ #
    # Region delta journals (stateful drain protocol)
    # ------------------------------------------------------------------ #
    def region_journal(self, scope, capacity: int = JOURNAL_CAPACITY) -> RegionJournal:
        """Get or create the delta journal of one region scope.

        Created lazily by the stateful process executor; the journal bases
        itself on the region's *current* fingerprint, so ops appended from
        here on form an unbroken chain from that base.
        """
        journal = self.region_journals.get(scope.name)
        if journal is None:
            tile_names = tuple(scope.tile_names)
            link_names = tuple(scope.link_names)
            journal = RegionJournal(
                scope,
                base_fingerprint=fingerprint_digest(
                    self.fingerprint(tile_names, link_names)
                ),
                capacity=capacity,
            )
            self.region_journals[scope.name] = journal
        return journal

    def journal_mapping_commit(self, application: str, processes, links) -> None:
        """Journal one committed mapping into every journal it touches.

        Called *after* the records were applied to this state; the target
        fingerprint is read from the live aggregates, so it is exactly what
        a worker replaying the op must arrive at.  Regions the mapping does
        not touch get no op (their chains stay short).
        """
        if not self.region_journals:
            return
        for journal in self.region_journals.values():
            if not journal.covers_delta(processes, links):
                continue
            journal.append(
                "commit",
                application,
                journal.filter_delta(application, processes, links),
                fingerprint_digest(
                    self.fingerprint(journal.tile_names, journal.link_names)
                ),
            )

    def journal_release(self, application: str, region_names=None) -> None:
        """Journal an application release into the named regions' journals.

        ``None`` broadcasts to every journal — the safe default when the
        caller does not know which regions hold the application's records
        (replaying a release of an absent application is a no-op that keeps
        the fingerprint chain valid).  Called *after* the release mutated
        this state.
        """
        if not self.region_journals:
            return
        if region_names is None:
            journals = self.region_journals.values()
        else:
            journals = [
                journal
                for name in region_names
                if (journal := self.region_journals.get(name)) is not None
            ]
        for journal in journals:
            journal.append(
                "release",
                application,
                None,
                fingerprint_digest(
                    self.fingerprint(journal.tile_names, journal.link_names)
                ),
            )

    def replay_region_ops(
        self,
        ops,
        tile_names: tuple[str, ...],
        link_names: tuple[str, ...],
        expected_seq: int | None = None,
    ) -> int:
        """Replay a chain of :class:`RegionDeltaOp` onto this (worker-side) state.

        Validates the chain as it goes: sequence numbers must be strictly
        consecutive (a gap or reordering raises before anything is half
        applied *at that op*), and after every op the region fingerprint's
        digest must equal the op's recorded target — any divergence raises
        :class:`~repro.exceptions.PlatformError` so the worker can demand a
        snapshot resync instead of deciding on silently wrong state.
        Returns the seq of the last applied op (``expected_seq - 1``
        when the chain is empty).
        """
        last_seq = (expected_seq - 1) if expected_seq is not None else None
        for op in ops:
            if last_seq is not None and op.seq != last_seq + 1:
                raise PlatformError(
                    f"delta chain broken: expected seq {last_seq + 1}, got "
                    f"{op.seq} (gap or out-of-order op)"
                )
            if op.kind == "commit":
                self.apply_delta(op.delta)
            elif op.kind == "release":
                self.release_application(op.application)
            else:
                raise PlatformError(f"unknown region delta op kind {op.kind!r}")
            achieved = fingerprint_digest(self.fingerprint(tile_names, link_names))
            if achieved != op.target_fingerprint:
                raise PlatformError(
                    f"delta replay diverged at seq {op.seq}: fingerprint mismatch "
                    f"after {op.kind} of {op.application!r}"
                )
            last_seq = op.seq
        return last_seq if last_seq is not None else -1

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
