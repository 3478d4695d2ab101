"""Composite region scoring for the admission pipeline's selection stage.

Fill level (the maximum of slot, memory and link utilisation) is a coarse
desirability signal: two half-full regions look identical even when one has
exhausted exactly the tile type the application needs, or has no link
headroom left for its channel demands.  Picking such a region wastes a full
mapper run before the pipeline falls back.  This module replaces the
least-filled-first ordering with a *composite score* per candidate region:

``score(r) = w_fill * fill(r)
           + w_residual * scarcity(r)      # per-tile-type residual demand
           + w_pressure * pressure(r)      # channel demand vs link headroom
           + w_feedback * penalty(r, s)    # decaying rejection memory``

* ``scarcity`` distributes one slot of demand per mappable process over the
  tile types its implementations cover (see
  :func:`~repro.spatialmapper.desirability.tile_type_demands` — an
  inflexible process is exclusive demand, a flexible one dilutes) and takes
  the worst ratio of demand to free slots of that type inside the region:
  the binding tile type is what decides whether the mapper can succeed.
* ``pressure`` estimates routing pressure as the application's aggregate
  channel demand (bits/s at its required period) over the region's
  remaining internal link headroom.
* ``penalty`` consults a :class:`RejectionMemory`: a decaying, per-region
  memory of the *shapes* of recently rejected applications.  A region that
  just failed to map a similar shape is demoted — or excluded outright when
  the penalty crosses ``exclude_threshold`` — so the pipeline stops paying
  for mapper runs the recent past already proved hopeless.

With :meth:`RegionScorePolicy.fill_only` (all extra weights zero, no
feedback) the composite score *is* the fill level and the ordering is
bit-identical to the historic least-filled-first stage — pinned by the
admission-control differential tests.

Shape fingerprints (:func:`shape_fingerprint`) are canonical digests of an
application's structure — per-process kind/pin/implementation options and
per-channel demands, as sorted multisets — deliberately independent of
process and channel *names*, so a renamed copy of an application hits the
same memory entry (pinned by property test).

:class:`RejectionMemory` updates follow the same journaled-transaction
discipline as :class:`~repro.platform.state.PlatformState` and
:class:`~repro.interregion.budgets.CorridorBudgets`: one transaction
stack, first-touch snapshots, commit folds into the enclosing scope, and
rollback restores the memory bit-identically — a feedback update made
inside an aborted batch admission leaves no trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.exceptions import PlatformError
from repro.kpn.als import ApplicationLevelSpec
from repro.spatialmapper.desirability import tile_type_demands

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.appmodel.library import ImplementationLibrary
    from repro.platform.regions import Region
    from repro.platform.state import PlatformState

__all__ = [
    "RegionScorePolicy",
    "RegionScorer",
    "RejectionMemory",
    "shape_fingerprint",
]

#: A canonical application-shape digest (see :func:`shape_fingerprint`).
ShapeKey = tuple


def shape_fingerprint(
    als: ApplicationLevelSpec, library: "ImplementationLibrary"
) -> ShapeKey:
    """Canonical digest of an application's *shape*, stable under renaming.

    Two applications that differ only in process/channel names (and in
    nothing the mapper can observe) produce equal fingerprints: the digest
    is built from sorted multisets of per-process signatures — kind, pinned
    tile, and the sorted (tile type, memory, cycles) triples of the
    process's implementations — and per-channel signatures (bits per
    iteration plus the endpoints' pinned tiles), together with the QoS
    period.  Names never enter the digest, so a region that rejected
    ``radio_3`` also demotes for an identically-shaped ``radio_7``.
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


# --------------------------------------------------------------------------- #
# Rejection-feedback memory
# --------------------------------------------------------------------------- #
class MemoryTransaction:
    """Undo journal of one :meth:`RejectionMemory.transaction` scope.

    Snapshots, on first touch, the whole per-region weight table of every
    touched region plus the decay clock.  ``rollback`` replays the
    snapshots; ``commit`` folds them into the enclosing open transaction,
    exactly like :class:`~repro.platform.state.StateTransaction`.
    """

    __slots__ = ("_memory", "_undo", "_seen", "closed", "rolled_back")

    def __init__(self, memory: "RejectionMemory") -> None:
        self._memory = memory
        # Entries: ("region", name, {shape: weight} | None) | ("clock", int).
        self._undo: list[tuple] = []
        self._seen: set[str] = set()
        self.closed = False
        self.rolled_back = False

    def commit(self) -> None:
        """Keep every feedback change; fold the journal into the parent."""
        if self.closed:
            if self.rolled_back:
                raise PlatformError("feedback transaction was already rolled back")
            return
        self.closed = True
        stack = self._memory._transactions
        enclosing = stack[: stack.index(self)] if self in stack else stack
        open_enclosing = [txn for txn in enclosing if not txn.closed]
        for entry in self._undo:
            for txn in reversed(open_enclosing):
                if entry[0] == "clock":
                    if not any(e[0] == "clock" for e in txn._undo):
                        txn._undo.append(entry)
                elif entry[1] not in txn._seen:
                    txn._seen.add(entry[1])
                    txn._undo.append(entry)
                break
        self._undo = []

    def rollback(self) -> None:
        """Undo every feedback change made inside the transaction."""
        if self.closed:
            if self.rolled_back:
                return
            raise PlatformError("feedback transaction was already committed")
        memory = self._memory
        for entry in reversed(self._undo):
            if entry[0] == "clock":
                memory._clock = entry[1]
            else:
                _, name, weights = entry
                if weights is None:
                    memory._weights.pop(name, None)
                else:
                    memory._weights[name] = dict(weights)
        self._undo.clear()
        self.closed = True
        self.rolled_back = True


class RejectionMemory:
    """Decaying per-region memory of recently rejected application shapes.

    Every pipeline decision advances a decay clock (:meth:`tick`); every
    in-region mapping failure records one unit of weight against
    ``(region, shape)`` (:meth:`record`).  :meth:`penalty` reads the current
    weight: ``sum(recorded) * decay ** (ticks since recorded)`` — recent
    rejections weigh heavily, old ones fade geometrically and are pruned
    below ``min_weight``.  Decay is driven by *decisions*, not wall time,
    so replaying the same event stream always yields the same penalties
    (determinism is what keeps the serial and process executors
    decision-identical).

    Parameters
    ----------
    decay:
        Per-tick multiplicative decay factor in (0, 1).
    min_weight:
        Entries whose weight decays below this are dropped.
    """

    def __init__(self, decay: float = 0.7, min_weight: float = 0.05) -> None:
        if not 0.0 < decay < 1.0:
            raise PlatformError("rejection-memory decay must be in (0, 1)")
        if min_weight <= 0.0:
            raise PlatformError("rejection-memory min_weight must be positive")
        self.decay = decay
        self.min_weight = min_weight
        #: region name -> {shape fingerprint: (weight, clock it was current at)}.
        self._weights: dict[str, dict[ShapeKey, tuple[float, int]]] = {}
        self._clock = 0
        #: Open transaction scopes, outermost first.
        self._transactions: list[MemoryTransaction] = []

    # -- transactions ---------------------------------------------------- #
    @contextmanager
    def transaction(self) -> Iterator[MemoryTransaction]:
        """Open a journaled scope for tentative feedback updates.

        Commits on normal exit (unless rolled back inside the block), rolls
        back and re-raises on an exception; nested scopes fold into their
        parent on commit, mirroring :meth:`PlatformState.transaction`.
        """
        txn = MemoryTransaction(self)
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

    def _journal_region(self, region_name: str) -> None:
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            if region_name not in txn._seen:
                txn._seen.add(region_name)
                weights = self._weights.get(region_name)
                txn._undo.append(
                    ("region", region_name, None if weights is None else dict(weights))
                )
            return

    def _journal_clock(self) -> None:
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            if not any(entry[0] == "clock" for entry in txn._undo):
                txn._undo.append(("clock", self._clock))
            return

    # -- updates ---------------------------------------------------------- #
    def tick(self) -> None:
        """Advance the decay clock by one decision.

        Stored weights decay lazily (they carry the clock value they were
        current at), so a tick is O(1); pruning happens on the next touch
        of each entry.
        """
        self._journal_clock()
        self._clock += 1

    def record(self, region_name: str, shape: ShapeKey, weight: float = 1.0) -> None:
        """Record one rejection of ``shape`` by ``region_name``."""
        if weight <= 0.0:
            raise PlatformError("rejection weights must be positive")
        self._journal_region(region_name)
        entries = self._weights.setdefault(region_name, {})
        current = self._decayed(entries.get(shape))
        entries[shape] = (current + weight, self._clock)

    # -- queries ---------------------------------------------------------- #
    def _decayed(self, entry: tuple[float, int] | None) -> float:
        if entry is None:
            return 0.0
        weight, stamp = entry
        return weight * self.decay ** (self._clock - stamp)

    def penalty(self, region_name: str, shape: ShapeKey) -> float:
        """Current decayed rejection weight of ``shape`` in ``region_name``.

        Reading prunes entries that decayed below ``min_weight`` (pruning
        is journaled, so a read inside a transaction still rolls back
        bit-identically).
        """
        entries = self._weights.get(region_name)
        if entries is None:
            return 0.0
        entry = entries.get(shape)
        if entry is None:
            return 0.0
        weight = self._decayed(entry)
        if weight < self.min_weight:
            self._journal_region(region_name)
            del entries[shape]
            if not entries:
                del self._weights[region_name]
            return 0.0
        return weight

    def fingerprint(self) -> tuple:
        """Exact digest of the memory (for rollback bit-identity tests).

        Entries are normalised to their decayed weight at the current
        clock, so two states that answer every :meth:`penalty` query
        identically digest identically.  Entries below ``min_weight``
        (pruned lazily on read) are omitted for the same reason.
        """
        parts: list[tuple] = []
        for region_name in sorted(self._weights):
            entries = tuple(
                sorted(
                    (shape, round(self._decayed(entry), 12))
                    for shape, entry in self._weights[region_name].items()
                    if self._decayed(entry) >= self.min_weight
                )
            )
            if entries:
                parts.append((region_name, entries))
        return tuple(parts)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._weights.values())


# --------------------------------------------------------------------------- #
# The scorer
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RegionScorePolicy:
    """Weights of the composite region score (lower score = try first)."""

    fill_weight: float = 1.0
    residual_weight: float = 0.5
    pressure_weight: float = 0.5
    feedback_weight: float = 1.0
    #: Feedback penalty at (or above) which a region is excluded from the
    #: candidate list outright instead of merely demoted.
    exclude_threshold: float = 3.0

    @classmethod
    def fill_only(cls) -> "RegionScorePolicy":
        """The neutral policy: the composite score *is* the fill level.

        With this policy (and no feedback memory) the scorer reproduces the
        historic least-filled-first ordering bit-identically.
        """
        return cls(
            fill_weight=1.0,
            residual_weight=0.0,
            pressure_weight=0.0,
            feedback_weight=0.0,
            exclude_threshold=float("inf"),
        )


class RegionScorer:
    """Scores candidate regions for the pipeline's selection stage.

    Parameters
    ----------
    policy:
        Score weights; defaults to the full composite policy.
    feedback:
        Optional :class:`RejectionMemory`.  Without it the feedback term is
        zero and no region is ever excluded.
    """

    def __init__(
        self,
        policy: RegionScorePolicy | None = None,
        feedback: RejectionMemory | None = None,
    ) -> None:
        self.policy = policy or RegionScorePolicy()
        self.feedback = feedback

    @classmethod
    def adaptive(
        cls,
        policy: RegionScorePolicy | None = None,
        *,
        decay: float = 0.7,
        min_weight: float = 0.05,
    ) -> "RegionScorer":
        """A scorer with the composite policy and a fresh rejection memory."""
        return cls(policy, RejectionMemory(decay=decay, min_weight=min_weight))

    # ------------------------------------------------------------------ #
    def shape_of(
        self, als: ApplicationLevelSpec, library: "ImplementationLibrary"
    ) -> ShapeKey | None:
        """The application's shape fingerprint (``None`` without feedback)."""
        if self.feedback is None:
            return None
        return shape_fingerprint(als, library)

    def excludes(self, region_name: str, shape: ShapeKey | None) -> bool:
        """Whether rejection feedback rules the region out entirely."""
        if self.feedback is None or shape is None:
            return False
        return self.feedback.penalty(region_name, shape) >= self.policy.exclude_threshold

    def score(
        self,
        als: ApplicationLevelSpec,
        library: "ImplementationLibrary",
        region: "Region",
        state: "PlatformState",
        *,
        shape: ShapeKey | None = None,
    ) -> float:
        """Composite score of one candidate region (lower = more desirable)."""
        policy = self.policy
        total = 0.0
        if policy.fill_weight:
            total += policy.fill_weight * region.view(state).fill_level()
        if policy.residual_weight:
            total += policy.residual_weight * self._scarcity(als, library, region, state)
        if policy.pressure_weight:
            total += policy.pressure_weight * self._routing_pressure(als, region, state)
        if policy.feedback_weight and self.feedback is not None and shape is not None:
            total += policy.feedback_weight * self.feedback.penalty(region.name, shape)
        return total

    # ------------------------------------------------------------------ #
    def _scarcity(
        self,
        als: ApplicationLevelSpec,
        library: "ImplementationLibrary",
        region: "Region",
        state: "PlatformState",
    ) -> float:
        """Worst per-tile-type ratio of slot demand to residual supply.

        Demand per type comes from
        :func:`~repro.spatialmapper.desirability.tile_type_demands`; supply
        is the free process slots on the region's tiles of that type.  The
        ``+ 1`` smoothing keeps the ratio finite when a demanded type has
        no free slot left (the region may still qualify through another of
        a flexible process's types) while still ranking it far behind a
        region with real headroom.
        """
        demands = tile_type_demands(als, library)
        if not demands:
            return 0.0
        free_by_type: dict[str, int] = {}
        platform = region.platform
        for tile_name in region.processing_tile_names():
            type_name = platform.tile(tile_name).type_name
            free_by_type[type_name] = free_by_type.get(
                type_name, 0
            ) + state.free_process_slots(tile_name)
        return max(
            demand / (free_by_type.get(type_name, 0) + 1.0)
            for type_name, demand in demands.items()
        )

    def _routing_pressure(
        self,
        als: ApplicationLevelSpec,
        region: "Region",
        state: "PlatformState",
    ) -> float:
        """Aggregate channel demand over the region's remaining link headroom."""
        demand = sum(
            channel.bits_per_iteration for channel in als.kpn.data_channels()
        ) * (1e9 / als.period_ns)
        if demand <= 0.0:
            return 0.0
        headroom = 0.0
        noc = region.platform.noc
        for link_name in region.link_names:
            capacity = noc.link_by_name(link_name).capacity_bits_per_s
            headroom += capacity - state.link_load_bits_per_s(link_name)
        return demand / max(headroom, 1.0)
