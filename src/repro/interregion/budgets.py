"""Boundary-link corridor budgets between region pairs.

A region-sharded platform keeps admissions inside their shard; what crosses
shards is the boundary links.  Treating those links as a free-for-all is what
forced cross-region admissions into the serialized global lane — nothing
bounded how much boundary capacity an admission could grab, so correctness
required excluding every other writer.  :class:`CorridorBudgets` turns the
boundary into a *planned, budgeted resource*:

* the **inventory** enumerates, per *ordered* region pair ``(a, b)``, the
  NoC links leaving ``a`` for ``b`` (derived from
  :meth:`~repro.platform.regions.RegionPartition.cross_link_names`);
* each pair carries a **reservable corridor budget** — a configurable
  fraction of the pair's aggregate boundary capacity that inter-region
  channels may claim.  Keeping the fraction below 1 leaves headroom for the
  global lane's unplanned routes, so the planner can never starve the
  fallback path;
* reservations are **journaled** with the same transaction discipline as
  :class:`~repro.platform.state.PlatformState`: one transaction stack,
  first-touch undo snapshots, commit folds into the enclosing open
  transaction, rollback restores bit-identically.  A failed inter-region
  commit therefore unwinds its budget claims exactly as it unwinds its
  state allocations.

Reservations are recorded per application so a ``stop`` releases them all
(:meth:`CorridorBudgets.release_application`), mirroring
:meth:`~repro.platform.state.PlatformState.release_application`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import PlatformError
from repro.platform.regions import RegionPartition

#: An ordered region pair: (source region name, target region name).
PairKey = tuple[str, str]


class BudgetTransaction:
    """Undo journal of one :meth:`CorridorBudgets.transaction` scope.

    The journal snapshots, on first touch, the per-pair reserved total and
    the per-application reservation list.  ``rollback`` replays the
    snapshots in reverse; ``commit`` folds them into the enclosing open
    transaction (so an outer rollback undoes inner commits as well), exactly
    like :class:`~repro.platform.state.StateTransaction`.
    """

    __slots__ = ("_budgets", "_undo", "_seen_pairs", "_seen_apps", "closed", "rolled_back")

    def __init__(self, budgets: "CorridorBudgets") -> None:
        self._budgets = budgets
        # Entries: ("pair", key, reserved_before) | ("app", name, list_before|None).
        self._undo: list[tuple] = []
        self._seen_pairs: set[PairKey] = set()
        self._seen_apps: set[str] = set()
        self.closed = False
        self.rolled_back = False

    def commit(self) -> None:
        """Keep every reservation change; fold the journal into the parent."""
        if self.closed:
            if self.rolled_back:
                raise PlatformError("budget transaction was already rolled back")
            return
        self.closed = True
        stack = self._budgets._transactions
        enclosing = stack[: stack.index(self)] if self in stack else stack
        open_enclosing = [txn for txn in enclosing if not txn.closed]
        for entry in self._undo:
            kind, key = entry[0], entry[1]
            for txn in reversed(open_enclosing):
                seen = txn._seen_pairs if kind == "pair" else txn._seen_apps
                if key not in seen:
                    seen.add(key)
                    txn._undo.append(entry)
                break
        self._undo = []

    def rollback(self) -> None:
        """Undo every reservation change made inside the transaction."""
        if self.closed:
            if self.rolled_back:
                return
            raise PlatformError("budget transaction was already committed")
        budgets = self._budgets
        for entry in reversed(self._undo):
            if entry[0] == "pair":
                _, key, reserved = entry
                budgets._reserved[key] = reserved
            else:
                _, name, reservations = entry
                if reservations is None:
                    budgets._by_application.pop(name, None)
                else:
                    budgets._by_application[name] = reservations
        self._undo.clear()
        self.closed = True
        self.rolled_back = True


class CorridorBudgets:
    """Reservable boundary-capacity budgets per ordered region pair.

    Parameters
    ----------
    partition:
        The region partition whose boundary links are inventoried.
    fraction:
        Fraction of each pair's aggregate boundary-link capacity that
        corridors may reserve (0 < fraction <= 1).
    """

    def __init__(self, partition: RegionPartition, fraction: float = 0.5) -> None:
        if not 0.0 < fraction <= 1.0:
            raise PlatformError("corridor budget fraction must be in (0, 1]")
        self.partition = partition
        self.fraction = fraction
        noc = partition.platform.noc
        links: dict[PairKey, list[str]] = {}
        capacity: dict[PairKey, float] = {}
        for link_name in partition.cross_link_names():
            link = noc.link_by_name(link_name)
            source = partition.region_of_position(link.source)
            target = partition.region_of_position(link.target)
            if source is None or target is None:
                # Links touching unassigned router positions stay outside
                # the budgeted inventory (global lane territory).
                continue
            pair = (source.name, target.name)
            links.setdefault(pair, []).append(link_name)
            capacity[pair] = capacity.get(pair, 0.0) + link.capacity_bits_per_s
        self._links: dict[PairKey, tuple[str, ...]] = {
            pair: tuple(names) for pair, names in sorted(links.items())
        }
        self._capacity: dict[PairKey, float] = {
            pair: fraction * capacity[pair] for pair in self._links
        }
        self._reserved: dict[PairKey, float] = {pair: 0.0 for pair in self._links}
        #: Per-application reservations: name -> [(pair, bits_per_s), ...].
        self._by_application: dict[str, list[tuple[PairKey, float]]] = {}
        #: Open transaction scopes, outermost first.
        self._transactions: list[BudgetTransaction] = []

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    def pairs(self) -> tuple[PairKey, ...]:
        """Every ordered region pair with at least one boundary link."""
        return tuple(self._links)

    def links_between(self, source_region: str, target_region: str) -> tuple[str, ...]:
        """Boundary link names leaving ``source_region`` for ``target_region``."""
        return self._links.get((source_region, target_region), ())

    def capacity_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Reservable corridor budget of the ordered pair."""
        return self._capacity.get((source_region, target_region), 0.0)

    def reserved_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Currently reserved corridor throughput of the ordered pair."""
        return self._reserved.get((source_region, target_region), 0.0)

    def residual_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Corridor budget still reservable on the ordered pair."""
        pair = (source_region, target_region)
        if pair not in self._capacity:
            return 0.0
        return self._capacity[pair] - self._reserved[pair]

    def pressure(self, source_region: str, target_region: str) -> float:
        """Fraction of the pair's corridor budget already reserved (0..1)."""
        pair = (source_region, target_region)
        capacity = self._capacity.get(pair, 0.0)
        if capacity <= 0.0:
            return 1.0
        return self._reserved[pair] / capacity

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    @contextmanager
    def transaction(self) -> Iterator[BudgetTransaction]:
        """Open a journaled scope for tentative reservations.

        Commits on normal exit (unless already rolled back inside the
        block), rolls back and re-raises on an exception.  Nested scopes
        fold into their parent on commit, mirroring
        :meth:`PlatformState.transaction`.
        """
        txn = BudgetTransaction(self)
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

    def _journal_pair(self, pair: PairKey) -> None:
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            if pair not in txn._seen_pairs:
                txn._seen_pairs.add(pair)
                txn._undo.append(("pair", pair, self._reserved[pair]))
            return

    def _journal_application(self, application: str) -> None:
        for txn in reversed(self._transactions):
            if txn.closed:
                continue
            if application not in txn._seen_apps:
                txn._seen_apps.add(application)
                reservations = self._by_application.get(application)
                txn._undo.append(
                    ("app", application, None if reservations is None else list(reservations))
                )
            return

    # ------------------------------------------------------------------ #
    # Reservation accounting
    # ------------------------------------------------------------------ #
    def reserve(
        self,
        application: str,
        source_region: str,
        target_region: str,
        bits_per_s: float,
    ) -> None:
        """Reserve corridor throughput on an ordered pair for an application.

        Raises :class:`~repro.exceptions.PlatformError` when the pair has no
        boundary links or the reservation would exceed the pair's budget.
        """
        if bits_per_s < 0:
            raise PlatformError("corridor reservations must be non-negative")
        pair = (source_region, target_region)
        if pair not in self._capacity:
            raise PlatformError(
                f"no boundary links from region {source_region!r} to {target_region!r}"
            )
        residual = self._capacity[pair] - self._reserved[pair]
        if bits_per_s > residual + 1e-9:
            raise PlatformError(
                f"corridor budget {source_region!r}->{target_region!r} has only "
                f"{residual:.3g} bit/s left; cannot reserve {bits_per_s:.3g} bit/s"
            )
        self._journal_pair(pair)
        self._journal_application(application)
        self._reserved[pair] += bits_per_s
        self._by_application.setdefault(application, []).append((pair, bits_per_s))

    def release_application(self, application: str) -> float:
        """Release every corridor reservation of the application.

        Returns the total released throughput (0.0 when the application had
        no reservations).  Reserved totals of the touched pairs are restored
        by subtraction and can never drift below zero because every addition
        and removal goes through the same per-application record.
        """
        reservations = self._by_application.get(application)
        if not reservations:
            return 0.0
        self._journal_application(application)
        released = 0.0
        for pair, bits_per_s in reservations:
            self._journal_pair(pair)
            self._reserved[pair] -= bits_per_s
            released += bits_per_s
        del self._by_application[application]
        return released

    def applications(self) -> tuple[str, ...]:
        """Applications currently holding corridor reservations."""
        return tuple(self._by_application)

    def fingerprint(self) -> tuple:
        """Exact digest of the reservation state (pairs with non-zero use)."""
        parts: list[tuple] = [
            (pair, reserved)
            for pair, reserved in self._reserved.items()
            if reserved
        ]
        parts.append(
            tuple(
                (name, tuple(entries))
                for name, entries in sorted(self._by_application.items())
            )
        )
        return tuple(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorridorBudgets(pairs={len(self._links)}, fraction={self.fraction}, "
            f"applications={len(self._by_application)})"
        )
