"""Region sharding of a platform.

Run-time admission only stays cheap on large platforms if independent
admissions do not contend on one global structure.  A
:class:`RegionPartition` splits the mesh into :class:`Region` shards — each a
set of router positions with the tiles attached to them and the NoC links
internal to the region.  Regions give the admission pipeline three things:

* a **transaction scope** — a region implements ``covers_tile`` /
  ``covers_link``, so :meth:`~repro.platform.state.PlatformState.transaction`
  journals only that region's keys and independent admissions commit without
  touching each other's journals;
* a **fingerprint domain** — the per-region aggregate digest
  (:meth:`Region.fingerprint`) keys the mapper result cache, so an admission
  into one region does not invalidate cached mappings for the others;
* **fill metrics** — :class:`RegionView` summarises a region's occupancy for
  the region-selection stage (least-filled-first placement).

Links whose endpoints lie in different regions are *cross-region links*.
They belong to no region's scope: a mapping that needs one must be committed
under a global (unscoped) transaction, which keeps cross-region traffic an
explicit, deliberate exception rather than a silent journal leak.

Regions are also the unit of the process drain: the workload engine ships a
region's allocations to a worker process as a :class:`RegionSnapshot` and
folds the returned deltas back under a region-scoped transaction.  Every
mutation of the engine-side state happens on one decider thread, so regions
need no locks; the scoped transaction is the guard.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.exceptions import PlatformError
from repro.platform.noc import Position
from repro.platform.platform import Platform
from repro.platform.state import PlatformState, RegionSnapshot


class Region:
    """One shard of a platform: a set of router positions and what sits on them.

    Tiles are listed in platform declaration order and internal links in NoC
    declaration order, so per-region iteration (and therefore region-scoped
    mapping) is deterministic.
    """

    def __init__(self, name: str, platform: Platform, positions: Iterable[Position]) -> None:
        if not name:
            raise PlatformError("region name must be a non-empty string")
        self.name = name
        self.platform = platform
        self.positions = frozenset(tuple(p) for p in positions)
        for position in self.positions:
            if not platform.noc.has_router(position):
                raise PlatformError(
                    f"region {name!r} names position {position} but the NoC has no router there"
                )
        self.tile_names: tuple[str, ...] = tuple(
            tile.name for tile in platform.tiles if tile.position in self.positions
        )
        self._tile_set = frozenset(self.tile_names)
        self.link_names: tuple[str, ...] = tuple(
            link.name
            for link in platform.noc.links
            if link.source in self.positions and link.target in self.positions
        )
        self._link_set = frozenset(self.link_names)

    # -- transaction-scope protocol ------------------------------------- #
    def covers_tile(self, tile_name: str) -> bool:
        """Whether the tile belongs to this region."""
        return tile_name in self._tile_set

    def covers_link(self, link_name: str) -> bool:
        """Whether the link is internal to this region."""
        return link_name in self._link_set

    # -- derived views --------------------------------------------------- #
    def processing_tile_names(self) -> tuple[str, ...]:
        """Names of the region's tiles that can host mapped processes."""
        return tuple(
            name for name in self.tile_names if self.platform.tile(name).is_processing
        )

    def fingerprint(self, state: PlatformState) -> tuple:
        """Digest of the region's allocation state (see :meth:`PlatformState.fingerprint`)."""
        return state.fingerprint(self.tile_names, self.link_names)

    def snapshot(self, state: PlatformState) -> RegionSnapshot:
        """Picklable extract of this region's allocations.

        What every lane dispatch of the process drain carries; see
        :meth:`PlatformState.snapshot_scope`.
        """
        return state.snapshot_scope(self)

    def view(self, state: PlatformState) -> "RegionView":
        """Aggregate fill metrics of this region over the given state."""
        return RegionView(state, self)

    def __contains__(self, tile_name: str) -> bool:
        return tile_name in self._tile_set

    def __len__(self) -> int:
        return len(self.tile_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Region(name={self.name!r}, tiles={len(self.tile_names)}, "
            f"links={len(self.link_names)})"
        )


class RegionView:
    """Per-region ``PlatformState`` aggregate view: fill metrics for one region.

    All queries run over the state's O(1) cached aggregates, so a view is
    cheap enough to build per admission (region selection builds one per
    candidate region).
    """

    def __init__(self, state: PlatformState, region: Region) -> None:
        self.state = state
        self.region = region

    def used_process_slots(self) -> int:
        """Occupied process slots across the region's processing tiles."""
        return sum(
            self.state.used_process_slots(name)
            for name in self.region.processing_tile_names()
        )

    def capacity_process_slots(self) -> int:
        """Total process slots of the region's processing tiles."""
        return sum(
            self.region.platform.tile(name).resources.max_processes
            for name in self.region.processing_tile_names()
        )

    def free_process_slots(self) -> int:
        """Free process slots across the region's processing tiles."""
        return self.capacity_process_slots() - self.used_process_slots()

    def used_memory_bytes(self) -> int:
        """Memory allocated across the region's processing tiles."""
        return sum(
            self.state.used_memory_bytes(name)
            for name in self.region.processing_tile_names()
        )

    def capacity_memory_bytes(self) -> int:
        """Total memory of the region's processing tiles."""
        return sum(
            self.region.platform.tile(name).resources.memory_bytes
            for name in self.region.processing_tile_names()
        )

    def link_load_fraction(self) -> float:
        """Mean utilised fraction of the region's internal link capacity."""
        total_capacity = 0.0
        total_load = 0.0
        for name in self.region.link_names:
            link = self.region.platform.noc.link_by_name(name)
            total_capacity += link.capacity_bits_per_s
            total_load += self.state.link_load_bits_per_s(name)
        return total_load / total_capacity if total_capacity else 0.0

    def fill_level(self) -> float:
        """Dominant fill fraction of the region (slots, memory or links).

        The maximum of the three utilisation fractions: the binding resource
        is what decides whether another application still fits.
        """
        slot_capacity = self.capacity_process_slots()
        slot_fill = self.used_process_slots() / slot_capacity if slot_capacity else 1.0
        memory_capacity = self.capacity_memory_bytes()
        memory_fill = (
            self.used_memory_bytes() / memory_capacity if memory_capacity else 0.0
        )
        return max(slot_fill, memory_fill, self.link_load_fraction())

    def fingerprint(self) -> tuple:
        """Digest of the region's allocation state."""
        return self.region.fingerprint(self.state)


class RegionPartition:
    """A disjoint decomposition of a platform's router positions into regions.

    Every tile belongs to exactly one region.  Router positions may be left
    unassigned only when no tile sits on them (their links then count as
    cross-region links).
    """

    def __init__(self, platform: Platform, regions: Iterable[Region]) -> None:
        self.platform = platform
        self.regions: tuple[Region, ...] = tuple(regions)
        if not self.regions:
            raise PlatformError("a region partition needs at least one region")
        self._by_name: dict[str, Region] = {}
        self._region_of_position: dict[Position, Region] = {}
        for region in self.regions:
            if region.name in self._by_name:
                raise PlatformError(f"duplicate region name {region.name!r}")
            self._by_name[region.name] = region
            for position in region.positions:
                if position in self._region_of_position:
                    raise PlatformError(
                        f"position {position} belongs to regions "
                        f"{self._region_of_position[position].name!r} and {region.name!r}"
                    )
                self._region_of_position[position] = region
        self._region_of_tile: dict[str, Region] = {}
        for tile in platform.tiles:
            region = self._region_of_position.get(tile.position)
            if region is None:
                raise PlatformError(
                    f"tile {tile.name!r} at {tile.position} belongs to no region"
                )
            self._region_of_tile[tile.name] = region

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def single(cls, platform: Platform, name: str = "all") -> "RegionPartition":
        """The trivial partition: one region spanning the whole platform."""
        positions = platform.noc.positions
        return cls(platform, [Region(name, platform, positions)])

    @classmethod
    def grid(cls, platform: Platform, columns: int, rows: int) -> "RegionPartition":
        """Partition the mesh into a ``columns`` x ``rows`` grid of rectangles.

        The bounding box of the router positions is split into equal bands
        per axis; every router position lands in exactly one rectangle.
        Regions are named ``r{column}_{row}``.
        """
        if columns < 1 or rows < 1:
            raise PlatformError("grid partition needs at least 1 column and 1 row")
        positions = platform.noc.positions
        if not positions:
            raise PlatformError("cannot partition a platform with no routers")
        min_x = min(p[0] for p in positions)
        max_x = max(p[0] for p in positions)
        min_y = min(p[1] for p in positions)
        max_y = max(p[1] for p in positions)
        width = max_x - min_x + 1
        height = max_y - min_y + 1
        if columns > width or rows > height:
            raise PlatformError(
                f"cannot split a {width}x{height} position grid into {columns}x{rows} regions"
            )
        buckets: dict[tuple[int, int], list[Position]] = {}
        for position in positions:
            column = (position[0] - min_x) * columns // width
            row = (position[1] - min_y) * rows // height
            buckets.setdefault((column, row), []).append(position)
        regions = [
            Region(f"r{column}_{row}", platform, bucket)
            for (column, row), bucket in sorted(buckets.items())
        ]
        return cls(platform, regions)

    # -- access ----------------------------------------------------------- #
    def region(self, name: str) -> Region:
        """The region with the given name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise PlatformError(f"unknown region {name!r}") from None

    def region_of_tile(self, tile_name: str) -> Region:
        """The region the named tile belongs to."""
        self.platform.tile(tile_name)
        return self._region_of_tile[tile_name]

    def region_of_position(self, position: Position) -> Region | None:
        """The region owning a router position, or ``None`` when unassigned."""
        return self._region_of_position.get(tuple(position))

    def cross_link_names(self) -> tuple[str, ...]:
        """Names of the links whose endpoints lie in different regions."""
        return tuple(
            link.name
            for link in self.platform.noc.links
            if self._region_of_position.get(link.source)
            is not self._region_of_position.get(link.target)
            or self._region_of_position.get(link.source) is None
        )

    def views(self, state: PlatformState) -> dict[str, RegionView]:
        """Fill-metric views of every region over the given state."""
        return {region.name: region.view(state) for region in self.regions}

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionPartition(platform={self.platform.name!r}, "
            f"regions={[r.name for r in self.regions]})"
        )


#: Lane name of the serialized global lane (cross-region / unpinned work).
GLOBAL_LANE = "__global__"
