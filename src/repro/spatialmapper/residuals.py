"""O(1) residual-capacity bookkeeping for an in-progress mapping.

Steps 1 and 2 of the mapper repeatedly ask "does tile T still have a free
slot / enough memory for this implementation, given the running applications
*and* the choices made so far in this mapping attempt?".  Re-deriving that
from the mapping on every query makes the candidate loops quadratic; the
tracker seeds each tile's residual from the platform state's cached
aggregates (an O(1) query per tile) and then updates it incrementally as
processes are placed, moved or swapped.  A region-scoped call seeds only
its scope's tiles, the only ones it ever asks about.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.mapping.mapping import Mapping
from repro.platform.platform import Platform
from repro.platform.state import PlatformState


class ResidualTracker:
    """Free process slots and memory per tile, updated as a mapping evolves."""

    __slots__ = ("_free_slots", "_free_memory")

    def __init__(
        self,
        platform: Platform,
        state: PlatformState | None = None,
        tiles: Iterable[str] | None = None,
    ) -> None:
        """Seed every tile of ``platform``, or only the tiles named in
        ``tiles`` (a region's scope): a query for any other tile raises
        :class:`KeyError`, and a placement on one is ignored."""
        self._free_slots: dict[str, int] = {}
        self._free_memory: dict[str, int] = {}
        for tile in platform.tiles if tiles is None else map(platform.tile, tiles):
            if state is not None:
                self._free_slots[tile.name] = state.free_process_slots(tile.name)
                self._free_memory[tile.name] = state.free_memory_bytes(tile.name)
            else:
                self._free_slots[tile.name] = tile.resources.max_processes
                self._free_memory[tile.name] = tile.resources.memory_bytes

    @classmethod
    def for_mapping(
        cls,
        platform: Platform,
        state: PlatformState | None,
        mapping: Mapping,
        tiles: Iterable[str] | None = None,
    ) -> "ResidualTracker":
        """A tracker of ``tiles`` (``None`` = every tile) that already
        accounts for every placement in ``mapping``.

        Pinned processes carry no implementation but still occupy a slot on
        their pinned tile, matching how the mapper has always counted them.
        """
        tracker = cls(platform, state, tiles)
        for assignment in mapping.assignments:
            memory = (
                assignment.implementation.memory_bytes
                if assignment.implementation is not None
                else 0
            )
            tracker.place(assignment.tile, memory)
        return tracker

    # ------------------------------------------------------------------ #
    def free_slots(self, tile_name: str) -> int:
        """Free process slots on the tile, counting in-progress placements."""
        return self._free_slots[tile_name]

    def free_memory(self, tile_name: str) -> int:
        """Free memory on the tile, counting in-progress placements."""
        return self._free_memory[tile_name]

    def place(self, tile_name: str, memory_bytes: int) -> None:
        """Account for a process placed on the tile.

        Tiles the tracker does not hold (outside its scope, or a pinned tile
        of a foreign specification) are ignored: they are never queried,
        because queries only ever name tiles of the scope.
        """
        if tile_name in self._free_slots:
            self._free_slots[tile_name] -= 1
            self._free_memory[tile_name] -= memory_bytes

    def unplace(self, tile_name: str, memory_bytes: int) -> None:
        """Account for a process removed from the tile."""
        if tile_name in self._free_slots:
            self._free_slots[tile_name] += 1
            self._free_memory[tile_name] += memory_bytes

    def move(self, source_tile: str, target_tile: str, memory_bytes: int) -> None:
        """Account for a process moving between tiles."""
        self.unplace(source_tile, memory_bytes)
        self.place(target_tile, memory_bytes)
