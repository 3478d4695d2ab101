"""The platform: tiles plus the NoC that interconnects them."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import PlatformError
from repro.platform.noc import NoC, Position
from repro.platform.tile import Tile
from repro.platform.tile_type import TileType


class Platform:
    """A heterogeneous tiled MPSoC: named tiles attached to NoC routers.

    Every tile is attached to exactly one router (identified by the tile's
    position); several tiles may share a router only if the NoC was built
    that way on purpose — by default the builder enforces one tile per
    router, matching the paper's architecture template.
    """

    def __init__(self, name: str, noc: NoC, allow_shared_routers: bool = False) -> None:
        if not name:
            raise PlatformError("platform name must be a non-empty string")
        self.name = name
        self.noc = noc
        self._allow_shared_routers = allow_shared_routers
        self._tiles: dict[str, Tile] = {}
        self._tiles_by_position: dict[Position, list[str]] = {}
        # Lookup tables derived from the tiles, reset by add_tile: all tiles
        # per type name, and the processing tiles of one type within one
        # scope (``None`` or a region's tile-name set), both in declaration
        # order.  Steps 1-2 and the rescue lane query these per candidate.
        self._tiles_by_type: dict[str, tuple[Tile, ...]] | None = None
        self._scoped_tables: dict[tuple[str, frozenset[str] | None], tuple[str, ...]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_tile(self, tile: Tile) -> Tile:
        """Attach a tile to the platform; its position must name an existing router."""
        if tile.name in self._tiles:
            raise PlatformError(f"duplicate tile name {tile.name!r}")
        if not self.noc.has_router(tile.position):
            raise PlatformError(
                f"tile {tile.name!r} is placed at {tile.position} but the NoC has no router there"
            )
        occupants = self._tiles_by_position.setdefault(tile.position, [])
        if occupants and not self._allow_shared_routers:
            raise PlatformError(
                f"router at {tile.position} already has tile {occupants[0]!r}; "
                "pass allow_shared_routers=True to allow several tiles per router"
            )
        self._tiles[tile.name] = tile
        occupants.append(tile.name)
        self._tiles_by_type = None
        self._scoped_tables = {}
        return tile

    def add_tiles(self, tiles: Iterable[Tile]) -> None:
        """Attach several tiles at once."""
        for tile in tiles:
            self.add_tile(tile)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def tiles(self) -> tuple[Tile, ...]:
        """All tiles in insertion order."""
        return tuple(self._tiles.values())

    @property
    def tile_names(self) -> tuple[str, ...]:
        """All tile names in insertion order."""
        return tuple(self._tiles.keys())

    def tile(self, name: str) -> Tile:
        """Return the tile called ``name``."""
        try:
            return self._tiles[name]
        except KeyError:
            raise PlatformError(f"unknown tile {name!r} in platform {self.name!r}") from None

    def has_tile(self, name: str) -> bool:
        """Whether a tile with the given name exists."""
        return name in self._tiles

    def __contains__(self, name: str) -> bool:
        return self.has_tile(name)

    def __iter__(self) -> Iterator[Tile]:
        return iter(self._tiles.values())

    def __len__(self) -> int:
        return len(self._tiles)

    def tiles_of_type(self, type_name: str | TileType) -> tuple[Tile, ...]:
        """All tiles whose type matches ``type_name`` (insertion order)."""
        if isinstance(type_name, TileType):
            type_name = type_name.name
        if self._tiles_by_type is None:
            grouped: dict[str, list[Tile]] = {}
            for tile in self._tiles.values():
                grouped.setdefault(tile.type_name, []).append(tile)
            self._tiles_by_type = {name: tuple(tiles) for name, tiles in grouped.items()}
        return self._tiles_by_type.get(type_name, ())

    def processing_tile_names(
        self, type_name: str, scope: frozenset[str] | None = None
    ) -> tuple[str, ...]:
        """Names of the processing tiles of one type within ``scope`` (insertion order).

        ``scope`` is a set of tile names, normally a region's, or ``None``
        for the whole platform.  The table is built once per (type, scope)
        and kept until the next :meth:`add_tile`; callers pass only the
        scopes of their region partition, so the tables stay few.
        """
        key = (type_name, scope)
        table = self._scoped_tables.get(key)
        if table is None:
            table = tuple(
                tile.name
                for tile in self.tiles_of_type(type_name)
                if tile.is_processing and (scope is None or tile.name in scope)
            )
            self._scoped_tables[key] = table
        return table

    def processing_tiles(self) -> tuple[Tile, ...]:
        """Tiles that can host mapped processes."""
        return tuple(t for t in self._tiles.values() if t.is_processing)

    def tile_types(self) -> tuple[TileType, ...]:
        """The distinct tile types present, in first-appearance order."""
        seen: dict[str, TileType] = {}
        for tile in self._tiles.values():
            seen.setdefault(tile.type_name, tile.tile_type)
        return tuple(seen.values())

    def tiles_at(self, position: Position) -> tuple[Tile, ...]:
        """Tiles attached to the router at ``position``."""
        return tuple(self._tiles[name] for name in self._tiles_by_position.get(tuple(position), []))

    def router_of(self, tile_name: str) -> Position:
        """Router position of the given tile."""
        return self.tile(tile_name).position

    def distance(self, tile_a: str, tile_b: str) -> int:
        """Manhattan distance between the routers of two tiles."""
        a = self.tile(tile_a).position
        b = self.tile(tile_b).position
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Platform(name={self.name!r}, tiles={len(self._tiles)}, "
            f"routers={len(self.noc)})"
        )
