"""Network-on-Chip model: routers and guaranteed-throughput links.

The paper assumes a NoC that is predictable with respect to throughput and
latency: routers have buffered inputs, round-robin arbitration on the outputs
and impose a maximum latency of 4 clock cycles per hop (section 4.3).  Links
offer a guaranteed-throughput capacity; the routing step of the mapper only
considers paths whose links all still have enough residual capacity for the
channel being routed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import PlatformError
from repro.units import hz_from_mhz

Position = tuple[int, int]


@dataclass(frozen=True)
class Router:
    """A NoC router at a grid position.

    Parameters
    ----------
    position:
        ``(x, y)`` grid coordinates.
    latency_cycles:
        Maximum latency a flit experiences traversing the router (4 clock
        cycles in the paper's NoC).
    frequency_hz:
        Clock frequency of the router, used to convert the hop latency into
        time when router actors are added to the mapped CSDF graph.
    """

    position: Position
    latency_cycles: int = 4
    frequency_hz: float = hz_from_mhz(100)
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(self.position) != 2:
            raise PlatformError("router position must be an (x, y) pair")
        if self.latency_cycles < 0:
            raise PlatformError("router latency must be non-negative")
        if self.frequency_hz <= 0:
            raise PlatformError("router frequency must be positive")

    @property
    def name(self) -> str:
        """Canonical router name derived from its position."""
        return f"R{self.position[0]}_{self.position[1]}"

    @property
    def latency_ns(self) -> float:
        """Hop latency in nanoseconds."""
        return self.latency_cycles * 1e9 / self.frequency_hz


@dataclass(frozen=True)
class Link:
    """A directed guaranteed-throughput link between two adjacent routers."""

    source: Position
    target: Position
    capacity_bits_per_s: float

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise PlatformError(f"link {self.source} -> {self.target} is a self-loop")
        if self.capacity_bits_per_s <= 0:
            raise PlatformError("link capacity must be positive")
        sx, sy = self.source
        tx, ty = self.target
        # Precomputed: the capacity-aware route search reads link names in
        # its inner loop, and f-string formatting there showed up in profiles.
        object.__setattr__(self, "_name", f"L{sx}_{sy}__{tx}_{ty}")

    @property
    def name(self) -> str:
        """Canonical link name."""
        return self._name


class NoC:
    """A Network-on-Chip: a set of routers connected by directed links."""

    def __init__(self, name: str = "noc") -> None:
        if not name:
            raise PlatformError("NoC name must be a non-empty string")
        self.name = name
        self._routers: dict[Position, Router] = {}
        self._links: dict[tuple[Position, Position], Link] = {}
        self._links_by_name: dict[str, Link] = {}
        # Outgoing-neighbour adjacency, maintained by add_link: the route
        # searches ask for neighbours in their inner loop, and scanning the
        # whole link table there made every Dijkstra O(links) per visit.
        self._neighbours: dict[Position, list[Position]] = {}
        # Hop distances from one source router to every router it reaches,
        # built by one BFS on first use and dropped by add_link (a new router
        # has no links yet, so it changes no distance).
        self._hop_rows: dict[Position, dict[Position, int]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_router(self, router: Router) -> Router:
        """Add a router; positions must be unique."""
        if router.position in self._routers:
            raise PlatformError(f"duplicate router at position {router.position}")
        self._routers[router.position] = router
        return router

    def add_link(self, link: Link) -> Link:
        """Add a directed link; both endpoints must exist."""
        for endpoint in (link.source, link.target):
            if endpoint not in self._routers:
                raise PlatformError(f"link endpoint {endpoint} has no router")
        key = (link.source, link.target)
        if key in self._links:
            raise PlatformError(f"duplicate link {link.source} -> {link.target}")
        self._links[key] = link
        self._links_by_name[link.name] = link
        self._neighbours.setdefault(key[0], []).append(key[1])
        self._hop_rows = {}
        return link

    def add_bidirectional_link(self, a: Position, b: Position, capacity_bits_per_s: float) -> None:
        """Add the two directed links between adjacent routers ``a`` and ``b``."""
        self.add_link(Link(a, b, capacity_bits_per_s))
        self.add_link(Link(b, a, capacity_bits_per_s))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def routers(self) -> tuple[Router, ...]:
        """All routers."""
        return tuple(self._routers.values())

    @property
    def links(self) -> tuple[Link, ...]:
        """All directed links."""
        return tuple(self._links.values())

    @property
    def positions(self) -> tuple[Position, ...]:
        """All router positions."""
        return tuple(self._routers.keys())

    def router(self, position: Position) -> Router:
        """Return the router at ``position``."""
        try:
            return self._routers[tuple(position)]
        except KeyError:
            raise PlatformError(f"no router at position {position}") from None

    def has_router(self, position: Position) -> bool:
        """Whether a router exists at ``position``."""
        return tuple(position) in self._routers

    def link(self, source: Position, target: Position) -> Link:
        """Return the directed link from ``source`` to ``target``."""
        try:
            return self._links[(tuple(source), tuple(target))]
        except KeyError:
            raise PlatformError(f"no link from {source} to {target}") from None

    def has_link(self, source: Position, target: Position) -> bool:
        """Whether the directed link exists."""
        return (tuple(source), tuple(target)) in self._links

    def link_by_name(self, name: str) -> Link:
        """Return the link with the given canonical name."""
        try:
            return self._links_by_name[name]
        except KeyError:
            raise PlatformError(f"unknown link {name!r}") from None

    def has_link_named(self, name: str) -> bool:
        """Whether a link with the given canonical name exists."""
        return name in self._links_by_name

    def neighbours(self, position: Position) -> tuple[Position, ...]:
        """Positions reachable from ``position`` over one outgoing link (O(degree))."""
        self.router(position)
        return tuple(self._neighbours.get(tuple(position), ()))

    def hop_distance(self, source: Position, target: Position) -> float:
        """Fewest links on any directed path from ``source`` to ``target``.

        ``math.inf`` when no path exists.  Every route the NoC can carry is
        at least this long, whatever the topology: on a mesh it equals the
        Manhattan distance, on a torus the wrap-around links make it
        shorter.  One BFS per source router, cached until the next
        :meth:`add_link`.
        """
        source = tuple(source)
        row = self._hop_rows.get(source)
        if row is None:
            self.router(source)
            row = {source: 0}
            frontier = deque((source,))
            while frontier:
                position = frontier.popleft()
                hops = row[position] + 1
                for neighbour in self._neighbours.get(position, ()):
                    if neighbour not in row:
                        row[neighbour] = hops
                        frontier.append(neighbour)
            self._hop_rows[source] = row
        return row.get(tuple(target), math.inf)

    def links_on_path(self, path: tuple[Position, ...]) -> tuple[Link, ...]:
        """The directed links traversed by a router path."""
        return tuple(self.link(a, b) for a, b in zip(path, path[1:]))

    def __len__(self) -> int:
        return len(self._routers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoC(name={self.name!r}, routers={len(self._routers)}, links={len(self._links)})"
