"""Fingerprint-keyed memoisation of spatial-mapping results.

The mapper is deterministic: the same application mapped against the same
platform state (and region restriction) yields a bit-identical result.  The
state's cached aggregates make "the same state" cheap to detect — a
:meth:`~repro.platform.state.PlatformState.fingerprint` digest over the
region's tiles and links — so a :class:`MapperCache` can skip the whole
four-step search whenever an identical admission question was already
answered.  This pays off exactly where the paper's run-time premise is
stressed: churny workloads where applications of a few types start and stop
repeatedly, returning the platform (or one region of it) to a previously
seen configuration.

Keys are ``(application name, region name, fingerprint)``.  Invalidation is
the fingerprint itself: a commit or stop inside a region changes that
region's fingerprint, so entries for the previous state can never be served
for the new one — and when a stop returns the region to an earlier
fingerprint, entries computed for that earlier state become servable again
(no over-invalidation).  An LRU bound keeps superseded entries from
accumulating; :meth:`MapperCache.invalidate_regions` and
:meth:`MapperCache.clear` remain for callers that mutate state behind the
fingerprint's back.  Entries pin the exact ALS and library objects they
were computed from and are only served for those same objects, so a name
collision between different applications can never produce a wrong hit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

from repro.mapping.result import MappingResult

#: Region key used for unrestricted (whole-platform) mappings.
GLOBAL_REGION = "__global__"


@dataclass
class _CacheEntry:
    """One memoised mapping result, pinned to its input objects."""

    als: Any
    library: Any
    result: MappingResult


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`MapperCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MapperCache:
    """LRU cache of :class:`~repro.mapping.result.MappingResult` objects.

    Results are stored once and *cloned* on every hit: the clone shares the
    immutable pieces (assignments, routes, feasibility report, mapped CSDF
    graph) but carries fresh containers, so a caller mutating its result
    (e.g. appending diagnostics) cannot corrupt later hits.

    The cache takes no lock: only the engine's decider thread uses it
    (drain worker processes keep their own caches).
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def key(application: str, region_name: str | None, fingerprint: tuple) -> tuple:
        """The cache key for one admission question."""
        return (application, region_name or GLOBAL_REGION, fingerprint)

    # ------------------------------------------------------------------ #
    def lookup(self, key: tuple, als: Any, library: Any) -> MappingResult | None:
        """A clone of the memoised result, or ``None`` on miss.

        The hit is only served when ``als`` and ``library`` are the very
        objects the entry was computed from (identity, not equality — the
        entry keeps them alive, so identity is stable).
        """
        entry = self._entries.get(key)
        if entry is None or entry.als is not als or entry.library is not library:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return self._clone(entry.result)

    def store(self, key: tuple, als: Any, library: Any, result: MappingResult) -> None:
        """Memoise a freshly computed result (a private clone is kept)."""
        clone = self._clone(result)
        self._entries[key] = _CacheEntry(als=als, library=library, result=clone)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_regions(self, region_names: tuple[str, ...] | list[str]) -> int:
        """Drop every entry keyed to any of the given regions (or to the globe).

        A commit into region R invalidates R's entries *and* the global
        entries (the global fingerprint changed too).  Returns the number of
        entries dropped.
        """
        doomed = {GLOBAL_REGION, *region_names}
        victims = [key for key in self._entries if key[1] in doomed]
        for key in victims:
            del self._entries[key]
        self.stats.invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop every entry."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _clone(result: MappingResult) -> MappingResult:
        """A result equal to ``result`` but with independent containers."""
        return replace(
            result,
            mapping=result.mapping.copy(),
            diagnostics=list(result.diagnostics),
            pending_feedback=list(result.pending_feedback),
        )


__all__ = ["MapperCache", "CacheStats", "GLOBAL_REGION"]
