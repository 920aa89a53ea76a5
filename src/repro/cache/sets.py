"""Set-associative tag array with true-LRU replacement.

Holds tags and dirty bits only — the timing models never move data, just
like FastSim's cache simulator, which reports *when* data would arrive,
never *what* it is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.params import CacheLevelParams


class _Way:
    __slots__ = ("tag", "dirty", "lru")

    def __init__(self) -> None:
        self.tag: Optional[int] = None
        self.dirty = False
        self.lru = 0  #: higher = more recently used


class TagArray:
    """Tags + LRU + dirty bits for one cache level."""

    def __init__(self, params: CacheLevelParams):
        self.params = params
        self._line_shift = params.line_size.bit_length() - 1
        self._set_mask = params.num_sets - 1
        if params.num_sets & self._set_mask:
            raise ValueError(f"{params.name}: set count must be a power of two")
        #: set index -> ways, materialised on first touch: a run visits
        #: a few hundred of the (tens of thousands of) sets, and a set
        #: nobody has touched is all ``tag=None, lru=0`` by definition.
        self._sets: Dict[int, List[_Way]] = {}
        self._clock = 0  #: monotonically increasing LRU stamp
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def line_address(self, address: int) -> int:
        """The line-aligned address containing *address*."""
        return address & ~(self.params.line_size - 1)

    def _locate(self, line_addr: int) -> Tuple[List[_Way], int]:
        tag = line_addr >> self._line_shift
        index = tag & self._set_mask
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [
                _Way() for _ in range(self.params.associativity)]
        return ways, tag

    # ------------------------------------------------------------------

    def probe(self, address: int, update_lru: bool = True) -> bool:
        """Return hit/miss; on hit optionally refresh LRU. Counts stats."""
        ways, tag = self._locate(self.line_address(address))
        for way in ways:
            if way.tag == tag:
                if update_lru:
                    self._clock += 1
                    way.lru = self._clock
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe_line(self, line_addr: int,
                   update_lru: bool = True) -> Optional[_Way]:
        """:meth:`probe` for an already line-aligned address, returning
        the hit :class:`_Way` (or None on miss) so callers can remember
        it. Statistics and LRU behave exactly like :meth:`probe`."""
        ways, tag = self._locate(line_addr)
        for way in ways:
            if way.tag == tag:
                if update_lru:
                    self._clock += 1
                    way.lru = self._clock
                self.hits += 1
                return way
        self.misses += 1
        return None

    def contains(self, address: int) -> bool:
        """Hit/miss check without touching LRU or statistics."""
        ways, tag = self._locate(self.line_address(address))
        return any(way.tag == tag for way in ways)

    def fill(self, address: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert the line containing *address*.

        Returns ``(evicted_line_address, was_dirty)`` when a valid line
        was displaced, else None. Filling a line already present just
        refreshes its LRU (and ORs in the dirty bit).
        """
        line_addr = self.line_address(address)
        ways, tag = self._locate(line_addr)
        self._clock += 1
        for way in ways:
            if way.tag == tag:
                way.lru = self._clock
                way.dirty = way.dirty or dirty
                return None
        victim = min(ways, key=lambda w: w.lru)
        evicted = None
        if victim.tag is not None:
            evicted_addr = (
                victim.tag << self._line_shift
            )
            evicted = (evicted_addr, victim.dirty)
            self.evictions += 1
        victim.tag = tag
        victim.dirty = dirty
        victim.lru = self._clock
        return evicted

    def set_dirty(self, address: int) -> None:
        """Mark the (present) line containing *address* dirty."""
        ways, tag = self._locate(self.line_address(address))
        for way in ways:
            if way.tag == tag:
                way.dirty = True
                return

    def invalidate(self, address: int) -> bool:
        """Drop the line containing *address*; True if it was present."""
        ways, tag = self._locate(self.line_address(address))
        for way in ways:
            if way.tag == tag:
                way.tag = None
                way.dirty = False
                way.lru = 0
                return True
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
