"""The non-blocking cache and memory simulator.

Reproduces the interface FastSim's μ-architecture simulator uses
(paper §4.1):

* :meth:`MemorySystem.issue_load` is called when a load is chosen from
  the address queue. It immediately returns the **shortest interval**
  (in cycles) before the data *could* become available — optimistically
  assuming an L2 hit when the load misses in L1.
* After waiting that interval the μ-architecture calls
  :meth:`MemorySystem.poll_load`, which either reports the data ready
  (returns 0) or returns a new interval to wait (e.g. the load also
  missed in L2) — "a common example is a load that first misses in the
  L1 cache (usually a 6 cycle delay), then misses in the L2 cache
  resulting in an additional delay depending on the current state of
  the cache".
* :meth:`MemorySystem.issue_store` returns the interval until the store
  is accepted by the store buffer (usually 1 cycle); the write-through
  L1 traffic, L2 write allocation, and writebacks proceed in the
  background and surface only as contention.

No program data moves through this simulator — it computes *when*, not
*what* (the frontend already computed the values). Tag-array updates
happen eagerly at issue time with in-flight lines guarded by MSHR
completion times, a standard simplification that keeps behaviour a
deterministic function of the request sequence — the property
memoization relies on.

On the path a warm run takes each port method is a **leaf** — it makes
no Python-level call. A filter-hit load stamps the remembered way
itself; a store that finds a free slot, no L2 fill in flight and its
line in L2 walks both sets, reserves the bus and keeps the slot bounds
in place, on the ``TagArray`` / ``Bus`` / ``MSHRFile`` objects' own
fields. Their methods remain the specification: miss, merge, fill and
write-back paths call them, and ``tests/cache/test_flat_ports.py``
drives a port assembled from them alone in lockstep with this one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.bus import Bus
from repro.cache.mshr import MSHRFile
from repro.cache.params import MemorySystemParams
from repro.cache.sets import TagArray
from repro.errors import SimulationError

#: :meth:`MemorySystem.poll_load` return value meaning "data available".
READY = 0

#: Entries in the DEW-style direct-mapped L1 load filter. Must be a
#: power of two; sized so the filter itself stays resident in the host
#: CPU's cache while covering far more lines than a hot loop touches.
FILTER_SIZE = 256


class CacheStats:
    """Aggregated counters, identical between detailed and replay runs."""

    __slots__ = (
        "loads", "stores", "l1_load_hits", "l1_load_misses",
        "l1_store_hits", "l1_store_misses", "l2_hits", "l2_misses",
        "writebacks", "store_buffer_stalls",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CacheStats({fields})"


class MemorySystem:
    """Non-blocking L1 + L2 + bus + DRAM timing model."""

    def __init__(self, params: Optional[MemorySystemParams] = None,
                 l1_filter: bool = True):
        self.params = params if params is not None else MemorySystemParams()
        self.l1 = TagArray(self.params.l1)
        self.l2 = TagArray(self.params.l2)
        self.l1_mshrs = MSHRFile(self.params.l1.mshrs)
        self.l2_mshrs = MSHRFile(self.params.l2.mshrs)
        self.bus = Bus(self.params.bus_width)
        self.stats = CacheStats()
        #: Outstanding loads: caller's key (the world's absolute lQ
        #: index, the baseline's own counter) -> cycle the data is ready.
        self._ready: Dict[int, int] = {}
        self._l1_line_mask = ~(self.params.l1.line_size - 1)
        self._l2_line_mask = ~(self.params.l2.line_size - 1)
        self._l1_line_shift = self.params.l1.line_size.bit_length() - 1
        self._hit_latency = self.params.l1_hit_latency
        self._hit_interval = max(1, self._hit_latency)
        #: Completion times of stores occupying store-buffer slots, and
        #: their min / max while there are any (see ``issue_store``).
        self._store_slots: List[int] = []
        self._slot_first = self._slot_last = 0
        self._bus_width = self.params.bus_width
        #: DEW-style direct-mapped load filter: ``slot -> (line, way)``
        #: short-circuiting repeated same-line L1 load hits before the
        #: full MSHR + set lookup. Invariant: an entry exists only for a
        #: line currently valid in the L1 tags with no in-flight L1 MSHR
        #: newer than the insert — inserts happen only on the probe-hit
        #: path (which the in-flight check precedes), and every L1
        #: eviction/invalidation clears the matching entry. The filter
        #: is a host-side accelerator: hit/miss statistics, LRU motion,
        #: and returned intervals are byte-identical with it off.
        self._filter_enabled = bool(l1_filter)
        self._filter_mask = FILTER_SIZE - 1
        self._filter: List[Optional[tuple]] = [None] * FILTER_SIZE
        self.filter_hits = 0
        self.filter_misses = 0
        self.filter_invalidations = 0

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def issue_load(self, key: int, address: int, now: int) -> int:
        """Begin the load the caller names *key*; returns the shortest
        number of cycles before the data could be available. The caller
        polls the same key after waiting it; the key stays outstanding
        until a poll reports :data:`READY` or it is cancelled."""
        stats = self.stats
        stats.loads += 1
        line = address & self._l1_line_mask

        slot = -1
        if self._filter_enabled:
            slot = (line >> self._l1_line_shift) & self._filter_mask
            entry = self._filter[slot]
            if entry is not None and entry[0] == line:
                # Filtered hit: the line is proven present with no
                # in-flight fill, so replay the probe-hit bookkeeping
                # without touching MSHRs or walking the set. Deferring
                # release_completed is unobservable — every other MSHR
                # reader releases first (at a time >= now).
                self.filter_hits += 1
                stats.l1_load_hits += 1
                l1 = self.l1
                l1._clock = clock = l1._clock + 1
                entry[1].lru = clock
                l1.hits += 1
                self._ready[key] = now + self._hit_latency
                return self._hit_interval
            self.filter_misses += 1

        self.l1_mshrs.release_completed(now)
        self.l2_mshrs.release_completed(now)

        inflight = self.l1_mshrs.lookup(line)
        if inflight is not None and inflight > now:
            # The line is already being fetched: merge with that fill.
            stats.l1_load_misses += 1
            self._ready[key] = completion = self.l1_mshrs.merge(line)
            return max(1, completion - now)

        way = self.l1.probe_line(line)
        if way is not None:
            stats.l1_load_hits += 1
            if slot >= 0:
                self._filter[slot] = (line, way)
            self._ready[key] = now + self._hit_latency
            return self._hit_interval

        # L1 miss: wait for a free MSHR if necessary, then access L2.
        stats.l1_load_misses += 1
        start = self.l1_mshrs.next_slot_time(now)
        self._ready[key] = ready = self._fetch_line_from_l2(line, start)
        self.l1_mshrs.allocate(line, ready)
        self._fill_l1(line)
        # First reply is optimistic: it assumes the L2 will hit. The
        # poll after this interval discovers any additional delay.
        optimistic = min(ready, start + self.params.l2_hit_latency)
        return max(1, optimistic - now)

    def poll_load(self, key: int, now: int) -> int:
        """Check a load previously issued.

        Returns :data:`READY` (0) when the data is available, else the
        number of further cycles to wait.
        """
        try:
            ready = self._ready[key]
        except KeyError:
            raise SimulationError(
                f"poll for load {key} which was never issued"
            ) from None
        if now >= ready:
            del self._ready[key]
            return READY
        return ready - now

    def reset_timing(self) -> None:
        """Forget in-flight timing state; keep cache contents and stats.

        Sampled simulation restarts simulated time at each measurement
        window; pending fills, store-buffer slots, and bus reservations
        from the previous window's clock domain must not leak in — nor
        outstanding load keys: each window's fresh world restarts its
        lQ indices at 0, so a stale key would alias a new load."""
        self._ready.clear()
        self._store_slots.clear()
        self._slot_first = self._slot_last = 0
        self.l1_mshrs.clear()
        self.l2_mshrs.clear()
        self.bus.reset()

    def warm_access(self, address: int, is_store: bool = False) -> None:
        """Functionally warm the tag arrays (no timing, MSHRs, bus, or
        hit/miss statistics).

        Used by sampled simulation between measurement windows so cache
        state tracks the skipped instruction stream — the standard cure
        for sampling's "state loss between sample clusters". ``fill``
        refreshes LRU when the line is already present.
        """
        line = self.l1.line_address(address)
        if not is_store or self.l1.contains(line):
            # Write-through L1 does not allocate on store misses.
            displaced = self.l1.fill(line)
            if displaced is not None:
                self._filter_invalidate(displaced[0])
        evicted = self.l2.fill(self.l2.line_address(address),
                               dirty=is_store)
        if evicted is not None:
            self.l1.invalidate(evicted[0])
            self._filter_invalidate(evicted[0])

    def cancel_load(self, key: int) -> None:
        """Forget an issued load (squashed wrong-path instruction).

        The line fill it triggered still completes — as in hardware —
        only the reply bookkeeping is dropped.
        """
        self._ready.pop(key, None)

    def cancel_loads_from(self, first_key: int) -> None:
        """:meth:`cancel_load` every outstanding key >= *first_key*
        (keys ordered like the lQ: a rollback squashes its tail)."""
        ready = self._ready
        if ready:
            for key in [key for key in ready if key >= first_key]:
                del ready[key]

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def issue_store(self, address: int, width: int, now: int) -> int:
        """Begin a store. Returns the interval until it is accepted:
        the store then owns a store-buffer slot and the pipeline treats
        it as complete; the write-through traffic drains in the
        background."""
        stats = self.stats
        stats.stores += 1
        # Earliest cycle a store-buffer slot is free. ``_slot_first`` /
        # ``_slot_last`` are the min / max of a non-empty ``slots``, so
        # the common cases (every slot expired, none expired) never
        # walk it; only a partial expiry filters, and refreshes the min.
        slots = self._store_slots
        start = now
        if slots:
            if self._slot_last <= now:
                slots.clear()
            else:
                if self._slot_first <= now:
                    slots[:] = [t for t in slots if t > now]
                    self._slot_first = min(slots)
                if len(slots) >= self.params.store_buffer:
                    stats.store_buffer_stalls += 1
                    start = self._slot_first

        # Write-through, no-write-allocate L1: ``probe_line`` in place.
        l1 = self.l1
        tag = address >> self._l1_line_shift
        ways = l1._sets.get(tag & l1._set_mask)
        if ways is None:
            ways = l1._locate(address & self._l1_line_mask)[0]
        for way in ways:
            if way.tag == tag:
                l1._clock = clock = l1._clock + 1
                way.lru = clock
                l1.hits += 1
                stats.l1_store_hits += 1
                break
        else:
            l1.misses += 1
            stats.l1_store_misses += 1

        # The word travels to L2 over the bus: ``Bus.reserve`` in place.
        bus = self.bus
        transfer_done = bus._next_free
        if transfer_done < start:
            transfer_done = start
        beats = 1 if width <= self._bus_width else bus.cycles_for(width)
        bus._next_free = transfer_done = transfer_done + beats
        bus.busy_cycles += beats
        bus.transfers += 1

        line = address & self._l2_line_mask
        l2_mshrs = self.l2_mshrs
        inflight = None
        if l2_mshrs._inflight:
            l2_mshrs.release_completed(now)
            inflight = l2_mshrs.lookup(line)
        if inflight is not None and inflight > now:
            completion = max(l2_mshrs.merge(line), transfer_done)
            self.l2.set_dirty(line)
        else:
            l2 = self.l2
            tag = address >> l2._line_shift
            ways = l2._sets.get(tag & l2._set_mask)
            if ways is None:
                ways = l2._locate(line)[0]
            for way in ways:
                if way.tag == tag:
                    l2._clock = clock = l2._clock + 1
                    way.lru = clock
                    l2.hits += 1
                    stats.l2_hits += 1
                    way.dirty = True
                    completion = transfer_done
                    break
            else:
                # Write-allocate into the write-back L2: fetch the line
                # from memory, then merge the store's bytes.
                l2.misses += 1
                stats.l2_misses += 1
                completion = self._fetch_line_from_memory(line,
                                                          transfer_done)
                self._fill_l2(line, dirty=True)
                if not l2_mshrs.full:
                    l2_mshrs.allocate(line, completion)

        if not slots:
            self._slot_first = self._slot_last = completion
        elif completion < self._slot_first:
            self._slot_first = completion
        elif completion > self._slot_last:
            self._slot_last = completion
        slots.append(completion)
        return start - now + 1

    # ------------------------------------------------------------------
    # Line movement
    # ------------------------------------------------------------------

    def _fetch_line_from_l2(self, line: int, start: int) -> int:
        """Schedule an L1 fill from L2; returns the cycle it is ready."""
        params = self.params
        self.l2_mshrs.release_completed(start)
        inflight = self.l2_mshrs.lookup(line)
        if inflight is not None and inflight > start:
            # L2 is already fetching this line from memory.
            return self.bus.reserve(self.l2_mshrs.merge(line),
                                    params.l1.line_size)
        if self.l2.probe(line):
            self.stats.l2_hits += 1
            # L2 access pipeline, then the line crosses the bus.
            access_done = start + params.l2_hit_latency - self.bus.cycles_for(
                params.l1.line_size
            )
            ready = self.bus.reserve(max(start, access_done),
                                     params.l1.line_size)
            return max(ready, start + params.l2_hit_latency)
        self.stats.l2_misses += 1
        mem_start = self.l2_mshrs.next_slot_time(start)
        fill_done = self._fetch_line_from_memory(line, mem_start)
        self._fill_l2(line, dirty=False)
        self.l2_mshrs.allocate(line, fill_done)
        return self.bus.reserve(fill_done, params.l1.line_size)

    def _fetch_line_from_memory(self, line: int, start: int) -> int:
        """Schedule a DRAM access for *line*; returns the fill cycle."""
        params = self.params
        request_done = self.bus.reserve(start, params.bus_width)
        return request_done + params.memory_latency

    def _fill_l1(self, line: int) -> None:
        """Insert *line* into L1 (write-through: evictions are silent —
        but the load filter must forget the displaced line)."""
        evicted = self.l1.fill(line)
        if evicted is not None:
            self._filter_invalidate(evicted[0])

    def _fill_l2(self, line: int, dirty: bool) -> None:
        """Insert *line* into L2, scheduling a writeback if needed."""
        evicted = self.l2.fill(line, dirty=dirty)
        if evicted is not None and evicted[1]:
            self.stats.writebacks += 1
            self.bus.reserve(self.bus.next_free(), self.params.l2.line_size)
            # Inclusive-enough behaviour: drop the line from L1 as well so
            # both levels stay consistent about what is cached.
            self.l1.invalidate(evicted[0])
            self._filter_invalidate(evicted[0])

    def _filter_invalidate(self, line: int) -> None:
        """Exact invalidation: clear the filter slot iff it names *line*."""
        slot = (line >> self._l1_line_shift) & self._filter_mask
        entry = self._filter[slot]
        if entry is not None and entry[0] == line:
            self._filter[slot] = None
            self.filter_invalidations += 1

    def filter_stats(self) -> Dict[str, int]:
        """Host-side filter effectiveness counters (never canonical)."""
        return {
            "hits": self.filter_hits,
            "misses": self.filter_misses,
            "invalidations": self.filter_invalidations,
        }

    # ------------------------------------------------------------------

    @property
    def outstanding_loads(self) -> int:
        return len(self._ready)
