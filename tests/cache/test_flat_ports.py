"""Lockstep oracle for the flat cache ports.

On its common path a ``MemorySystem`` port is a leaf: ``issue_store``
walks the L1 and L2 sets, reserves the bus and keeps the store-buffer
bounds in place instead of calling ``TagArray.probe_line``,
``Bus.reserve`` and a slot-list rebuild (``repro.cache.hierarchy``).
The helpers stay public; :class:`ReferencePort` is the port assembled
from them and nothing else — with a literal copy of the slot-list
function the flat port replaced — and is driven beside the real one.
After **every** call both must agree on the reply and on all model
state. Three seeded mutations of the flat store show the comparison
bites within the fuzz budget.
"""

import inspect
import random
import textwrap

import pytest

from repro.cache.bus import Bus
from repro.cache.hierarchy import READY, CacheStats, MemorySystem
from repro.cache.mshr import MSHRFile
from repro.cache.params import CacheLevelParams, MemorySystemParams
from repro.cache.sets import TagArray
from repro.errors import SimulationError
from repro.workloads.suite import load_workload
from tests.cache.test_filter_inclusion import request_stream


class ReferencePort:
    """The timing model written against the public helpers only."""

    def __init__(self, params):
        self.params = params
        self.l1 = TagArray(params.l1)
        self.l2 = TagArray(params.l2)
        self.l1_mshrs = MSHRFile(params.l1.mshrs)
        self.l2_mshrs = MSHRFile(params.l2.mshrs)
        self.bus = Bus(params.bus_width)
        self.stats = CacheStats()
        self._ready = {}
        self._store_slots = []

    # -- loads -----------------------------------------------------------

    def issue_load(self, key, address, now):
        stats = self.stats
        stats.loads += 1
        line = self.l1.line_address(address)
        self.l1_mshrs.release_completed(now)
        self.l2_mshrs.release_completed(now)
        inflight = self.l1_mshrs.lookup(line)
        if inflight is not None and inflight > now:
            stats.l1_load_misses += 1
            self._ready[key] = completion = self.l1_mshrs.merge(line)
            return max(1, completion - now)
        if self.l1.probe_line(line) is not None:
            stats.l1_load_hits += 1
            self._ready[key] = now + self.params.l1_hit_latency
            return max(1, self.params.l1_hit_latency)
        stats.l1_load_misses += 1
        start = self.l1_mshrs.next_slot_time(now)
        self._ready[key] = ready = self._fetch_line_from_l2(line, start)
        self.l1_mshrs.allocate(line, ready)
        self.l1.fill(line)
        optimistic = min(ready, start + self.params.l2_hit_latency)
        return max(1, optimistic - now)

    def poll_load(self, key, now):
        if key not in self._ready:
            raise SimulationError(f"poll for load {key} never issued")
        if now >= self._ready[key]:
            del self._ready[key]
            return READY
        return self._ready[key] - now

    def cancel_loads_from(self, first_key):
        for key in [key for key in self._ready if key >= first_key]:
            del self._ready[key]

    def reset_timing(self):
        self._ready.clear()
        self._store_slots.clear()
        self.l1_mshrs.clear()
        self.l2_mshrs.clear()
        self.bus.reset()

    # -- stores ----------------------------------------------------------

    def issue_store(self, address, width, now):
        stats = self.stats
        stats.stores += 1
        start = self._store_slot_time(now)
        if self.l1.probe_line(self.l1.line_address(address)) is not None:
            stats.l1_store_hits += 1
        else:
            stats.l1_store_misses += 1
        transfer_done = self.bus.reserve(start, width)
        line = self.l2.line_address(address)
        l2_mshrs = self.l2_mshrs
        inflight = None
        if len(l2_mshrs):
            l2_mshrs.release_completed(now)
            inflight = l2_mshrs.lookup(line)
        if inflight is not None and inflight > now:
            completion = max(l2_mshrs.merge(line), transfer_done)
            self.l2.set_dirty(line)
        else:
            way = self.l2.probe_line(line)
            if way is not None:
                stats.l2_hits += 1
                way.dirty = True
                completion = transfer_done
            else:
                stats.l2_misses += 1
                completion = self._fetch_line_from_memory(line,
                                                          transfer_done)
                self._fill_l2(line, dirty=True)
                if not l2_mshrs.full:
                    l2_mshrs.allocate(line, completion)
        self._store_slots.append(completion)
        return max(1, start - now + 1)

    def _store_slot_time(self, now):
        """Literal copy of the function the flat port replaced."""
        slots = self._store_slots
        if slots:
            self._store_slots = slots = [t for t in slots if t > now]
        if len(slots) < self.params.store_buffer:
            return now
        self.stats.store_buffer_stalls += 1
        return min(slots)

    # -- line movement ---------------------------------------------------

    def _fetch_line_from_l2(self, line, start):
        params = self.params
        self.l2_mshrs.release_completed(start)
        inflight = self.l2_mshrs.lookup(line)
        if inflight is not None and inflight > start:
            return self.bus.reserve(self.l2_mshrs.merge(line),
                                    params.l1.line_size)
        if self.l2.probe(line):
            self.stats.l2_hits += 1
            access_done = (start + params.l2_hit_latency
                           - self.bus.cycles_for(params.l1.line_size))
            ready = self.bus.reserve(max(start, access_done),
                                     params.l1.line_size)
            return max(ready, start + params.l2_hit_latency)
        self.stats.l2_misses += 1
        mem_start = self.l2_mshrs.next_slot_time(start)
        fill_done = self._fetch_line_from_memory(line, mem_start)
        self._fill_l2(line, dirty=False)
        self.l2_mshrs.allocate(line, fill_done)
        return self.bus.reserve(fill_done, params.l1.line_size)

    def _fetch_line_from_memory(self, line, start):
        return (self.bus.reserve(start, self.params.bus_width)
                + self.params.memory_latency)

    def _fill_l2(self, line, dirty):
        evicted = self.l2.fill(line, dirty=dirty)
        if evicted is not None and evicted[1]:
            self.stats.writebacks += 1
            self.bus.reserve(self.bus.next_free(),
                             self.params.l2.line_size)
            self.l1.invalidate(evicted[0])


def tag_state(tags):
    """Counters, LRU clock and ``(tag, lru, dirty)`` per way of every
    set that holds anything (a set nobody filled may or may not be
    materialised: both mean all-empty)."""
    return (tags.hits, tags.misses, tags.evictions, tags._clock, {
        index: [(way.tag, way.lru, way.dirty) for way in ways]
        for index, ways in tags._sets.items()
        if any(way.tag is not None for way in ways)})


def model_state(port, now):
    """Everything the model keeps. A fill that completed by *now* is
    dropped from the MSHR tables: the filter-hit path skips the release
    the reference does on every load, and every reader of a table
    releases up to its own ``now`` first."""
    return {
        "stats": port.stats.as_dict(),
        "l1": tag_state(port.l1),
        "l2": tag_state(port.l2),
        "bus": (port.bus._next_free, port.bus.busy_cycles,
                port.bus.transfers),
        "mshrs": [({line: when for line, when in file._inflight.items()
                    if when > now},
                   file.allocations, file.merges, file.full_stalls)
                  for file in (port.l1_mshrs, port.l2_mshrs)],
        "slots": sorted(port._store_slots),
        "ready": dict(port._ready),
    }


#: Port methods whose last argument is the current cycle.
TIMED = ("issue_load", "poll_load", "issue_store")


def lockstep(stream, params, l1_filter=True, port_cls=MemorySystem,
             bounds=True):
    """Drive *stream* into the flat port and the reference; compare
    after every call (and, with *bounds*, hold the flat port to its
    own store-slot invariant). Returns the flat port."""
    flat = port_cls(params, l1_filter=l1_filter)
    reference = ReferencePort(params)
    now = 0
    for index, (method, *args) in enumerate(stream):
        where = (index, method, args)
        now = args[-1] if method in TIMED else now
        assert (getattr(flat, method)(*args)
                == getattr(reference, method)(*args)), where
        assert model_state(flat, now) == model_state(reference, now), where
        slots = flat._store_slots
        if bounds and slots:  # what the common store path rests on
            assert (flat._slot_first, flat._slot_last) == (
                min(slots), max(slots)), where
    return flat


# -- (a) streams real runs make ------------------------------------------

@pytest.mark.parametrize("l1_filter", [True, False], ids=["filter", "plain"])
@pytest.mark.parametrize("name",
                         ["compress", "li", "mgrid", "perl", "tomcatv"])
def test_suite_stream_in_lockstep(name, l1_filter):
    stream = request_stream(load_workload(name, "tiny"))
    flat = lockstep(stream, MemorySystemParams(), l1_filter)
    assert flat.stats.stores > 0 and flat.stats.l1_load_hits > 0
    assert (flat.filter_hits > 0) == l1_filter


# -- (b) seeded random streams over hostile geometries -------------------

def geometry(l1_size=256, l1_assoc=2, line=32, mshrs=8, store_buffer=8,
             l2_size=1024, l2_assoc=2):
    return MemorySystemParams(
        l1=CacheLevelParams("L1", l1_size, l1_assoc, line, mshrs),
        l2=CacheLevelParams("L2", l2_size, l2_assoc, line, mshrs,
                            write_back=True),
        store_buffer=store_buffer)


GEOMETRIES = {
    "table1": MemorySystemParams(),
    "small": geometry(),
    "direct-mapped": geometry(l1_assoc=1, l2_assoc=1),
    "one-set-l1": geometry(l1_size=64, l1_assoc=2),
    "store-buffer-1": geometry(store_buffer=1),
    "store-buffer-2": geometry(store_buffer=2),
    "mshrs-1": geometry(mshrs=1),
    "8-byte-lines": geometry(l1_size=64, line=8, l2_size=128),
}


def random_stream(seed, params, length=400):
    """A legal request stream that leans on what the flat paths
    shortcut: few lines (set conflicts, evictions, write-backs), store
    bursts in one cycle (eight and more in flight), stores wider than
    the bus, time that sometimes stands still and sometimes jumps past
    every completion, ``reset_timing`` and ``cancel_loads_from``."""
    rng = random.Random(seed)
    line = params.l1.line_size
    lines = [rng.randrange(1 << 12) * line for _ in range(12)]
    stream, outstanding, key, now = [], [], 0, 0
    while len(stream) < length:
        now += rng.choice((0, 0, 1, 1, 2, 5, 40, 200))
        roll = rng.random()
        address = rng.choice(lines) + rng.randrange(line)
        if roll < 0.30:
            stream.append(("issue_load", key, address, now))
            outstanding.append(key)
            key += 1
        elif roll < 0.50 and outstanding:
            polled = rng.choice(outstanding)
            stream.append(("poll_load", polled, now))
            if rng.random() < 0.5:  # whether it was ready or not
                now += 60
                stream.append(("poll_load", polled, now))
        elif roll < 0.90:
            for _ in range(rng.choice((1, 1, 1, 2, 9))):
                width = rng.choice((1, 2, 4, 8, 8, 16, 32))
                stream.append(("issue_store",
                               rng.choice(lines) + rng.randrange(line),
                               width, now))
        elif roll < 0.97:
            first = rng.randrange(key + 1)
            stream.append(("cancel_loads_from", first))
            outstanding = [k for k in outstanding if k < first]
        else:
            stream.append(("reset_timing",))
            outstanding, now = [], 0
    return stream


def legal(stream, params):
    """Drop polls of keys no longer outstanding (a READY poll retires
    its key; which polls return READY is the model's business)."""
    probe, kept = ReferencePort(params), []
    for request in stream:
        if request[0] == "poll_load" and request[1] not in probe._ready:
            continue
        getattr(probe, request[0])(*request[1:])
        kept.append(request)
    return kept


@pytest.mark.parametrize("l1_filter", [True, False], ids=["filter", "plain"])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_random_streams_in_lockstep(name, l1_filter):
    params = GEOMETRIES[name]
    seen = CacheStats()
    for seed in range(6):
        stream = random_stream(seed, params)
        flat = lockstep(legal(stream, params), params, l1_filter)
        for field in CacheStats.__slots__:
            setattr(seen, field,
                    getattr(seen, field) + getattr(flat.stats, field))
    # The budget reaches every path the flat store has.
    assert seen.l1_store_hits and seen.l1_store_misses
    assert seen.l2_hits and seen.l2_misses and seen.store_buffer_stalls
    assert seen.writebacks or params is GEOMETRIES["table1"]  # 1 MB L2


# -- the comparison bites -------------------------------------------------

def mutated_store(old, new):
    """A ``MemorySystem`` whose ``issue_store`` has one line changed."""
    source = inspect.getsource(MemorySystem.issue_store)
    assert source.count(old) >= 1, old
    namespace = {}
    exec(textwrap.dedent(source.replace(old, new, 1)),
         vars(inspect.getmodule(MemorySystem)), namespace)
    return type("Mutant", (MemorySystem,),
                {"issue_store": namespace["issue_store"]})


MUTATIONS = {
    # The first ``way.lru`` stamp of the store is the L1 hit's.
    "no-l1-lru-stamp-on-store-hit": ("way.lru = clock", "pass"),
    "stale-slot-minimum-after-rebuild": (
        "self._slot_first = min(slots)", "pass"),
    "bus-reserved-from-now": (
        "if transfer_done < start:\n            transfer_done = start",
        "if transfer_done < now:\n            transfer_done = now"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutant_fails_within_the_fuzz_budget(name):
    mutant = mutated_store(*MUTATIONS[name])
    failures = 0
    for geometry_name in sorted(GEOMETRIES):
        params = GEOMETRIES[geometry_name]
        for seed in range(6):
            stream = legal(random_stream(seed, params), params)
            try:
                lockstep(stream, params, port_cls=mutant, bounds=False)
            except AssertionError:
                failures += 1
    assert failures > 0
