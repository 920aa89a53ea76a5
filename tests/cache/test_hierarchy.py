"""Tests for the non-blocking memory system (keyed issue/poll port).

The caller names each load with a key of its own choosing and gets the
interval back; the port keeps one ``key -> ready cycle`` table.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import READY, MemorySystem
from repro.cache.mshr import MSHRFile
from repro.cache.params import CacheLevelParams, MemorySystemParams
from repro.errors import SimulationError


def tiny_params(**overrides):
    """A small hierarchy so tests can exercise conflict/capacity misses."""
    defaults = dict(
        l1=CacheLevelParams("L1", size_bytes=512, associativity=2,
                            line_size=32),
        l2=CacheLevelParams("L2", size_bytes=4096, associativity=2,
                            line_size=32, write_back=True),
    )
    defaults.update(overrides)
    return MemorySystemParams(**defaults)


_keys = itertools.count(1000)


def complete_load(mem, address, now):
    """Issue a load and poll to completion; returns the ready cycle."""
    key = next(_keys)
    return next_ready(mem, key, now + mem.issue_load(key, address, now))


class TestLoadLatencies:
    def test_l1_hit_latency(self):
        mem = MemorySystem()
        complete_load(mem, 0x1000, 0)       # warm the line
        t0 = 100
        ready = complete_load(mem, 0x1000, t0)
        assert ready - t0 == mem.params.l1_hit_latency

    def test_l1_miss_l2_hit_latency(self):
        mem = MemorySystem()
        complete_load(mem, 0x1000, 0)       # line now in L1 and L2
        mem.l1.invalidate(0x1000)           # force an L1 miss, L2 hit
        t0 = 100
        ready = complete_load(mem, 0x1000, t0)
        assert ready - t0 == mem.params.l2_hit_latency  # the famous 6

    def test_cold_miss_goes_to_memory(self):
        mem = MemorySystem()
        t0 = 0
        ready = complete_load(mem, 0x1000, t0)
        assert ready - t0 > mem.params.memory_latency

    def test_cold_miss_two_phase_reveal(self):
        """First reply is the optimistic L2-hit interval; the poll then
        reveals the extra memory latency (paper §4.1's example)."""
        mem = MemorySystem()
        interval = mem.issue_load(7, 0x1000, 0)
        assert interval == mem.params.l2_hit_latency
        second = mem.poll_load(7, interval)
        assert second > 0  # not ready yet: it also missed in L2
        assert mem.poll_load(7, interval + second) == READY
        assert mem.outstanding_loads == 0

    def test_interval_always_positive(self):
        mem = MemorySystem()
        for i in range(50):
            assert mem.issue_load(i, 0x2000 + i * 4, i * 3) >= 1


class TestMshrBehaviour:
    def test_merge_into_inflight_fill(self):
        mem = MemorySystem()
        mem.issue_load(0, 0x1000, 0)
        mem.issue_load(1, 0x1004, 1)  # same line
        assert mem.l1_mshrs.merges == 1
        # Both become ready at the same fill time.
        assert next_ready(mem, 0, 0) == next_ready(mem, 1, 1)

    def test_mshr_capacity_stalls(self):
        params = tiny_params()
        mem = MemorySystem(params)
        # 8 misses to distinct lines fill the MSHRs.
        for i in range(8):
            mem.issue_load(i, 0x10000 + i * 32, 0)
        mem.issue_load(8, 0x20000, 0)
        assert mem.l1_mshrs.full_stalls >= 1
        # The 9th miss cannot be ready before the first fill returns.
        first_fill = min(next_ready(mem, i, 0) for i in range(8))
        assert next_ready(mem, 8, 0) > first_fill - 1

    def test_distinct_lines_overlap(self):
        """Non-blocking: two misses to different lines overlap in time."""
        mem = MemorySystem()
        t_serial_estimate = 2 * (mem.params.memory_latency + 10)
        mem.issue_load(0, 0x1000, 0)
        mem.issue_load(1, 0x2000, 1)
        ready_b = next_ready(mem, 1, 1)
        assert ready_b < t_serial_estimate  # overlapped, not serialised


def next_ready(mem, key, now):
    """Poll *key* from cycle *now* until ready; returns that cycle."""
    t = now
    for _ in range(64):
        reply = mem.poll_load(key, t)
        if reply == READY:
            return t
        t += reply
    raise AssertionError("load never completed")


class TestStores:
    def test_store_accepted_quickly(self):
        mem = MemorySystem()
        assert mem.issue_store(0x1000, 4, 0) == 1

    def test_store_buffer_backpressure(self):
        params = tiny_params(store_buffer=2)
        mem = MemorySystem(params)
        # Two slow stores (L2 misses) occupy both slots...
        mem.issue_store(0x10000, 4, 0)
        mem.issue_store(0x20000, 4, 0)
        # ...so the third is delayed until a slot frees.
        delay = mem.issue_store(0x30000, 4, 0)
        assert delay > 1
        assert mem.stats.store_buffer_stalls == 1

    def test_write_through_keeps_l2_dirty(self):
        mem = MemorySystem()
        mem.issue_store(0x1000, 4, 0)
        # The store allocated the line in L2 and marked it dirty; evicting
        # it later must produce a writeback. Force eviction via fills.
        line = mem.l2.line_address(0x1000)
        stride = mem.params.l2.line_size * mem.params.l2.num_sets
        victims = 0
        while mem.l2.contains(line):
            victims += 1
            mem._fill_l2(line + victims * stride, dirty=False)  # same set
            assert victims < 10
        assert mem.stats.writebacks >= 1

    def test_store_hit_after_load(self):
        mem = MemorySystem()
        complete_load(mem, 0x1000, 0)
        mem.issue_store(0x1000, 4, 100)
        assert mem.stats.l1_store_hits == 1


class TestStatsAndDeterminism:
    def test_stats_accumulate(self):
        mem = MemorySystem()
        complete_load(mem, 0x1000, 0)
        complete_load(mem, 0x1000, 50)
        mem.issue_store(0x1000, 4, 60)
        stats = mem.stats
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.l1_load_hits == 1
        assert stats.l1_load_misses == 1

    def test_identical_request_sequences_identical_timing(self):
        """Determinism: the same request trace gives the same replies."""
        def trace(mem):
            replies = []
            now = 0
            for i in range(40):
                address = 0x1000 + (i % 7) * 32 + (i % 3) * 4096
                if i % 4 == 3:
                    replies.append(mem.issue_store(address, 4, now))
                    now += 2
                else:
                    replies.append(complete_load(mem, address, now))
                    now += 5
            return replies

        assert trace(MemorySystem()) == trace(MemorySystem())

    def test_unknown_token_raises(self):
        """Polling a key that is not outstanding is the caller's bug;
        the message names the load (it used to come from World)."""
        with pytest.raises(
                SimulationError,
                match="poll for load 99 which was never issued"):
            MemorySystem().poll_load(99, 0)


class TestKeyedPort:
    def test_ready_poll_retires_the_key(self):
        mem = MemorySystem()
        complete_load(mem, 0x1000, 0)
        interval = mem.issue_load(5, 0x1000, 100)
        assert mem.outstanding_loads == 1
        assert mem.poll_load(5, 100 + interval) == READY
        assert mem.outstanding_loads == 0
        with pytest.raises(SimulationError, match="load 5 "):
            mem.poll_load(5, 200)

    def test_early_poll_keeps_the_key(self):
        mem = MemorySystem()
        mem.issue_load(5, 0x1000, 0)
        assert mem.poll_load(5, 1) > 0
        assert mem.outstanding_loads == 1

    def test_key_reuse_after_cancel(self):
        """A rollback frees lQ indices the right path issues again: the
        new load's timing must not inherit the cancelled one's."""
        mem = MemorySystem()
        mem.issue_load(3, 0x1000, 0)       # cold miss, far-away ready
        mem.cancel_load(3)
        assert mem.outstanding_loads == 0
        with pytest.raises(SimulationError):
            mem.poll_load(3, 10_000)
        complete_load(mem, 0x8000, 500)    # some other line, now hot
        assert mem.issue_load(3, 0x8000, 600) == mem.params.l1_hit_latency
        assert mem.poll_load(3, 600 + mem.params.l1_hit_latency) == READY

    def test_cancel_is_idempotent_and_ignores_unknown_keys(self):
        mem = MemorySystem()
        mem.cancel_load(42)
        mem.issue_load(1, 0x1000, 0)
        mem.cancel_load(1)
        mem.cancel_load(1)
        assert mem.outstanding_loads == 0

    def test_cancel_loads_from_boundary(self):
        mem = MemorySystem()
        for key in (4, 5, 6, 7, 9):
            mem.issue_load(key, 0x1000 + key * 64, 0)
        mem.cancel_loads_from(6)           # 6 itself goes, 5 stays
        assert sorted(mem._ready) == [4, 5]
        mem.cancel_loads_from(6)           # nothing left at or above
        mem.cancel_loads_from(100)
        assert sorted(mem._ready) == [4, 5]
        mem.cancel_loads_from(0)
        assert mem.outstanding_loads == 0

    def test_cancelled_fill_still_completes(self):
        """Only the reply bookkeeping is dropped: a later load to the
        squashed load's line merges with / hits on its fill."""
        mem = MemorySystem()
        mem.issue_load(0, 0x1000, 0)
        mem.cancel_loads_from(0)
        assert mem.issue_load(0, 0x1004, 1) >= 1
        assert mem.l1_mshrs.merges == 1

    def test_reset_timing_clears_keys_and_clock_state(self):
        mem = MemorySystem()
        mem.issue_load(0, 0x1000, 50)
        mem.issue_store(0x9000, 4, 50)
        mem.reset_timing()
        assert mem.outstanding_loads == 0
        assert len(mem.l1_mshrs) == 0 and len(mem.l2_mshrs) == 0
        assert mem.bus.next_free() == 0 and not mem._store_slots
        # Contents and statistics survive.
        assert mem.l1.contains(0x1000) and mem.stats.loads == 1


class TestMSHRFile:
    def test_clear_drops_inflight_keeps_counters(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x100, 10)
        mshrs.clear()
        assert len(mshrs) == 0 and mshrs.allocations == 1
        mshrs.allocate(0x100, 12)  # no duplicate: the old fill is gone

    def test_allocate_and_release(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x100, 10)
        mshrs.allocate(0x200, 20)
        assert mshrs.full
        mshrs.release_completed(15)
        assert not mshrs.full
        assert mshrs.lookup(0x100) is None
        assert mshrs.lookup(0x200) == 20

    def test_duplicate_allocation_raises(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x100, 10)
        with pytest.raises(SimulationError):
            mshrs.allocate(0x100, 12)

    def test_merge_unknown_raises(self):
        with pytest.raises(SimulationError):
            MSHRFile(2).merge(0x100)

    def test_next_slot_time(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x100, 10)
        assert mshrs.next_slot_time(5) == 10
        assert mshrs.next_slot_time(10) == 10  # released at 10

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # line selector
        st.booleans(),                            # load or store
        st.integers(min_value=1, max_value=10),   # inter-arrival cycles
    ),
    min_size=1, max_size=60,
))
def test_monotonic_time_never_breaks_memory_system(events):
    """Property: any in-order request sequence completes without error
    and every load eventually becomes ready."""
    mem = MemorySystem(tiny_params())
    now = 0
    for selector, is_load, gap in events:
        address = 0x4000 + selector * 36  # a mix of lines and offsets
        address &= ~3
        if is_load:
            ready = complete_load(mem, address, now)
            assert ready > now
            now = ready
        else:
            delay = mem.issue_store(address, 4, now)
            assert delay >= 1
            now += delay
        now += gap
