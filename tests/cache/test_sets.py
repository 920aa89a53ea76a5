"""Tests for the set-associative tag array."""

import pytest

from repro.cache import sets as sets_module
from repro.cache.params import CacheLevelParams
from repro.cache.sets import TagArray


def small_cache(assoc=2, sets=4, line=32):
    return TagArray(
        CacheLevelParams("T", size_bytes=assoc * sets * line,
                         associativity=assoc, line_size=line)
    )


class TestProbeAndFill:
    def test_cold_miss_then_hit(self):
        tags = small_cache()
        assert tags.probe(0x1000) is False
        tags.fill(0x1000)
        assert tags.probe(0x1000) is True

    def test_line_granularity(self):
        tags = small_cache(line=32)
        tags.fill(0x1000)
        assert tags.probe(0x101F) is True   # same 32B line
        assert tags.probe(0x1020) is False  # next line

    def test_line_address(self):
        tags = small_cache(line=32)
        assert tags.line_address(0x1234) == 0x1220

    def test_stats_count(self):
        tags = small_cache()
        tags.probe(0)
        tags.fill(0)
        tags.probe(0)
        assert tags.hits == 1
        assert tags.misses == 1
        assert tags.accesses == 2


class TestLru:
    def test_lru_eviction_order(self):
        tags = small_cache(assoc=2, sets=1, line=32)
        tags.fill(0x0)     # way A
        tags.fill(0x20)    # way B
        tags.probe(0x0)    # A now MRU
        evicted = tags.fill(0x40)
        assert evicted == (0x20, False)  # B was LRU
        assert tags.probe(0x0) is True
        assert tags.probe(0x20) is False

    def test_refill_refreshes_lru(self):
        tags = small_cache(assoc=2, sets=1, line=32)
        tags.fill(0x0)
        tags.fill(0x20)
        tags.fill(0x0)  # refresh, no eviction
        evicted = tags.fill(0x40)
        assert evicted[0] == 0x20

    def test_sets_are_independent(self):
        tags = small_cache(assoc=2, sets=4, line=32)
        # Lines mapping to set 0: stride = sets * line = 128.
        tags.fill(0x000)
        tags.fill(0x080)
        tags.fill(0x100)  # evicts 0x000 from set 0
        assert tags.probe(0x020) is False  # set 1 untouched (miss counts)
        assert tags.contains(0x080)
        assert not tags.contains(0x000)


class TestDirty:
    def test_dirty_eviction_reported(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0, dirty=True)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)

    def test_set_dirty(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0)
        tags.set_dirty(0x4)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)

    def test_refill_keeps_dirty(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0, dirty=True)
        tags.fill(0x0, dirty=False)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)


class TestInvalidate:
    def test_invalidate_present(self):
        tags = small_cache()
        tags.fill(0x1000)
        assert tags.invalidate(0x1000) is True
        assert tags.contains(0x1000) is False

    def test_invalidate_absent(self):
        assert small_cache().invalidate(0x1000) is False


class TestLazySets:
    """Sets materialise on first touch; an untouched set behaves as
    the all-invalid set it is."""

    @pytest.fixture
    def ways_built(self, monkeypatch):
        built = []

        class CountingWay(sets_module._Way):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(sets_module, "_Way", CountingWay)
        return built

    def test_construction_allocates_no_ways(self, ways_built):
        tags = small_cache(assoc=2, sets=1024)
        assert ways_built == []
        tags.fill(0x1000)
        assert len(ways_built) == 2     # one set, not 1024

    def test_untouched_set_is_all_invalid(self):
        tags = small_cache(assoc=2, sets=4, line=32)
        tags.fill(0x000)                        # set 0 only
        assert tags.contains(0x020) is False    # set 1
        assert tags.probe(0x040) is False       # set 2
        assert tags.probe_line(0x040) is None
        assert tags.invalidate(0x060) is False  # set 3
        tags.set_dirty(0x060)                   # no line to mark
        assert (tags.hits, tags.misses, tags.evictions) == (0, 2, 0)
        # Fresh ways are free: filling a set to its associativity
        # evicts nothing, the next fill evicts the LRU line, clean.
        assert tags.fill(0x020) is None
        assert tags.fill(0x0A0) is None
        assert tags.fill(0x120) == (0x020, False)
        assert tags.contains(0x000)


class TestParamValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            CacheLevelParams("X", size_bytes=100, associativity=2,
                             line_size=32)

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            CacheLevelParams("X", size_bytes=960, associativity=2,
                             line_size=30)

    def test_num_sets(self):
        params = CacheLevelParams("X", size_bytes=16 * 1024,
                                  associativity=2, line_size=32)
        assert params.num_sets == 256
