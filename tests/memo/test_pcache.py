"""Unit tests for the p-action cache graph structure."""

import pytest

from repro.errors import MemoizationError
from repro.memo.actions import (
    ACTION_BYTES,
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EDGE_BYTES,
    EndNode,
    LoadIssueNode,
    RetireNode,
)
from repro.memo.pcache import PActionCache
from repro.uarch.interactions import Retire


def make_blob(tag: int) -> bytes:
    return bytes([0, 1, tag & 0xFF, 0, 0, 0]) + bytes(6)


class TestAllocation:
    def test_alloc_config_indexes(self):
        cache = PActionCache()
        blob = make_blob(1)
        node = cache.alloc_config(blob)
        assert cache.lookup(blob) is node
        assert cache.configs_allocated == 1

    def test_duplicate_config_raises(self):
        cache = PActionCache()
        cache.alloc_config(make_blob(1))
        with pytest.raises(MemoizationError):
            cache.alloc_config(make_blob(1))

    def test_lookup_miss(self):
        assert PActionCache().lookup(make_blob(9)) is None

    def test_action_accounting(self):
        cache = PActionCache()
        cache.alloc_action(AdvanceNode(3))
        assert cache.actions_allocated == 1
        assert cache.bytes_used == ACTION_BYTES

    def test_peak_tracking(self):
        cache = PActionCache()
        cache.alloc_action(AdvanceNode(1))
        peak = cache.peak_bytes
        cache.clear()
        assert cache.bytes_used == 0
        assert cache.peak_bytes == peak


class TestAttachment:
    def test_linear_chain(self):
        cache = PActionCache()
        config = cache.alloc_config(make_blob(1))
        advance = cache.alloc_action(AdvanceNode(2))
        retire = cache.alloc_action(RetireNode(Retire(1, 0, 0, 0, 0)))
        cache.attach((config, None), advance)
        cache.attach((advance, None), retire)
        assert config.next is advance
        assert advance.next is retire

    def test_outcome_edges(self):
        cache = PActionCache()
        node = cache.alloc_action(LoadIssueNode(0))
        hit = cache.alloc_action(AdvanceNode(1))
        miss = cache.alloc_action(AdvanceNode(6))
        cache.attach((node, 1), hit)
        cache.attach((node, 6), miss)
        assert node.edges[1] is hit
        assert node.edges[6] is miss

    def test_extra_edge_costs_bytes(self):
        cache = PActionCache()
        node = cache.alloc_action(LoadIssueNode(0))
        base = cache.bytes_used
        cache.attach((node, 1), cache.alloc_action(EndNode(0)))
        first_edge = cache.bytes_used - base
        cache.attach((node, 6), cache.alloc_action(EndNode(0)))
        second_edge = cache.bytes_used - base - first_edge
        assert second_edge == ACTION_BYTES + EDGE_BYTES

    def test_attach_none_is_noop(self):
        cache = PActionCache()
        cache.attach(None, AdvanceNode(1))  # must not raise

    def test_edge_on_plain_node_rejected(self):
        cache = PActionCache()
        advance = cache.alloc_action(AdvanceNode(1))
        with pytest.raises(MemoizationError):
            cache.attach((advance, 5), AdvanceNode(1))

    def test_next_on_outcome_node_rejected(self):
        cache = PActionCache()
        control = cache.alloc_action(ControlNode())
        with pytest.raises(MemoizationError):
            cache.attach((control, None), AdvanceNode(1))


class TestTraversal:
    def build_small_graph(self):
        cache = PActionCache()
        config = cache.alloc_config(make_blob(1))
        load = cache.alloc_action(LoadIssueNode(0))
        cache.attach((config, None), load)
        for key in (1, 6):
            cache.attach((load, key), cache.alloc_action(AdvanceNode(key)))
        return cache

    def test_reachable_nodes(self):
        cache = self.build_small_graph()
        kinds = sorted(type(n).__name__ for n in cache.reachable_nodes())
        assert kinds == ["AdvanceNode", "AdvanceNode", "ConfigNode",
                         "LoadIssueNode"]

    def test_measure_matches_accounting(self):
        cache = self.build_small_graph()
        assert cache._measure() == cache.bytes_used

    def test_measure_counts_shared_suffix_once(self):
        # Two configurations converging on one suffix: _measure must
        # agree with a reachable_nodes walk (each node counted once,
        # not once per path into it).
        cache = PActionCache()
        first = cache.alloc_config(make_blob(1))
        second = cache.alloc_config(make_blob(2))
        shared = cache.alloc_action(AdvanceNode(2))
        tail = cache.alloc_action(EndNode(1))
        cache.attach((first, None), shared)
        cache.attach((second, None), shared)
        cache.attach((shared, None), tail)
        walked = sum(n.size_bytes() for n in cache.reachable_nodes())
        assert cache._measure() == walked
        assert walked == (first.size_bytes() + second.size_bytes()
                          + shared.size_bytes() + tail.size_bytes())

    def test_touch_clock_advances(self):
        cache = PActionCache()
        node = cache.alloc_config(make_blob(1))
        first = node.touch_gen
        cache.lookup(make_blob(1))
        assert node.touch_gen > first
