"""Tests for the p-action cache inspector."""

import pytest

from repro.isa import assemble
from repro.memo.actions import ConfigNode
from repro.memo.dump import cache_summary, describe_node, dump_chain
from repro.sim.fastsim import FastSim

PROGRAM = """
main:
    set buf, %l0
    mov 20, %l1
loop:
    ld [%l0], %l2
    st %l2, [%l0 + 4]
    subcc %l1, 1, %l1
    bne loop
    out %l2
    halt
    .data
buf: .word 9
    .space 12
"""


@pytest.fixture(scope="module")
def populated():
    exe = assemble(PROGRAM)
    simulator = FastSim(exe)
    simulator.run()
    return exe, simulator.pcache


class TestDumpChain:
    def test_renders_from_root(self, populated):
        exe, cache = populated
        root = next(iter(cache.index.values()))
        text = dump_chain(root, exe)
        assert "Config" in text
        assert "cycles" in text or "Retire" in text

    def test_shows_outcome_edges(self, populated):
        exe, cache = populated
        # Find a node with at least one outcome edge.
        target = None
        for node in cache.reachable_nodes():
            if node.is_outcome and node.edges:
                target = node
                break
        assert target is not None
        config = ConfigNode(b"\x00" * 12, 16)
        config.next = None
        text = dump_chain(next(iter(cache.index.values())), exe,
                          max_nodes=200)
        assert "= " in text  # at least one edge listed

    def test_budget_limits_output(self, populated):
        exe, cache = populated
        root = next(iter(cache.index.values()))
        short = dump_chain(root, exe, max_nodes=3)
        long = dump_chain(root, exe, max_nodes=100)
        assert len(short.splitlines()) <= len(long.splitlines())

    def test_decodes_config_detail(self, populated):
        exe, cache = populated
        # Pick a config with instructions in flight.
        for blob, node in cache.index.items():
            if blob[1] > 0:  # n_entries header byte
                text = dump_chain(node, exe, max_nodes=1)
                assert "instructions" in text
                break

    def test_works_without_executable(self, populated):
        _, cache = populated
        root = next(iter(cache.index.values()))
        text = dump_chain(root, None, max_nodes=5)
        assert "Config" in text


class TestDescribeNode:
    def test_all_node_kinds_describable(self, populated):
        _, cache = populated
        for node in cache.reachable_nodes():
            text = describe_node(node)
            assert isinstance(text, str) and text

    def test_retire_description(self):
        from repro.memo.actions import RetireNode
        from repro.uarch.interactions import Retire

        node = RetireNode(Retire(4, loads=1, stores=2, controls=1,
                                 branches=1))
        text = describe_node(node)
        assert "Retire 4" in text
        assert "1 loads" in text


class TestCacheSummary:
    def test_summary_counts(self, populated):
        _, cache = populated
        text = cache_summary(cache)
        assert f"configs allocated      : {cache.configs_allocated}" in text
        assert "node mix:" in text
        assert "RetireNode" in text

    def test_summary_on_empty_cache(self):
        from repro.memo.pcache import PActionCache

        text = cache_summary(PActionCache())
        assert "configurations indexed : 0" in text
