"""Tests for the p-action cache summary."""

import pytest

from repro.isa import assemble
from repro.memo.dump import cache_summary
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
