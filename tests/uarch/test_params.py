"""Tests for processor parameters (paper Table 1)."""

from dataclasses import replace

import pytest

from repro.cache.params import MemorySystemParams
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch.iq import MAX_TIMER
from repro.uarch.params import TIMED_LATENCIES, ProcessorParams
from repro.workloads.suite import load_workload


class TestR10kDefaults:
    """The r10k() configuration must match the paper's Table 1."""

    def test_decode_width(self):
        assert ProcessorParams.r10k().decode_width == 4

    def test_functional_units(self):
        params = ProcessorParams.r10k()
        assert params.int_alus == 2
        assert params.fp_units == 2
        assert params.agen_units == 1

    def test_physical_registers(self):
        params = ProcessorParams.r10k()
        assert params.phys_int_regs == 64
        assert params.phys_fp_regs == 64
        assert params.int_renames == 32
        assert params.fp_renames == 32

    def test_queues(self):
        params = ProcessorParams.r10k()
        assert params.int_queue == 16
        assert params.fp_queue == 16
        assert params.addr_queue == 16

    def test_branch_prediction(self):
        params = ProcessorParams.r10k()
        assert params.bht_entries == 512
        assert params.max_spec_branches == 4

    def test_memory_hierarchy(self):
        memory = ProcessorParams.r10k().memory
        assert memory.l1.size_bytes == 16 * 1024
        assert memory.l1.associativity == 2
        assert memory.l1.write_back is False
        assert memory.l2.size_bytes == 1024 * 1024
        assert memory.l2.associativity == 2
        assert memory.l2.write_back is True
        assert memory.l1.mshrs == 8
        assert memory.l2.mshrs == 8
        assert memory.bus_width == 8

    def test_describe_mentions_table1_facts(self):
        text = ProcessorParams.r10k().describe()
        assert "Decode 4 instructions" in text
        assert "2 integer ALUs" in text
        assert "512-entry branch history table" in text
        assert "16 KByte" in text
        assert "8 byte wide, split transaction bus" in text


class TestValidation:
    def test_too_few_physical_registers(self):
        with pytest.raises(ValueError):
            ProcessorParams(phys_int_regs=16)

    def test_iq_smaller_than_fetch_group(self):
        with pytest.raises(ValueError):
            ProcessorParams(iq_capacity=2)

    def test_narrow_variant(self):
        narrow = ProcessorParams.narrow()
        assert narrow.decode_width == 2
        assert narrow.int_alus == 1

    @pytest.mark.parametrize("name", TIMED_LATENCIES)
    def test_a_latency_the_codec_cannot_encode_is_rejected(self, name):
        """Caught when the params are built, naming the field — not by
        the configuration codec partway through a FastSim run."""
        memory = replace(MemorySystemParams(), **{name: MAX_TIMER + 1})
        with pytest.raises(ValueError, match=f"memory.{name} = 2048"):
            replace(ProcessorParams.r10k(), memory=memory)
        ok = replace(MemorySystemParams(), **{name: MAX_TIMER})
        assert replace(ProcessorParams.r10k(), memory=ok).memory == ok

    def test_a_long_memory_latency_runs_under_fastsim(self):
        params = replace(ProcessorParams.r10k(), memory=replace(
            MemorySystemParams(), memory_latency=MAX_TIMER // 2))
        exe = load_workload("compress", "tiny")
        fast = FastSim(exe, params=params).run()
        assert fast.timing_equal(SlowSim(exe, params=params).run())

    def test_frozen(self):
        with pytest.raises(Exception):
            ProcessorParams.r10k().decode_width = 8
