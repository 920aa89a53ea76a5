"""Tests for the configuration codec (encode/decode of iQ snapshots).

The decisive property: every configuration reached by real simulation
round-trips exactly — ``decode(encode(iq)) == iq`` — because fall-back
from fast-forwarding to detailed simulation reconstructs the pipeline
from nothing but the encoded bytes.
"""

import itertools

import pytest

from repro.branch import NotTakenPredictor
from repro.errors import ConfigCodecError
from repro.isa import assemble
from repro.sim.slowsim import SlowSim
from repro.uarch.config_codec import (
    config_size_bytes,
    decode_config,
    encode_config,
)
from repro.uarch.iq import IQEntry, Stage
from repro.uarch.params import ProcessorParams
from repro.uarch.trace import copy_entry

PROGRAM = """
main:
    set buf, %l0
    mov 12, %l1
    clr %l2
fill:
    st %l2, [%l0 + %l2]
    add %l2, 4, %l2
    subcc %l1, 1, %l1
    bne fill
    mov 12, %l1
    clr %l2
    clr %l3
sum:
    ld [%l0 + %l2], %l4
    add %l3, %l4, %l3
    add %l2, 4, %l2
    subcc %l1, 1, %l1
    bne sum
    call emit
    halt
emit:
    out %l3
    ret
    .data
buf: .space 64
"""


def harvest_configs(src, predictor=None, limit=3000):
    """Run SlowSim for at most *limit* cycles, encoding the state at
    every cycle boundary; returns (executable, list of (blob, snapshot))."""
    exe = assemble(src)
    slowsim = SlowSim(exe, ProcessorParams.r10k(), predictor)
    sim = slowsim.simulator
    configs = []
    for _ in itertools.islice(slowsim.cycles(), limit):
        state = ([copy_entry(e) for e in sim.iq.entries], sim.fetch_pc,
                 sim.fetch_stalled, sim.fetch_halted)
        configs.append((encode_config(*state), state))
    return exe, configs


class TestRoundTripOnRealStates:
    @pytest.mark.parametrize("predictor_factory", [None, NotTakenPredictor],
                             ids=["bimodal", "not-taken"])
    def test_every_cycle_boundary_round_trips(self, predictor_factory):
        predictor = predictor_factory() if predictor_factory else None
        exe, configs = harvest_configs(PROGRAM, predictor)
        assert len(configs) > 20
        for blob, state in configs:
            assert decode_config(blob, exe) == state

    def test_reencode_is_identity(self):
        exe, configs = harvest_configs(PROGRAM)
        for blob, _ in configs:
            entries, pc, stalled, halted = decode_config(blob, exe)
            assert encode_config(entries, pc, stalled, halted) == blob

    def test_distinct_states_encode_distinctly(self):
        exe, configs = harvest_configs(PROGRAM)
        by_blob = {}
        for blob, snapshot in configs:
            if blob in by_blob:
                previous = by_blob[blob]
                assert previous[0] == snapshot[0]  # same iQ contents
            else:
                by_blob[blob] = snapshot

    def test_loops_revisit_configurations(self):
        """The premise of memoization: configurations repeat."""
        src = """
main:
    mov 200, %l0
loop:
    subcc %l0, 1, %l0
    bne loop
    halt
"""
        _, configs = harvest_configs(src)
        blobs = [blob for blob, _ in configs]
        assert len(set(blobs)) < len(blobs) / 3  # heavy reuse


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_round_trip_on_fuzzed_programs(seed):
    """Random programs exercise codec paths (calls, mixed stages,
    squashed branches) beyond the handcrafted PROGRAM."""
    from repro.workloads.fuzz import random_program

    source = random_program(seed, iterations=8)
    exe, configs = harvest_configs(source)
    assert configs
    for blob, state in configs:
        assert decode_config(blob, exe) == state


class TestEncodedSize:
    def test_size_matches_paper_formula(self):
        """~16 bytes header + 2 bytes/instruction + 4 per indirect."""
        exe, configs = harvest_configs(PROGRAM)
        for blob, (entries, _, _, _) in configs:
            indirects = sum(1 for e in entries if e.is_indirect)
            expected = 16 + 2 * len(entries) + 4 * indirects
            assert config_size_bytes(blob) == expected

    def test_empty_config(self):
        blob = encode_config([], 0x10000, False, False)
        assert config_size_bytes(blob) == 16


class TestCodecErrors:
    def test_truncated_blob(self):
        with pytest.raises(ConfigCodecError):
            decode_config(b"\x00\x05", assemble("main: halt"))

    def test_trailing_garbage(self):
        blob = encode_config([], 0x10000, False, False) + b"xx"
        with pytest.raises(ConfigCodecError):
            decode_config(blob, assemble("main: halt"))

    def test_timer_out_of_range(self):
        exe = assemble("main: halt")
        entry = IQEntry(exe.instruction_at(exe.entry), Stage.EXEC,
                        timer=5000)
        with pytest.raises(ConfigCodecError):
            encode_config([entry], None, False, True)

    def test_indirect_without_target(self):
        exe = assemble("main: jmpl [%ra], %g0")
        entry = IQEntry(exe.instruction_at(exe.entry), Stage.QUEUE)
        with pytest.raises(ConfigCodecError):
            encode_config([entry], None, True, False)
