"""Behavioural tests for the detailed out-of-order simulator.

Run through :class:`SlowSim` (the plain driver) and assert on the
timing and statistics the pipeline produces.
"""

import pytest

from repro.branch import AlwaysTakenPredictor, NotTakenPredictor
from repro.emulator.functional import run_program
from repro.isa import assemble
from repro.sim.slowsim import SlowSim
from repro.uarch.params import ProcessorParams


def simulate(src, params=None, predictor=None):
    exe = assemble(src)
    return SlowSim(exe, params, predictor).run()


class TestBasicPipeline:
    def test_empty_program(self):
        result = simulate("main: halt")
        assert result.instructions == 1
        assert result.cycles >= 3  # fetch, issue, exec, retire

    def test_straight_line_ilp(self):
        # 8 independent adds on a 2-ALU machine: ~4 execute cycles.
        src = "\n".join(f"add %g0, {i}, %l{i}" for i in range(8)) + "\nhalt"
        result = simulate("main:\n" + src)
        assert result.instructions == 9
        assert result.cycles < 15

    def test_dependent_chain_serialises(self):
        dep = "main: mov 0, %l0\n" + "\n".join(
            ["add %l0, 1, %l0"] * 12
        ) + "\nhalt"
        indep = "main:\n" + "\n".join(
            f"add %g0, 1, %l{i % 8}" for i in range(12)
        ) + "\nhalt"
        chain = simulate(dep)
        parallel = simulate(indep)
        assert chain.cycles > parallel.cycles

    def test_long_latency_divide(self):
        no_div = simulate("main: mov 40, %l0\nmov 5, %l1\nout %l0\nhalt")
        div = simulate(
            "main: mov 40, %l0\nmov 5, %l1\nsdiv %l0, %l1, %l2\n"
            "out %l2\nhalt"
        )
        assert div.cycles - no_div.cycles >= 30  # ~34-cycle divide

    def test_output_matches_functional_execution(self):
        src = """
main:
    mov 7, %l0
    smul %l0, 6, %l1
    out %l1
    halt
"""
        result = simulate(src)
        reference = run_program(assemble(src))
        assert result.output == reference.output == [42]


class TestBranchTiming:
    LOOP = """
main:
    mov 20, %l0
loop:
    subcc %l0, 1, %l0
    bne loop
    halt
"""

    def test_misprediction_costs_cycles(self):
        good = simulate(self.LOOP, predictor=AlwaysTakenPredictor())
        bad = simulate(self.LOOP, predictor=NotTakenPredictor())
        assert bad.sim_stats.mispredictions > good.sim_stats.mispredictions
        assert bad.cycles > good.cycles

    def test_identical_instruction_counts_despite_prediction(self):
        good = simulate(self.LOOP, predictor=AlwaysTakenPredictor())
        bad = simulate(self.LOOP, predictor=NotTakenPredictor())
        assert good.instructions == bad.instructions

    def test_rollbacks_match_resolved_mispredictions(self):
        result = simulate(self.LOOP, predictor=NotTakenPredictor())
        assert result.rollbacks == result.sim_stats.mispredictions

    def test_speculation_limit_respected(self):
        # A dense run of data-dependent branches cannot speculate past 4.
        src = "main:\n mov 40, %l0\n"
        src += "loop: subcc %l0, 1, %l0\n"
        src += "".join(
            f" bne skip{i}\n nop\nskip{i}:\n" for i in range(6)
        )
        src += " tst %l0\n bne loop\n halt"
        result = simulate(src)
        assert result.instructions > 0  # completes without bQ overflow


class TestMemoryTiming:
    def test_cache_warmup_speeds_second_pass(self):
        src = """
main:
    mov 2, %l6
outer:
    set buf, %l0
    mov 32, %l1
pass:
    ld [%l0], %l2
    add %l0, 4, %l0
    subcc %l1, 1, %l1
    bne pass
    subcc %l6, 1, %l6
    bne outer
    halt
    .data
buf: .space 128
"""
        result = simulate(src)
        stats = result.cache_stats
        # First pass misses (including merges into in-flight fills),
        # second pass hits in the warmed L1.
        assert stats.l1_load_misses >= 4
        assert stats.l1_load_hits >= 28

    def test_store_then_load_program_order(self):
        src = """
main:
    set buf, %l0
    mov 123, %l1
    st %l1, [%l0]
    ld [%l0], %l2
    out %l2
    halt
    .data
buf: .space 8
"""
        result = simulate(src)
        assert result.output == [123]

    def test_load_count_includes_wrong_path(self):
        # Wrong-path loads do reach the cache simulator (§3.2): total
        # cache loads may exceed retired loads.
        src = """
main:
    set buf, %l0
    mov 20, %l2
loop:
    subcc %l2, 1, %l2
    bne loop
    ld [%l0], %l3
    halt
    .data
buf: .word 5
"""
        result = simulate(src, predictor=NotTakenPredictor())
        assert result.cache_stats.loads >= result.sim_stats.retired_loads


class TestIndirectJumps:
    def test_call_ret_sequence(self):
        src = """
main:
    mov 3, %o0
    call triple
    out %o0
    halt
triple:
    add %o0, %o0, %l0
    add %l0, %o0, %o0
    ret
"""
        result = simulate(src)
        assert result.output == [9]

    def test_jump_table(self):
        src = """
main:
    set table, %l0
    ld [%l0 + 4], %l1
    jmpl [%l1], %g0
a:  out %g0
    halt
b:  mov 77, %l2
    out %l2
    halt
    .data
table: .word a, b
"""
        result = simulate(src)
        assert result.output == [77]

    def test_indirect_jump_stalls_fetch(self):
        # A ret-dependent sequence is slower than the straight version.
        direct = simulate("main: mov 1, %l0\nout %l0\nhalt")
        indirect = simulate(
            "main: call f\nout %l0\nhalt\nf: mov 1, %l0\nret"
        )
        assert indirect.cycles > direct.cycles


class TestNarrowMachine:
    def test_narrow_is_slower(self):
        src = "main:\n" + "\n".join(
            f"add %g0, {i}, %l{i % 8}" for i in range(24)
        ) + "\nhalt"
        wide = simulate(src)
        narrow = simulate(src, params=ProcessorParams.narrow())
        assert narrow.cycles > wide.cycles

    def test_same_architectural_results(self):
        src = """
main:
    mov 6, %l0
    clr %l1
loop:
    add %l1, %l0, %l1
    subcc %l0, 1, %l0
    bne loop
    out %l1
    halt
"""
        wide = simulate(src)
        narrow = simulate(src, params=ProcessorParams.narrow())
        assert wide.output == narrow.output == [21]
        assert wide.instructions == narrow.instructions


class TestFloatingPointPipeline:
    SRC = """
main:
    set vals, %l0
    lddf [%l0], %f0
    lddf [%l0 + 8], %f1
    fmul %f0, %f1, %f2
    fadd %f2, %f0, %f3
    fdiv %f3, %f1, %f4
    fdtoi %f4, %l1
    out %l1
    halt
    .data
vals: .double 6.0, 2.0
"""

    def test_fp_program_result(self):
        result = simulate(self.SRC)
        reference = run_program(assemble(self.SRC))
        assert result.output == reference.output == [9]

    def test_fp_divide_latency_visible(self):
        no_div = self.SRC.replace("fdiv %f3, %f1, %f4", "fmov %f3, %f4")
        with_div = simulate(self.SRC)
        without = simulate(no_div)
        assert with_div.cycles > without.cycles


class TestRetireBound:
    def test_retire_width_bounds_ipc(self):
        src = "main:\n" + "\n".join(
            f"add %g0, 1, %l{i % 8}" for i in range(64)
        ) + "\nhalt"
        result = simulate(src)
        assert result.ipc <= 4.0  # retire width is the IPC ceiling


class TestSharedUnits:
    """Multiply/divide share one non-pipelined slot, as do FP
    divide/sqrt: independent operations on it run back to back."""

    @staticmethod
    def cycles(body):
        return simulate(
            "main:\nmov 40, %l0\nmov 5, %l1\n"
            "fitod %l0, %f0\nfitod %l1, %f1\n" + body + "\nhalt"
        ).cycles

    def test_independent_divides_serialise(self):
        one = self.cycles("sdiv %l0, %l1, %l2")
        two = self.cycles("sdiv %l0, %l1, %l2\nsdiv %l1, %l0, %l3")
        assert two - one >= 30  # the second waits out the first's ~34

    def test_multiply_waits_for_divide(self):
        div = self.cycles("sdiv %l0, %l1, %l2")
        both = self.cycles("sdiv %l0, %l1, %l2\nsmul %l0, %l1, %l3")
        assert both - div >= 5  # ~6-cycle multiply, not overlapped

    def test_fp_divide_and_sqrt_share_a_unit(self):
        div = self.cycles("fdiv %f0, %f1, %f2")
        both = self.cycles("fdiv %f0, %f1, %f2\nfsqrt %f0, %f3")
        assert both - div >= 15  # ~18-cycle sqrt after the divide

    def test_pipelined_units_overlap(self):
        one = self.cycles("fmul %f0, %f1, %f2")
        two = self.cycles("fmul %f0, %f1, %f2\nfmul %f1, %f0, %f3")
        assert two - one <= 1
